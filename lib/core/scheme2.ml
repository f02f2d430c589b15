(** Example Scheme 2 (paper §8.2): the self-distinction instantiation

    {[ GCD (Kiayias–Yung traceable signatures, common-T7 variant)
           (LKH) (Burmester–Desmedt) ]}

    The single deviation from the plain compiler is Phase III: every
    participant's group signature uses the {e same} base
    [T7 = H(session id)] mapped into QR(n), so each participant is forced
    to expose [T6 = T7^{x'}] — a deterministic function of its secret for
    this session.  Distinct members produce distinct T6 values; a rogue
    member playing several session positions repeats its T6 and both
    clones are ejected from the partner set, which breaks acceptance.
    Across sessions T7 changes, so T6 values remain unlinkable
    (Theorem 3: correctness, impersonation/detection resistance,
    unlinkability, indistinguishability, no-misattribution, traceability,
    and self-distinction). *)

include Gcd.Make (Kty) (Lkh) (Bd)

let t7_base ~gpub ~sid = Kty.base_of_bytes gpub ("shs-sd-base" ^ sid)

(* Phase III hooks: common-base signing, base-pinned verification, and the
   T6 distinctness filter. *)
let sd_hooks ~gpub =
  { h_sign =
      (fun ~rng mem ~sid ~msg ->
        Kty.sign_with_base ~rng mem ~msg ~base:(t7_base ~gpub ~sid));
    h_verify =
      (fun mem ~sid ~msg sigma ->
        Kty.verify_with_base mem ~msg ~base:(t7_base ~gpub ~sid) sigma);
    h_filter =
      (fun ~sid:_ ~gpub (verified : (int * string) list) ->
        (* eject every index whose T6 collides with another index's T6 *)
        let tagged =
          List.filter_map
            (fun (i, sigma) ->
              Option.map (fun (t6, _) -> (i, t6)) (Kty.t6_t7 gpub sigma))
            verified
        in
        List.filter_map
          (fun (i, t6) ->
            let clones =
              List.filter (fun (j, t6') -> j <> i && Bigint.equal t6 t6') tagged
            in
            if clones = [] then Some i else None)
          tagged);
  }

(** Run a handshake session with the self-distinction hooks installed.
    [gpub] must be the group public key of the (expected) common group —
    participants of other groups simply fail Phase II as usual. *)
let run_session_sd ?faults ?watchdog ?adversary ?latency ?allow_partial ~gpub
    ~fmt participants =
  run_session ?faults ?watchdog ?adversary ?latency ?allow_partial
    ~hooks:(sd_hooks ~gpub) ~fmt participants

let default_authority ~rng ?(capacity = 64) () =
  create_group ~rng
    ~modulus:(Lazy.force Params.rsa_512)
    ~dl_group:(Lazy.force Params.schnorr_512)
    ~capacity

let default_format ga =
  format_of_public ~dl_group:(Lazy.force Params.schnorr_512) (group_public ga)
