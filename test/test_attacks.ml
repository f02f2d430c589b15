(* Executable versions of the paper's Appendix A security experiments,
   plus the §3 design-space attack (dropping GSIG revocation) and the
   §8.2 self-distinction attack, run against the concrete instantiations.

   These are concrete adversaries, not reductions: each test implements
   the strongest strategy expressible against the real protocol surface
   and checks that it fails (or, for the negative controls, succeeds). *)

let rng_of i = Drbg.bytes_fn (Drbg.of_int_seed i)

module W1 = World.Make (Scheme_sig.Scheme1)

let outcome (r : Gcd_types.session_result) i =
  match r.Gcd_types.outcomes.(i) with
  | Some o -> o
  | None -> Alcotest.fail "no outcome"

(* ------------------------------------------------------------------ *)
(* Resistance to impersonation (experiment RIA)                        *)
(* ------------------------------------------------------------------ *)

let test_ria_protocol_honest_outsider () =
  (* the adversary follows the protocol but holds no credentials *)
  let w = W1.create 300 in
  let _ = W1.populate w [ "a"; "b" ] in
  let parts =
    [| Scheme_sig.Scheme1.participant_of_member (W1.member w "a");
       Scheme_sig.Scheme1.participant_of_member (W1.member w "b");
       Scheme_sig.Scheme1.outsider ~rng:(rng_of 3001) |]
  in
  let r = Scheme_sig.Scheme1.run_session ~fmt:(W1.fmt w) parts in
  Alcotest.(check bool) "a never accepts the outsider" false
    (List.mem 2 (outcome r 0).Gcd_types.partners);
  Alcotest.(check bool) "b never accepts the outsider" false
    (List.mem 2 (outcome r 1).Gcd_types.partners)

let test_ria_multi_role_outsider () =
  (* "this remains true even if A plays the roles of multiple
     participants": the outsider occupies two session positions *)
  let w = W1.create 301 in
  let _ = W1.populate w [ "a"; "b" ] in
  let adv_rng = rng_of 3011 in
  let parts =
    [| Scheme_sig.Scheme1.participant_of_member (W1.member w "a");
       Scheme_sig.Scheme1.outsider ~rng:adv_rng;
       Scheme_sig.Scheme1.participant_of_member (W1.member w "b");
       Scheme_sig.Scheme1.outsider ~rng:adv_rng |]
  in
  let r = Scheme_sig.Scheme1.run_session ~fmt:(W1.fmt w) parts in
  let p = (outcome r 0).Gcd_types.partners in
  Alcotest.(check (list int)) "only the two real members pair" [ 0; 2 ] p

let test_ria_mac_copy_attack () =
  (* the adversary substitutes its own Phase II tag with a copy of an
     honest member's tag; position binding in MAC(k', sid, i) defeats it *)
  let w = W1.create 302 in
  let _ = W1.populate w [ "a"; "b" ] in
  let captured = ref None in
  let adversary ~src ~dst:_ ~payload =
    (match Wire.decode payload with
     | Some ("hs2", [ mac ]) when src = 0 && !captured = None ->
       captured := Some mac
     | _ -> ());
    match Wire.decode payload with
    | Some ("hs2", _) when src = 2 ->
      (match !captured with
       | Some mac -> Engine.Replace (Wire.encode ~tag:"hs2" [ mac ])
       | None -> Engine.Deliver)
    | _ -> Engine.Deliver
  in
  let parts =
    [| Scheme_sig.Scheme1.participant_of_member (W1.member w "a");
       Scheme_sig.Scheme1.participant_of_member (W1.member w "b");
       Scheme_sig.Scheme1.outsider ~rng:(rng_of 3021) |]
  in
  let r = Scheme_sig.Scheme1.run_session ~adversary ~fmt:(W1.fmt w) parts in
  Alcotest.(check bool) "copied tag rejected" false
    (List.mem 2 (outcome r 0).Gcd_types.partners)

let test_ria_cross_session_replay () =
  (* tags and phase-3 values replayed from an earlier session are useless:
     k' involves the fresh DGKA key *)
  let w = W1.create 303 in
  let _ = W1.populate w [ "a"; "b"; "c" ] in
  (* session 1: record c's messages *)
  let recorded = ref [] in
  let tap ~src ~dst:_ ~payload =
    if src = 2 then begin
      match Wire.decode payload with
      | Some (("hs2" | "hs3"), _) ->
        if not (List.mem payload !recorded) then recorded := !recorded @ [ payload ];
        Engine.Deliver
      | _ -> Engine.Deliver
    end
    else Engine.Deliver
  in
  let r1 = W1.handshake ~adversary:tap w [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "session 1 succeeds" true (outcome r1 0).Gcd_types.accepted;
  Alcotest.(check int) "captured c's two messages" 2 (List.length !recorded);
  (* session 2: the outsider's hs2/hs3 are replaced by c's recorded ones *)
  let replay = Array.of_list !recorded in
  let adversary ~src ~dst:_ ~payload =
    if src = 2 then begin
      match Wire.decode payload with
      | Some ("hs2", _) -> Engine.Replace replay.(0)
      | Some ("hs3", _) -> Engine.Replace replay.(1)
      | _ -> Engine.Deliver
    end
    else Engine.Deliver
  in
  let parts =
    [| Scheme_sig.Scheme1.participant_of_member (W1.member w "a");
       Scheme_sig.Scheme1.participant_of_member (W1.member w "b");
       Scheme_sig.Scheme1.outsider ~rng:(rng_of 3031) |]
  in
  let r2 = Scheme_sig.Scheme1.run_session ~adversary ~fmt:(W1.fmt w) parts in
  Alcotest.(check bool) "replayed credentials rejected" false
    (List.mem 2 (outcome r2 0).Gcd_types.partners)

(* ------------------------------------------------------------------ *)
(* Resistance to detection / indistinguishability (RDA, INDeav)        *)
(* ------------------------------------------------------------------ *)

(* Record the wire view (per copy: link, tag and field lengths — what an
   eavesdropper's distinguisher gets before cryptanalysis).  [drop =
   (src, dst, tag)] also drops that link's first copy of that tag. *)
let wire_shape ?drop () =
  let log = ref [] in
  let dropped = ref false in
  let tap ~src ~dst ~payload =
    let tag, lens =
      match Wire.decode payload with
      | Some (tag, fields) -> (tag, List.map String.length fields)
      | None -> ("?", [ String.length payload ])
    in
    log := ((src, dst), tag, lens) :: !log;
    match drop with
    | Some (s, d, t) when (not !dropped) && s = src && d = dst && t = tag ->
      dropped := true;
      Engine.Drop
    | Some _ | None -> Engine.Deliver
  in
  (tap, log)

let shape_of log = List.rev !log

let shape = Alcotest.(list (triple (pair int int) string (list int)))

let test_detection_resistance_shape () =
  (* the adversary's wire view of (i) a real handshake between members
     facing it and (ii) pure simulators (outsiders) is shape-identical *)
  let w = W1.create 304 in
  let _ = W1.populate w [ "a"; "b" ] in
  let tap1, log1 = wire_shape () in
  let parts_real =
    [| Scheme_sig.Scheme1.participant_of_member (W1.member w "a");
       Scheme_sig.Scheme1.participant_of_member (W1.member w "b");
       Scheme_sig.Scheme1.outsider ~rng:(rng_of 3041) |]
  in
  let _ =
    Scheme_sig.Scheme1.run_session ~adversary:tap1 ~allow_partial:false
      ~fmt:(W1.fmt w) parts_real
  in
  let tap2, log2 = wire_shape () in
  let parts_sim =
    [| Scheme_sig.Scheme1.outsider ~rng:(rng_of 3042);
       Scheme_sig.Scheme1.outsider ~rng:(rng_of 3043);
       Scheme_sig.Scheme1.outsider ~rng:(rng_of 3044) |]
  in
  let _ =
    Scheme_sig.Scheme1.run_session ~adversary:tap2 ~allow_partial:false
      ~fmt:(W1.fmt w) parts_sim
  in
  Alcotest.check shape "wire shapes equal" (shape_of log1) (shape_of log2)

let test_eavesdropper_indistinguishability () =
  (* success vs failure: identical wire shape *)
  let w = W1.create 305 in
  let _ = W1.populate w [ "a"; "b"; "c" ] in
  let tap1, log1 = wire_shape () in
  let r_ok = W1.handshake ~adversary:tap1 w [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "succeeded" true (outcome r_ok 0).Gcd_types.accepted;
  let tap2, log2 = wire_shape () in
  let parts =
    [| Scheme_sig.Scheme1.participant_of_member (W1.member w "a");
       Scheme_sig.Scheme1.participant_of_member (W1.member w "b");
       Scheme_sig.Scheme1.outsider ~rng:(rng_of 3051) |]
  in
  let _ =
    Scheme_sig.Scheme1.run_session ~adversary:tap2 ~allow_partial:false
      ~fmt:(W1.fmt w) parts
  in
  Alcotest.check shape "success and failure shapes equal" (shape_of log1)
    (shape_of log2)

(* §7's indistinguishable abort covers the linger: seat 0's Phase III
   copy to seat 1 is lost, seat 1 retransmits, and the finished seat 0
   answers it once.  The answer reads the trigger and seat 0's own
   frames, never its outcome, so the wire shows the same thing whether
   every seat is a member (seat 0 Complete), an outsider sits at seat 2
   (seat 0 Partial) or seat 0 is the outsider (seat 0 Aborted). *)
let test_linger_shape () =
  let w = W1.create 307 in
  let _ = W1.populate w [ "a"; "b"; "c" ] in
  let member uid = Scheme_sig.Scheme1.participant_of_member (W1.member w uid) in
  let lingering parts =
    let answers = Obs.counter "gcd.linger_answers" in
    let before = Obs.value answers in
    let tap, log = wire_shape ~drop:(0, 1, "hs3") () in
    let r =
      Scheme_sig.Scheme1.run_session ~adversary:tap
        ~watchdog:Gcd_types.default_watchdog ~fmt:(W1.fmt w) parts
    in
    Alcotest.(check int) "seat 0 answered once" 1 (Obs.value answers - before);
    (r, shape_of log)
  in
  let r, members = lingering [| member "a"; member "b"; member "c" |] in
  Alcotest.(check bool) "the answer repaired seat 1" true
    ((outcome r 1).Gcd_types.termination = Gcd_types.Complete);
  Alcotest.(check int) "seat 0's Phase III went to seat 1 twice" 2
    (List.length (List.filter (fun (l, t, _) -> l = (0, 1) && t = "hs3") members));
  let _, outsider_peer =
    lingering [| member "a"; member "b"; Scheme_sig.Scheme1.outsider ~rng:(rng_of 3071) |]
  in
  let _, outsider_lingers =
    lingering [| Scheme_sig.Scheme1.outsider ~rng:(rng_of 3072); member "b"; member "c" |]
  in
  Alcotest.check shape "outsider at seat 2" members outsider_peer;
  Alcotest.check shape "lingering seat is the outsider" members outsider_lingers

(* A replayer draws at most one answer per peer out of a finished seat:
   a tap captures seat 1's bd1 to seat 0, and once the session is over
   it is replayed into seat 0 ten times. *)
let test_linger_answers_once () =
  let ga = Scheme1.default_authority ~rng:(rng_of 308) () in
  let admit uid seed =
    Option.get (Scheme1.admit ga ~uid ~member_rng:(rng_of seed))
  in
  let a, _ = admit "a" 3081 in
  let b, upd_b = admit "b" 3082 in
  let c, upd_c = admit "c" 3083 in
  assert (Scheme1.update a upd_b && Scheme1.update a upd_c && Scheme1.update b upd_c);
  let d =
    Scheme1.engine_driver ~fmt:(Scheme1.default_format ga)
      (Array.map Scheme1.participant_of_member [| a; b; c |])
  in
  let stale = ref None in
  let tap ~src ~dst ~payload =
    (match Wire.decode payload with
     | Some ("bd1", _) when src = 1 && dst = 0 && Option.is_none !stale ->
       stale := Some payload
     | Some _ | None -> ());
    Engine.Deliver
  in
  let engine = Shs_engine.create () in
  ignore (Shs_engine.submit engine ~adversary:tap (fun () -> d));
  Shs_engine.run engine;
  Alcotest.(check bool) "seat 0 finished" true
    (Option.is_some (d.Gcd_types.dr_outcome 0));
  let answers = Obs.counter "gcd.linger_answers" in
  let stale_count = Obs.counter "gcd.rejected.stale" in
  let before = Obs.value answers and before_stale = Obs.value stale_count in
  let replies =
    List.init 10 (fun _ ->
        d.Gcd_types.dr_receive 0 ~src:1 ~payload:(Option.get !stale))
  in
  let tags msgs =
    List.map
      (fun (dst, p) ->
        (dst, match Wire.decode p with Some (t, _) -> t | None -> "?"))
      msgs
  in
  Alcotest.(check (list (list (pair (option int) string))))
    "one answer, point to point: seat 0's tag and Phase III pair"
    ([ (Some 1, "hs2"); (Some 1, "hs3") ] :: List.init 9 (fun _ -> []))
    (List.map tags replies);
  Alcotest.(check int) "gcd.linger_answers" 1 (Obs.value answers - before);
  Alcotest.(check int) "every replay counted stale" 10
    (Obs.value stale_count - before_stale)

(* ------------------------------------------------------------------ *)
(* Unlinkability                                                       *)
(* ------------------------------------------------------------------ *)

let shared_windows a b ~w =
  (* do strings a and b share any w-byte aligned-in-a window? *)
  let found = ref false in
  for i = 0 to (String.length a / w) - 1 do
    let chunk = String.sub a (i * w) w in
    let rec search from =
      if from + w <= String.length b then begin
        if String.sub b from w = chunk then found := true else search (from + 1)
      end
    in
    if not !found then search 0
  done;
  !found

let test_unlinkability_across_sessions () =
  (* an insider (member "mallory") participates in two handshakes with
     the same honest member "alice"; alice's wire contributions across
     the two sessions must share no 16-byte window (tags, ciphertexts
     and MACs are all freshly randomized) *)
  let w = W1.create 306 in
  let _ = W1.populate w [ "alice"; "mallory"; "bob" ] in
  let record () =
    let acc = ref [] in
    let tap ~src ~dst:_ ~payload =
      if src = 0 then acc := payload :: !acc;
      Engine.Deliver
    in
    (tap, acc)
  in
  (* three parties: in a 2-party Burmester–Desmedt run the second-round
     value is the constant 1 (a structural, identity-free artifact) which
     would trip the shared-window check spuriously *)
  let tap1, acc1 = record () in
  let r1 = W1.handshake ~adversary:tap1 w [ "alice"; "mallory"; "bob" ] in
  let tap2, acc2 = record () in
  let r2 = W1.handshake ~adversary:tap2 w [ "alice"; "mallory"; "bob" ] in
  Alcotest.(check bool) "both succeed" true
    ((outcome r1 0).Gcd_types.accepted && (outcome r2 0).Gcd_types.accepted);
  let v1 = String.concat "" !acc1 and v2 = String.concat "" !acc2 in
  Alcotest.(check bool) "sessions share no 16-byte window" false
    (shared_windows v1 v2 ~w:16);
  (* and the session keys are fresh *)
  let k1 = Option.get (outcome r1 0).Gcd_types.session_key in
  let k2 = Option.get (outcome r2 0).Gcd_types.session_key in
  Alcotest.(check bool) "fresh keys" true (k1 <> k2)

(* §9 "many groups" point: a member of group A eavesdropping on a group-B
   handshake sees traffic with exactly the shape of its own group's
   handshakes — group identity does not leak on the wire, so with many
   groups in the system an observer cannot even tell WHICH group shook
   hands. *)
let test_cross_group_shape () =
  let wa = W1.create 314 and wb = W1.create 315 in
  let _ = W1.populate wa [ "a1"; "a2"; "a3" ] in
  let _ = W1.populate wb [ "b1"; "b2"; "b3" ] in
  let tap1, log1 = wire_shape () in
  let _ = W1.handshake ~adversary:tap1 wa [ "a1"; "a2"; "a3" ] in
  let tap2, log2 = wire_shape () in
  let _ = W1.handshake ~adversary:tap2 wb [ "b1"; "b2"; "b3" ] in
  Alcotest.check shape
    "group A and group B handshakes have identical wire shape"
    (shape_of log1) (shape_of log2)

(* The Theorem 1 vs Theorem 2/3 distinction, concretely: ACJT-based
   Scheme 1 promises FULL-unlinkability (sessions stay unlinkable even
   after the member is corrupted), while KTY-based Scheme 2 only promises
   unlinkability (a corrupted member's tracing trapdoor x links its own
   past signatures via T4 = T5^x).  Both directions are demonstrated. *)
let test_corruption_linkage_kty_vs_acjt () =
  (* KTY side: an insider (mallory) keeps the decrypted group signatures
     of two sessions involving alice; corrupting alice later yields her
     x, which links both signatures *)
  let ga2 = Scheme2.default_authority ~rng:(rng_of 320) () in
  let a2, _ = Option.get (Scheme2.admit ga2 ~uid:"alice" ~member_rng:(rng_of 3201)) in
  let m2, upd = Option.get (Scheme2.admit ga2 ~uid:"mallory" ~member_rng:(rng_of 3202)) in
  assert (Scheme2.update a2 upd);
  let fmt2 = Scheme2.default_format ga2 in
  let pub2 = Scheme2.group_public ga2 in
  let session () =
    let r =
      Scheme2.run_session ~fmt:fmt2
        [| Scheme2.participant_of_member a2; Scheme2.participant_of_member m2 |]
    in
    match r.Gcd_types.outcomes.(1) with
    | Some o when o.Gcd_types.accepted ->
      (* mallory's insider view: k' opens alice's theta *)
      let theta, _ = o.Gcd_types.transcript.(0) in
      (o, theta)
    | _ -> Alcotest.fail "session failed"
  in
  let o1, theta1 = session () in
  let _o2, theta2 = session () in
  ignore o1;
  (* mallory recovers the signatures using its session keys... here we
     shortcut via the GA's tracing path to obtain the plaintext sigmas,
     which mallory could compute itself from k' *)
  let sigma_of o theta =
    match Dhies.decrypt ~sk:ga2.Scheme2.trace_sk (snd o.Gcd_types.transcript.(0)) with
    | Some kprime -> Option.get (Secretbox.open_ ~key:kprime theta)
    | None -> Alcotest.fail "decrypt"
  in
  let s1 = sigma_of o1 theta1 and s2 = sigma_of _o2 theta2 in
  (* corruption: alice's tracing trapdoor x leaks *)
  let alice_x = Option.get (Kty.tracing_token ga2.Scheme2.gm ~uid:"alice") in
  Alcotest.(check bool) "kty: corrupted x links session 1" true
    (Kty.matches_token pub2 ~token:alice_x s1);
  Alcotest.(check bool) "kty: corrupted x links session 2" true
    (Kty.matches_token pub2 ~token:alice_x s2);
  (* ACJT side: no analogous token exists — the only identity-bearing tag
     is the ElGamal pair (T1, T2), and linking it to alice's certificate A
     requires the opening secret theta (a DDH decision).  We check the
     structural fact: alice's full signing key does not let a verifier
     test a signature for authorship the way KTY's x does — signatures
     carry no deterministic function of the member secret. *)
  let ga1 = Scheme1.default_authority ~rng:(rng_of 321) () in
  let a1, _ = Option.get (Scheme1.admit ga1 ~uid:"alice" ~member_rng:(rng_of 3211)) in
  let s1a = Acjt.sign ~rng:(rng_of 3212) a1.Scheme1.gsig ~msg:"m" in
  let s1b = Acjt.sign ~rng:(rng_of 3213) a1.Scheme1.gsig ~msg:"m" in
  (* every byte window differs between alice's own two signatures: there
     is no stable token to match on, even knowing all her secrets *)
  Alcotest.(check bool) "acjt: no repeated material across signatures" false
    (shared_windows s1a s1b ~w:16)

(* ------------------------------------------------------------------ *)
(* Traceability and no-misattribution                                  *)
(* ------------------------------------------------------------------ *)

let test_traceability_with_garbage_last_sender () =
  (* a malicious participant replaces its own phase-3 pair with garbage:
     everyone else still traces; the cheater traces to nobody (the weak
     traceability the paper accepts) *)
  let w = W1.create 307 in
  let _ = W1.populate w [ "a"; "b"; "c" ] in
  let adversary ~src ~dst:_ ~payload =
    match Wire.decode payload with
    | Some ("hs3", [ theta; delta ]) when src = 2 ->
      Engine.Replace
        (Wire.encode ~tag:"hs3"
           [ String.make (String.length theta) '\x42';
             String.make (String.length delta) '\x42' ])
    | _ -> Engine.Deliver
  in
  let r = W1.handshake ~adversary w [ "a"; "b"; "c" ] in
  let o = outcome r 0 in
  Alcotest.(check bool) "session rejected" false o.Gcd_types.accepted;
  let traced = Scheme_sig.Scheme1.trace_user w.W1.ga ~sid:o.Gcd_types.sid o.Gcd_types.transcript in
  Alcotest.(check (array (option string))) "honest parties traced, cheat lost"
    [| Some "a"; Some "b"; None |] traced

let test_no_misattribution_by_splicing () =
  (* the GA (or anyone) splices alice's phase-3 pair from a real session
     into another session's transcript; the sid binding in the signed
     message makes the spliced entry open to nobody *)
  let w = W1.create 308 in
  let _ = W1.populate w [ "alice"; "bob"; "carol" ] in
  let r1 = W1.handshake w [ "alice"; "bob" ] in
  let r2 = W1.handshake w [ "bob"; "carol" ] in
  let o1 = outcome r1 0 and o2 = outcome r2 0 in
  (* frame-up attempt: transplant alice's (θ, δ) into session 2 *)
  let forged = Array.copy o2.Gcd_types.transcript in
  forged.(1) <- o1.Gcd_types.transcript.(0);
  let traced = Scheme_sig.Scheme1.trace_user w.W1.ga ~sid:o2.Gcd_types.sid forged in
  Alcotest.(check (option string)) "slot 0 still bob" (Some "bob") traced.(0);
  Alcotest.(check (option string)) "spliced alice entry opens to nobody" None traced.(1)

(* ------------------------------------------------------------------ *)
(* Self-distinction (Scheme 2) and its absence (Scheme 1)              *)
(* ------------------------------------------------------------------ *)

module W2 = struct
  let rng_of = rng_of

  let build seed uids =
    let ga = Scheme2.default_authority ~rng:(rng_of seed) () in
    let members = Hashtbl.create 8 in
    List.iteri
      (fun i uid ->
        match Scheme2.admit ga ~uid ~member_rng:(rng_of ((seed * 100) + i)) with
        | None -> Alcotest.fail "admit"
        | Some (m, upd) ->
          Hashtbl.iter (fun _ e -> ignore (Scheme2.update e upd)) members;
          Hashtbl.add members uid m)
      uids;
    (ga, members)
end

let test_self_distinction_catches_clone () =
  let ga, members = W2.build 309 [ "a"; "b"; "c" ] in
  let fmt = Scheme2.default_format ga in
  let gpub = Scheme2.group_public ga in
  let p u = Scheme2.participant_of_member (Hashtbl.find members u) in
  (* honest control *)
  let r_ok = Scheme2.run_session_sd ~gpub ~fmt [| p "a"; p "b"; p "c" |] in
  Alcotest.(check bool) "honest run accepted" true
    (outcome r_ok 0).Gcd_types.accepted;
  (* clone attack: c plays positions 2 and 3 *)
  let r = Scheme2.run_session_sd ~gpub ~fmt [| p "a"; p "b"; p "c"; p "c" |] in
  let o = outcome r 0 in
  Alcotest.(check bool) "clone run rejected" false o.Gcd_types.accepted;
  Alcotest.(check (list int)) "clones ejected" [ 0; 1 ] o.Gcd_types.partners

let test_plain_hooks_miss_clone () =
  (* negative control: the same attack under the default hooks (Scheme 1
     semantics) is NOT detected — exactly the §8.1 limitation *)
  let ga, members = W2.build 310 [ "a"; "b"; "c" ] in
  let fmt = Scheme2.default_format ga in
  let p u = Scheme2.participant_of_member (Hashtbl.find members u) in
  let r = Scheme2.run_session ~fmt [| p "a"; p "b"; p "c"; p "c" |] in
  Alcotest.(check bool) "clone passes undetected without self-distinction" true
    (outcome r 0).Gcd_types.accepted

(* h_verify pins T7 to the session's base.  Without the pin a clone
   could sign one of its seats with a fresh T7 and show a second,
   distinct T6 (Theorem 3's self-distinction rests on it).  Each call
   counts one gsig.verify, accepted or not. *)
let test_self_distinction_base_pin () =
  let ga, members = W2.build 312 [ "a"; "b" ] in
  let gpub = Scheme2.group_public ga in
  let hooks = Scheme2.sd_hooks ~gpub in
  let signer = (Hashtbl.find members "a").Scheme2.gsig in
  let verifier = (Hashtbl.find members "b").Scheme2.gsig in
  let rng = W2.rng_of 31201 in
  let verifies = Obs.counter "gsig.verify" in
  let h_verify ~sid sigma =
    let c0 = Obs.value verifies in
    let ok = hooks.Scheme2.h_verify verifier ~sid ~msg:"m" sigma in
    Alcotest.(check int) "one gsig.verify per call" 1 (Obs.value verifies - c0);
    ok
  in
  let pinned =
    Kty.sign_with_base ~rng signer ~msg:"m" ~base:(Scheme2.t7_base ~gpub ~sid:"s1")
  in
  Alcotest.(check bool) "this session's base accepted" true (h_verify ~sid:"s1" pinned);
  Alcotest.(check bool) "another session's base rejected" false
    (h_verify ~sid:"s2" pinned);
  let fresh = Kty.sign ~rng signer ~msg:"m" in
  Alcotest.(check bool) "fresh T7 is a valid signature" true
    (Kty.verify verifier ~msg:"m" fresh);
  Alcotest.(check bool) "fresh T7 rejected" false (h_verify ~sid:"s1" fresh)

let test_self_distinction_sybil_limit () =
  (* footnote 3: a user admitted twice (Sybil) holds two distinct x' and
     is NOT caught — self-distinction is not Sybil resistance.  This test
     documents the boundary. *)
  let ga, members = W2.build 311 [ "a"; "b" ] in
  (* the same human joins again under a second uid *)
  (match Scheme2.admit ga ~uid:"b-sybil" ~member_rng:(W2.rng_of 31199) with
   | None -> Alcotest.fail "sybil admit"
   | Some (m, upd) ->
     Hashtbl.iter (fun _ e -> ignore (Scheme2.update e upd)) members;
     Hashtbl.add members "b-sybil" m);
  let fmt = Scheme2.default_format ga in
  let gpub = Scheme2.group_public ga in
  let p u = Scheme2.participant_of_member (Hashtbl.find members u) in
  let r = Scheme2.run_session_sd ~gpub ~fmt [| p "a"; p "b"; p "b-sybil" |] in
  Alcotest.(check bool) "sybil with distinct credentials passes" true
    (outcome r 0).Gcd_types.accepted

(* ------------------------------------------------------------------ *)
(* The §3 revocation-interaction attack                                *)
(* ------------------------------------------------------------------ *)

let test_revocation_attack_blocked_with_both_components () =
  (* a traitor leaks the current CGKD state to a removed member; with
     both revocation components the zombie still fails Phase III.  Built
     on the raw Scheme1 module because the attack pokes at member
     internals (the leaked CGKD state). *)
  let ga = Scheme1.default_authority ~rng:(rng_of 312) () in
  let admit uid seed others =
    match Scheme1.admit ga ~uid ~member_rng:(rng_of seed) with
    | None -> Alcotest.fail "admit"
    | Some (m, upd) ->
      List.iter (fun e -> ignore (Scheme1.update e upd)) others;
      m
  in
  let a = admit "a" 3121 [] in
  let b = admit "b" 3122 [ a ] in
  let z = admit "z" 3123 [ a; b ] in
  (match Scheme1.remove ga ~uid:"z" with
   | None -> Alcotest.fail "remove"
   | Some upd ->
     ignore (Scheme1.update a upd);
     ignore (Scheme1.update b upd);
     ignore (Scheme1.update z upd));
  (* the traitor ("b") hands over its CGKD state — same epoch key *)
  z.Scheme1.cgkd <- b.Scheme1.cgkd;
  z.Scheme1.active <- true;
  let fmt = Scheme1.default_format ga in
  let parts =
    [| Scheme1.participant_of_member a; Scheme1.participant_of_member b;
       Scheme1.participant_of_member z |]
  in
  let r = Scheme1.run_session ~fmt parts in
  let o = outcome r 0 in
  Alcotest.(check bool) "zombie still rejected (GSIG revocation holds)" false
    (List.mem 2 o.Gcd_types.partners);
  Alcotest.(check (list int)) "honest members pair" [ 0; 1 ] o.Gcd_types.partners

(* The same attack against a GCD instantiation whose GSIG revocation has
   been disabled (the "optimization" §3 warns against): it succeeds. *)
module Kty_norevoke = struct
  include Kty

  let noop_update = Wire.encode ~tag:"kty-upd" [ "join" ]

  let revoke ~rng mgr ~uid =
    Option.map (fun (mgr, _real) -> (mgr, noop_update)) (Kty.revoke ~rng mgr ~uid)
end

module Weak = Gcd.Make (Kty_norevoke) (Lkh) (Bd)

let test_revocation_attack_succeeds_without_gsig_revocation () =
  let rng = rng_of 313 in
  let ga =
    Weak.create_group ~rng
      ~modulus:(Lazy.force Params.rsa_512)
      ~dl_group:(Lazy.force Params.schnorr_512)
      ~capacity:16
  in
  let admit uid seed others =
    match Weak.admit ga ~uid ~member_rng:(rng_of seed) with
    | None -> Alcotest.fail "admit"
    | Some (m, upd) ->
      List.iter (fun e -> ignore (Weak.update e upd)) others;
      m
  in
  let a = admit "a" 3131 [] in
  let b = admit "b" 3132 [ a ] in
  let z = admit "z" 3133 [ a; b ] in
  (match Weak.remove ga ~uid:"z" with
   | None -> Alcotest.fail "remove"
   | Some upd ->
     ignore (Weak.update a upd);
     ignore (Weak.update b upd);
     ignore (Weak.update z upd));
  (* traitor b leaks its CGKD state; z's GSIG credential was never
     actually revoked because the "optimization" dropped that component *)
  z.Weak.cgkd <- b.Weak.cgkd;
  z.Weak.active <- true;
  let fmt =
    Weak.format_of_public ~dl_group:(Lazy.force Params.schnorr_512)
      (Weak.group_public ga)
  in
  let parts =
    [| Weak.participant_of_member a; Weak.participant_of_member b;
       Weak.participant_of_member z |]
  in
  let r = Weak.run_session ~fmt parts in
  let o = outcome r 0 in
  Alcotest.(check bool) "attack succeeds against the weakened design" true
    (List.mem 2 o.Gcd_types.partners && o.Gcd_types.accepted)

let () =
  Alcotest.run "attacks"
    [ ( "impersonation",
        [ Alcotest.test_case "protocol-honest outsider" `Slow
            test_ria_protocol_honest_outsider;
          Alcotest.test_case "multi-role outsider" `Slow test_ria_multi_role_outsider;
          Alcotest.test_case "tag copy" `Slow test_ria_mac_copy_attack;
          Alcotest.test_case "cross-session replay" `Slow test_ria_cross_session_replay;
        ] );
      ( "detection+eavesdropping",
        [ Alcotest.test_case "detection resistance shape" `Slow
            test_detection_resistance_shape;
          Alcotest.test_case "eavesdropper indistinguishability" `Slow
            test_eavesdropper_indistinguishability;
          Alcotest.test_case "cross-group shape identity" `Slow
            test_cross_group_shape;
          Alcotest.test_case "linger shape" `Slow
            test_linger_shape;
          Alcotest.test_case "linger answers once" `Slow
            test_linger_answers_once;
        ] );
      ( "unlinkability",
        [ Alcotest.test_case "across sessions" `Slow test_unlinkability_across_sessions;
          Alcotest.test_case "full- vs plain (Thm 1 vs 2)" `Slow
            test_corruption_linkage_kty_vs_acjt;
        ] );
      ( "tracing",
        [ Alcotest.test_case "garbage last sender" `Slow
            test_traceability_with_garbage_last_sender;
          Alcotest.test_case "no misattribution by splicing" `Slow
            test_no_misattribution_by_splicing;
        ] );
      ( "self-distinction",
        [ Alcotest.test_case "clone caught (scheme 2)" `Slow
            test_self_distinction_catches_clone;
          Alcotest.test_case "clone missed (plain hooks)" `Slow
            test_plain_hooks_miss_clone;
          Alcotest.test_case "T7 pinned to the session base" `Slow
            test_self_distinction_base_pin;
          Alcotest.test_case "sybil boundary" `Slow test_self_distinction_sybil_limit;
        ] );
      ( "revocation-interaction",
        [ Alcotest.test_case "blocked with both components" `Slow
            test_revocation_attack_blocked_with_both_components;
          Alcotest.test_case "succeeds without GSIG revocation" `Slow
            test_revocation_attack_succeeds_without_gsig_revocation;
        ] );
    ]
