(* A "world" for framework tests: one group authority plus the live
   members, with every admit/remove broadcast applied to everyone, the
   way the GCD.Update flow prescribes. *)

module Make (S : Scheme_sig.SCHEME) = struct
  type t = {
    ga : S.authority;
    mutable live : (string * S.member) list;  (* in join order *)
    mutable next_seed : int;
  }

  let rng_of i = Drbg.bytes_fn (Drbg.of_int_seed i)

  let create ?capacity seed =
    { ga = S.default_authority ~rng:(rng_of seed) ?capacity ();
      live = [];
      next_seed = (seed * 7919) + 1;
    }

  let admit w uid =
    let seed = w.next_seed in
    w.next_seed <- w.next_seed + 1;
    match S.admit w.ga ~uid ~member_rng:(rng_of seed) with
    | None -> Alcotest.fail ("admit failed: " ^ uid)
    | Some (m, broadcast) ->
      List.iter
        (fun (u, e) ->
          if not (S.update e broadcast) then
            Alcotest.fail (u ^ ": update failed on admit of " ^ uid))
        w.live;
      w.live <- w.live @ [ (uid, m) ];
      m

  let remove w uid =
    match S.remove w.ga ~uid with
    | None -> Alcotest.fail ("remove failed: " ^ uid)
    | Some broadcast ->
      let departed = List.assoc uid w.live in
      w.live <- List.remove_assoc uid w.live;
      List.iter
        (fun (u, e) ->
          if not (S.update e broadcast) then
            Alcotest.fail (u ^ ": update failed on remove of " ^ uid))
        w.live;
      (* the departed member also observes the broadcast (and thereby
         learns of its revocation) *)
      ignore (S.update departed broadcast);
      departed

  let member w uid = List.assoc uid w.live

  let populate w uids = List.map (fun u -> admit w u) uids

  let fmt w = S.default_format w.ga

  let handshake ?faults ?watchdog ?adversary ?latency ?allow_partial
      ?two_phase w uids =
    let parts =
      Array.of_list (List.map (fun u -> S.participant_of_member (member w u)) uids)
    in
    S.run_session ?faults ?watchdog ?adversary ?latency ?allow_partial
      ?two_phase ~fmt:(fmt w) parts
end
