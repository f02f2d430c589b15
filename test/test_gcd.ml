(* Framework-level tests for the GCD compiler: the Fig. 1 operations and
   the handshake protocol mechanics, generic over both instantiations. *)

let rng_of i = Drbg.bytes_fn (Drbg.of_int_seed i)

module Generic (S : Scheme_sig.SCHEME) = struct
  module W = World.Make (S)

  let outcomes (r : Gcd_types.session_result) =
    Array.map
      (function
        | Some o -> o
        | None -> Alcotest.fail "party produced no outcome")
      r.Gcd_types.outcomes

  let check_full_success label r m =
    let os = outcomes r in
    Alcotest.(check int) (label ^ ": all parties finished") m (Array.length os);
    Array.iteri
      (fun i o ->
        Alcotest.(check bool) (Printf.sprintf "%s: party %d accepted" label i) true
          o.Gcd_types.accepted;
        Alcotest.(check (list int)) (Printf.sprintf "%s: party %d partners" label i)
          (List.init m Fun.id) o.Gcd_types.partners)
      os;
    (* all parties share the session key and sid *)
    let k0 = Option.get os.(0).Gcd_types.session_key in
    Array.iter
      (fun o ->
        Alcotest.(check string) (label ^ ": common key") (Sha256.hex k0)
          (Sha256.hex (Option.get o.Gcd_types.session_key)))
      os

  let test_handshake_sizes () =
    let w = W.create 200 in
    let _ = W.populate w [ "a"; "b"; "c"; "d"; "e" ] in
    List.iter
      (fun m ->
        let uids = List.filteri (fun i _ -> i < m) [ "a"; "b"; "c"; "d"; "e" ] in
        let r = W.handshake w uids in
        check_full_success (Printf.sprintf "m=%d" m) r m)
      [ 2; 3; 5 ]

  let test_mixed_groups_partial () =
    (* the footnote-2 scenario: 2 members of group A and 3 of group B
       handshake together; each subset completes among itself *)
    let wa = W.create 201 and wb = W.create 202 in
    let _ = W.populate wa [ "a1"; "a2" ] in
    let _ = W.populate wb [ "b1"; "b2"; "b3" ] in
    let parts =
      Array.of_list
        (List.map
           (fun (w, u) -> S.participant_of_member (W.member w u))
           [ (wa, "a1"); (wb, "b1"); (wa, "a2"); (wb, "b2"); (wb, "b3") ])
    in
    let r = S.run_session ~fmt:(W.fmt wa) parts in
    let os = outcomes r in
    Array.iteri
      (fun i o ->
        Alcotest.(check bool) (Printf.sprintf "party %d not full" i) false
          o.Gcd_types.accepted)
      os;
    Alcotest.(check (list int)) "a1 finds a2" [ 0; 2 ] os.(0).Gcd_types.partners;
    Alcotest.(check (list int)) "a2 finds a1" [ 0; 2 ] os.(2).Gcd_types.partners;
    Alcotest.(check (list int)) "b1 finds b2 b3" [ 1; 3; 4 ] os.(1).Gcd_types.partners;
    Alcotest.(check (list int)) "b2" [ 1; 3; 4 ] os.(3).Gcd_types.partners;
    Alcotest.(check (list int)) "b3" [ 1; 3; 4 ] os.(4).Gcd_types.partners;
    (* the two subsets derive keys, and they differ *)
    let ka = Option.get os.(0).Gcd_types.session_key in
    let ka' = Option.get os.(2).Gcd_types.session_key in
    let kb = Option.get os.(1).Gcd_types.session_key in
    Alcotest.(check string) "A subset agrees" (Sha256.hex ka) (Sha256.hex ka');
    Alcotest.(check bool) "A and B keys differ" true (ka <> kb)

  let test_strict_mode_aborts_on_mixture () =
    (* with allow_partial = false, any invalid tag triggers Case 2 for
       everyone: random values, no partners, no keys *)
    let w = W.create 203 in
    let _ = W.populate w [ "a"; "b" ] in
    let parts =
      [| S.participant_of_member (W.member w "a");
         S.participant_of_member (W.member w "b");
         S.outsider ~rng:(rng_of 2031) |]
    in
    let r = S.run_session ~allow_partial:false ~fmt:(W.fmt w) parts in
    let os = outcomes r in
    Array.iteri
      (fun i o ->
        Alcotest.(check bool) (Printf.sprintf "party %d rejects" i) false
          o.Gcd_types.accepted;
        Alcotest.(check (list int)) (Printf.sprintf "party %d no partners" i) []
          o.Gcd_types.partners;
        Alcotest.(check bool) (Printf.sprintf "party %d no key" i) true
          (o.Gcd_types.session_key = None))
      os

  let test_revoked_member_fails_handshake () =
    let w = W.create 204 in
    let _ = W.populate w [ "a"; "b"; "c" ] in
    let mallory = W.remove w "c" in
    Alcotest.(check bool) "mallory knows it is out" false (S.member_active mallory);
    let parts =
      [| S.participant_of_member (W.member w "a");
         S.participant_of_member (W.member w "b");
         S.participant_of_member mallory |]
    in
    let r = S.run_session ~fmt:(W.fmt w) parts in
    let os = outcomes r in
    Alcotest.(check bool) "a rejects" false os.(0).Gcd_types.accepted;
    Alcotest.(check (list int)) "a pairs with b only" [ 0; 1 ] os.(0).Gcd_types.partners;
    Alcotest.(check (list int)) "mallory alone" [] os.(2).Gcd_types.partners;
    (* survivors still handshake fully among themselves *)
    let r2 = W.handshake w [ "a"; "b" ] in
    check_full_success "post-revocation" r2 2

  let test_stale_member_fails () =
    (* a member that missed updates (e.g. was offline) cannot complete a
       handshake with up-to-date members: its CGKD key is old *)
    let w = W.create 205 in
    let _ = W.populate w [ "a"; "b" ] in
    (* snapshot b, then let the world move on without applying updates *)
    let stale = W.member w "b" in
    w.W.live <- List.remove_assoc "b" w.W.live;
    let _ = W.populate w [ "c" ] in
    let parts =
      [| S.participant_of_member (W.member w "a");
         S.participant_of_member stale;
         S.participant_of_member (W.member w "c") |]
    in
    let r = S.run_session ~fmt:(W.fmt w) parts in
    let os = outcomes r in
    Alcotest.(check bool) "not accepted" false os.(0).Gcd_types.accepted;
    Alcotest.(check (list int)) "fresh members pair up" [ 0; 2 ]
      os.(0).Gcd_types.partners

  let test_trace_recovers_participants () =
    let w = W.create 206 in
    let _ = W.populate w [ "a"; "b"; "c"; "d" ] in
    let r = W.handshake w [ "a"; "c"; "d" ] in
    let os = outcomes r in
    let o = os.(1) in
    let traced = S.trace_user w.W.ga ~sid:o.Gcd_types.sid o.Gcd_types.transcript in
    Alcotest.(check (array (option string))) "traced identities"
      [| Some "a"; Some "c"; Some "d" |] traced

  let test_trace_failed_handshake_yields_nothing () =
    (* a failed (all-random) transcript must not trace to anyone *)
    let w = W.create 207 in
    let _ = W.populate w [ "a"; "b" ] in
    let parts =
      [| S.participant_of_member (W.member w "a");
         S.participant_of_member (W.member w "b");
         S.outsider ~rng:(rng_of 2071) |]
    in
    let r = S.run_session ~allow_partial:false ~fmt:(W.fmt w) parts in
    let os = outcomes r in
    let o = os.(0) in
    let traced = S.trace_user w.W.ga ~sid:o.Gcd_types.sid o.Gcd_types.transcript in
    Alcotest.(check (array (option string))) "nothing traced"
      [| None; None; None |] traced

  let test_message_complexity () =
    (* O(m) messages per party: with BD inside, each party sends exactly
       4 broadcasts (2 DGKA + tag + phase 3) *)
    let w = W.create 208 in
    let _ = W.populate w [ "a"; "b"; "c"; "d" ] in
    let r = W.handshake w [ "a"; "b"; "c"; "d" ] in
    Array.iteri
      (fun i sent ->
        Alcotest.(check int) (Printf.sprintf "party %d sends 4 msgs" i) 4 sent)
      r.Gcd_types.stats.Engine.messages_sent

  let test_two_phase_mode () =
    (* the §7 remark: tailor the handshake to Phases I+II when
       traceability is not needed — cheaper (3 msgs/party, no GSIG), same
       membership decision, but an empty (untraceable) transcript *)
    let w = W.create 212 in
    let _ = W.populate w [ "a"; "b"; "c" ] in
    let parts =
      Array.of_list
        (List.map (fun u -> S.participant_of_member (W.member w u)) [ "a"; "b"; "c" ])
    in
    let r = S.run_session ~two_phase:true ~fmt:(W.fmt w) parts in
    let os = outcomes r in
    Array.iteri
      (fun i o ->
        Alcotest.(check bool) (Printf.sprintf "party %d accepted" i) true
          o.Gcd_types.accepted;
        Alcotest.(check (list int)) "partners" [ 0; 1; 2 ] o.Gcd_types.partners;
        Alcotest.(check int) "nothing to trace" 0 (Array.length o.Gcd_types.transcript);
        Alcotest.(check bool) "session key derived" true
          (o.Gcd_types.session_key <> None))
      os;
    (* common key *)
    let k0 = Option.get os.(0).Gcd_types.session_key in
    Alcotest.(check string) "common key" (Sha256.hex k0)
      (Sha256.hex (Option.get os.(2).Gcd_types.session_key));
    (* exactly 3 messages per party: 2 DGKA + 1 tag *)
    Array.iter
      (fun sent -> Alcotest.(check int) "3 msgs/party" 3 sent)
      r.Gcd_types.stats.Engine.messages_sent;
    (* no GSIG work at all: far fewer exponentiations than 3-phase *)
    Bigint.reset_counters ();
    ignore (S.run_session ~two_phase:true ~fmt:(W.fmt w) parts);
    let two = Bigint.pow_mod_count () in
    Bigint.reset_counters ();
    ignore (S.run_session ~fmt:(W.fmt w) parts);
    let three = Bigint.pow_mod_count () in
    Alcotest.(check bool)
      (Printf.sprintf "phase II-only is much cheaper (%d vs %d exps)" two three)
      true
      (two * 5 < three);
    (* outsiders are still excluded on the tag matrix *)
    let parts' =
      Array.append parts [| S.outsider ~rng:(rng_of 2121) |]
    in
    let r' = S.run_session ~two_phase:true ~fmt:(W.fmt w) parts' in
    let o = (outcomes r').(0) in
    Alcotest.(check (list int)) "outsider excluded" [ 0; 1; 2 ] o.Gcd_types.partners

  let test_admission_capacity () =
    let w = W.create ~capacity:4 209 in
    let _ = W.populate w [ "a"; "b"; "c"; "d" ] in
    Alcotest.(check bool) "full group refuses" true
      (S.admit w.W.ga ~uid:"e" ~member_rng:(rng_of 2091) = None);
    Alcotest.(check bool) "duplicate uid refused" true
      (S.admit w.W.ga ~uid:"a" ~member_rng:(rng_of 2092) = None);
    Alcotest.(check bool) "remove unknown refused" true (S.remove w.W.ga ~uid:"zz" = None)

  let test_epoch_advances () =
    let w = W.create 210 in
    let e0 = S.group_epoch w.W.ga in
    let _ = W.populate w [ "a"; "b" ] in
    let e1 = S.group_epoch w.W.ga in
    Alcotest.(check bool) "advanced by joins" true (e1 > e0);
    let _ = W.remove w "a" in
    Alcotest.(check bool) "advanced by remove" true (S.group_epoch w.W.ga > e1)

  let test_transcript_format_uniform () =
    (* success and failure transcripts are byte-length-identical per slot:
       the indistinguishability-to-eavesdroppers precondition *)
    let w = W.create 211 in
    let _ = W.populate w [ "a"; "b" ] in
    let ok = W.handshake w [ "a"; "b" ] in
    let parts =
      [| S.participant_of_member (W.member w "a"); S.outsider ~rng:(rng_of 2111) |]
    in
    let bad = S.run_session ~allow_partial:false ~fmt:(W.fmt w) parts in
    let t_ok = (outcomes ok).(0).Gcd_types.transcript in
    let t_bad = (outcomes bad).(0).Gcd_types.transcript in
    Array.iteri
      (fun i (theta, delta) ->
        let theta', delta' = t_bad.(i) in
        Alcotest.(check int) (Printf.sprintf "theta len %d" i) (String.length theta)
          (String.length theta');
        Alcotest.(check int) (Printf.sprintf "delta len %d" i) (String.length delta)
          (String.length delta'))
      t_ok

  let test_forged_mac_rejected () =
    (* regression companion to the CT-EQ lint fixes: with Hmac.equal_ct
       in the hs2/hs3 checks, a clean handshake still completes and a
       forged phase-II MAC is still rejected by everyone who saw it *)
    let w = W.create 212 in
    let _ = W.populate w [ "a"; "b"; "c" ] in
    check_full_success "clean channel" (W.handshake w [ "a"; "b"; "c" ]) 3;
    let forge ~src ~dst:_ ~payload =
      if src <> 0 then Engine.Deliver
      else
        match Wire.decode payload with
        | Some ("hs2", [ mac ]) ->
          let mac' =
            String.mapi
              (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
              mac
          in
          Engine.Replace (Wire.encode ~tag:"hs2" [ mac' ])
        | _ -> Engine.Deliver
    in
    let parts =
      [| S.participant_of_member (W.member w "a");
         S.participant_of_member (W.member w "b");
         S.participant_of_member (W.member w "c") |]
    in
    let os = outcomes (S.run_session ~adversary:forge ~fmt:(W.fmt w) parts) in
    (* a's own view is clean (it never sees its mutated broadcast), but
       b and c hold a forged tag for seat 0 and must exclude it *)
    List.iter
      (fun i ->
        Alcotest.(check bool) (Printf.sprintf "party %d rejects" i) false
          os.(i).Gcd_types.accepted;
        Alcotest.(check bool) (Printf.sprintf "party %d excludes forged seat" i)
          false
          (List.mem 0 os.(i).Gcd_types.partners))
      [ 1; 2 ]

  let suite label =
    [ Alcotest.test_case (label ^ ": handshakes m=2,3,5") `Slow test_handshake_sizes;
      Alcotest.test_case (label ^ ": mixed groups partial success") `Slow
        test_mixed_groups_partial;
      Alcotest.test_case (label ^ ": strict mode aborts") `Slow
        test_strict_mode_aborts_on_mixture;
      Alcotest.test_case (label ^ ": revoked member fails") `Slow
        test_revoked_member_fails_handshake;
      Alcotest.test_case (label ^ ": stale member fails") `Slow test_stale_member_fails;
      Alcotest.test_case (label ^ ": tracing") `Slow test_trace_recovers_participants;
      Alcotest.test_case (label ^ ": tracing failed handshake") `Slow
        test_trace_failed_handshake_yields_nothing;
      Alcotest.test_case (label ^ ": O(m) messages") `Slow test_message_complexity;
      Alcotest.test_case (label ^ ": two-phase mode") `Slow test_two_phase_mode;
      Alcotest.test_case (label ^ ": admission limits") `Slow test_admission_capacity;
      Alcotest.test_case (label ^ ": epochs") `Slow test_epoch_advances;
      Alcotest.test_case (label ^ ": transcript uniformity") `Slow
        test_transcript_format_uniform;
      Alcotest.test_case (label ^ ": forged MAC rejected") `Slow
        test_forged_mac_rejected;
    ]
end

module S1 = Generic (Scheme_sig.Scheme1)
module S2 = Generic (Scheme_sig.Scheme2)

(* Several groups in one process: an ACJT group's warm handshake costs
   the same products whether or not an ACJT group and a KTY group ran
   before it, because every group's declared bases keep their tables.
   Each run rebuilds the groups from their seeds, so the measured
   handshake is the same session both times. *)
let test_warm_cost_independent_of_other_groups () =
  let uids = [ "u1"; "u2"; "u3"; "u4" ] in
  let warm_up create populate handshake seed =
    let w = create seed in
    ignore (populate w uids);
    for _ = 1 to 2 do ignore (handshake w uids) done
  in
  let s1 = warm_up S1.W.create S1.W.populate (fun w u -> S1.W.handshake w u) in
  let s2 = warm_up S2.W.create S2.W.populate (fun w u -> S2.W.handshake w u) in
  let warm_products others =
    Bigint.reset_caches ();
    others ();
    let w = S1.W.create 270 in
    ignore (S1.W.populate w uids);
    ignore (S1.W.handshake w uids);
    let c0 = Bigint.mul_count () in
    S1.check_full_success "measured" (S1.W.handshake w uids) 4;
    Bigint.mul_count () - c0
  in
  let alone = warm_products ignore in
  let after = warm_products (fun () -> s1 271; s2 272) in
  Alcotest.(check int) "products of the warm handshake" alone after

let () =
  Alcotest.run "gcd"
    [ ( "scheme1",
        S1.suite "scheme1"
        @ [ Alcotest.test_case "scheme1: warm cost after other groups" `Slow
              test_warm_cost_independent_of_other_groups ] );
      ("scheme2", S2.suite "scheme2") ]
