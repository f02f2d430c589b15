(* Chaos suite: handshakes over a faulty channel.  The invariant under
   test is bounded termination — with the session watchdog armed, every
   party must reach a terminal outcome (complete / partial / aborted)
   no matter what the fault plan does to the channel. *)

module W = World.Make (Scheme_sig.Scheme1)

let uids = List.init 8 (Printf.sprintf "m%d")

(* one shared 8-member world: admissions are expensive *)
let world =
  lazy
    (let w = W.create 777 in
     let _ = W.populate w uids in
     w)

let chaos_handshake ~m ~seed ~drop ~duplicate ~jitter =
  let w = Lazy.force world in
  let faults = Faults.create ~drop ~duplicate ~jitter ~seed () in
  W.handshake ~faults ~watchdog:Gcd_types.default_watchdog w
    (List.filteri (fun i _ -> i < m) uids)

let check_terminal label (r : Gcd_types.session_result) =
  Array.iteri
    (fun i o ->
      match o with
      | None -> Alcotest.fail (Printf.sprintf "%s: party %d hung" label i)
      | Some o ->
        (* the terminal state must be consistent with its evidence *)
        let expect =
          if o.Gcd_types.accepted then Gcd_types.Complete
          else if List.length o.Gcd_types.partners >= 2 then Gcd_types.Partial
          else Gcd_types.Aborted
        in
        Alcotest.(check string)
          (Printf.sprintf "%s: party %d classification" label i)
          (Gcd_types.string_of_termination expect)
          (Gcd_types.string_of_termination o.Gcd_types.termination))
    r.Gcd_types.outcomes

let test_seed_corpus () =
  (* drops + duplication + reordering at the acceptance-criteria level
     (drop 0.2), across fixed seeds and both group sizes *)
  List.iter
    (fun m ->
      List.iter
        (fun seed ->
          let r = chaos_handshake ~m ~seed ~drop:0.2 ~duplicate:0.1 ~jitter:0.4 in
          check_terminal (Printf.sprintf "m=%d seed=%d" m seed) r)
        [ 1; 2; 3 ])
    [ 4; 8 ]

let test_determinism () =
  (* same world seed, same fault seed: byte-identical replay.  The
     worlds must be rebuilt from scratch — member DRBGs are stateful,
     so rerunning a handshake in the same world consumes different
     protocol randomness by design. *)
  let summary (r : Gcd_types.session_result) =
    ( r.Gcd_types.stats.Engine.dropped,
      r.Gcd_types.stats.Engine.duplicated,
      r.Gcd_types.stats.Engine.deliveries,
      r.Gcd_types.duration,
      Array.map
        (Option.map (fun o ->
             (o.Gcd_types.accepted, o.Gcd_types.partners,
              Option.map Sha256.hex o.Gcd_types.session_key)))
        r.Gcd_types.outcomes )
  in
  let run_once () =
    let w = W.create 900 in
    let _ = W.populate w [ "a"; "b"; "c"; "d" ] in
    let faults = Faults.create ~drop:0.15 ~duplicate:0.1 ~jitter:0.3 ~seed:42 () in
    W.handshake ~faults ~watchdog:Gcd_types.default_watchdog w
      [ "a"; "b"; "c"; "d" ]
  in
  Alcotest.(check bool) "identical replay" true
    (summary (run_once ()) = summary (run_once ()))

let test_crash_partial () =
  (* party 3 crash-stops after Phase I: the survivors must degrade to
     the section 7 partial outcome among themselves, the crashed party
     must still terminate (aborted) via its local watchdog *)
  let w = Lazy.force world in
  let faults = Faults.create ~crashes:[ (3, 2.5) ] ~seed:5 () in
  let r =
    W.handshake ~faults ~watchdog:Gcd_types.default_watchdog w
      [ "m0"; "m1"; "m2"; "m3" ]
  in
  check_terminal "crash" r;
  Array.iteri
    (fun i o ->
      let o = Option.get o in
      if i < 3 then begin
        Alcotest.(check string) (Printf.sprintf "survivor %d partial" i)
          "partial"
          (Gcd_types.string_of_termination o.Gcd_types.termination);
        Alcotest.(check (list int)) (Printf.sprintf "survivor %d partners" i)
          [ 0; 1; 2 ] o.Gcd_types.partners
      end
      else
        Alcotest.(check string) "crashed party aborted" "aborted"
          (Gcd_types.string_of_termination o.Gcd_types.termination))
    r.Gcd_types.outcomes;
  (* the surviving subset shares a session key *)
  let k0 = Option.get (Option.get r.Gcd_types.outcomes.(0)).Gcd_types.session_key in
  List.iter
    (fun i ->
      let k = Option.get (Option.get r.Gcd_types.outcomes.(i)).Gcd_types.session_key in
      Alcotest.(check string) (Printf.sprintf "survivor %d key" i)
        (Sha256.hex k0) (Sha256.hex k))
    [ 1; 2 ]

let test_watchdog_quiet_on_clean_channel () =
  (* arming the watchdog must not perturb a fault-free handshake: the
     run completes before the first timer fires, so no retransmissions,
     the standard 4 messages per party, and full acceptance *)
  let w = Lazy.force world in
  let r =
    W.handshake ~watchdog:Gcd_types.default_watchdog w [ "m0"; "m1"; "m2"; "m3" ]
  in
  Array.iter
    (fun o ->
      let o = Option.get o in
      Alcotest.(check bool) "accepted" true o.Gcd_types.accepted;
      Alcotest.(check string) "complete" "complete"
        (Gcd_types.string_of_termination o.Gcd_types.termination))
    r.Gcd_types.outcomes;
  Array.iter
    (Alcotest.(check int) "4 messages per party, no retransmissions" 4)
    r.Gcd_types.stats.Engine.messages_sent;
  Alcotest.(check int) "nothing dropped" 0 r.Gcd_types.stats.Engine.dropped;
  (* four hops at latency 1; the armed watchdog's first tick at 8 finds
     every seat terminal and must not count *)
  Alcotest.(check (float 0.0)) "duration ends at the last finalize" 4.0
    r.Gcd_types.duration

let test_duplication_only_still_completes () =
  (* duplication alone loses nothing: all parties must still accept *)
  let r = chaos_handshake ~m:4 ~seed:8 ~drop:0.0 ~duplicate:1.0 ~jitter:0.0 in
  Array.iter
    (fun o ->
      let o = Option.get o in
      Alcotest.(check bool) "accepted under duplication" true o.Gcd_types.accepted)
    r.Gcd_types.outcomes;
  Alcotest.(check bool) "duplicates occurred" true
    (r.Gcd_types.stats.Engine.duplicated > 0)

let timeouts () = Obs.value (Obs.counter "gcd.timeouts")

(* Bounded-loss liveness with one drop per link: a tap that draws a
   coin per (src, dst, frame class) and, where it is set, drops that
   link's first copy of that class.  One lost copy per link and class
   is within the watchdog's retransmission budget, and a finished seat
   answers a lagging peer once, so every seat must complete, and a
   resend repairs every loss before any phase times out.  Two drops per
   link can still take both a copy and the one answer; that case is not
   covered here. *)
let drop_first_copies ~seed =
  let coins = Drbg.of_int_seed seed in
  let seen = Hashtbl.create 64 in
  fun ~src ~dst ~payload ->
    let cls =
      match Wire.decode payload with Some (tag, _) -> tag | None -> "?"
    in
    if Hashtbl.mem seen (src, dst, cls) then Engine.Deliver
    else begin
      Hashtbl.add seen (src, dst, cls) ();
      if Char.code (Drbg.generate coins 1).[0] land 1 = 1 then Engine.Drop
      else Engine.Deliver
    end

let one_drop_per_link_completes seed =
  List.for_all
    (fun (m, two_phase) ->
      let before = timeouts () in
      let r =
        W.handshake ~adversary:(drop_first_copies ~seed)
          ~watchdog:Gcd_types.default_watchdog ~two_phase (Lazy.force world)
          (List.filteri (fun i _ -> i < m) uids)
      in
      (Array.for_all
         (function
           | Some o -> o.Gcd_types.termination = Gcd_types.Complete
           | None -> false)
         r.Gcd_types.outcomes
      || QCheck2.Test.fail_reportf "m=%d two_phase=%b seed=%d: a seat did not complete"
           m two_phase seed)
      && (timeouts () = before
         || QCheck2.Test.fail_reportf "m=%d two_phase=%b seed=%d: %d phase timeouts"
              m two_phase seed (timeouts () - before)))
    (List.concat_map
       (fun m -> [ (m, true); (m, false) ])
       [ 2; 3; 4; 8 ])

(* [long_factor] multiplies [count] under QCHECK_LONG=1, the CI sweep *)
let test_one_drop_per_link =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"one drop per link completes"
       ~count:2 ~long_factor:6 ~print:string_of_int QCheck2.Gen.int
       one_drop_per_link_completes)

(* Seat 1's first tag copy to seat 0 is lost, and every peer's (θ, δ)
   pair reaches seat 0 before seat 1's resend of the tag does.  The tag
   is seat 0's last missing datum, so its arrival must carry seat 0
   through Phase III to its outcome at once: the resend lands at 17 and
   seat 0's pair at its peers at 18, with no phase timing out. *)
let test_last_tag_after_every_pair () =
  List.iter
    (fun m ->
      let lost = ref false in
      let adversary ~src ~dst ~payload =
        match Wire.decode payload with
        | Some ("hs2", _) when src = 1 && dst = 0 && not !lost ->
          lost := true;
          Engine.Drop
        | _ -> Engine.Deliver
      in
      let before = timeouts () in
      let r =
        W.handshake ~adversary ~watchdog:Gcd_types.default_watchdog
          (Lazy.force world)
          (List.filteri (fun i _ -> i < m) uids)
      in
      let label = Printf.sprintf "m=%d" m in
      Alcotest.(check bool) (label ^ ": the tag copy was dropped") true !lost;
      Array.iteri
        (fun i o ->
          Alcotest.(check string)
            (Printf.sprintf "%s: seat %d" label i)
            "complete"
            (match o with
             | Some o -> Gcd_types.string_of_termination o.Gcd_types.termination
             | None -> "none"))
        r.Gcd_types.outcomes;
      Alcotest.(check int) (label ^ ": no phase timed out") 0
        (timeouts () - before);
      Alcotest.(check (float 0.0)) (label ^ ": duration") 18.0
        r.Gcd_types.duration)
    [ 2; 3; 4; 8 ]

(* A session whose adversary tap raises must surface the tap's own
   exception, and must not leave population, buffered bytes, in-flight
   copies or scheduled events behind on the gauges. *)
let test_raising_session_drains () =
  let w = Lazy.force world in
  let seen = ref 0 in
  let adversary ~src:_ ~dst:_ ~payload:_ =
    incr seen;
    if !seen = 20 then raise Exit;
    Engine.Deliver
  in
  Alcotest.check_raises "the tap's exception itself" Exit (fun () ->
      ignore
        (W.handshake ~adversary ~watchdog:Gcd_types.default_watchdog w
           [ "m0"; "m1"; "m2"; "m3" ]));
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " drained") 0
        (Obs.gauge_value (Obs.gauge name)))
    [ "gcd.sessions.live"; "gcd.live.phase0"; "gcd.live.phase1";
      "gcd.live.phase2"; "gcd.live.phase3"; "gcd.retx_buffer_bytes";
      "engine.inbox_depth"; "net.in_flight"; "sim.queue_depth" ]

let test_bad_watchdog_policy () =
  let w = Lazy.force world in
  let wd =
    { Gcd_types.retransmit_after = 0.0; backoff = 2.0; max_retransmits = 1;
      phase_grace = 0 }
  in
  Alcotest.check_raises "zero period rejected"
    (Invalid_argument "Shs_engine.submit: bad watchdog policy")
    (fun () -> ignore (W.handshake ~watchdog:wd w [ "m0"; "m1" ]))

let () =
  Alcotest.run "chaos"
    [ ( "termination",
        [ Alcotest.test_case "seed corpus, drop 0.2" `Quick test_seed_corpus;
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "crash-stop degrades to partial" `Quick
            test_crash_partial;
          test_one_drop_per_link;
          Alcotest.test_case "last tag after every pair" `Quick
            test_last_tag_after_every_pair;
        ] );
      ( "degradation",
        [ Alcotest.test_case "watchdog quiet on clean channel" `Quick
            test_watchdog_quiet_on_clean_channel;
          Alcotest.test_case "duplication only" `Quick
            test_duplication_only_still_completes;
          Alcotest.test_case "raising session drains" `Quick
            test_raising_session_drains;
          Alcotest.test_case "bad policy rejected" `Quick test_bad_watchdog_policy;
        ] );
    ]
