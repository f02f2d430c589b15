(* Concurrent-session engine suite.
   - scheduler determinism: one (world, fault, attack) seed triple gives
     byte-identical runs (QCheck over seed pairs, plus a fixed case
     covering the telemetry exports);
   - isolation: a session's outcome is invariant to the presence of
     unrelated (even Byzantine-targeted) sessions, and a poisoned
     session cannot touch its neighbours;
   - admission control, deadline shedding, inbox backpressure and the
     bounded retransmission buffer, each on its own counters/gauges. *)

let qtest name ~count gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* one shared world: handshakes never touch member state or the member
   DRBGs (seats draw from per-(sid, seat) streams), so reuse is sound
   and keeps the suite fast *)
let world = lazy (Swarm.world ~seed:7000 ~roster:6 ())

let base =
  { Swarm.default with
    Swarm.sessions = 12;
    m = 3;
    roster = 6;
    world_seed = 7000;
    mean_gap = 0.3;
    cadence = 2.0;
    high_water = 64;
  }

let run ?fault_scope ?attack_scope cfg =
  Swarm.run ~world:(Lazy.force world) ?fault_scope ?attack_scope cfg

let counter name = Obs.value (Obs.counter name)
let gauge name = Obs.gauge_value (Obs.gauge name)

let check_drained () =
  Alcotest.(check int) "live gauge drained" 0 (gauge "gcd.sessions.live");
  Alcotest.(check int) "inbox gauge drained" 0 (gauge "engine.inbox_depth");
  Alcotest.(check int) "retx gauge drained" 0 (gauge "gcd.retx_buffer_bytes");
  Alcotest.(check int) "in-flight gauge drained" 0 (gauge "net.in_flight")

let test_clean_burst () =
  let s = run base in
  Alcotest.(check int) "all admitted" base.Swarm.sessions s.Swarm.admitted;
  Alcotest.(check int) "none rejected" 0 s.Swarm.rejected;
  Alcotest.(check int) "all completed" base.Swarm.sessions s.Swarm.completed;
  Alcotest.(check int) "all fully complete" base.Swarm.sessions
    s.Swarm.full_complete;
  Alcotest.(check int) "none shed" 0 s.Swarm.shed;
  Alcotest.(check int) "none poisoned" 0 s.Swarm.poisoned;
  Alcotest.(check bool) "isolation holds" true (Swarm.isolation_ok s);
  Alcotest.(check bool) "positive throughput" true (s.Swarm.throughput > 0.0);
  Alcotest.(check bool) "latency quantiles ordered" true
    (s.Swarm.lat_p50 <= s.Swarm.lat_p95 && s.Swarm.lat_p95 <= s.Swarm.lat_p99);
  check_drained ()

(* The phase gauges agree with the sessions at every telemetry sample,
   not only once the run has drained: each live session counts each of
   its m seats in exactly one "seats in phase k" series, and seats that
   have finished while a peer is still running show up in phase 3. *)
let test_phase_gauges_mid_run () =
  let cfg =
    { base with Swarm.sessions = 40; drop_every = 3; byz_every = 4; drop = 0.2 }
  in
  let s = run cfg in
  let series name =
    Array.of_list (List.map snd (Obs_series.samples s.Swarm.recorder ~name))
  in
  let live = series "live sessions" in
  let phase = Array.init 4 (fun k -> series (Printf.sprintf "seats in phase%d" k)) in
  Alcotest.(check bool) "telemetry sampled" true (Array.length live > 0);
  Array.iteri
    (fun t sessions ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "sample %d: seats in phases = m x live sessions" t)
        (float_of_int cfg.Swarm.m *. sessions)
        (Array.fold_left (fun acc ph -> acc +. ph.(t)) 0.0 phase))
    live;
  Alcotest.(check bool) "phase 3 populated mid-run" true
    (Array.exists (fun v -> v > 0.0) phase.(3));
  check_drained ()

let test_determinism_fixed () =
  let once () =
    let s = run { base with Swarm.drop_every = 3; byz_every = 4; drop = 0.2 } in
    (Swarm.to_text s, Obs_series.to_csv s.Swarm.recorder)
  in
  let t1, csv1 = once () in
  let t2, csv2 = once () in
  Alcotest.(check string) "summary byte-identical" t1 t2;
  Alcotest.(check string) "telemetry byte-identical" csv1 csv2

let prop_determinism (fault_seed, attack_seed) =
  let cfg =
    { base with
      Swarm.sessions = 8;
      drop_every = 2;
      byz_every = 3;
      drop = 0.3;
      fault_seed;
      attack_seed;
    }
  in
  Swarm.to_text (run cfg) = Swarm.to_text (run cfg)

(* Outcomes of sids 0..3 must be identical whether they run alone or
   among four additional Byzantine-targeted sessions: per-session DRBGs,
   faults and adversaries are keyed by sid, and the engine gives a
   session no other way to observe its neighbours. *)
let test_isolation_invariance () =
  let small = run { base with Swarm.sessions = 4 } in
  let big =
    run
      { base with Swarm.sessions = 8 }
      ~attack_scope:(fun sid -> sid >= 4)
      ~fault_scope:(fun sid -> sid >= 6)
  in
  let tail (r : Shs_engine.report) =
    ( r.Shs_engine.r_sid,
      r.Shs_engine.r_disposition,
      r.Shs_engine.r_finished -. r.Shs_engine.r_admitted,
      r.Shs_engine.r_outcomes )
  in
  let small_reports = List.map tail small.Swarm.reports in
  let big_reports =
    List.filter_map
      (fun r ->
        if r.Shs_engine.r_sid < 4 then Some (tail r) else None)
      big.Swarm.reports
  in
  Alcotest.(check int) "four sessions each" 4 (List.length small_reports);
  Alcotest.(check bool) "outcomes invariant to unrelated sessions" true
    (small_reports = big_reports)

let test_admission_control () =
  let before = counter "engine.rejected" in
  let s =
    run
      { base with
        Swarm.sessions = 5;
        high_water = 2;
        mean_gap = 0.001;  (* the whole burst lands before anything ends *)
      }
  in
  Alcotest.(check int) "two admitted" 2 s.Swarm.admitted;
  Alcotest.(check int) "three rejected" 3 s.Swarm.rejected;
  Alcotest.(check int) "rejected counter" 3 (counter "engine.rejected" - before);
  Alcotest.(check bool) "typed Overloaded rejections counted" true
    (List.mem_assoc "engine.rejected.overloaded" (Shs_error.snapshot ()));
  Alcotest.(check int) "admitted sessions still complete" 2 s.Swarm.completed;
  check_drained ()

let test_deadline_shedding () =
  let before = counter "engine.shed" in
  (* a fully lossy channel on every session and a deadline far below the
     watchdog ladder: nothing can finish by itself, everything must be
     force-progressed to the §7 abort and reaped *)
  let s =
    run
      { base with Swarm.sessions = 6; drop_every = 1; drop = 1.0;
        deadline = 5.0 }
  in
  Alcotest.(check int) "everything shed" 6 s.Swarm.shed;
  Alcotest.(check int) "nothing completed" 0 s.Swarm.completed;
  Alcotest.(check int) "shed counter" 6 (counter "engine.shed" - before);
  (* shed, not leaked: every seat holds a terminal outcome *)
  List.iter
    (fun (r : Shs_engine.report) ->
      Alcotest.(check bool) "disposition shed" true
        (r.Shs_engine.r_disposition = Shs_engine.Shed);
      Array.iter
        (fun o ->
          match o with
          | Some (o : Gcd_types.outcome) ->
            Alcotest.(check bool) "aborted indistinguishably" true
              (o.Gcd_types.termination = Gcd_types.Aborted)
          | None -> Alcotest.fail "seat leaked without an outcome")
        r.Shs_engine.r_outcomes)
    s.Swarm.reports;
  check_drained ()

let test_backpressure () =
  let before = counter "engine.backpressure_dropped" in
  let s =
    run
      { base with
        Swarm.sessions = 8;
        m = 4;
        mean_gap = 0.001;
        inbox_capacity = 1;
        service_time = 0.5;
      }
  in
  Alcotest.(check bool) "inboxes actually overflowed" true
    (counter "engine.backpressure_dropped" - before > 0);
  Alcotest.(check int) "every session reached a disposition" 8
    (s.Swarm.completed + s.Swarm.shed + s.Swarm.poisoned);
  Alcotest.(check int) "none poisoned" 0 s.Swarm.poisoned;
  check_drained ()

(* A seat whose implementation raises must take down only its own
   session: the poisoned session is force-aborted and reaped while a
   healthy session on the same engine completes untouched. *)
let test_poisoned_isolation () =
  let before = counter "engine.poisoned" in
  let engine = Shs_engine.create () in
  let raising_driver =
    { Gcd_types.dr_n = 2;
      dr_start = (fun _ -> failwith "crashed seat");
      dr_receive = (fun _ ~src:_ ~payload:_ -> failwith "crashed seat");
      dr_force = (fun _ -> []);
      dr_outcome = (fun _ -> None);
      dr_phase = (fun _ -> 0);
      dr_peer_phase = (fun _ _ -> -1);
    }
  in
  let ga, members = Lazy.force world in
  let fmt = Scheme1.default_format ga in
  let healthy () =
    Scheme1.engine_driver ~fmt
      (Array.init 3 (fun seat ->
           { Scheme1.p_role = Scheme1.Member_of members.(seat);
             p_rng = Drbg.bytes_fn (Drbg.of_int_seed (9100 + seat));
           }))
  in
  (match Shs_engine.submit engine (fun () -> raising_driver) with
   | Shs_engine.Admitted 0 -> ()
   | _ -> Alcotest.fail "poisoned session not admitted as sid 0");
  (match Shs_engine.submit engine healthy with
   | Shs_engine.Admitted 1 -> ()
   | _ -> Alcotest.fail "healthy session not admitted as sid 1");
  Shs_engine.run engine;
  Alcotest.(check int) "poisoned counter" 1
    (counter "engine.poisoned" - before);
  (match Shs_engine.reports engine with
   | [ p; h ] ->
     Alcotest.(check bool) "sid 0 poisoned" true
       (p.Shs_engine.r_sid = 0
       && p.Shs_engine.r_disposition = Shs_engine.Poisoned
       && p.Shs_engine.r_error <> None);
     Alcotest.(check bool) "sid 1 completed" true
       (h.Shs_engine.r_sid = 1
       && h.Shs_engine.r_disposition = Shs_engine.Completed);
     Array.iter
       (fun o ->
         match o with
         | Some (o : Gcd_types.outcome) ->
           Alcotest.(check bool) "healthy seats complete" true
             (o.Gcd_types.termination = Gcd_types.Complete)
         | None -> Alcotest.fail "healthy seat missing outcome")
       h.Shs_engine.r_outcomes
   | rs ->
     Alcotest.failf "expected two reports, got %d" (List.length rs));
  Alcotest.(check int) "nothing live" 0 (Shs_engine.live engine);
  check_drained ()

(* A bad watchdog policy is refused before admission: no session, no
   counter and no gauge may be left behind by the refused call. *)
let test_bad_policy_leaves_nothing () =
  let engine = Shs_engine.create () in
  let ga, members = Lazy.force world in
  let fmt = Scheme1.default_format ga in
  let driver () =
    Scheme1.engine_driver ~fmt
      (Array.init 3 (fun seat ->
           { Scheme1.p_role = Scheme1.Member_of members.(seat);
             p_rng = Drbg.bytes_fn (Drbg.of_int_seed (9200 + seat));
           }))
  in
  let admitted = counter "engine.admitted" in
  let gauges = Obs.snapshot_gauges () in
  let wd = { Gcd_types.default_watchdog with Gcd_types.backoff = 0.5 } in
  Alcotest.check_raises "policy refused"
    (Invalid_argument "Shs_engine.submit: bad watchdog policy") (fun () ->
      ignore (Shs_engine.submit engine ~watchdog:wd driver));
  Alcotest.(check int) "nothing live" 0 (Shs_engine.live engine);
  Alcotest.(check int) "nothing admitted" admitted (counter "engine.admitted");
  Alcotest.(check (list (pair string int))) "every gauge unchanged" gauges
    (Obs.snapshot_gauges ());
  Shs_engine.run engine;
  Alcotest.(check int) "no report" 0 (List.length (Shs_engine.reports engine))

(* Without a watchdog and with an infinite deadline nothing can wake a
   session whose messages are all lost: it is reaped as [Stalled] when
   the scheduler drains, its seats as they stood, and [run_session]
   returns those seats without an outcome. *)
let test_stalled_reaped () =
  let ga, members = Lazy.force world in
  let fmt = Scheme1.default_format ga in
  let seats () =
    Array.init 3 (fun seat ->
        { Scheme1.p_role = Scheme1.Member_of members.(seat);
          p_rng = Drbg.bytes_fn (Drbg.of_int_seed (9300 + seat));
        })
  in
  let drop_all ~src:_ ~dst:_ ~payload:_ = Engine.Drop in
  let engine =
    Shs_engine.create
      ~config:
        { Shs_engine.default_config with
          Shs_engine.watchdog = None;
          deadline = Float.infinity;
        }
      ()
  in
  ignore
    (Shs_engine.submit engine ~adversary:drop_all (fun () ->
         Scheme1.engine_driver ~fmt (seats ())));
  Shs_engine.run engine;
  (match Shs_engine.reports engine with
   | [ r ] ->
     Alcotest.(check string) "stalled" "stalled"
       (Shs_engine.string_of_disposition r.Shs_engine.r_disposition);
     Alcotest.(check bool) "no seat terminated" true
       (Array.for_all Option.is_none r.Shs_engine.r_outcomes)
   | rs -> Alcotest.failf "expected one report, got %d" (List.length rs));
  Alcotest.(check int) "nothing live" 0 (Shs_engine.live engine);
  let r = Scheme1.run_session ~adversary:drop_all ~fmt (seats ()) in
  Alcotest.(check bool) "run_session: no outcomes" true
    (Array.for_all Option.is_none r.Gcd_types.outcomes);
  check_drained ()

let test_retx_bounds () =
  let before_evicted = counter "gcd.retx_evicted" in
  let before_bytes = gauge "gcd.retx_buffer_bytes" in
  let buf = Retx.create ~cap:3 () in
  Retx.record buf ~phase:0 [ (None, "aaaa"); (Some 1, "bbbb") ];
  Retx.record buf ~phase:1 [ (None, "cccc"); (None, "dddd"); (None, "eeee") ];
  Alcotest.(check int) "hard cap enforced" 3 (Retx.length buf);
  Alcotest.(check int) "evictions counted" 2
    (counter "gcd.retx_evicted" - before_evicted);
  Alcotest.(check int) "bytes tracked" 12 (Retx.bytes buf);
  Alcotest.(check int) "gauge tracks bytes" 12
    (gauge "gcd.retx_buffer_bytes" - before_bytes);
  (* everything left is phase 1: stale eviction at min peer phase 1
     keeps it, at phase 2 clears it *)
  Retx.evict_stale buf ~min_peer_phase:1;
  Alcotest.(check int) "fresh frames kept" 3 (Retx.length buf);
  Retx.evict_stale buf ~min_peer_phase:2;
  Alcotest.(check int) "stale frames evicted" 0 (Retx.length buf);
  Retx.record buf ~phase:2 [ (None, "ffff") ];
  Retx.clear buf;
  Alcotest.(check int) "clear empties the buffer" 0 (Retx.length buf);
  Alcotest.(check int) "gauge restored" before_bytes
    (gauge "gcd.retx_buffer_bytes")

let () =
  Alcotest.run "engine"
    [ ( "swarm",
        [ Alcotest.test_case "clean burst completes" `Quick test_clean_burst;
          Alcotest.test_case "determinism (fixed seeds + telemetry)" `Quick
            test_determinism_fixed;
          Alcotest.test_case "phase gauges agree mid-run" `Quick
            test_phase_gauges_mid_run;
          qtest "determinism (seed sweep)" ~count:4
            QCheck2.Gen.(pair (int_range 1 999) (int_range 1 999))
            prop_determinism;
        ] );
      ( "robustness",
        [ Alcotest.test_case "isolation: unrelated sessions" `Quick
            test_isolation_invariance;
          Alcotest.test_case "admission control (Overloaded)" `Quick
            test_admission_control;
          Alcotest.test_case "deadline shedding" `Quick test_deadline_shedding;
          Alcotest.test_case "inbox backpressure" `Quick test_backpressure;
          Alcotest.test_case "poisoned-session isolation" `Quick
            test_poisoned_isolation;
          Alcotest.test_case "bad policy leaves nothing" `Quick
            test_bad_policy_leaves_nothing;
          Alcotest.test_case "stalled session reaped" `Quick
            test_stalled_reaped;
        ] );
      ( "retx",
        [ Alcotest.test_case "bounded retransmission buffer" `Quick
            test_retx_bounds ] );
    ]
