(* Tests for the observability layer: counter/histogram math (including
   the log-bucket percentile estimates), span recording under both
   sinks, event tracing and the Chrome exporter, the exporters, the
   Obs_json codec (with property-based round-trips), the Obs_bench
   regression gate, and end-to-end handshakes whose span tree, message
   counters and causal event log are checked against the paper's O(m)
   communication claim. *)

let reset_all = Obs.reset_all

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_math () =
  reset_all ();
  let c = Obs.counter ~help:"test" "test.obs.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  Alcotest.(check int) "incr + add" 42 (Obs.value c);
  Obs.reset_counter c;
  Alcotest.(check int) "reset_counter" 0 (Obs.value c)

let test_counter_interning () =
  reset_all ();
  let a = Obs.counter "test.obs.shared" in
  let b = Obs.counter "test.obs.shared" in
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check int) "two handles, one counter" 2 (Obs.value a);
  Alcotest.(check bool) "snapshot carries it" true
    (List.mem_assoc "test.obs.shared" (Obs.snapshot_counters ()))

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_math () =
  reset_all ();
  let h = Obs.histogram "test.obs.hist" in
  List.iter (Obs.observe h) [ 3.0; 1.0; 2.0 ];
  let s = Obs.hist_stats h in
  Alcotest.(check int) "count" 3 s.Obs.count;
  Alcotest.(check (float 1e-9)) "sum" 6.0 s.Obs.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Obs.min;
  Alcotest.(check (float 1e-9)) "max" 3.0 s.Obs.max

let test_histogram_empty_omitted () =
  reset_all ();
  let _ = Obs.histogram "test.obs.never" in
  Alcotest.(check bool) "empty histogram not snapshotted" false
    (List.mem_assoc "test.obs.never" (Obs.snapshot_histograms ()))

let test_histogram_percentiles () =
  reset_all ();
  (* empty: quantiles are 0 *)
  let h = Obs.histogram "test.obs.pct" in
  Alcotest.(check (float 1e-9)) "empty p50" 0.0 (Obs.quantile h 0.5);
  (* a single observation is exact at every quantile *)
  Obs.observe h 7.0;
  let s = Obs.hist_stats h in
  Alcotest.(check (float 1e-9)) "single p50" 7.0 s.Obs.p50;
  Alcotest.(check (float 1e-9)) "single p99" 7.0 s.Obs.p99;
  (* 1..100: nearest-rank off the power-of-two buckets, interpolated
     inside the bucket, clamped to the observed max.  rank 50 falls in
     bucket [32,64) after 31 smaller samples: 32 + 19/32*32 = 51; ranks
     95 and 99 interpolate past the max and clamp to 100. *)
  let h = Obs.histogram "test.obs.pct100" in
  for v = 1 to 100 do
    Obs.observe h (float_of_int v)
  done;
  let s = Obs.hist_stats h in
  Alcotest.(check (float 1e-9)) "p50 of 1..100" 51.0 s.Obs.p50;
  Alcotest.(check (float 1e-9)) "p95 clamps to max" 100.0 s.Obs.p95;
  Alcotest.(check (float 1e-9)) "p99 clamps to max" 100.0 s.Obs.p99;
  Alcotest.(check bool) "monotone" true
    (s.Obs.p50 <= s.Obs.p95 && s.Obs.p95 <= s.Obs.p99);
  Alcotest.(check bool) "inside observed range" true
    (s.Obs.p50 >= s.Obs.min && s.Obs.p99 <= s.Obs.max);
  (* non-positive observations land in their own bucket and keep the
     estimates ordered and in range *)
  let h = Obs.histogram "test.obs.pctneg" in
  List.iter (Obs.observe h) [ -5.0; 0.0; 3.0; 40.0 ];
  let s = Obs.hist_stats h in
  Alcotest.(check bool) "nonpos kept in range" true
    (s.Obs.p50 >= -5.0 && s.Obs.p99 <= 40.0 && s.Obs.p50 <= s.Obs.p99)

(* a span tree allocates the same whatever its timings: the latency
   histograms it feeds must not allocate per bucket hit, or a profiled
   run's allocation (e13's prof.alloc.minor_words) follows the speed
   of the host it ran on *)
let test_span_alloc_independent_of_timing () =
  let run growth =
    reset_all ();
    Obs.set_sink Obs.Memory;
    let t = ref 0.0 and d = ref 1e-6 in
    Obs.set_clock (fun () ->
        t := !t +. !d;
        d := !d *. growth;
        !t);
    let w0 = Gc.minor_words () in
    for _ = 1 to 20 do
      Obs.span "test.obs.alloc.outer" (fun () ->
          Obs.span "test.obs.alloc.inner" (fun () -> ()))
    done;
    let words = Gc.minor_words () -. w0 in
    reset_all ();
    words
  in
  (* the first run creates the two span histograms *)
  ignore (run 1.0);
  Alcotest.(check (float 0.0)) "same minor words, one bucket or forty"
    (run 1.0) (run 2.0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_noop_sink () =
  reset_all ();
  Alcotest.(check bool) "default sink" true (Obs.current_sink () = Obs.Noop);
  let v = Obs.span "test.noop" (fun () -> 42) in
  Alcotest.(check int) "span is transparent" 42 v;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.trace ()));
  Alcotest.check_raises "exceptions propagate" Exit (fun () ->
      Obs.span "test.noop" (fun () -> raise Exit))

let test_span_nesting_deterministic () =
  reset_all ();
  Obs.set_sink Obs.Memory;
  Obs.set_clock (Obs.manual_clock ~start:0.0 ~step:1.0 ());
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> ());
      Obs.span "inner" (fun () -> ()));
  Obs.span "outer" (fun () -> ());
  (match Obs.trace () with
   | [ { Obs.span_name = "outer"; calls = 2; total_ns; children } ] ->
     (* fake clock: one tick per reading, so the timings are exact *)
     Alcotest.(check (float 1e-9)) "outer total" 6.0 total_ns;
     (match children with
      | [ { Obs.span_name = "inner"; calls = 2; total_ns; children = [] } ] ->
        Alcotest.(check (float 1e-9)) "inner total" 2.0 total_ns
      | _ -> Alcotest.fail "inner spans not aggregated")
   | t -> Alcotest.fail (Printf.sprintf "unexpected trace shape (%d roots)" (List.length t)));
  (* spans auto-feed a latency histogram per name *)
  let s = Obs.hist_stats (Obs.histogram "inner") in
  Alcotest.(check int) "latency histogram fed" 2 s.Obs.count;
  reset_all ()

let test_span_exception_closes () =
  reset_all ();
  Obs.set_sink Obs.Memory;
  Alcotest.check_raises "propagates" Exit (fun () ->
      Obs.span "test.raise" (fun () -> raise Exit));
  (match Obs.trace () with
   | [ { Obs.span_name = "test.raise"; calls = 1; _ } ] -> ()
   | _ -> Alcotest.fail "span not closed on exception");
  reset_all ()

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_prometheus_export () =
  reset_all ();
  let c = Obs.counter ~help:"a test counter" "test.prom.hits" in
  Obs.incr c;
  Obs.observe (Obs.histogram "test.prom.lat") 2.5;
  let out = Obs.to_prometheus () in
  let mem s =
    let n = String.length s and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "TYPE line" true (mem "# TYPE shs_test_prom_hits counter");
  Alcotest.(check bool) "counter sample" true (mem "shs_test_prom_hits 1");
  Alcotest.(check bool) "summary count" true (mem "shs_test_prom_lat_count 1");
  Alcotest.(check bool) "summary sum" true (mem "shs_test_prom_lat_sum 2.5")

let test_json_export_roundtrip () =
  reset_all ();
  Obs.set_sink Obs.Memory;
  Obs.incr (Obs.counter "test.json.c");
  Obs.span "test.json.root" (fun () -> Obs.span "test.json.leaf" (fun () -> ()));
  let doc = Obs.to_json () in
  let text = Obs_json.to_string ~pretty:true doc in
  (match Obs_json.of_string text with
   | None -> Alcotest.fail "exported JSON does not parse"
   | Some reparsed ->
     Alcotest.(check string) "serialize/parse/serialize is stable" text
       (Obs_json.to_string ~pretty:true reparsed);
     (match Obs_json.member "counters" reparsed with
      | Some (Obs_json.Obj kvs) ->
        Alcotest.(check bool) "counter present" true
          (List.mem_assoc "test.json.c" kvs)
      | _ -> Alcotest.fail "no counters object"));
  reset_all ()

(* ------------------------------------------------------------------ *)
(* Obs_json codec                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_parser_accepts () =
  (match Obs_json.of_string "{\"a\": [1, 2.5, true, null, \"x\\n\\u0041\"]}" with
   | Some
       (Obs_json.Obj
          [ ("a",
             Obs_json.List
               [ Obs_json.Int 1; Obs_json.Float 2.5; Obs_json.Bool true;
                 Obs_json.Null; Obs_json.Str "x\nA" ]) ]) -> ()
   | _ -> Alcotest.fail "parse mismatch");
  match Obs_json.of_string "  -12  " with
  | Some (Obs_json.Int -12) -> ()
  | _ -> Alcotest.fail "negative int"

let test_json_parser_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ String.escaped s) true
        (Obs_json.of_string s = None))
    [ ""; "{"; "[1,]"; "tru"; "1 2"; "\"\\q\""; "{\"a\" 1}"; "\"unterminated" ]

let test_json_string_escaping () =
  let s = Obs_json.Str "a\"b\\c\nd\te\x01f" in
  let text = Obs_json.to_string s in
  match Obs_json.of_string text with
  | Some (Obs_json.Str v) -> Alcotest.(check string) "escape roundtrip" "a\"b\\c\nd\te\x01f" v
  | _ -> Alcotest.fail "string did not roundtrip"

(* property-based: serialize/parse is the identity on the value model.
   Two serializer quirks shape the generator: non-finite floats encode
   as null, and integral floats print with no fraction and so reparse as
   Int — both excluded by construction (the +0.5 keeps every generated
   float fractional and finite). *)
let json_value_gen =
  let open QCheck.Gen in
  let key = string_size ~gen:printable (int_range 0 6) in
  let leaf =
    oneof
      [ return Obs_json.Null;
        map (fun b -> Obs_json.Bool b) bool;
        map (fun i -> Obs_json.Int i) small_signed_int;
        map
          (fun i -> Obs_json.Float (float_of_int i +. 0.5))
          (int_range (-1000) 1000);
        map (fun s -> Obs_json.Str s) (string_size ~gen:printable (int_range 0 8));
      ]
  in
  let rec tree n =
    if n <= 0 then leaf
    else
      oneof
        [ leaf;
          map (fun l -> Obs_json.List l) (list_size (int_range 0 4) (tree (n - 1)));
          map
            (fun kvs -> Obs_json.Obj kvs)
            (list_size (int_range 0 4) (pair key (tree (n - 1))));
        ]
  in
  tree 3

let json_value_arb =
  QCheck.make json_value_gen ~print:(Obs_json.to_string ~pretty:true)

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_string (to_string v) = Some v"
    json_value_arb (fun v ->
      Obs_json.of_string (Obs_json.to_string v) = Some v
      && Obs_json.of_string (Obs_json.to_string ~pretty:true v) = Some v)

let qcheck_json_truncation =
  (* the parser is total: every proper prefix of a serialized container
     is rejected with None, never an exception *)
  QCheck.Test.make ~count:200 ~name:"proper prefixes of containers parse to None"
    json_value_arb (fun v ->
      let container = match v with Obs_json.Obj _ | Obs_json.List _ -> true | _ -> false in
      QCheck.assume container;
      let s = Obs_json.to_string v in
      let ok = ref true in
      for l = 0 to String.length s - 1 do
        if Obs_json.of_string (String.sub s 0 l) <> None then ok := false
      done;
      !ok)

let qcheck_json_garbage =
  QCheck.Test.make ~count:500 ~name:"arbitrary bytes never raise"
    QCheck.(string_gen (Gen.map Char.chr (Gen.int_range 0 255)))
    (fun s ->
      ignore (Obs_json.of_string s);
      true)

(* ------------------------------------------------------------------ *)
(* Event tracing and the Chrome exporter                               *)
(* ------------------------------------------------------------------ *)

let test_events_off_by_default () =
  reset_all ();
  Alcotest.(check bool) "disabled after reset_all" false (Obs.events_enabled ());
  Obs.instant "test.ev.never";
  Alcotest.(check int) "instant is a no-op" 0 (List.length (Obs.events ()));
  Alcotest.(check int) "flow_send returns 0" 0 (Obs.flow_send "test.ev.never")

let test_reset_all_restores_defaults () =
  reset_all ();
  Obs.set_sink Obs.Memory;
  Obs.set_events true;
  Obs.set_clock (Obs.manual_clock ());
  Obs.set_event_clock (Obs.manual_clock ());
  Obs.set_track "party-9";
  Obs.instant "test.ev.x";
  Obs.reset_all ();
  Alcotest.(check bool) "sink back to Noop" true (Obs.current_sink () = Obs.Noop);
  Alcotest.(check bool) "events off" false (Obs.events_enabled ());
  Alcotest.(check string) "track back to main" "main" (Obs.current_track ());
  Alcotest.(check int) "log cleared" 0 (List.length (Obs.events ()))

let test_chrome_trace_golden () =
  (* a fixed scenario under the manual event clock must export an exact,
     reproducible Chrome trace_event document: metadata first, tids in
     first-appearance order, B/E on the begin-time track, "s":"t" on
     instants, matching flow ids with bt:"e" on the finish edge *)
  reset_all ();
  Obs.set_events true;
  Obs.set_event_clock (Obs.manual_clock ~start:0.0 ~step:1.0 ());
  Obs.span "work" (fun () ->
      Obs.instant "tick" ~args:[ ("kind", "demo") ];
      let id = Obs.flow_send "msg" in
      Obs.set_track "party-0";
      Obs.flow_recv "msg" ~id);
  let expected =
    Obs_json.Obj
      [ ("traceEvents",
         Obs_json.List
           [ Obs_json.Obj
               [ ("name", Obs_json.Str "process_name");
                 ("ph", Obs_json.Str "M");
                 ("pid", Obs_json.Int 1);
                 ("args", Obs_json.Obj [ ("name", Obs_json.Str "shs-sim") ]);
               ];
             Obs_json.Obj
               [ ("name", Obs_json.Str "thread_name");
                 ("ph", Obs_json.Str "M");
                 ("pid", Obs_json.Int 1);
                 ("tid", Obs_json.Int 1);
                 ("args", Obs_json.Obj [ ("name", Obs_json.Str "main") ]);
               ];
             Obs_json.Obj
               [ ("name", Obs_json.Str "thread_name");
                 ("ph", Obs_json.Str "M");
                 ("pid", Obs_json.Int 1);
                 ("tid", Obs_json.Int 2);
                 ("args", Obs_json.Obj [ ("name", Obs_json.Str "party-0") ]);
               ];
             Obs_json.Obj
               [ ("name", Obs_json.Str "work");
                 ("ph", Obs_json.Str "B");
                 ("pid", Obs_json.Int 1);
                 ("tid", Obs_json.Int 1);
                 ("ts", Obs_json.Float 0.0);
               ];
             Obs_json.Obj
               [ ("name", Obs_json.Str "tick");
                 ("ph", Obs_json.Str "i");
                 ("pid", Obs_json.Int 1);
                 ("tid", Obs_json.Int 1);
                 ("ts", Obs_json.Float 1.0);
                 ("s", Obs_json.Str "t");
                 ("args", Obs_json.Obj [ ("kind", Obs_json.Str "demo") ]);
               ];
             Obs_json.Obj
               [ ("name", Obs_json.Str "msg");
                 ("ph", Obs_json.Str "s");
                 ("pid", Obs_json.Int 1);
                 ("tid", Obs_json.Int 1);
                 ("ts", Obs_json.Float 2.0);
                 ("cat", Obs_json.Str "net");
                 ("id", Obs_json.Int 1);
               ];
             Obs_json.Obj
               [ ("name", Obs_json.Str "msg");
                 ("ph", Obs_json.Str "f");
                 ("pid", Obs_json.Int 1);
                 ("tid", Obs_json.Int 2);
                 ("ts", Obs_json.Float 3.0);
                 ("cat", Obs_json.Str "net");
                 ("id", Obs_json.Int 1);
                 ("bt", Obs_json.Str "e");
               ];
             Obs_json.Obj
               [ ("name", Obs_json.Str "work");
                 ("ph", Obs_json.Str "E");
                 ("pid", Obs_json.Int 1);
                 ("tid", Obs_json.Int 1);
                 ("ts", Obs_json.Float 4.0);
               ];
           ]);
        ("displayTimeUnit", Obs_json.Str "ms");
      ]
  in
  Alcotest.(check string) "golden chrome trace"
    (Obs_json.to_string ~pretty:true expected)
    (Obs_json.to_string ~pretty:true (Obs.to_chrome_trace ()));
  reset_all ()

(* ------------------------------------------------------------------ *)
(* Obs_bench: shs-bench/1 extraction and the regression gate           *)
(* ------------------------------------------------------------------ *)

let bench_doc experiments =
  Obs_json.Obj
    [ ("schema", Obs_json.Str "shs-bench/1");
      ("experiments",
       Obs_json.List
         (List.map
            (fun (name, rows) ->
              Obs_json.Obj
                [ ("name", Obs_json.Str name);
                  ("series",
                   Obs_json.List
                     (List.map
                        (fun (series, param, value, unit_) ->
                          Obs_json.Obj
                            [ ("series", Obs_json.Str series);
                              ("param",
                               match param with
                               | Some p -> Obs_json.Int p
                               | None -> Obs_json.Null);
                              ("value", Obs_json.Float value);
                              ("unit", Obs_json.Str unit_);
                            ])
                        rows));
                ])
            experiments));
    ]

let compare_exn ~tolerance ~baseline ~current =
  match Obs_bench.compare_docs ~tolerance ~baseline ~current () with
  | Ok c -> c
  | Error msg -> Alcotest.fail ("compare_docs: " ^ msg)

let test_bench_compare_pass_and_fail () =
  let baseline =
    bench_doc
      [ ("e2",
         [ ("msgs/party", Some 4, 16.0, "count");
           ("wall", Some 4, 1000.0, "ns") ]) ]
  in
  (* identical → PASS; the ns row is not tracked *)
  let c = compare_exn ~tolerance:0.15 ~baseline ~current:baseline in
  Alcotest.(check bool) "identical passes" true (Obs_bench.passed c);
  Alcotest.(check int) "ns series not tracked" 1 c.Obs_bench.compared;
  (* +25% on the count → FAIL at 15%, PASS at 30%; 10x on the ns row is
     always ignored *)
  let current =
    bench_doc
      [ ("e2",
         [ ("msgs/party", Some 4, 20.0, "count");
           ("wall", Some 4, 10000.0, "ns") ]) ]
  in
  let c = compare_exn ~tolerance:0.15 ~baseline ~current in
  Alcotest.(check int) "one violation" 1 (List.length c.Obs_bench.violations);
  Alcotest.(check bool) "fails at 15%" false (Obs_bench.passed c);
  let c = compare_exn ~tolerance:0.30 ~baseline ~current in
  Alcotest.(check bool) "passes at 30%" true (Obs_bench.passed c);
  (* rendering names the offender and the verdict *)
  let c = compare_exn ~tolerance:0.15 ~baseline ~current in
  let rendered = Obs_bench.render ~tolerance:0.15 c in
  let mem s =
    let n = String.length s and m = String.length rendered in
    let rec go i = i + n <= m && (String.sub rendered i n = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render names series" true (mem "msgs/party");
  Alcotest.(check bool) "render says FAIL" true (mem "FAIL")

let test_bench_compare_zero_and_missing () =
  let baseline =
    bench_doc
      [ ("e10",
         [ ("dropped", Some 0, 0.0, "count");
           ("complete", Some 0, 1.0, "fraction") ]) ]
  in
  (* a zero baseline admits only zero *)
  let current =
    bench_doc
      [ ("e10",
         [ ("dropped", Some 0, 2.0, "count");
           ("complete", Some 0, 1.0, "fraction") ]) ]
  in
  let c = compare_exn ~tolerance:0.15 ~baseline ~current in
  Alcotest.(check int) "zero->nonzero violates" 1 (List.length c.Obs_bench.violations);
  (* a tracked row vanishing from a run that includes its experiment *)
  let current = bench_doc [ ("e10", [ ("complete", Some 0, 1.0, "fraction") ]) ] in
  let c = compare_exn ~tolerance:0.15 ~baseline ~current in
  Alcotest.(check int) "missing detected" 1 (List.length c.Obs_bench.missing);
  Alcotest.(check bool) "missing fails" false (Obs_bench.passed c);
  (* an experiment absent from the current run entirely is skipped, so
     --only subsets compare cleanly *)
  let current = bench_doc [ ("e1", [ ("exps", Some 2, 45.0, "count") ]) ] in
  let c = compare_exn ~tolerance:0.15 ~baseline ~current in
  Alcotest.(check bool) "absent experiment skipped" true (Obs_bench.passed c);
  Alcotest.(check int) "nothing compared" 0 c.Obs_bench.compared;
  (* malformed documents are an Error, not a crash *)
  (match
     Obs_bench.compare_docs ~tolerance:0.15
       ~baseline:(Obs_json.Obj [ ("schema", Obs_json.Str "other/9") ])
       ~current:baseline ()
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "wrong schema accepted")

(* ------------------------------------------------------------------ *)
(* End-to-end: a real handshake seen through the registry              *)
(* ------------------------------------------------------------------ *)

module W1 = World.Make (Scheme1)

let span_names t = List.map (fun n -> n.Obs.span_name) t

let test_e2e_handshake_trace () =
  reset_all ();
  let w = W1.create 7300 in
  let _ = W1.populate w [ "u0"; "u1" ] in
  Obs.set_sink Obs.Memory;
  Obs.reset ();
  let r = W1.handshake w [ "u0"; "u1" ] in
  (match r.Gcd_types.outcomes.(0) with
   | Some o -> Alcotest.(check bool) "accepted" true o.Gcd_types.accepted
   | None -> Alcotest.fail "no outcome");
  (match List.find_opt (fun n -> n.Obs.span_name = "gcd.handshake") (Obs.trace ()) with
   | None -> Alcotest.fail "no gcd.handshake root span"
   | Some root ->
     Alcotest.(check int) "one session" 1 root.Obs.calls;
     let kids = span_names root.Obs.children in
     List.iter
       (fun phase ->
         Alcotest.(check bool) (phase ^ " recorded") true (List.mem phase kids))
       [ "gcd.handshake.dgka"; "gcd.handshake.phase2"; "gcd.handshake.phase3";
         "gcd.handshake.finalize" ]);
  Alcotest.(check int) "gcd.sessions counter" 1
    (Obs.value (Obs.counter "gcd.sessions"));
  reset_all ()

let test_e2e_message_complexity () =
  (* E2 / paper sections 8.1-8.2: with BD as the DGKA each of the m
     parties broadcasts exactly 4 messages, so the registry must read
     4m after a session, for any m *)
  reset_all ();
  let w = W1.create 7400 in
  let _ = W1.populate w [ "u0"; "u1"; "u2" ] in
  let msgs = Obs.counter "net.messages" in
  List.iter
    (fun uids ->
      let m = List.length uids in
      Obs.reset ();
      let r = W1.handshake w uids in
      (match r.Gcd_types.outcomes.(0) with
       | Some o -> Alcotest.(check bool) "accepted" true o.Gcd_types.accepted
       | None -> Alcotest.fail "no outcome");
      Alcotest.(check int)
        (Printf.sprintf "net.messages = 4m for m=%d" m)
        (4 * m) (Obs.value msgs))
    [ [ "u0"; "u1" ]; [ "u0"; "u1"; "u2" ] ];
  reset_all ()

let test_e2e_lossy_event_log () =
  (* a lossy 4-party session with events on: every delivery must form a
     causal send→receive edge (ids matching, send before receive, on sim
     time), fault outcomes and watchdog recoveries must be visible as
     instants, and the per-party phase spans must appear on party
     tracks *)
  reset_all ();
  let w = W1.create 7500 in
  let _ = W1.populate w [ "a"; "b"; "c"; "d" ] in
  Obs.set_events true;
  let faults = Faults.create ~drop:0.25 ~duplicate:0.1 ~jitter:0.3 ~seed:5 () in
  let r =
    W1.handshake ~faults ~watchdog:Gcd_types.default_watchdog w
      [ "a"; "b"; "c"; "d" ]
  in
  Array.iteri
    (fun i o ->
      Alcotest.(check bool) (Printf.sprintf "party %d terminated" i) true
        (o <> None))
    r.Gcd_types.outcomes;
  let evs = Obs.events () in
  let sends = Hashtbl.create 64 in
  let recvs = ref 0 in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.ev_kind with
      | Obs.Flow_send -> Hashtbl.replace sends e.Obs.ev_id e.Obs.ev_ts
      | Obs.Flow_recv ->
        incr recvs;
        (match Hashtbl.find_opt sends e.Obs.ev_id with
         | None -> Alcotest.fail "flow receive without a matching send"
         | Some t0 ->
           Alcotest.(check bool) "causal order on sim time" true
             (e.Obs.ev_ts >= t0))
      | _ -> ())
    evs;
  Alcotest.(check bool) "edges exist" true (!recvs > 0);
  Alcotest.(check int) "one edge per delivery" r.Gcd_types.stats.Engine.deliveries
    !recvs;
  (* flow ids are minted only for copies that actually get scheduled
     (fault-plan drops happen before the id is minted), so with no
     crashed receivers every edge completes *)
  Alcotest.(check int) "no dangling sends without crashes"
    (Hashtbl.length sends) !recvs;
  let instants = Obs.instant_counts () in
  Alcotest.(check int) "drop instants" r.Gcd_types.stats.Engine.dropped
    (try List.assoc "net.drop" instants with Not_found -> 0);
  Alcotest.(check bool) "retransmissions visible" true
    (List.mem_assoc "gcd.retransmit" instants);
  Alcotest.(check bool) "phase spans on party tracks" true
    (List.exists
       (fun (e : Obs.event) ->
         e.Obs.ev_kind = Obs.Span_begin
         && e.Obs.ev_name = "gcd.handshake.phase2"
         && String.length e.Obs.ev_track > 6
         && String.sub e.Obs.ev_track 0 6 = "party-")
       evs);
  reset_all ()

(* One seeded lossy 3-party session from a freshly built world (member
   DRBGs are stateful), summarized as what it did on the network, how
   long it took, what the gcd layer rejected and how each seat ended. *)
let lossy_summary ?latency ~events () =
  reset_all ();
  let w = W1.create 7600 in
  let _ = W1.populate w [ "a"; "b"; "c" ] in
  Obs.set_events events;
  let faults = Faults.create ~drop:0.2 ~duplicate:0.1 ~jitter:0.3 ~seed:9 () in
  let r =
    W1.handshake ~faults ~watchdog:Gcd_types.default_watchdog ?latency w
      [ "a"; "b"; "c" ]
  in
  let st = r.Gcd_types.stats in
  let s =
    ( ( st.Engine.deliveries, st.Engine.dropped, st.Engine.duplicated,
        Array.to_list st.Engine.messages_sent,
        Array.to_list st.Engine.bytes_sent ),
      r.Gcd_types.duration,
      Shs_error.rejected ~layer:"gcd",
      Array.map
        (Option.map (fun o ->
             (o.Gcd_types.termination, o.Gcd_types.partners,
              o.Gcd_types.session_key)))
        r.Gcd_types.outcomes )
  in
  reset_all ();
  s

let test_e2e_tracing_transparent () =
  (* enabling events must not change protocol behaviour or metrics:
     tracing draws no DRBG randomness and touches no payload byte *)
  Alcotest.(check bool) "tracing is observation-only" true
    (lossy_summary ~events:false () = lossy_summary ~events:true ())

let test_e2e_events_toggled_in_flight () =
  (* events switched off at the 10th send, while traced copies are still
     in flight, must leave the session exactly as an untraced run: the
     flow id rides the scheduled delivery, not the payload, so no seat
     can receive tracing bytes *)
  let sends = ref 0 in
  let latency ~src:_ ~dst:_ =
    incr sends;
    if !sends = 10 then Obs.set_events false;
    1.0
  in
  let stats, duration, rejected, outcomes = lossy_summary ~events:false () in
  let stats', duration', rejected', outcomes' =
    lossy_summary ~latency ~events:true ()
  in
  Alcotest.(check int) "gcd rejections" rejected rejected';
  Alcotest.(check (float 0.0)) "duration" duration duration';
  Alcotest.(check bool) "stats" true (stats = stats');
  Alcotest.(check bool) "outcomes" true (outcomes = outcomes')

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [ ( "counters",
        [ Alcotest.test_case "math" `Quick test_counter_math;
          Alcotest.test_case "interning" `Quick test_counter_interning;
        ] );
      ( "histograms",
        [ Alcotest.test_case "math" `Quick test_histogram_math;
          Alcotest.test_case "empty omitted" `Quick test_histogram_empty_omitted;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "span allocation independent of timing" `Quick
            test_span_alloc_independent_of_timing;
        ] );
      ( "spans",
        [ Alcotest.test_case "noop sink" `Quick test_noop_sink;
          Alcotest.test_case "nesting, manual clock" `Quick
            test_span_nesting_deterministic;
          Alcotest.test_case "exception closes span" `Quick
            test_span_exception_closes;
        ] );
      ( "exporters",
        [ Alcotest.test_case "prometheus text" `Quick test_prometheus_export;
          Alcotest.test_case "json roundtrip" `Quick test_json_export_roundtrip;
        ] );
      ( "obs_json",
        [ Alcotest.test_case "parser accepts" `Quick test_json_parser_accepts;
          Alcotest.test_case "parser rejects" `Quick test_json_parser_rejects;
          Alcotest.test_case "string escaping" `Quick test_json_string_escaping;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_json_truncation;
          QCheck_alcotest.to_alcotest qcheck_json_garbage;
        ] );
      ( "events",
        [ Alcotest.test_case "off by default" `Quick test_events_off_by_default;
          Alcotest.test_case "reset_all restores defaults" `Quick
            test_reset_all_restores_defaults;
          Alcotest.test_case "chrome trace golden" `Quick test_chrome_trace_golden;
        ] );
      ( "bench gate",
        [ Alcotest.test_case "pass and fail" `Quick test_bench_compare_pass_and_fail;
          Alcotest.test_case "zero baselines and missing series" `Quick
            test_bench_compare_zero_and_missing;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "handshake span tree" `Slow test_e2e_handshake_trace;
          Alcotest.test_case "O(m) messages from registry" `Slow
            test_e2e_message_complexity;
          Alcotest.test_case "lossy session event log" `Slow
            test_e2e_lossy_event_log;
          Alcotest.test_case "tracing is transparent" `Slow
            test_e2e_tracing_transparent;
          Alcotest.test_case "events toggled in flight" `Slow
            test_e2e_events_toggled_in_flight;
        ] );
    ]
