(* Tests for the discrete-event scheduler, the network engine and the
   wire codec. *)

let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_sim_ties_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "insertion order on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_sim_nested () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () ->
      log := ("t1", Sim.now sim) :: !log;
      Sim.schedule sim ~delay:0.5 (fun () -> log := ("t1.5", Sim.now sim) :: !log));
  Sim.schedule sim ~delay:2.0 (fun () -> log := ("t2", Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 0.001)))) "nested scheduling"
    [ ("t1", 1.0); ("t1.5", 1.5); ("t2", 2.0) ]
    (List.rev !log)

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> Sim.schedule sim ~delay:(-1.0) (fun () -> ()))

let test_sim_drained_deterministic () =
  (* A drained scheduler must report pending = 0 and a processed count
     that is identical across identical runs — the property the tracing
     layer's deterministic timestamps rest on. *)
  let run_once () =
    let net = Engine.create ~n:3 () in
    for i = 0 to 2 do
      Engine.set_receiver net i (fun ~src ~payload ->
          if payload = "ping" && i <> src then Engine.send net ~src:i ~dst:src "pong")
    done;
    Engine.broadcast net ~src:0 "ping";
    Engine.run net;
    let sim = Engine.sim net in
    (Sim.pending sim, Sim.events_processed sim)
  in
  let p1, c1 = run_once () in
  let p2, c2 = run_once () in
  Alcotest.(check int) "drained" 0 p1;
  Alcotest.(check int) "drained (2nd run)" 0 p2;
  Alcotest.(check bool) "work happened" true (c1 > 0);
  Alcotest.(check int) "stable processed count" c1 c2

let test_sim_heap_stress () =
  (* Many events with pseudo-random delays must fire in sorted order. *)
  let sim = Sim.create () in
  let delays =
    List.init 1000 (fun i -> float_of_int ((i * 7919) mod 997) /. 10.0)
  in
  let fired = ref [] in
  List.iter (fun d -> Sim.schedule sim ~delay:d (fun () -> fired := d :: !fired)) delays;
  Sim.run sim;
  let fired = List.rev !fired in
  Alcotest.(check int) "all fired" 1000 (List.length fired);
  Alcotest.(check (list (float 0.0001))) "sorted" (List.sort compare delays) fired

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_broadcast () =
  let net = Engine.create ~n:4 () in
  let seen = Array.make 4 [] in
  for i = 0 to 3 do
    Engine.set_receiver net i (fun ~src ~payload -> seen.(i) <- (src, payload) :: seen.(i))
  done;
  Engine.broadcast net ~src:1 "hello";
  Engine.run net;
  Alcotest.(check (list (pair int string))) "party 0" [ (1, "hello") ] seen.(0);
  Alcotest.(check (list (pair int string))) "party 1 (no self)" [] seen.(1);
  Alcotest.(check (list (pair int string))) "party 2" [ (1, "hello") ] seen.(2);
  let st = Engine.stats net in
  Alcotest.(check int) "one message accounted" 1 st.Engine.messages_sent.(1);
  Alcotest.(check int) "bytes" 5 st.Engine.bytes_sent.(1);
  Alcotest.(check int) "three deliveries" 3 st.Engine.deliveries

let test_engine_unicast_and_reply () =
  let net = Engine.create ~n:2 () in
  let transcript = ref [] in
  Engine.set_receiver net 0 (fun ~src ~payload ->
      transcript := (0, src, payload) :: !transcript);
  Engine.set_receiver net 1 (fun ~src ~payload ->
      transcript := (1, src, payload) :: !transcript;
      if payload = "ping" then Engine.send net ~src:1 ~dst:0 "pong");
  Engine.send net ~src:0 ~dst:1 "ping";
  Engine.run net;
  Alcotest.(check (list (triple int int string))) "ping-pong"
    [ (1, 0, "ping"); (0, 1, "pong") ]
    (List.rev !transcript)

let test_engine_adversary_drop () =
  let adversary ~src:_ ~dst ~payload:_ =
    if dst = 2 then Engine.Drop else Engine.Deliver
  in
  let net = Engine.create ~adversary ~n:3 () in
  let got = Array.make 3 0 in
  for i = 0 to 2 do
    Engine.set_receiver net i (fun ~src:_ ~payload:_ -> got.(i) <- got.(i) + 1)
  done;
  Engine.broadcast net ~src:0 "x";
  Engine.run net;
  Alcotest.(check int) "party 1 got it" 1 got.(1);
  Alcotest.(check int) "party 2 starved" 0 got.(2)

let test_engine_adversary_replace () =
  let adversary ~src:_ ~dst:_ ~payload:_ = Engine.Replace "evil" in
  let net = Engine.create ~adversary ~n:2 () in
  let got = ref "" in
  Engine.set_receiver net 1 (fun ~src:_ ~payload -> got := payload);
  Engine.send net ~src:0 ~dst:1 "genuine";
  Engine.run net;
  Alcotest.(check string) "tampered" "evil" !got

let test_engine_latency_order () =
  (* A slower link must deliver later even if sent earlier. *)
  let latency ~src:_ ~dst = if dst = 1 then 5.0 else 1.0 in
  let net = Engine.create ~latency ~n:3 () in
  let log = ref [] in
  Engine.set_receiver net 1 (fun ~src:_ ~payload:_ -> log := 1 :: !log);
  Engine.set_receiver net 2 (fun ~src:_ ~payload:_ -> log := 2 :: !log);
  Engine.broadcast net ~src:0 "m";
  Engine.run net;
  Alcotest.(check (list int)) "fast link first" [ 2; 1 ] (List.rev !log)

let test_engine_no_receiver_error () =
  (* delivery to a party that never registered a receiver is a harness
     bug; it used to be silently counted as a delivery *)
  let net = Engine.create ~n:2 () in
  Engine.set_receiver net 0 (fun ~src:_ ~payload:_ -> ());
  Engine.send net ~src:0 ~dst:1 "x";
  Alcotest.check_raises "missing receiver"
    (Failure "Engine: delivery from 0 to party 1, which has no receiver")
    (fun () -> Engine.run net);
  Alcotest.(check int) "not counted as delivered" 0
    (Engine.stats net).Engine.deliveries

let test_engine_negative_latency () =
  let latency ~src:_ ~dst = if dst = 1 then -0.5 else 1.0 in
  let net = Engine.create ~latency ~n:2 () in
  Engine.set_receiver net 1 (fun ~src:_ ~payload:_ -> ());
  Alcotest.check_raises "offending link named"
    (Invalid_argument "Engine: latency function returned -0.5 on link 0->1")
    (fun () -> Engine.send net ~src:0 ~dst:1 "x")

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let run_faulty ~seed ~drop ~duplicate ~jitter =
  let faults = Faults.create ~drop ~duplicate ~jitter ~seed () in
  let net = Engine.create ~faults ~n:4 () in
  let got = ref [] in
  for i = 0 to 3 do
    Engine.set_receiver net i (fun ~src ~payload ->
        got := (i, src, payload) :: !got)
  done;
  for k = 0 to 9 do
    Engine.broadcast net ~src:(k mod 4) (Printf.sprintf "m%d" k)
  done;
  Engine.run net;
  (Engine.stats net, List.rev !got)

let test_faults_deterministic () =
  let s1, g1 = run_faulty ~seed:5 ~drop:0.3 ~duplicate:0.2 ~jitter:0.5 in
  let s2, g2 = run_faulty ~seed:5 ~drop:0.3 ~duplicate:0.2 ~jitter:0.5 in
  Alcotest.(check int) "same drops" s1.Engine.dropped s2.Engine.dropped;
  Alcotest.(check int) "same duplicates" s1.Engine.duplicated s2.Engine.duplicated;
  Alcotest.(check (list (triple int int string))) "same transcript" g1 g2;
  Alcotest.(check bool) "faults actually fired" true
    (s1.Engine.dropped > 0 && s1.Engine.duplicated > 0);
  (* a different seed gives a different schedule *)
  let s3, g3 = run_faulty ~seed:6 ~drop:0.3 ~duplicate:0.2 ~jitter:0.5 in
  Alcotest.(check bool) "seed matters" true
    (g3 <> g1 || s3.Engine.dropped <> s1.Engine.dropped)

let test_faults_drop_all () =
  let faults = Faults.create ~drop:1.0 ~seed:1 () in
  let net = Engine.create ~faults ~n:3 () in
  for i = 0 to 2 do
    Engine.set_receiver net i (fun ~src:_ ~payload:_ ->
        Alcotest.fail "nothing should be delivered")
  done;
  Engine.broadcast net ~src:0 "x";
  Engine.run net;
  let st = Engine.stats net in
  Alcotest.(check int) "no deliveries" 0 st.Engine.deliveries;
  Alcotest.(check int) "both copies dropped" 2 st.Engine.dropped;
  Alcotest.(check int) "send still accounted" 1 st.Engine.messages_sent.(0)

let test_faults_duplicate_all () =
  let faults = Faults.create ~duplicate:1.0 ~seed:1 () in
  let net = Engine.create ~faults ~n:3 () in
  let got = Array.make 3 0 in
  for i = 0 to 2 do
    Engine.set_receiver net i (fun ~src:_ ~payload:_ -> got.(i) <- got.(i) + 1)
  done;
  Engine.broadcast net ~src:0 "x";
  Engine.run net;
  let st = Engine.stats net in
  Alcotest.(check int) "party 1 got two copies" 2 got.(1);
  Alcotest.(check int) "party 2 got two copies" 2 got.(2);
  Alcotest.(check int) "four deliveries" 4 st.Engine.deliveries;
  Alcotest.(check int) "two transmissions duplicated" 2 st.Engine.duplicated

let test_faults_crash_stop () =
  (* dst crashes at t=2: the t=1 delivery lands, the t=3.5 one is lost *)
  let faults = Faults.create ~crashes:[ (1, 2.0) ] ~seed:1 () in
  let net = Engine.create ~faults ~n:2 () in
  let got = ref 0 in
  Engine.set_receiver net 0 (fun ~src:_ ~payload:_ -> ());
  Engine.set_receiver net 1 (fun ~src:_ ~payload:_ -> incr got);
  Engine.send net ~src:0 ~dst:1 "pre";
  Sim.schedule (Engine.sim net) ~delay:2.5 (fun () ->
      Engine.send net ~src:0 ~dst:1 "post");
  Engine.run net;
  Alcotest.(check int) "only the pre-crash delivery" 1 !got;
  Alcotest.(check int) "post-crash copy dropped" 1 (Engine.stats net).Engine.dropped

let test_faults_crashed_sender () =
  let faults = Faults.create ~crashes:[ (0, 0.0) ] ~seed:1 () in
  let net = Engine.create ~faults ~n:2 () in
  Engine.set_receiver net 0 (fun ~src:_ ~payload:_ -> ());
  Engine.set_receiver net 1 (fun ~src:_ ~payload:_ ->
      Alcotest.fail "crashed party must not send");
  Engine.broadcast net ~src:0 "x";
  Engine.run net;
  let st = Engine.stats net in
  Alcotest.(check int) "send not accounted" 0 st.Engine.messages_sent.(0);
  Alcotest.(check int) "no deliveries" 0 st.Engine.deliveries

let test_faults_validation () =
  Alcotest.check_raises "drop > 1"
    (Invalid_argument "Faults.create: drop probability 1.5 not in [0,1]")
    (fun () -> ignore (Faults.create ~drop:1.5 ~seed:1 ()));
  Alcotest.check_raises "negative jitter"
    (Invalid_argument "Faults.create: jitter -1 must be >= 0")
    (fun () -> ignore (Faults.create ~jitter:(-1.0) ~seed:1 ()));
  let f = Faults.create ~seed:1 () in
  for _ = 1 to 100 do
    let u = Faults.uniform f in
    if not (u >= 0.0 && u < 1.0) then Alcotest.fail "uniform out of range"
  done

let test_faults_link_validation () =
  (* a per-link probability is checked at the draw: a valid link draws
     exactly as a uniform plan with its probability, an invalid one
     raises with its label and consumes nothing *)
  let drop_link ~src ~dst = if src = 2 then -0.5 else if dst = 1 then 0.3 else 0.0 in
  let f = Faults.create ~drop_link ~seed:5 () and g = Faults.create ~drop:0.3 ~seed:5 () in
  for i = 1 to 50 do
    Alcotest.(check bool) (Printf.sprintf "draw %d" i)
      (Faults.draw_drop g ~src:0 ~dst:1) (Faults.draw_drop f ~src:0 ~dst:1)
  done;
  Alcotest.(check bool) "zero-probability link never drops" false
    (Faults.draw_drop f ~src:1 ~dst:0);
  Alcotest.check_raises "invalid link"
    (Invalid_argument "Faults.create: link 2->0 drop probability -0.5 not in [0,1]")
    (fun () -> ignore (Faults.draw_drop f ~src:2 ~dst:0));
  Alcotest.(check (float 0.0)) "streams still in step" (Faults.uniform g)
    (Faults.uniform f)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip_known () =
  let enc = Wire.encode ~tag:"t" [ "a"; ""; "ccc" ] in
  (match Wire.decode enc with
   | Some ("t", [ "a"; ""; "ccc" ]) -> ()
   | _ -> Alcotest.fail "decode mismatch");
  (match Wire.expect ~tag:"t" enc with
   | Some [ "a"; ""; "ccc" ] -> ()
   | _ -> Alcotest.fail "expect mismatch");
  Alcotest.(check bool) "wrong tag" true (Wire.expect ~tag:"u" enc = None)

let test_wire_malformed () =
  List.iter
    (fun s -> Alcotest.(check bool) ("reject " ^ String.escaped s) true (Wire.decode s = None))
    [ ""; "\x00"; "\x00\x05ab"; "\x00\x01t\x00\x01"; "\x00\x01t\x00\x01\x00\x00\x00\x09ab" ];
  (* trailing garbage rejected *)
  let enc = Wire.encode ~tag:"t" [ "x" ] in
  Alcotest.(check bool) "trailing" true (Wire.decode (enc ^ "z") = None)

let gen_fields =
  QCheck2.Gen.(list_size (int_bound 8) (string_size ~gen:char (int_bound 64)))

let wire_props =
  [ qtest "wire roundtrip" gen_fields (fun fields ->
        Wire.decode (Wire.encode ~tag:"x" fields) = Some ("x", fields));
    qtest "wire injective on fields"
      QCheck2.Gen.(pair gen_fields gen_fields)
      (fun (f1, f2) ->
        f1 = f2 || Wire.encode ~tag:"x" f1 <> Wire.encode ~tag:"x" f2);
    qtest "field boundaries preserved" gen_fields (fun fields ->
        (* ["ab"] and ["a";"b"] encode differently *)
        let joined = [ String.concat "" fields ] in
        List.length fields <= 1
        || String.concat "" fields = ""
        || Wire.encode ~tag:"x" fields <> Wire.encode ~tag:"x" joined);
  ]

let () =
  Alcotest.run "net"
    [ ( "sim",
        [ Alcotest.test_case "time ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_ties_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
          Alcotest.test_case "heap stress" `Quick test_sim_heap_stress;
          Alcotest.test_case "drained determinism" `Quick
            test_sim_drained_deterministic;
        ] );
      ( "engine",
        [ Alcotest.test_case "broadcast" `Quick test_engine_broadcast;
          Alcotest.test_case "unicast reply" `Quick test_engine_unicast_and_reply;
          Alcotest.test_case "adversary drop" `Quick test_engine_adversary_drop;
          Alcotest.test_case "adversary replace" `Quick test_engine_adversary_replace;
          Alcotest.test_case "latency ordering" `Quick test_engine_latency_order;
          Alcotest.test_case "no-receiver error" `Quick test_engine_no_receiver_error;
          Alcotest.test_case "negative latency" `Quick test_engine_negative_latency;
        ] );
      ( "faults",
        [ Alcotest.test_case "deterministic from seed" `Quick test_faults_deterministic;
          Alcotest.test_case "drop all" `Quick test_faults_drop_all;
          Alcotest.test_case "duplicate all" `Quick test_faults_duplicate_all;
          Alcotest.test_case "crash-stop receiver" `Quick test_faults_crash_stop;
          Alcotest.test_case "crash-stop sender" `Quick test_faults_crashed_sender;
          Alcotest.test_case "parameter validation" `Quick test_faults_validation;
          Alcotest.test_case "per-link validation" `Quick test_faults_link_validation;
        ] );
      ( "wire",
        Alcotest.test_case "roundtrip known" `Quick test_wire_roundtrip_known
        :: Alcotest.test_case "malformed" `Quick test_wire_malformed
        :: wire_props );
    ]
