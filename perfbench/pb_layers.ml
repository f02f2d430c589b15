(* Layer instrumentation from outside [lib/]: each wrapper includes the
   real module and times its interface functions, and the GCD compiler
   is applied to the wrappers exactly as [Scheme1] and [Scheme2] apply
   it to the bare modules.  Pure accessors ([result], [group_key], ...)
   pass through untimed: they are field reads. *)

let span = Pb_trace.span

let count_dgka msgs =
  (match !Pb_trace.current with
   | Some s -> s.Pb_trace.dgka_msgs <- s.Pb_trace.dgka_msgs + List.length msgs
   | None -> ());
  msgs

module Timed_dgka (D : Dgka_intf.S) = struct
  include D

  let create ~rng ~group ~self ~n =
    span "dgka.create" (fun () -> D.create ~rng ~group ~self ~n)

  let start i = span "dgka.start" (fun () -> count_dgka (D.start i))

  let receive i ~src payload =
    span "dgka.receive" (fun () -> count_dgka (D.receive i ~src payload))
end

(* Membership-side layer calls: [Pb_trace.probe_inside] samples host
   contention between the flights of an admission or revocation. *)
let membership name f =
  Pb_trace.probe_inside ();
  span name f

module Timed_cgkd (C : Cgkd_intf.S) = struct
  include C

  let setup ~rng ~capacity =
    membership "cgkd.setup" (fun () -> C.setup ~rng ~capacity)

  let join gc ~uid = membership "cgkd.join" (fun () -> C.join gc ~uid)
  let leave gc ~uid = membership "cgkd.leave" (fun () -> C.leave gc ~uid)
  let rekey m msg = membership "cgkd.rekey" (fun () -> C.rekey m msg)
end

(* Signing and verification are timed through the Phase III hooks (see
   [Pb_scheme.Make.instrument]), so only membership-side functions are
   wrapped here. *)
module Timed_gsig (G : Gsig_intf.S) = struct
  include G

  let setup ~rng ~modulus =
    membership "gsig.setup" (fun () -> G.setup ~rng ~modulus)

  let join_begin ~rng pub =
    membership "gsig.join_begin" (fun () -> G.join_begin ~rng pub)

  let join_issue ~rng mgr ~uid ~offer =
    membership "gsig.join_issue" (fun () -> G.join_issue ~rng mgr ~uid ~offer)

  let join_complete req ~cert =
    membership "gsig.join_complete" (fun () -> G.join_complete req ~cert)

  let revoke ~rng mgr ~uid =
    membership "gsig.revoke" (fun () -> G.revoke ~rng mgr ~uid)

  let apply_update m upd =
    membership "gsig.update" (fun () -> G.apply_update m upd)
end

(* Gauges whose peaks the traced run reports; read before every driver
   call, which is when the engine has just queued or emitted. *)
let inbox_gauge = Obs.gauge "engine.inbox_depth"
let retx_gauge = Obs.gauge "gcd.retx_buffer_bytes"
let inbox_max = ref 0
let retx_max = ref 0
let live_max = ref 0
let heap_max = ref 0  (* major heap words; reset per batch *)

let sample_heap () =
  heap_max := max !heap_max (Gc.quick_stat ()).Gc.heap_words

let sample_peaks ~live =
  inbox_max := max !inbox_max (Obs.gauge_value inbox_gauge);
  retx_max := max !retx_max (Obs.gauge_value retx_gauge);
  live_max := max !live_max live;
  sample_heap ()

(* The party state machine: every seat entry point is timed into the
   session's per-seat CPU tally and, when tracing, recorded as a span
   under which the hook and DGKA spans nest. *)
let wrap_driver ~live (s : Pb_trace.session) (d : Gcd_types.driver) =
  let call seat name f =
    sample_peaks ~live:(live ());
    Pb_trace.tick ();
    let prev = !Pb_trace.current in
    Pb_trace.current := Some s;
    let t0 = Pb_trace.now_ns () in
    match span name f with
    | msgs ->
      s.cpu_ns.(seat) <- s.cpu_ns.(seat) +. (Pb_trace.now_ns () -. t0);
      s.msgs_out.(seat) <- s.msgs_out.(seat) + List.length msgs;
      Pb_trace.current := prev;
      msgs
    | exception e ->
      s.cpu_ns.(seat) <- s.cpu_ns.(seat) +. (Pb_trace.now_ns () -. t0);
      Pb_trace.current := prev;
      raise e
  in
  { d with
    Gcd_types.dr_start = (fun i -> call i "party.start" (fun () -> d.dr_start i));
    dr_receive =
      (fun i ~src ~payload ->
        call i "party.receive" (fun () -> d.dr_receive i ~src ~payload));
    dr_force = (fun i -> call i "party.force" (fun () -> d.dr_force i));
  }

let note_sign () =
  match !Pb_trace.current with
  | Some s -> s.Pb_trace.signs <- s.Pb_trace.signs + 1
  | None -> ()

let note_verify () =
  match !Pb_trace.current with
  | Some s -> s.Pb_trace.verifies <- s.Pb_trace.verifies + 1
  | None -> ()
