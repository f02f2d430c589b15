(* Wall clock, the in-memory span recorder, and per-session tallies.

   Spans are recorded only from this directory's wrappers, around calls
   into a layer: a party driver call, a Phase III hook, a DGKA or CGKD
   interface function, a GSIG join flight, a membership operation.  Each
   span carries its name, start, end, parent span and the session whose
   driver was running.  With tracing off, [span] is a flag test plus the
   call, so untraced runs pay nothing for the instrumentation. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Host-contention probe.  The host this benchmark was tuned on slows
   multiply-heavy code by up to 2x, in bursts from tens of milliseconds
   to minutes, while latency-bound code runs unaffected — contention for
   the core's multiplier, not frequency.  A fixed private loop of the
   same kind (schoolbook products of 20-limb arrays, no allocation,
   nothing from the program under test) tracks it: over five-second
   windows it correlates 0.97 with 512-bit [Bigint.pow_mod] time, and
   dividing by it cuts that time's spread from 23% to 6%.  [tick] runs
   the loop at most once per 10 ms, at the instrumented call sites, so
   its samples spread over the run; [factor] is the mean probe time over
   a stretch of the run relative to the quiet-host time (the probe's
   5th percentile on that host), and reported times are divided by it.
   Probe time is excluded from every measurement. *)
let quiet_probe_ns = 170_000.0
let probe_ns = ref 0.0  (* total time spent probing *)
let probes = ref 0
let last_probe = ref 0.0
let probe_a = Array.init 20 (fun i -> ((i * 7919) + 13) land 0x3ffffff)
let probe_r = Array.make 40 0

let probe_body () =
  for k = 1 to 200 do
    Array.fill probe_r 0 40 0;
    for i = 0 to 19 do
      let c = ref 0 in
      let ai = probe_a.(i) lxor k in
      for j = 0 to 19 do
        let t = probe_r.(i + j) + (ai * probe_a.(j)) + !c in
        probe_r.(i + j) <- t land 0x3ffffff;
        c := t lsr 26
      done;
      probe_r.(i + 20) <- !c
    done
  done

let samples : (float * float) list ref = ref []  (* (time, duration) *)

let probe () =
  let t0 = now_ns () in
  probe_body ();
  let t1 = now_ns () in
  probe_ns := !probe_ns +. (t1 -. t0);
  incr probes;
  samples := (t1, t1 -. t0) :: !samples;
  last_probe := t1

let tick () = if now_ns () -. !last_probe >= 10e6 then probe ()

type mark = { m_ns : float; m_probes : int; m_t : float }

let mark () = { m_ns = !probe_ns; m_probes = !probes; m_t = now_ns () }

(* wall time since [m], probe time excluded *)
let elapsed_ns m = now_ns () -. m.m_t -. (!probe_ns -. m.m_ns)

(* contention factor since [m]: 1.0 on a quiet host, and when no probe
   ran (too short a stretch to matter) *)
let factor m =
  let n = !probes - m.m_probes in
  if n = 0 then 1.0 else (!probe_ns -. m.m_ns) /. float_of_int n /. quiet_probe_ns

(* contention factor over the probes within 100 ms of [t0, t1] *)
let factor_around t0 t1 =
  let pad = 100e6 in
  let sum, n =
    List.fold_left
      (fun (sum, n) (t, d) ->
        if t >= t0 -. pad && t <= t1 +. pad then (sum +. d, n + 1) else (sum, n))
      (0.0, 0) !samples
  in
  if n = 0 then 1.0 else sum /. float_of_int n /. quiet_probe_ns

type span = {
  id : int;
  name : string;
  sid : int;  (* -1 outside any session (membership operations) *)
  parent : int;  (* -1 for a root span *)
  t0 : float;
  mutable t1 : float;
  mutable child_ns : float;  (* time covered by direct children *)
}

let dur s = s.t1 -. s.t0
let self_ns s = dur s -. s.child_ns

let on = ref false
let recorded : span list ref = ref []  (* newest first *)
let stack : span list ref = ref []
let next_id = ref 0

(* Session attribution: per-session tallies the wrappers bump, and the
   session whose driver call is in progress. *)
type session = {
  sid : int;
  cpu_ns : float array;  (* per seat: summed driver-call time *)
  msgs_out : int array;  (* per seat: protocol messages emitted *)
  mutable dgka_msgs : int;
  mutable signs : int;
  mutable verifies : int;
}

let new_session ~sid ~seats =
  { sid;
    cpu_ns = Array.make seats 0.0;
    msgs_out = Array.make seats 0;
    dgka_msgs = 0;
    signs = 0;
    verifies = 0;
  }

let current : session option ref = ref None
let current_sid () = match !current with Some s -> s.sid | None -> -1

let close s =
  s.t1 <- now_ns ();
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  (match !stack with p :: _ -> p.child_ns <- p.child_ns +. dur s | [] -> ());
  recorded := s :: !recorded

let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; sid = current_sid (); parent; t0 = now_ns ();
        t1 = 0.0; child_ns = 0.0 }
    in
    incr next_id;
    stack := s :: !stack;
    match f () with
    | r -> close s; r
    | exception e -> close s; raise e
  end

(* [f ()] and its wall time in ns (probes inside excluded), recorded
   as a span when tracing; bracketed by probes, for [factor_around] *)
let timed name f =
  probe ();
  let m = mark () in
  let r = span name f in
  let ns = elapsed_ns m in
  probe ();
  (r, ns)

(* a probe at a layer call inside a membership operation, where
   operations run too long to be judged by their brackets alone; off
   when tracing, so spans never contain probe time *)
let probe_inside () = if not !on then probe ()

let take () =
  let spans = List.rev !recorded in
  recorded := [];
  stack := [];
  spans

(* Chrome trace_event JSON (one complete event per span, tid = session),
   viewable in Perfetto. *)
let write_chrome path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
             \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f}}\n"
            (if i = 0 then "" else ",")
            s.name s.sid (s.t0 /. 1e3) (dur s /. 1e3) s.id s.parent
            (self_ns s /. 1e3))
        spans;
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n")
