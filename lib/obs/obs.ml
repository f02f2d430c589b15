(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_help : string; mutable c_value : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter ?(help = "") name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_help = help; c_value = 0 } in
    Hashtbl.add counters name c;
    c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value
let reset_counter c = c.c_value <- 0

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

(* Like counters but free to move both ways: queue depths, in-flight
   message counts, live-session populations, cache occupancy.  Interned
   in their own namespace; a gauge write is one mutable field update so
   instrumented hot paths (the sim scheduler) pay next to nothing. *)
type gauge = { g_name : string; g_help : string; mutable g_value : int }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32

let gauge ?(help = "") name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_help = help; g_value = 0 } in
    Hashtbl.add gauges name g;
    g

let set_gauge g v = g.g_value <- v
let gauge_add g n = g.g_value <- g.g_value + n
let gauge_sub g n = g.g_value <- g.g_value - n
let gauge_value g = g.g_value

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* Log-bucketed: every positive observation v lands in the power-of-two
   bucket [2^(e-1), 2^e) with e from [frexp], and quantiles interpolate
   inside one bucket — bounded relative error (a factor of 2 per bucket,
   tightened by clamping to the exact min/max).  The buckets are one
   fixed array over e in [-64, 64), 2^-65 to 2^63 (an observation
   outside counts in the end bucket), so [observe] allocates the same
   whatever the value: a profiled run's allocation cannot depend on
   which latency buckets the host's speed happened to hit. *)
let bucket_lo = -64
let bucket_count = 128

type histogram = {
  h_name : string;
  h_help : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_nonpos : int;  (* observations <= 0 sit below every bucket *)
  h_buckets : int array;  (* bucket e's count at index e - bucket_lo *)
}

type hist_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let histogram ?(help = "") name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h =
      { h_name = name; h_help = help; h_count = 0; h_sum = 0.0;
        h_min = 0.0; h_max = 0.0; h_nonpos = 0;
        h_buckets = Array.make bucket_count 0 }
    in
    Hashtbl.add histograms name h;
    h

let observe h v =
  if h.h_count = 0 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v > 0.0 then begin
    let _, e = Float.frexp v in
    let i = Int.max 0 (Int.min (bucket_count - 1) (e - bucket_lo)) in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1
  end
  else h.h_nonpos <- h.h_nonpos + 1

let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    (* nearest-rank target, then linear interpolation inside the bucket *)
    let rank = Float.max 1.0 (q *. float_of_int h.h_count) in
    if float_of_int h.h_nonpos >= rank then h.h_min
    else begin
      let rec go cum i =
        if i = bucket_count then h.h_max
        else begin
          let c = h.h_buckets.(i) in
          if c > 0 && float_of_int (cum + c) >= rank then begin
            let e = i + bucket_lo in
            let lo = Float.ldexp 1.0 (e - 1) and hi = Float.ldexp 1.0 e in
            let frac = (rank -. float_of_int cum) /. float_of_int c in
            Float.min h.h_max (Float.max h.h_min (lo +. (frac *. (hi -. lo))))
          end
          else go (cum + c) (i + 1)
        end
      in
      go h.h_nonpos 0
    end
  end

let hist_stats h =
  { count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    p50 = quantile h 0.50;
    p95 = quantile h 0.95;
    p99 = quantile h 0.99;
  }

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let default_clock () = Unix.gettimeofday () *. 1e9

let clock = ref default_clock

let set_clock f = clock := f

let manual_clock ?(start = 0.0) ?(step = 1.0) () =
  let t = ref start in
  fun () ->
    let v = !t in
    t := v +. step;
    v

(* ------------------------------------------------------------------ *)
(* Event log (individual events, causal ids)                           *)
(* ------------------------------------------------------------------ *)

type event_kind = Span_begin | Span_end | Instant | Flow_send | Flow_recv

type event = {
  ev_kind : event_kind;
  ev_name : string;
  ev_track : string;
  ev_ts : float;
  ev_id : int;
  ev_args : (string * string) list;
}

let events_on = ref false
let event_log : event list ref = ref []

(* Bounded: long churn runs with events enabled must not grow memory
   without limit.  Once the cap is reached new events are discarded and
   counted; the Chrome exporter annotates the document when that
   happened.  The default is generous — a full fuzz sweep records a few
   hundred thousand events. *)
let default_event_cap = 1_000_000
let event_cap = ref default_event_cap
let event_count = ref 0

let dropped_counter =
  counter ~help:"events discarded at the event-log cap" "obs.events.dropped"

let set_event_cap n =
  if n < 0 then invalid_arg "Obs.set_event_cap: negative cap";
  event_cap := n

let current_event_cap () = !event_cap

let push_event e =
  if !event_count >= !event_cap then incr dropped_counter
  else begin
    event_count := !event_count + 1;
    event_log := e :: !event_log
  end

(* the event clock defaults to following the span clock; session runners
   point it at Sim.now so timelines are in deterministic sim time *)
let default_event_clock () = !clock ()
let event_clock = ref default_event_clock

let track_ref = ref "main"
let next_flow = ref 0

let set_events b = events_on := b
let events_enabled () = !events_on
let set_event_clock f = event_clock := f
let set_track s = track_ref := s
let current_track () = !track_ref

let record kind name ~id ~args =
  push_event
    { ev_kind = kind; ev_name = name; ev_track = !track_ref;
      ev_ts = !event_clock (); ev_id = id; ev_args = args }

let instant ?(args = []) name =
  if !events_on then record Instant name ~id:0 ~args

let flow_send ?(args = []) name =
  if not !events_on then 0
  else begin
    Stdlib.incr next_flow;
    let id = !next_flow in
    record Flow_send name ~id ~args;
    id
  end

let flow_recv ?(args = []) ~id name =
  if !events_on then record Flow_recv name ~id ~args

let events () = List.rev !event_log

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type sink = Noop | Memory

(* aggregated trace node: children in reverse first-seen order.  Each
   node caches its latency histogram handle so closing a span is a field
   read, not a Hashtbl lookup on every call. *)
type node = {
  n_name : string;
  n_hist : histogram;
  mutable n_calls : int;
  mutable n_total : float;
  mutable n_children : node list;
}

let make_node name =
  { n_name = name;
    n_hist = histogram ~help:"span latency (ns)" name;
    n_calls = 0; n_total = 0.0; n_children = [] }

let root = ref (make_node "")
let current = ref !root
let tracing = ref false
let sink_state = ref Noop

let set_sink s =
  sink_state := s;
  tracing := s = Memory

let current_sink () = !sink_state

let child_of parent name =
  match List.find_opt (fun n -> n.n_name = name) parent.n_children with
  | Some n -> n
  | None ->
    let n = make_node name in
    parent.n_children <- n :: parent.n_children;
    n

(* span hooks: an external attribution stack (Shs_prof) mirrors span
   open/close without Obs depending on it.  Captured once per span so an
   install/remove inside an open span cannot desynchronize the pair —
   the close a hook saw opened is the close it gets. *)
let span_hooks : ((string -> unit) * (unit -> unit)) option ref = ref None
let set_span_hooks ~on_open ~on_close = span_hooks := Some (on_open, on_close)
let clear_span_hooks () = span_hooks := None

let span name f =
  let ev = !events_on and tr = !tracing and hooks = !span_hooks in
  let hooked = match hooks with Some _ -> true | None -> false in
  if not (ev || tr || hooked) then f ()
  else begin
    (* the end event reuses the begin-time track: a span opened on one
       timeline closes on it even if deliveries switch tracks inside *)
    let btrack = !track_ref in
    if ev then
      push_event
        { ev_kind = Span_begin; ev_name = name; ev_track = btrack;
          ev_ts = !event_clock (); ev_id = 0; ev_args = [] };
    (match hooks with Some (on_open, _) -> on_open name | None -> ());
    let parent = !current in
    let node =
      if tr then begin
        let node = child_of parent name in
        node.n_calls <- node.n_calls + 1;
        current := node;
        Some node
      end
      else None
    in
    let t0 = if tr then !clock () else 0.0 in
    let close () =
      (match node with
       | Some node ->
         let dt = !clock () -. t0 in
         node.n_total <- node.n_total +. dt;
         observe node.n_hist dt;
         current := parent
       | None -> ());
      (match hooks with Some (_, on_close) -> on_close () | None -> ());
      if ev then
        push_event
          { ev_kind = Span_end; ev_name = name; ev_track = btrack;
            ev_ts = !event_clock (); ev_id = 0; ev_args = [] }
    in
    Fun.protect ~finally:close f
  end

let with_span = span

type span_tree = {
  span_name : string;
  calls : int;
  total_ns : float;
  children : span_tree list;
}

let rec freeze node =
  { span_name = node.n_name;
    calls = node.n_calls;
    total_ns = node.n_total;
    (* children are stored newest-first; rev_map restores call order *)
    children = List.rev_map freeze node.n_children;
  }

let trace () = (freeze !root).children

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0) gauges;
  Hashtbl.iter
    (fun _ h ->
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_min <- 0.0;
      h.h_max <- 0.0;
      h.h_nonpos <- 0;
      Array.fill h.h_buckets 0 bucket_count 0)
    histograms;
  let r = make_node "" in
  root := r;
  current := r;
  event_log := [];
  event_count := 0;
  next_flow := 0;
  track_ref := "main"

(* downstream modules (bigint caches) register cleanup here; obs cannot
   call them directly without inverting the dependency *)
let reset_hooks : (unit -> unit) list ref = ref []

let on_reset f = reset_hooks := !reset_hooks @ [ f ]

let reset_all () =
  reset ();
  set_sink Noop;
  events_on := false;
  event_cap := default_event_cap;
  clock := default_clock;
  event_clock := default_event_clock;
  span_hooks := None;
  List.iter (fun f -> f ()) !reset_hooks

let snapshot_counters () =
  Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) counters []
  |> List.sort compare

let snapshot_gauges () =
  Hashtbl.fold (fun name g acc -> (name, g.g_value) :: acc) gauges []
  |> List.sort compare

let snapshot_histograms () =
  Hashtbl.fold
    (fun name h acc ->
      if h.h_count = 0 then acc else (name, hist_stats h) :: acc)
    histograms []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let sanitize name =
  "shs_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name

let to_prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let p = sanitize name in
      let help = (Hashtbl.find counters name).c_help in
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" p help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" p);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" p v))
    (snapshot_counters ());
  List.iter
    (fun (name, v) ->
      let p = sanitize name in
      let help = (Hashtbl.find gauges name).g_help in
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" p help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" p);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" p v))
    (snapshot_gauges ());
  List.iter
    (fun (name, st) ->
      let p = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" p);
      Buffer.add_string buf
        (Printf.sprintf "%s{quantile=\"0.5\"} %.17g\n" p st.p50);
      Buffer.add_string buf
        (Printf.sprintf "%s{quantile=\"0.95\"} %.17g\n" p st.p95);
      Buffer.add_string buf
        (Printf.sprintf "%s{quantile=\"0.99\"} %.17g\n" p st.p99);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" p st.count);
      Buffer.add_string buf (Printf.sprintf "%s_sum %.17g\n" p st.sum);
      Buffer.add_string buf (Printf.sprintf "%s_min %.17g\n" p st.min);
      Buffer.add_string buf (Printf.sprintf "%s_max %.17g\n" p st.max))
    (snapshot_histograms ());
  Buffer.contents buf

let rec span_to_json s =
  Obs_json.Obj
    [ ("name", Obs_json.Str s.span_name);
      ("calls", Obs_json.Int s.calls);
      ("total_ns", Obs_json.Float s.total_ns);
      ("children", Obs_json.List (List.map span_to_json s.children));
    ]

let hist_to_json st =
  Obs_json.Obj
    [ ("count", Obs_json.Int st.count);
      ("sum", Obs_json.Float st.sum);
      ("min", Obs_json.Float st.min);
      ("max", Obs_json.Float st.max);
      ("p50", Obs_json.Float st.p50);
      ("p95", Obs_json.Float st.p95);
      ("p99", Obs_json.Float st.p99);
    ]

let to_json () =
  Obs_json.Obj
    [ ("counters",
       Obs_json.Obj
         (List.map (fun (n, v) -> (n, Obs_json.Int v)) (snapshot_counters ())));
      ("gauges",
       Obs_json.Obj
         (List.map (fun (n, v) -> (n, Obs_json.Int v)) (snapshot_gauges ())));
      ("histograms",
       Obs_json.Obj
         (List.map (fun (n, st) -> (n, hist_to_json st)) (snapshot_histograms ())));
      ("trace", Obs_json.List (List.map span_to_json (trace ())));
    ]

(* Chrome trace_event JSON (chrome://tracing, Perfetto).  One pid;
   tracks become threads, named via metadata events, tids assigned in
   first-appearance order so the document is a pure function of the
   event log.  ts is the event clock reading verbatim (sim time when a
   session runner installed it), interpreted by the viewer as us. *)
let to_chrome_trace () =
  let evs = events () in
  let tracks =
    List.fold_left
      (fun acc e -> if List.mem e.ev_track acc then acc else e.ev_track :: acc)
      [] evs
    |> List.rev
  in
  let tid_of track =
    let rec go i = function
      | [] -> 0
      | t :: rest -> if t = track then i else go (i + 1) rest
    in
    go 1 tracks
  in
  let meta_event fields = Obs_json.Obj fields in
  let meta =
    meta_event
      [ ("name", Obs_json.Str "process_name");
        ("ph", Obs_json.Str "M");
        ("pid", Obs_json.Int 1);
        ("args", Obs_json.Obj [ ("name", Obs_json.Str "shs-sim") ]);
      ]
    :: List.map
         (fun track ->
           meta_event
             [ ("name", Obs_json.Str "thread_name");
               ("ph", Obs_json.Str "M");
               ("pid", Obs_json.Int 1);
               ("tid", Obs_json.Int (tid_of track));
               ("args", Obs_json.Obj [ ("name", Obs_json.Str track) ]);
             ])
         tracks
  in
  let ev_json e =
    let ph =
      match e.ev_kind with
      | Span_begin -> "B"
      | Span_end -> "E"
      | Instant -> "i"
      | Flow_send -> "s"
      | Flow_recv -> "f"
    in
    let base =
      [ ("name", Obs_json.Str e.ev_name);
        ("ph", Obs_json.Str ph);
        ("pid", Obs_json.Int 1);
        ("tid", Obs_json.Int (tid_of e.ev_track));
        ("ts", Obs_json.Float e.ev_ts);
      ]
    in
    let extra =
      match e.ev_kind with
      | Instant -> [ ("s", Obs_json.Str "t") ]
      | Flow_send -> [ ("cat", Obs_json.Str "net"); ("id", Obs_json.Int e.ev_id) ]
      | Flow_recv ->
        [ ("cat", Obs_json.Str "net"); ("id", Obs_json.Int e.ev_id);
          ("bt", Obs_json.Str "e") ]
      | Span_begin | Span_end -> []
    in
    let args =
      if e.ev_args = [] then []
      else
        [ ("args",
           Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.Str v)) e.ev_args))
        ]
    in
    Obs_json.Obj (base @ extra @ args)
  in
  (* note the cap only when it actually bit, so documents from runs that
     fit (everything golden-tested) are unchanged byte for byte *)
  let dropped = value dropped_counter in
  let tail =
    if dropped = 0 then []
    else
      [ ("otherData",
         Obs_json.Obj
           [ ("shs.events.dropped", Obs_json.Int dropped);
             ("shs.events.cap", Obs_json.Int !event_cap);
           ])
      ]
  in
  Obs_json.Obj
    ([ ("traceEvents", Obs_json.List (meta @ List.map ev_json evs));
       ("displayTimeUnit", Obs_json.Str "ms");
     ]
    @ tail)

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let instant_counts () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.ev_kind = Instant then
        Hashtbl.replace tbl e.ev_name
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.ev_name)))
    !event_log;
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) tbl []
  |> List.sort compare

let report () =
  let buf = Buffer.create 1024 in
  let counters = snapshot_counters () in
  if counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-32s %12d\n" n v))
      counters
  end;
  let gs = List.filter (fun (_, v) -> v <> 0) (snapshot_gauges ()) in
  if gs <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-32s %12d\n" n v))
      gs
  end;
  let hists = snapshot_histograms () in
  if hists <> [] then begin
    Buffer.add_string buf "span latencies:\n";
    List.iter
      (fun (n, st) ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %-32s %6d calls  total %-10s mean %-10s p50 %-10s p95 %-10s \
              p99 %-10s max %s\n"
             n st.count (pretty_ns st.sum)
             (pretty_ns (st.sum /. float_of_int st.count))
             (pretty_ns st.p50) (pretty_ns st.p95) (pretty_ns st.p99)
             (pretty_ns st.max)))
      hists
  end;
  let instants = instant_counts () in
  if instants <> [] then begin
    Buffer.add_string buf "instant events:\n";
    List.iter
      (fun (n, c) -> Buffer.add_string buf (Printf.sprintf "  %-32s %12d\n" n c))
      instants
  end;
  let tr = trace () in
  if tr <> [] then begin
    Buffer.add_string buf "trace:\n";
    let rec go depth s =
      Buffer.add_string buf
        (Printf.sprintf "  %s%-*s %6dx  %s\n"
           (String.make (2 * depth) ' ')
           (max 1 (32 - (2 * depth)))
           s.span_name s.calls (pretty_ns s.total_ns));
      List.iter (go (depth + 1)) s.children
    in
    List.iter (go 0) tr
  end;
  Buffer.contents buf
