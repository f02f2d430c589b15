(** Shs_obs: metrics and tracing for the GCD secret-handshake stack.

    Every protocol layer reports into one process-wide registry:

    - {b counters} — monotonically increasing integers (bignum operation
      counts, network messages/bytes, GSIG sign/verify calls, CGKD rekey
      events).  Counters are always on; an increment is a single mutable
      field write, cheap enough for the bignum hot path.
    - {b gauges} — instantaneous integer levels that move both ways
      (scheduler queue depth, in-flight messages, live sessions, tree
      sizes, cache occupancy).  Same cost model as counters; the
      {!Obs_series} recorder samples them over time.
    - {b histograms} — log-bucketed aggregates of float observations
      (span latencies in nanoseconds): count/sum/min/max plus a fixed
      array of power-of-two buckets (2{^-65} to 2{^63}, the end buckets
      taking anything beyond) from which p50/p95/p99 are estimated
      (interpolated within one bucket, clamped to the observed range);
      observing allocates the same whatever the value.
    - {b spans} — hierarchical timed regions
      ([span "gcd.handshake.phase2" f]).  Span recording is gated by the
      installed {e sink}: under the default {!Noop} sink a span is one
      flag check plus the call to [f] — no allocation, no clock read —
      so instrumented code pays nothing when nobody is watching.  Under
      the {!Memory} sink, spans build an aggregated trace tree (merged by
      name at each nesting level, first-seen order preserved) and feed a
      latency histogram per span name.
    - {b events} — when enabled ({!set_events}), every span additionally
      records {e individual} (not name-merged) begin/end events, and
      instrumented code can record instant events and causal
      send→receive flow edges, all stamped by a dedicated event clock
      (session runners point it at the simulation clock) and grouped on
      named {e tracks} (one per simulated party).  {!to_chrome_trace}
      exports the log as Chrome [trace_event] JSON for
      Perfetto/[chrome://tracing].

    Naming scheme: dot-separated lowercase paths, [layer.component.verb]
    — e.g. [bigint.mul], [net.messages], [gsig.sign], [cgkd.rekey],
    [gcd.handshake.phase2].  See DESIGN.md "Observability".

    Determinism: the span clock is pluggable.  The default reads the
    system clock; tests install {!manual_clock} (a seedable fake that
    advances a fixed step per reading) so the exported trace tree —
    including every timing — is a pure function of the protocol run.
    The event clock is separately pluggable ({!set_event_clock}); under
    sim time plus fixed seeds the exported Chrome trace is byte-stable
    across runs. *)

(** {1 Counters} *)

type counter

val counter : ?help:string -> string -> counter
(** Registers (or returns the existing) counter under a name.  Interned:
    all callers naming ["gsig.sign"] share one counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val reset_counter : counter -> unit

(** {1 Gauges}

    Instantaneous levels that move both ways: scheduler queue depth,
    in-flight messages, live sessions by phase, CGKD tree size, bigint
    cache occupancy.  Same interning and cost model as counters (one
    mutable field write); a separate namespace. *)

type gauge

val gauge : ?help:string -> string -> gauge
(** Registers (or returns the existing) gauge under a name. *)

val set_gauge : gauge -> int -> unit
val gauge_add : gauge -> int -> unit
val gauge_sub : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms} *)

type histogram

type hist_stats = {
  count : int;
  sum : float;
  min : float;  (** 0.0 when [count = 0] *)
  max : float;  (** 0.0 when [count = 0] *)
  p50 : float;  (** estimated quantiles from the log-bucket table; *)
  p95 : float;  (** exact for counts 0 and 1, within one power-of-two *)
  p99 : float;  (** bucket otherwise, always inside [min, max] *)
}

val histogram : ?help:string -> string -> histogram
(** Interned by name, like {!counter}.  Counter and histogram namespaces
    are separate. *)

val observe : histogram -> float -> unit
val hist_stats : histogram -> hist_stats

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: nearest-rank estimate off the
    log-bucket table; [0.0] on an empty histogram. *)

(** {1 Spans and sinks} *)

type sink =
  | Noop  (** default: spans run their body and record nothing *)
  | Memory  (** aggregate trace tree + per-span latency histograms *)

val set_sink : sink -> unit
val current_sink : unit -> sink

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; under the [Memory] sink the call is timed
    and recorded as a child of the innermost enclosing span, and with
    events enabled it records individual begin/end events on the current
    track.  Exceptions propagate; the span always closes — the close
    runs under [Fun.protect], so a raising body cannot leave the span
    stack (or the attribution hooks) desynchronized. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Alias of {!span}. *)

val set_span_hooks : on_open:(string -> unit) -> on_close:(unit -> unit) -> unit
(** Mirror every span open/close to an external attribution stack
    (Shs_prof installs its frame push/pop here).  Active regardless of
    the sink: with hooks installed a span pays the hook calls even under
    [Noop].  The hook pair is captured once at span entry, so
    installing/removing hooks inside an open span cannot unbalance the
    open/close pairing that span delivers. *)

val clear_span_hooks : unit -> unit
(** Remove the installed span hooks.  {!reset_all} also clears them. *)

type span_tree = {
  span_name : string;
  calls : int;
  total_ns : float;
  children : span_tree list;
}

val trace : unit -> span_tree list
(** Root spans recorded since the last {!reset}, aggregated by name. *)

(** {1 Event tracing}

    Orthogonal to the sink: [set_events true] turns on the individual
    event log (span begin/end pairs, instants, flow edges) even under
    the [Noop] sink, so a deterministic timeline can be exported without
    paying for the aggregated tree. *)

type event_kind =
  | Span_begin
  | Span_end
  | Instant  (** a point on a timeline: drop, duplicate, timeout, ... *)
  | Flow_send  (** causal edge source; [ev_id] is the fresh flow id *)
  | Flow_recv  (** causal edge target; [ev_id] matches the send *)

type event = {
  ev_kind : event_kind;
  ev_name : string;
  ev_track : string;  (** timeline the event belongs to ("party-3") *)
  ev_ts : float;  (** event-clock stamp (sim time in a session) *)
  ev_id : int;  (** flow correlation id; 0 when not a flow event *)
  ev_args : (string * string) list;
}

val set_events : bool -> unit
val events_enabled : unit -> bool

val set_event_clock : (unit -> float) -> unit
(** Time source for event stamps.  Defaults to following the span
    clock; [Shs_engine.create] installs its scheduler's clock so event
    timelines are in deterministic sim time. *)

val set_track : string -> unit
(** Name the timeline subsequent events land on.  The network engine
    sets ["party-<i>"] around receiver invocations. *)

val current_track : unit -> string

val instant : ?args:(string * string) list -> string -> unit
(** Record an instant event on the current track; no-op when events are
    disabled. *)

val flow_send : ?args:(string * string) list -> string -> int
(** Record the source of a causal edge and return its fresh flow id
    (0, and nothing recorded, when events are disabled). *)

val flow_recv : ?args:(string * string) list -> id:int -> string -> unit
(** Record the matching edge target. *)

val events : unit -> event list
(** The event log since the last {!reset}, in record order. *)

(** {2 Event-log bound}

    The log is capped so long churn runs with events enabled cannot grow
    memory without limit.  Past the cap, new events (including span
    begin/end pairs) are discarded and counted on the
    [obs.events.dropped] counter, and {!to_chrome_trace} notes the loss
    in an [otherData] section.  {!reset} rewinds the stored-event count
    with the log; {!reset_all} also restores the default cap. *)

val set_event_cap : int -> unit
(** Maximum number of events retained (default 1_000_000).  Raises
    [Invalid_argument] on a negative cap. *)

val current_event_cap : unit -> int

val instant_counts : unit -> (string * int) list
(** Instant events grouped by name, sorted — e.g.
    [("gcd.retransmit", 12); ("net.drop", 31)]. *)

(** {1 Clock} *)

val default_clock : unit -> float
(** Wall clock in nanoseconds ([Unix.gettimeofday]-based). *)

val set_clock : (unit -> float) -> unit
(** Install the span clock; it must return nanoseconds and never
    decrease. *)

val manual_clock : ?start:float -> ?step:float -> unit -> unit -> float
(** A deterministic fake clock for tests: the first reading is [start]
    (default [0.0]) and every reading advances it by [step] (default
    [1.0] ns).  Install with {!set_clock}. *)

(** {1 Registry} *)

val reset : unit -> unit
(** Zero every counter, clear every histogram, drop the recorded trace
    and event log, and rewind the flow id counter and current track.
    The sink, event flag and clocks are left installed. *)

val reset_all : unit -> unit
(** {!reset}, then return the configuration to its initial state too:
    [Noop] sink, events disabled, default span and event clocks, span
    hooks cleared — and finally run every {!on_reset} hook.  Bench
    fixtures call this between experiments so no counter (or downstream
    cache) bleeds across; re-arm the sink afterwards if you still need
    one. *)

val on_reset : (unit -> unit) -> unit
(** Register a hook run at the end of every {!reset_all}.  Modules
    below [Obs] in the dependency order (e.g. bigint's fixed-base
    tables) use this to join fixture isolation without
    [Obs] depending on them.  Hooks run in registration order and are
    never removed. *)

val snapshot_counters : unit -> (string * int) list
(** Sorted by name. *)

val snapshot_gauges : unit -> (string * int) list
(** Sorted by name; every interned gauge appears, including zeros. *)

val snapshot_histograms : unit -> (string * hist_stats) list
(** Sorted by name; empty histograms are omitted. *)

(** {1 Exporters} *)

val to_prometheus : unit -> string
(** Prometheus-style text: counters and gauges as [shs_<name>] with
    [# HELP]/[# TYPE] headers, histograms as summaries with
    [{quantile="0.5|0.95|0.99"}] sample lines plus
    [_count]/[_sum]/[_min]/[_max] series.  Names are sanitized
    ([.] → [_]). *)

val to_json : unit -> Obs_json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {..},
    "trace": [..]}] — the document embedded in the bench harness's
    [--json] output; histogram objects carry [p50]/[p95]/[p99]. *)

val to_chrome_trace : unit -> Obs_json.t
(** The event log as a Chrome [trace_event] document:
    [{"traceEvents": [..], "displayTimeUnit": "ms"}] with one process,
    one thread per track (named via metadata events, tids in
    first-appearance order), [B]/[E] slices for spans, [i] instants and
    [s]/[f] flow edges.  Deterministic given a deterministic event
    clock. *)

val report : unit -> string
(** Human-readable dump: counter table, span-latency table with
    percentile columns, instant-event counts (when events were
    recorded) and the indented trace tree (the CLI's [--metrics]
    output). *)
