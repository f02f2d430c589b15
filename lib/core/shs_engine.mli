(** Concurrent-session engine: multiplex N independent GCD handshake
    sessions over one deterministic scheduler.  It is the only session
    driver: [Gcd.Make.run_session] is a one-session engine with
    [service_time = 0.] and an infinite [deadline].

    Sessions are submitted as {!Gcd_types.driver} thunks (see
    [Gcd.Make.engine_driver]) and live in one table keyed by an
    engine-assigned sid.  The engine provides admission control
    (arrivals past [high_water] are refused with the typed
    [Shs_error.Overloaded] rejection), bounded per-seat inboxes with
    backpressure, per-seat watchdog retransmission over bounded
    {!Retx} buffers (targeted by each seat's local evidence of its
    peers' progress, [Gcd_types.dr_peer_phase]), deadline-based load
    shedding to the §7
    indistinguishable abort, and hard poisoned-session isolation: an
    exception escaping one session's state machines aborts and reaps
    that session only.

    Everything runs on sim time off the callers' seeded DRBGs, so a
    whole multi-session run replays byte-identically, and — because
    faults, adversary taps and randomness are per-session — each
    session's outcome is invariant to the presence of unrelated
    sessions.

    Observability: [engine.admitted], [engine.rejected], [engine.shed],
    [engine.reaped], [engine.poisoned], [engine.backpressure_dropped]
    counters; [engine.inbox_depth] gauge; plus the watchdog's
    [gcd.retransmissions] counter (frames actually sent: a
    crash-stopped seat resends nothing) and the [gcd.sessions.live] /
    [gcd.live.phase*] population gauges, which the engine moves from
    each seat's [Gcd_types.dr_phase] after every driver call. *)

type config = {
  high_water : int;  (** live-session cap; arrivals beyond are rejected *)
  inbox_capacity : int;  (** per-seat inbox bound *)
  service_time : float;
      (** sim-time to service one inbox message; [0.] handles each
          delivery on arrival, without the inbox *)
  deadline : float;
      (** sim-time budget per session before shedding; [infinity] never
          sheds *)
  watchdog : Gcd_types.watchdog option;  (** default per-seat watchdog *)
}

val default_config : config

type disposition =
  | Completed  (** every seat reached a terminal outcome on its own *)
  | Shed  (** force-aborted by the deadline reaper *)
  | Poisoned  (** isolated after an escaped exception *)
  | Stalled
      (** still live when the scheduler drained, which needs a session
          without a watchdog and without a finite deadline; reaped at
          quiescence with its seats as they stood *)

val string_of_disposition : disposition -> string

(** A reaped session.  Reaping happens when the last seat terminates,
    at the deadline, on an escaped exception, or at quiescence, so
    [r_finished -. r_admitted] is the session's own duration, without
    the watchdog ticks and straggler deliveries that fire after it. *)
type report = {
  r_sid : int;
  r_admitted : float;  (** sim time of admission *)
  r_finished : float;  (** sim time of reaping *)
  r_disposition : disposition;
  r_outcomes : Gcd_types.outcome option array;
      (** per seat; [None] for a seat that never terminated *)
  r_error : exn option;  (** the escaped exception, for [Poisoned] *)
}

type submit_result = Admitted of int  (** the assigned sid *) | Rejected

type t

val create : ?config:config -> unit -> t
(** A fresh engine with its own scheduler.
    @raise Invalid_argument on a nonsensical config. *)

val sim : t -> Sim.t
(** The shared scheduler — schedule arrival events against it, then
    {!run}. *)

val submit :
  t ->
  ?faults:Faults.t ->
  ?adversary:Engine.adversary ->
  ?latency:(src:int -> dst:int -> float) ->
  ?watchdog:Gcd_types.watchdog ->
  (unit -> Gcd_types.driver) ->
  submit_result
(** Admit a session at the current sim time, or refuse it at the
    high-water mark ([Rejected]; the thunk is not called, so refused
    arrivals cost nothing and emit nothing).  [faults], [adversary] and
    [latency] scope fault injection and the mutation adversary to this
    session alone; [watchdog] overrides the engine default for this
    session.
    @raise Invalid_argument on a bad watchdog policy (a non-positive
    [retransmit_after], a [backoff] below 1 or a negative
    [phase_grace]), before admission: the refused call consumes no sid
    and changes no counter or gauge. *)

val network : t -> int -> Engine.t option
(** The per-session network of an admitted session that is not yet
    reaped.  Taken before {!run}, its {!Engine.stats} read after {!run}
    cover the whole session, straggler deliveries included. *)

val run : t -> unit
(** Drive the shared scheduler to quiescence: every admitted session
    reaches a terminal disposition and is reaped ([Stalled] if it was
    still live at quiescence). *)

val live : t -> int
(** Sessions currently admitted and not yet reaped. *)

val rejected : t -> int
(** Arrivals refused by admission control so far. *)

val reports : t -> report list
(** Terminal sessions in reaping order (oldest first). *)
