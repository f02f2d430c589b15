(** Simulated anonymous-channel network.

    Parties are addressed by session position [0 .. n-1] (never by a stable
    identity: the paper's channel model is anonymous, so the engine itself
    carries no user identifiers).  Supported primitives:

    - {b broadcast}: one transmission delivered to every other party — the
      wireless receiver-anonymous channel of paper §2/§9;
    - {b unicast}: point-to-point delivery (used by GDH upflow);
    - an {b adversary tap} that observes every delivery and may drop or
      replace payloads (the Appendix A adversary has "complete control over
      all communication");
    - a seeded {b fault plan} ({!Faults.t}) injecting probabilistic drops,
      duplication, latency jitter and crash-stop parties — composable with
      the adversary tap (the tap runs first, the plan second);
    - per-party {b accounting} of messages and bytes, which the E2 bench
      uses to verify the O(m)-messages claim; the same sends and
      deliveries also feed the global [net.messages] / [net.bytes] /
      [net.deliveries] counters in the {!Obs} metrics registry, and fault
      injection feeds [net.dropped] / [net.duplicated].

    Delivery order is deterministic: latency is a pure function of the
    link, ties resolve by send order, and fault draws consume a seeded
    DRBG stream in send order.

    {b Event tracing.}  When [Obs.set_events true] is in effect, every
    scheduled copy is stamped with a causal edge: the engine mints a
    flow id at send time and keeps it in the scheduled delivery, records
    [Flow_send] then and [Flow_recv] at arrival, switches the current
    track to ["party-<dst>"] before invoking the receiver, and records
    [net.drop]/[net.duplicate] instant events for fault outcomes.
    Tracing touches no payload byte, so receivers see exactly what was
    sent whether events are on, off, or switched while copies are in
    flight. *)

type t

type decision =
  | Deliver
  | Drop
  | Replace of string

type adversary = src:int -> dst:int -> payload:string -> decision

val create :
  ?sim:Sim.t ->
  ?latency:(src:int -> dst:int -> float) ->
  ?adversary:adversary ->
  ?faults:Faults.t ->
  n:int ->
  unit ->
  t
(** Default latency: 1.0 for every link.  A [latency] function returning
    a negative (or NaN) value raises [Invalid_argument] naming the link,
    at send time.  [sim] shares an external scheduler instead of creating
    a private one — the concurrent-session engine ({!Shs_engine})
    multiplexes many per-session engines over one [Sim] this way; with a
    shared scheduler, drive it with {!start} + [Sim.run] rather than
    {!run}. *)

val n_parties : t -> int
val sim : t -> Sim.t

val set_receiver : t -> int -> (src:int -> payload:string -> unit) -> unit
(** Install the receive callback of a party; must be done before [run].
    Once [run] has started, a delivery addressed to a party with no
    receiver raises [Failure] — silent losses outside the fault plan are
    a bug, not a feature. *)

val broadcast : t -> src:int -> string -> unit
(** Deliver to every party except [src]; counts as one sent message.
    A no-op if [src] has crash-stopped under the fault plan. *)

val send : t -> src:int -> dst:int -> string -> unit

val crashed : t -> int -> bool
(** Whether the party has crash-stopped under the fault plan by the
    scheduler's current time: from then on its {!broadcast} and {!send}
    are no-ops and copies addressed to it are dropped. *)

val start : t -> unit
(** Mark the engine live (deliveries to receiver-less parties become
    errors) without running the scheduler — for engines on a shared
    [?sim] whose owner drives [Sim.run] itself. *)

val run : t -> unit
(** Run the simulation to quiescence. *)

(** {1 Accounting} *)

type stats = {
  messages_sent : int array;  (** indexed by party *)
  bytes_sent : int array;
  deliveries : int;  (** receiver callbacks actually invoked *)
  dropped : int;  (** copies lost to the fault plan (incl. crashed receivers) *)
  duplicated : int;  (** transmissions that gained a duplicate copy *)
}

val stats : t -> stats
(** A snapshot; arrays are fresh copies. *)
