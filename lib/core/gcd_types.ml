(** Types shared by every GCD instantiation.

    These live outside the {!Gcd.Make} functor so that code generic over
    schemes (tests, benches, the CLI) can speak about handshake outcomes
    without committing to a particular building-block triple. *)

type format = {
  delta_len : int;  (** length of δ = ENC(pkT, k') on the wire *)
  theta_len : int;  (** length of θ = SENC(k', σ) on the wire *)
  dl_group : Groupgen.schnorr_group;  (** system-wide DGKA/PKE parameters *)
}

(** How a party's session ended.  Every party reaches exactly one of
    these — under a watchdog there is no "hung" state. *)
type termination =
  | Complete  (** every participant proved same-group membership *)
  | Partial
      (** completed with the §7 maximal common-group subset (at least one
          partner besides self) *)
  | Aborted
      (** continued with random values (paper §7's indistinguishable
          abort): outsiders, revoked members, and timed-out phases *)

let string_of_termination = function
  | Complete -> "complete"
  | Partial -> "partial"
  | Aborted -> "aborted"

type outcome = {
  accepted : bool;  (** every participant proved same-group membership *)
  partners : int list;  (** session positions verified, self included *)
  session_key : string option;  (** fresh key shared by [partners] *)
  termination : termination;
  sid : string;
  transcript : (string * string) array;
      (** (θ, δ) per position, for tracing; [("", "")] for positions whose
          Phase III message never arrived before a timeout *)
}

(** Session watchdog policy: per-phase retransmission with exponential
    backoff, then a forced phase transition.  A phase that makes no
    progress is retransmitted after [retransmit_after] sim-time units,
    again after [retransmit_after *. backoff], and so on
    [max_retransmits] times; the next expiry forces the party into the
    following phase (Phase I times out into the §7 random-values
    continuation), so every party terminates.

    [phase_grace] staggers the deadlines by pipeline depth: a party in
    phase [p] gets [max_retransmits + phase_grace * p] retransmission
    attempts before being forced.  With grace 0 (the default) every
    phase has the same budget, which admits a Byzantine
    timeout-desynchronization race: a bad seat can feed one honest party
    garbage until its Phase II deadline while the rest advance, and the
    victim's forced Phase III message then lands exactly on the others'
    (equal) finalize deadline — whoever's timer fires first misses an
    honest partner.  Grace [>= 1] makes each phase out-wait an honest
    peer stuck one phase behind (the extra attempt adds
    [retransmit_after * backoff^max_retransmits] of slack, far above any
    delivery latency), restoring the §7 honest-subset guarantee under an
    active adversary.  The fuzzer runs with grace 1; the default stays 0
    so honest/lossy timing baselines are unchanged. *)
type watchdog = {
  retransmit_after : float;
  backoff : float;
  max_retransmits : int;
  phase_grace : int;
}

let default_watchdog =
  { retransmit_after = 8.0; backoff = 2.0; max_retransmits = 3; phase_grace = 0 }

let byzantine_watchdog = { default_watchdog with phase_grace = 1 }

type session_result = {
  outcomes : outcome option array;
  stats : Engine.stats;
  duration : float;
      (** sim time from the session's start to the moment its last seat
          terminated (the engine report's [r_finished -. r_admitted]);
          watchdog ticks and straggler deliveries that fire after that
          are not counted *)
}

(** A scheme-erased handle on one session's party state machines,
    indexed by seat.  {!Gcd.Make.engine_driver} builds one; the
    concurrent-session scheduler ({!Shs_engine}) drives it without
    knowing the instantiation's [party] type.  All functions may raise
    (a poisoned seat); the scheduler contains the blast radius. *)
type driver = {
  dr_n : int;  (** number of seats *)
  dr_start : int -> (int option * string) list;
      (** kick a seat off; returns [(dst, payload)] messages
          ([None] = broadcast) *)
  dr_receive : int -> src:int -> payload:string -> (int option * string) list;
  dr_force : int -> (int option * string) list;
      (** stop waiting for the seat's current phase and advance it as
          far as its data allows (§7 indistinguishable abort on missing
          data); each call moves it at least one phase, so repeated
          application always terminates it *)
  dr_outcome : int -> outcome option;
  dr_phase : int -> int;
      (** the seat's progress, 0..3 (3: terminal): the watchdog's phase
          marker, the stamp of the frames a call returns, and the
          live-phase gauge the engine counts the seat on *)
  dr_peer_phase : int -> int -> int;
      (** [dr_peer_phase i j]: seat [i]'s local evidence of peer [j]'s
          progress, the highest phase stamp of a well-formed frame it
          has received from [j] (DGKA traffic 0, the Phase II tag 1,
          the Phase III pair 2), or -1 before [j]'s first frame *)
}
