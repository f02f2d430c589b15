(** Seeded, deterministic fault plan for {!Engine}.

    The paper's channel model (§2) guarantees delivery; this module is
    how we take that guarantee away on purpose.  A plan bundles four
    fault classes:

    - {b drops}: each transmission is lost with a fixed probability;
    - {b duplication}: a transmission is delivered twice;
    - {b reordering}: extra per-copy latency jitter, uniform in
      [[0, jitter)], which lets later sends overtake earlier ones;
    - {b crash-stop}: a party stops sending and receiving at a given
      simulated time.

    All draws come from one HMAC-DRBG seeded at [create]; the engine
    consumes the stream in (deterministic) send order, so runs under a
    fault plan are exactly reproducible from the seed.  The plan is
    stateful — build a fresh one (same seed) to replay a run.

    The DRBG is read in pools of 64 uniforms: one 448-byte [generate]
    (14 HMAC blocks) per pool, taken only when a draw finds the pool
    spent, so a plan that never draws never generates. *)

type t

val create :
  ?drop:float ->
  ?duplicate:float ->
  ?jitter:float ->
  ?crashes:(int * float) list ->
  seed:int ->
  unit ->
  t
(** [drop] is the per-copy loss probability (default [0.0]);
    [duplicate] is the probability a transmission is delivered twice;
    [jitter] the maximum extra latency added to each delivered copy;
    [crashes] a [(party, time)] list of crash-stop faults.
    @raise Invalid_argument on probabilities outside [0,1], negative
    jitter, or negative crash times. *)

val crashed : t -> party:int -> now:float -> bool
(** Has [party] crash-stopped at simulated time [now]? *)

val draw_drop : t -> bool
(** Advance the stream by one draw; [true] if this copy is lost
    ([false] — without consuming a draw — when the plan drops
    nothing). *)

val draw_duplicate : t -> bool
(** Advance the stream; [true] if this transmission gains a copy. *)

val draw_jitter : t -> float
(** Advance the stream; extra latency in [[0, jitter)] ([0.0] — without
    consuming a draw — when the plan has no jitter). *)

val uniform : t -> float
(** One raw draw in [[0,1)] — exposed for tests.  Uniform k of a pool
    is bytes 7k..7k+6 of its 448-byte request, read big-endian and
    shifted right by 3: a 53-bit integer over 2^53. *)
