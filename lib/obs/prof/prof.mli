(** Deterministic cost-attribution profiler.

    [Shs_prof] maintains an explicit attribution-context stack of {e
    frames}.  Frames are pushed two ways: every [Obs.with_span] while
    the profiler is enabled (via {!Obs.set_span_hooks}), and the
    lightweight {!frame} scopes protocol code adds where a span would be
    too heavy (per verification equation, per rekey).  Each bigint
    primitive then {!charge}s one call, a limb-word work estimate, and —
    settled lazily at frame boundaries — the [Gc] minor/major allocation
    delta, to the frame the stack currently points at.

    Nothing in the data path reads a wall clock, so a profile taken
    under fixed seeds replays byte-identically between fresh-process
    runs: the tree shape is the call structure, and the weights are
    operation counts, limb-word estimates, and allocation word counts.
    Calls and words are pure functions of the computation and replay
    exactly even within one process, and so do minor-heap words:
    [Gc.minor_words] counts every allocated word, independent of when
    minor collections happen.  Major-heap words (promotions included)
    do depend on collection timing, and are reproducible only when the
    whole process history is — which is what [bin/ci.sh] checks by
    running [shs_demo handshake --profile] twice and comparing bytes.
    [shs_demo handshake --profile] exports the tree as collapsed-stack
    text (flamegraph.pl compatible) and speedscope JSON; bench e13 turns
    it into shs-bench/1 series the regression gate tracks.

    The profiler is process-global, like the [Obs] registry it layers
    on.  Charging is O(1) per primitive (two array bumps on the current
    frame); the allocation counters are read only when the stack
    changes shape. *)

(** {1 Charging} *)

(** The metered bigint primitives.  A [Mul] is a multiplication: a
    schoolbook or Karatsuba product charges the product of its operands'
    26-bit limb counts, a Montgomery product or squaring 2k² words for a
    modulus of k limbs of the Montgomery domain's 27-bit width, so a
    512-bit product charges 2·19² (it charged 2·20² on 26-bit limbs,
    9.7% more, with the work).  [Multi_exp] is one simultaneous
    multi-exponentiation ([Bigint.pow_mod_multi]); its word estimate is
    the summed bit length of the exponents, mirroring [Modexp]'s
    per-call estimate so folded-vs-simultaneous evaluations of the same
    product charge comparable top-level work. *)
type op = Mul | Reduce | Modexp | Inv | Multi_exp

val op_name : op -> string
(** ["mul"], ["reduce"], ["modexp"], ["inv"], ["multi_exp"]. *)

val all_ops : op list

val active : bool ref
(** Whether charges are being recorded.  Hot paths read this directly to
    skip the [charge] call: [if !Prof.active then Prof.charge ...]. *)

val enable : unit -> unit
(** Start recording: arm the [Obs] span hooks and rebaseline the
    allocation counters.  Idempotent. *)

val disable : unit -> unit
(** Stop recording: settle the pending allocation delta, disarm the span
    hooks, and abandon any frames still open (their pending pops become
    no-ops).  Idempotent. *)

val reset : unit -> unit
(** Drop the accumulated tree and rebaseline the allocation counters.
    Does not change whether the profiler is enabled. *)

val frame : string -> (unit -> 'a) -> 'a
(** [frame name f] runs [f] with [name] pushed on the attribution stack.
    The pop is exception-safe ([Fun.protect]).  When the profiler is
    disabled this is [f ()] — one ref read and a branch. *)

val charge : op -> words:int -> unit
(** Charge one [op] call and [words] limb-words of work to the current
    frame.  Callers must guard with [!active]; an unguarded charge while
    disabled lands on the stale tree root (harmless but wasted). *)

(** {1 Snapshots} *)

(** Immutable frozen tree; the root frame is named ["root"] and holds
    whatever ran outside every frame.  [t_calls]/[t_words] are {e self}
    costs indexed consistently with {!calls}/{!words}; children are in
    first-push order. *)
type tree = {
  t_name : string;
  t_calls : int array;
  t_words : int array;
  t_minor_words : float;  (** minor-heap words allocated in this frame *)
  t_major_words : float;  (** major-heap words allocated (incl. promotions) *)
  t_children : tree list;
}

val snapshot : unit -> tree
(** Freeze the current tree (settling the pending allocation delta first
    when enabled). *)

val calls : tree -> op -> int
(** Self call count of one primitive in this frame. *)

val words : tree -> op -> int
(** Self limb-word work estimate of one primitive in this frame. *)

val fold : ('a -> tree -> 'a) -> 'a -> tree -> 'a
(** Pre-order fold over the whole tree, root included. *)

val total : tree -> op -> int
(** Inclusive call count over the whole tree. *)

val total_words : tree -> op -> int
val total_minor_words : tree -> float

val attributed_fraction : tree -> op -> float
(** Fraction of [op] calls charged to a non-root frame; [1.0] when there
    were none at all. *)

val by_frame : tree -> op -> (string * int) list
(** Self call counts aggregated by frame name (a frame reachable along
    several paths counts once per name), sorted by name, zero-count
    frames dropped. *)

(** {1 Exports} *)

(** Which per-frame quantity an export weighs paths by. *)
type weight =
  | Calls  (** primitive calls, all ops summed *)
  | Words  (** limb-word work estimates, all ops summed *)
  | Alloc  (** minor-heap words allocated *)

val to_collapsed : ?weight:weight -> tree -> string
(** Collapsed-stack text, one ["a;b;c self_weight"] line per frame with
    nonzero self weight, in DFS order — the input format of
    flamegraph.pl and speedscope's importer.  Default weight {!Words}. *)

val to_speedscope : ?name:string -> tree -> Obs_json.t
(** Speedscope file-format document with three sampled profiles (calls,
    limb words, minor words) over one shared frame table.  Byte-stable:
    frame indices are first-visit DFS order. *)

val top_k : ?k:int -> tree -> (string * tree) list
(** The [k] frames with the largest self limb-word work (ties broken by
    path), as [(";"-joined path, frame)] rows. *)

val report : ?k:int -> tree -> string
(** Human-readable top-[k] attribution table plus the mul attribution
    fraction, suitable for [shs_demo --metrics]. *)
