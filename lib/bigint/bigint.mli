(** Arbitrary-precision signed integers, implemented in pure OCaml.

    The sealed build environment provides no bignum library, so this module
    supplies the arithmetic substrate for every cryptographic component of
    the secret-handshake framework: schoolbook multiplication, Knuth
    algorithm-D division, modular exponentiation on in-place,
    allocation-free Montgomery kernels (one squaring chain serves
    {!pow_mod} and {!pow_mod_multi}, fed by sliding windows over odd
    powers; declared fixed bases get per-32-bit-chunk tables),
    big-endian byte serialization, and one Euclid kernel
    accelerated by Lehmer's method (Knuth algorithm L) that serves
    {!gcd}, {!invert} and {!jacobi}.  The kernel simulates quotients in
    native ints on the top 60 bits of the pair, ends a batch before any
    cofactor reaches 2{^34}, and applies the batch's 2x2 matrix to the
    full numbers in one signed pass over the limbs; when no quotient can
    be simulated it takes one division step instead.

    Values are immutable.  Internally a number is a sign and a little-endian
    array of 26-bit limbs (the Montgomery kernels work on 27-bit limbs of
    their own); all exported operations are total unless documented
    otherwise. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit in a native [int]. *)

val to_int_opt : t -> int option

val of_string : string -> t
(** Parses decimal, or hexadecimal with a ["0x"] prefix; an optional leading
    ['-'] negates.  @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_hex : t -> string
(** Lowercase hexadecimal magnitude with ["0x"] prefix and sign. *)

val pp : Format.formatter -> t -> unit

(** {1 Comparison} *)

val compare : t -> t -> int
(** Total order; early-exits on the first differing limb, so its timing
    leaks where two values diverge.  Public values only — use
    {!compare_ct} when either operand derives from a secret. *)

val equal : t -> t -> bool
(** [compare a b = 0]; same timing caveat as {!compare}. *)

val compare_ct : t -> t -> int
(** Like {!compare}, but scans every limb with no early exit: running
    time depends only on the larger operand's limb count (public —
    bounded by the modulus width), never on limb values.  Signs and
    limb counts are treated as public. *)

val equal_ct : t -> t -> bool
(** Constant-time equality, same public-shape model as {!compare_ct}.
    This is the comparison decode/verify paths must use on anything
    attacker-supplied vs. secret (tokens vs. trapdoors, key
    fingerprints, revocation handles). *)

val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val div_rem : t -> t -> t * t
(** Truncated division: [div_rem a b = (q, r)] with [a = q*b + r] and
    [r] carrying the sign of [a] (C semantics).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder: result is always in [\[0, |b|)].  This is the
    reduction used everywhere in the cryptographic code. *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0].  @raise Invalid_argument on negative [e]. *)

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
val is_even : t -> bool

val logand : t -> t -> t
(** Bitwise AND of magnitudes; both arguments must be non-negative. *)

(** {1 Modular arithmetic} *)

val mul_mod : t -> t -> t -> t

val pow_mod : t -> t -> t -> t
(** [pow_mod b e m] computes [b^e mod m] for [m > 0].  Negative exponents
    are supported when [b] is invertible modulo [m] (the inverse is taken
    first).  For odd moduli of 64 to 3 429 bits (the common case in
    this code base; 127 limbs of 27 bits is the kernels' lazy-carry
    bound) this is
    {!pow_mod_multi}'s Montgomery chain with one term and no fixed-base
    table; division-based reduction otherwise.  [b^0 mod 1 = 0].
    @raise Division_by_zero if [m] is zero.
    @raise Invalid_argument if [e < 0] and [b] is not invertible mod [m]. *)

val pow_mod_naive : t -> t -> t -> t
(** Plain square-and-multiply (window size 1); non-negative exponents only.
    Kept as the baseline for the windowed-exponentiation ablation bench. *)

val pow_mod_multi : (t * t) list -> t -> t
(** [pow_mod_multi [(b1, e1); ...] m] is [Π bᵢ^eᵢ mod m] for [m > 0],
    evaluated as one Straus/Shamir simultaneous exponentiation in the
    Montgomery domain (odd [m] of 64 to 3 429 bits): all terms share a
    single squaring chain and a single domain exit, each term feeding
    it with sliding windows over a per-call table of its base's odd
    powers.  A base declared for [m] ({!declare_fixed_bases}) reads
    tables of 32 odd powers per 32-bit exponent chunk instead, built at
    its first use, so its windows all fall in the chain's last 32
    squarings and cost about one product per 7 exponent bits.  Negative
    exponents invert the base first (a declared base's inverse gets
    tables too); pairs with [eᵢ = 0] or [bᵢ ≡ 1] are dropped, the latter
    before any inversion; the empty product is [1 mod m].
    @raise Division_by_zero if [m] is zero or negative.
    @raise Invalid_argument if some [eᵢ < 0] with [bᵢ] not invertible. *)

val pow_mod_many : t -> t list -> t -> t Seq.t
(** [pow_mod_many b [e1; ...] m] is the sequence [b^e1 mod m, ...],
    each element equal to [pow_mod b eᵢ m], computed when it is read:
    a scan that stops early pays for no later power.  For two or more
    exponents on a Montgomery modulus, one table of the base's odd
    powers per 32-bit exponent chunk, built on the first read, serves
    every exponent, whose windows then all fall in the chain's last 32
    squarings; a product-count model picks its window width, or one
    {!pow_mod} per exponent when that costs no more (always for a
    single exponent).  The table lives as long as the sequence and
    never enters the fixed-base registry.  Each element counts as one
    exponentiation in {!pow_mod_count}; reading the sequence twice
    recomputes the powers over the same table.
    @raise Division_by_zero if [m] is zero or negative.
    @raise Invalid_argument if some [eᵢ < 0]. *)

val declare_fixed_bases : modulus:t -> t list -> unit
(** Registers [bases] as fixed bases of [modulus]: values that outlive
    a session, such as a group key's generators, declared where the key
    is built or imported.  {!pow_mod_multi} builds the tables of a
    declared base, or of its inverse, at their first use.  A declared
    modulus keeps its Montgomery context; any other builds one per call.
    The registry is process-wide and keyed by value, so declaring a
    value again is a lookup.  Moduli the Montgomery kernels do not serve
    are not registered. *)

(** Evaluation strategy for {!pow_mod_multi} — the bench E3/E8 ablation
    switch.  [Folded] replays the historical fold of independent
    {!pow_mod} calls with a multiplication between terms; [Multi] is
    Straus/Shamir with every base dynamic, declarations ignored;
    [Multi_fixed] (the default) adds the declared bases' tables. *)
type multi_mode = Folded | Multi | Multi_fixed

val set_multi_mode : multi_mode -> unit
val multi_mode : unit -> multi_mode

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero]. *)

val ext_gcd : t -> t -> t * t * t
(** [ext_gcd a b = (g, u, v)] with [g = gcd a b = u*a + v*b], by the
    textbook extended Euclid (two products per quotient).  For the
    Bezout pair itself; {!invert} does not use it. *)

val invert : t -> t -> t
(** [invert a m] is [a^-1 mod m] in [\[0, m)], for any non-zero modulus.
    The Euclid kernel runs on [(m, a mod m)] and tracks only the
    cofactor of [a].  Variable-time.
    @raise Not_found if [a] is not invertible modulo [m].
    @raise Division_by_zero if [m] is zero. *)

val jacobi : t -> t -> int
(** [jacobi a n] is the Jacobi symbol [(a/n)] in [{-1, 0, 1}] for odd
    positive [n], from the Euclid kernel's remainder sequence on
    [(n, a mod n)]: per quotient, a sign and both values mod 8 are
    updated (reciprocity when the denominator is reduced by an odd
    value, the [(2/x)] rule when by an even one).  Variable-time.
    @raise Invalid_argument if [n] is even or non-positive. *)

val erem_int : t -> int -> int
(** [erem_int a d] is [erem a (of_int d)] as an int, for
    [0 < d < 2{^36}], computed by Horner's rule over the limbs without
    allocating.
    @raise Invalid_argument if [d] is out of range. *)

(** {1 Byte serialization} *)

val of_bytes_be : string -> t
(** Big-endian unsigned interpretation; [""] maps to [zero].  One pass
    over the bytes, filling 26-bit limbs 8 bits at a time. *)

val to_bytes_be : ?len:int -> t -> string
(** Minimal big-endian encoding of the magnitude, left-padded with zero
    bytes to [len] when given.  The value must be non-negative.  One
    pass over the limbs.
    @raise Invalid_argument if [len] is too small for the magnitude. *)

(** {1 Randomness} *)

val random_bits : (int -> string) -> int -> t
(** [random_bits rng n] draws a uniform integer in [\[0, 2^n)]; [rng k]
    must return [k] fresh random bytes. *)

val random_below : (int -> string) -> t -> t
(** Uniform in [\[0, bound)] by rejection sampling; [bound] must be
    positive. *)

(** {1 Instrumentation} *)

val mul_count : unit -> int
(** Number of bignum multiplications performed since start-up; used by the
    benchmark harness to report operation counts alongside wall-clock. *)

val pow_mod_count : unit -> int
(** Number of modular exponentiations performed since start-up.
    {!pow_mod_multi} counts as one exponentiation regardless of how many
    terms it folds. *)

val reset_counters : unit -> unit

val reset_caches : unit -> unit
(** Drop every table built for a declared base or its inverse, keeping
    the declarations and the declared moduli's Montgomery contexts.
    Also an [Obs.on_reset] hook, so [Obs.reset_all] — the bench
    harness's fixture-isolation point — drops them too. *)

val mont_cache_size : unit -> int
(** Number of declared moduli (test/bench instrumentation). *)

val fixed_base_cache_size : unit -> int
(** Number of declared bases, and inverses of them, that hold tables
    (test/bench instrumentation). *)

val fixed_base_table_words : unit -> int
(** Limb words held by the declared bases' tables: 32 residues of
    k limbs per 32-bit exponent chunk of every base that holds a table
    (test/bench instrumentation). *)

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

val pow_mod_div : t -> t -> t -> t
(** The windowed ladder with a trial division after every multiplication —
    the implementation [pow_mod] used before Montgomery reduction was
    added.  Non-negative exponents only; kept for the E8 ablation. *)

(** Arithmetic identical to the metered entry points but with no counter
    increment or profiler charge — the control arm of the bench
    harness's observability-overhead sanity check.  Protocol code must
    not use it. *)
module Unmetered : sig
  val mul : t -> t -> t
end
