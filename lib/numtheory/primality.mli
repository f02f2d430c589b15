(** Primality testing: trial division by small primes followed by
    Miller–Rabin.

    For operands below 3.3e24 the fixed witness set {2,3,...,37} makes the
    test deterministic; above that, random witnesses are drawn from the
    supplied generator, giving error probability at most 4^-rounds. *)

val small_primes : int array
(** The primes below 10000, used for trial-division pre-filtering. *)

val trial_division : Bigint.t -> bool
(** [true] if no small prime divides the argument (or the argument {e is}
    a small prime).  Each remainder is {!Bigint.erem_int}, which does not
    allocate. *)

val miller_rabin_witness : Bigint.t -> Bigint.t -> bool
(** [miller_rabin_witness n a] is [true] iff [a] witnesses that odd [n > 2]
    is composite. *)

val is_probable_prime : ?rng:(int -> string) -> ?rounds:int -> Bigint.t -> bool
(** Full test: handles all integers (negatives and 0/1 are not prime).
    Default 40 rounds. *)

val jacobi : Bigint.t -> Bigint.t -> int
(** [jacobi a n] is the Jacobi symbol (a/n) ∈ {-1, 0, 1} for odd positive
    [n].  For prime [n] this decides quadratic residuosity without a full
    exponentiation — the fast path for validating Schnorr-group elements
    in safe-prime groups (where QR(p) is exactly the prime-order
    subgroup).  Evaluated by {!Bigint.jacobi}.
    @raise Invalid_argument if [n] is even or non-positive. *)
