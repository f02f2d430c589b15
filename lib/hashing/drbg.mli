(** HMAC-DRBG with SHA-256 (NIST SP 800-90A).

    The single source of randomness in the whole framework.  Every actor
    (group authority, member, adversary, simulator) owns a DRBG instance
    seeded explicitly, which makes protocol runs, tests and benchmarks
    fully reproducible.  The implementation is stateful: [generate] mutates
    the instance. *)

type t

val create : ?personalization:string -> seed:string -> unit -> t

val of_int_seed : int -> t
(** Convenience seeding for tests and examples. *)

val generate : t -> int -> string
(** [generate t n] returns [n] fresh pseudorandom bytes.
    @raise Invalid_argument if [n < 0], before the state moves. *)

val reseed : t -> string -> unit

val bytes_fn : t -> int -> string
(** Same as {!generate}; shaped for APIs that take an [int -> string]
    random-byte function (e.g. {!Bigint.random_below}). *)

val split : t -> string -> t
(** [split t label] derives an independent child generator; children with
    distinct labels produce independent streams.  The parent advances. *)
