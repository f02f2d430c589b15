(** ACJT'00-style group signature scheme over QR(n) with dynamic-
    accumulator revocation — the GSIG instantiation of the paper's
    Example Scheme 1 (§8.1, which cites [1] = ACJT and [12] = CL
    accumulators for revocation).

    A membership certificate is [(A, e)] with [A^e = a0 · a^x (mod n)]
    where [x] is the member's secret.  A signature carries tags

    - [T1 = A·y^r], [T2 = g^r] (ElGamal encryption of [A] under the
      opening key [y = g^θ]; GSIG.Open decrypts it),
    - [T3 = g^e·h^r] (binds [e] for traceability),
    - [Cw = w·h2^rw], [D = g2^rw] (blinded accumulator witness),

    and a proof of knowledge (via {!Spk}) of [(x, e, r, e·r, rw, e·rw)]
    satisfying the certificate, encryption, and accumulator relations,
    with [x ∈ Λ] and [e ∈ Γ] interval checks.

    Satisfies (computationally, under strong RSA + DDH in the ROM):
    correctness, full-traceability, full-anonymity, no-misattribution —
    the Theorem 1 preconditions. *)

include Gsig_intf.S

(** {1 Extras used by tests and benches} *)

val certificate_prime : manager -> uid:string -> Bigint.t option
val member_witness_valid : member -> bool
(** Does the member's current witness verify against its accumulator view? *)

val forge_without_membership :
  rng:(int -> string) -> public -> msg:string -> string
(** A structurally well-formed signature built from random values without
    any certificate; verification must reject it (used as a negative
    control by the impersonation tests). *)

(** {1 Verifiable opening (the Fig. 3 evidence)} *)

val open_with_evidence :
  rng:(int -> string) -> manager -> msg:string -> string -> (string * string) option
(** Like {!open_}, but also returns encoded {!Opening} evidence a third
    party can check with {!verify_opening}. *)

val verify_opening :
  public -> msg:string -> sigma:string -> evidence:string -> Bigint.t option
(** Judge-side verification: the certificate value A proven to be the
    signer, to be matched against a claimed registration. *)

val certificate_value : manager -> uid:string -> Bigint.t option
(** The registered A of a member (what a judge compares against). *)

(** {1 Persistence} *)

include Gsig_intf.PERSISTENT with type manager := manager and type member := member

val member_public : member -> public
(** The group public key embedded in a member's state (used when
    restoring persisted members). *)
