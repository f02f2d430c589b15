(** Generic Fiat–Shamir proofs of knowledge of discrete-log representations
    over a group of unknown order (QR(n)).

    A {e statement} is a conjunction of relations of the form

    {[ target_j = Π_i base_{j,i} ^ (sign_{j,i} · var_{j,i}) (mod n) ]}

    where the hidden variables are shared across relations and each carries
    an {!Interval.spec} that fixes its blinder size and the verifier's
    response-range check.  Both group-signature schemes in this repository
    (ACJT with accumulator revocation, and the Kiayias–Yung variant with
    tracing tags) are instances of this engine; sharing one implementation
    keeps the two schemes' proofs consistent and separately testable.

    Completeness: honest proofs always verify.  Soundness (under strong
    RSA, in the ROM): an extractor obtains integer values in the expanded
    intervals satisfying every relation.  Zero-knowledge: responses are
    statistically independent of the secrets thanks to the blinder slack. *)

type term = {
  base : Bigint.t;
  var : string;
  positive : bool;  (** [false] puts the variable in the denominator *)
}

type relation = { target : Bigint.t; terms : term list }

type statement = {
  modulus : Bigint.t;
  vars : (string * Interval.spec) list;  (** every var used by the relations *)
  relations : relation list;
}

type proof = {
  challenge : Bigint.t;
  responses : (string * Bigint.t) list;  (** same order as [statement.vars] *)
}

val prove :
  ?reps:(Bigint.t * (Bigint.t * Bigint.t)) list ->
  rng:(int -> string) ->
  statement ->
  secrets:(string * Bigint.t) list ->
  transcript:Transcript.t ->
  proof
(** [transcript] must already bind the context (public parameters, tags,
    message); the engine absorbs the statement structure and commitments on
    top.  @raise Invalid_argument if a secret is missing or unknown.

    [reps] lists the discrete logs the prover knows: [(base, (gen, k))]
    with [base = gen^k mod n].  A commitment term over [base] is then
    evaluated as [gen^(k·blinder)] and merged with the relation's other
    terms over [gen]; the commitments, and so the proof, are the same
    as without [reps].  A wrong [k] yields a proof that {!verify}
    rejects. *)

val verify : statement -> transcript:Transcript.t -> proof -> bool
(** Recomputes the commitments from the responses, replays the transcript,
    and applies every response-range check. *)

val encode : statement -> proof -> string
(** Fixed-width encoding: the length depends only on the statement's
    variable specs, never on the secret values (needed for transcript
    length-uniformity). *)

val decode : statement -> string -> proof option

val encoded_len : statement -> int
