(** Kiayias–Yung-style traceable group signature (the variant of paper
    Appendix H), the GSIG instantiation of Example Scheme 2 (§8.2).

    A member's private key is [(A, e, x, x')] with
    [A^e = a0 · a^x · b^{x'} (mod n)]; the manager knows [(A, e, x)] —
    [x] is the {e tracing trapdoor} — while [x'] is known only to the
    member (it backs no-misattribution and the claiming/self-distinction
    tag).  A signature carries seven tags:

    - [T1 = A·y^r], [T2 = g^r], [T3 = g^e·h^r] (as in ACJT),
    - [T4 = T5^x], [T5 = g^k] (tracing: anyone holding [x_i] can test
      [T4 = T5^{x_i}] — this also implements revocation: the CRL is the
      list of revoked members' [x] tokens),
    - [T6 = T7^{x'}], [T7 = g^{k'}] (claiming).

    {b Self-distinction hook} (§8.2): [sign] accepts an optional common
    base for [T7].  When every handshake participant uses
    [T7 = H(handshake transcript)] mapped into QR(n), distinct members are
    forced to reveal distinct [T6] values while anonymity is preserved —
    a cloned participant is exposed by a repeated [T6].

    Satisfies correctness, full-traceability, {e anonymity} (not full-
    anonymity: a corrupted member's [x] links its own signatures — exactly
    the weakening Theorem 2/3 accommodate), and no-misattribution. *)

include Gsig_intf.S

(** {1 Self-distinction support (used by Example Scheme 2)} *)

val base_of_bytes : public -> string -> Bigint.t
(** Hash arbitrary bytes to an element of QR(n) (square of the expanded
    hash), the "idealized hash H : \{0,1\}* → R" of §8.2. *)

val sign_with_base : rng:(int -> string) -> member -> msg:string -> base:Bigint.t -> string

val verify_with_base : member -> msg:string -> base:Bigint.t -> string -> bool
(** {!verify}, and T7 must equal [base]: the pin is checked first, on
    the one decode, so a signature under another base costs neither
    the SPK nor the CRL scan.  Counts as one [gsig.verify]. *)

val t6_t7 : public -> string -> (Bigint.t * Bigint.t) option
(** The (T6, T7) pair of an encoded signature. *)

(** {1 Tracing (used by tests and the tracing-agent workflow)} *)

val tracing_token : manager -> uid:string -> Bigint.t option
(** The member's [x], as handed to tracing agents in KTY. *)

val matches_token : public -> token:Bigint.t -> string -> bool
(** Does this signature's (T4, T5) pair match the token? *)

val crl_length : member -> int
(** Size of the member's current revocation list (bench instrumentation). *)

val forge_without_membership :
  rng:(int -> string) -> public -> msg:string -> string
(** Negative control for impersonation tests, as in {!Acjt}. *)

(** {1 Verifiable opening (the Fig. 3 evidence)} *)

val open_with_evidence :
  rng:(int -> string) -> manager -> msg:string -> string -> (string * string) option

val verify_opening :
  public -> msg:string -> sigma:string -> evidence:string -> Bigint.t option

val certificate_value : manager -> uid:string -> Bigint.t option

(** {1 Claiming (Appendix H: "(T6, T7) allows one to claim its signatures")} *)

val claim :
  rng:(int -> string) -> member -> string -> label:string -> string option
(** Produce a transferable proof that this member authored the signature,
    bound to [label].  [None] if the signature is not this member's or is
    malformed. *)

val verify_claim : public -> string -> label:string -> string -> bool

(** {1 Persistence} *)

include Gsig_intf.PERSISTENT with type manager := manager and type member := member

val member_public : member -> public
(** The group public key embedded in a member's state (used when
    restoring persisted members). *)
