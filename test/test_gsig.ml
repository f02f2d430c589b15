(* Tests for the group-signature building block: the dynamic accumulator,
   and the ACJT and KTY schemes against the Fig. 3 interface and the
   Appendix B security properties (executable versions). *)

module B = Bigint

let rng_of_seed seed = Drbg.bytes_fn (Drbg.of_int_seed seed)
let rsa = lazy (Lazy.force Params.rsa_512)

(* ------------------------------------------------------------------ *)
(* Accumulator                                                         *)
(* ------------------------------------------------------------------ *)

let test_accumulator_lifecycle () =
  let rng = rng_of_seed 50 in
  let m = Lazy.force rsa in
  let n = m.Groupgen.n in
  let acc0 = Accumulator.create ~rng m in
  let e1 = Primegen.random_prime ~rng ~bits:64 in
  let e2 = Primegen.random_prime ~rng ~bits:64 in
  let e3 = Primegen.random_prime ~rng ~bits:64 in
  (* add e1: witness is the pre-add value *)
  let w1 = Accumulator.value acc0 in
  let acc1 = Accumulator.add acc0 ~prime:e1 in
  Alcotest.(check bool) "w1 valid" true
    (Accumulator.verify_witness ~modulus:n ~value:(Accumulator.value acc1) ~witness:w1 ~prime:e1);
  (* add e2: w1 updates, w2 is pre-add value *)
  let w2 = Accumulator.value acc1 in
  let acc2 = Accumulator.add acc1 ~prime:e2 in
  let w1 = Accumulator.witness_on_add ~modulus:n ~witness:w1 ~added:e2 in
  Alcotest.(check bool) "w1 still valid" true
    (Accumulator.verify_witness ~modulus:n ~value:(Accumulator.value acc2) ~witness:w1 ~prime:e1);
  Alcotest.(check bool) "w2 valid" true
    (Accumulator.verify_witness ~modulus:n ~value:(Accumulator.value acc2) ~witness:w2 ~prime:e2);
  (* add e3 then remove e2 *)
  let w3 = Accumulator.value acc2 in
  let acc3 = Accumulator.add acc2 ~prime:e3 in
  let w1 = Accumulator.witness_on_add ~modulus:n ~witness:w1 ~added:e3 in
  let acc4 = Accumulator.remove acc3 ~prime:e2 in
  let v4 = Accumulator.value acc4 in
  (match
     Accumulator.witness_on_remove ~modulus:n ~witness:w1 ~self:e1 ~removed:e2 ~new_value:v4
   with
   | None -> Alcotest.fail "w1 update failed"
   | Some w1 ->
     Alcotest.(check bool) "w1 survives removal" true
       (Accumulator.verify_witness ~modulus:n ~value:v4 ~witness:w1 ~prime:e1));
  (match
     Accumulator.witness_on_remove ~modulus:n ~witness:w3 ~self:e3 ~removed:e2 ~new_value:v4
   with
   | None -> Alcotest.fail "w3 update failed"
   | Some w3 ->
     Alcotest.(check bool) "w3 survives removal" true
       (Accumulator.verify_witness ~modulus:n ~value:v4 ~witness:w3 ~prime:e3));
  (* the revoked member cannot update *)
  Alcotest.(check bool) "revoked cannot update" true
    (Accumulator.witness_on_remove ~modulus:n ~witness:w2 ~self:e2 ~removed:e2 ~new_value:v4
     = None);
  (* stale witness no longer verifies *)
  Alcotest.(check bool) "stale witness fails" false
    (Accumulator.verify_witness ~modulus:n ~value:v4 ~witness:w2 ~prime:e2)

let test_accumulator_remove_restores () =
  (* adding then removing a prime restores the original value *)
  let rng = rng_of_seed 51 in
  let acc = Accumulator.create ~rng (Lazy.force rsa) in
  let e = Primegen.random_prime ~rng ~bits:64 in
  let v0 = Accumulator.value acc in
  let acc = Accumulator.remove (Accumulator.add acc ~prime:e) ~prime:e in
  Alcotest.(check bool) "restored" true (B.equal v0 (Accumulator.value acc))

(* ------------------------------------------------------------------ *)
(* Scheme-generic tests, run against both ACJT and KTY                 *)
(* ------------------------------------------------------------------ *)

module type SCHEME = sig
  include Gsig_intf.S

  val forge_without_membership :
    rng:(int -> string) -> public -> msg:string -> string
end

module Generic (G : SCHEME) = struct
  let join ~rng mgr uid =
    let req, offer = G.join_begin ~rng (G.public mgr) in
    match G.join_issue ~rng mgr ~uid ~offer with
    | None -> Alcotest.fail "join_issue failed"
    | Some (mgr, cert, upd) ->
      (match G.join_complete req ~cert with
       | None -> Alcotest.fail "join_complete failed"
       | Some mem -> (mgr, mem, upd))

  (* A tiny fixture: a manager with three members whose states are kept
     current with every update message. *)
  let fixture seed =
    let rng = rng_of_seed seed in
    let mgr = G.setup ~rng ~modulus:(Lazy.force rsa) in
    let mgr, alice, _ = join ~rng mgr "alice" in
    let mgr, bob, upd = join ~rng mgr "bob" in
    let alice = Option.get (G.apply_update alice upd) in
    let mgr, carol, upd = join ~rng mgr "carol" in
    let alice = Option.get (G.apply_update alice upd) in
    let bob = Option.get (G.apply_update bob upd) in
    (rng, mgr, alice, bob, carol)

  let test_sign_verify_open () =
    let rng, mgr, alice, bob, carol = fixture 60 in
    let s = G.sign ~rng alice ~msg:"attack at dawn" in
    Alcotest.(check int) "constant length" (G.signature_len (G.public mgr))
      (String.length s);
    Alcotest.(check bool) "bob verifies" true (G.verify bob ~msg:"attack at dawn" s);
    Alcotest.(check bool) "carol verifies" true (G.verify carol ~msg:"attack at dawn" s);
    Alcotest.(check bool) "wrong message" false (G.verify bob ~msg:"attack at dusk" s);
    Alcotest.(check (option string)) "opens to alice" (Some "alice")
      (G.open_ mgr ~msg:"attack at dawn" s);
    let s2 = G.sign ~rng carol ~msg:"x" in
    Alcotest.(check (option string)) "opens to carol" (Some "carol")
      (G.open_ mgr ~msg:"x" s2)

  let test_anonymity_shape () =
    (* Signatures must not repeat any tag values across signings (they are
       randomized), and two different signers' signatures must be
       structurally indistinguishable: same length, no shared substrings
       beyond chance. *)
    let rng, _mgr, alice, bob, _ = fixture 61 in
    let s1 = G.sign ~rng alice ~msg:"m" in
    let s2 = G.sign ~rng alice ~msg:"m" in
    let s3 = G.sign ~rng bob ~msg:"m" in
    Alcotest.(check bool) "same signer randomized" true (s1 <> s2);
    Alcotest.(check int) "same length" (String.length s1) (String.length s3);
    (* no 32-byte window of s1 recurs in s2: tags fully re-randomized *)
    let shares_window a b =
      let w = 32 in
      let found = ref false in
      for i = 0 to (String.length a - w) / w do
        let chunk = String.sub a (i * w) w in
        let rec search from =
          match String.index_from_opt b from chunk.[0] with
          | None -> ()
          | Some j ->
            if j + w <= String.length b && String.sub b j w = chunk then found := true
            else search (j + 1)
        in
        search 0
      done;
      !found
    in
    Alcotest.(check bool) "no shared windows (same signer)" false (shares_window s1 s2);
    Alcotest.(check bool) "no shared windows (cross signer)" false (shares_window s1 s3)

  let test_revocation_flow () =
    let rng, mgr, alice, bob, carol = fixture 62 in
    let s_pre = G.sign ~rng alice ~msg:"before" in
    Alcotest.(check bool) "valid before" true (G.verify bob ~msg:"before" s_pre);
    let mgr, upd = Option.get (G.revoke ~rng mgr ~uid:"alice") in
    let bob = Option.get (G.apply_update bob upd) in
    let carol = Option.get (G.apply_update carol upd) in
    let alice = Option.get (G.apply_update alice upd) in
    Alcotest.(check bool) "alice invalidated" false (G.member_valid alice);
    Alcotest.(check bool) "bob still valid" true (G.member_valid bob);
    Alcotest.(check bool) "old signature rejected" false (G.verify bob ~msg:"before" s_pre);
    Alcotest.(check bool) "revoked cannot sign" true
      (try ignore (G.sign ~rng alice ~msg:"zombie"); false
       with Invalid_argument _ -> true);
    (* survivors still interoperate *)
    let s = G.sign ~rng carol ~msg:"after" in
    Alcotest.(check bool) "carol->bob ok" true (G.verify bob ~msg:"after" s);
    Alcotest.(check (option string)) "still opens" (Some "carol")
      (G.open_ mgr ~msg:"after" s);
    (* roster reflects the state *)
    Alcotest.(check (list (pair string bool))) "roster"
      [ ("alice", true); ("bob", false); ("carol", false) ]
      (G.roster mgr);
    (* double revocation is refused *)
    Alcotest.(check bool) "double revoke" true (G.revoke ~rng mgr ~uid:"alice" = None)

  let test_impersonation_rejected () =
    let rng, mgr, _alice, bob, _ = fixture 63 in
    let f = G.forge_without_membership ~rng (G.public mgr) ~msg:"forged" in
    Alcotest.(check bool) "forgery rejected" false (G.verify bob ~msg:"forged" f);
    Alcotest.(check bool) "forgery does not open" true (G.open_ mgr ~msg:"forged" f = None)

  let test_signature_tamper () =
    let rng, _mgr, alice, bob, _ = fixture 64 in
    let s = G.sign ~rng alice ~msg:"m" in
    (* flip one byte in a sample of positions across the signature *)
    let len = String.length s in
    List.iter
      (fun pos ->
        let pos = pos mod len in
        let b = Bytes.of_string s in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
        Alcotest.(check bool) (Printf.sprintf "byte %d" pos) false
          (G.verify bob ~msg:"m" (Bytes.to_string b)))
      [ 0; 7; len / 4; len / 2; (3 * len) / 4; len - 1 ];
    (* wrong length rejected *)
    Alcotest.(check bool) "truncated" false (G.verify bob ~msg:"m" (String.sub s 0 10));
    Alcotest.(check bool) "garbage" false (G.verify bob ~msg:"m" (String.make len '\x00'))

  let test_bad_join_inputs () =
    let rng = rng_of_seed 65 in
    let mgr = G.setup ~rng ~modulus:(Lazy.force rsa) in
    Alcotest.(check bool) "malformed offer" true
      (G.join_issue ~rng mgr ~uid:"u" ~offer:"garbage" = None);
    let mgr, _mem, _ = join ~rng mgr "u" in
    let _req, offer = G.join_begin ~rng (G.public mgr) in
    Alcotest.(check bool) "duplicate uid" true
      (G.join_issue ~rng mgr ~uid:"u" ~offer = None);
    (* a tampered certificate is refused by the user *)
    let req2, offer2 = G.join_begin ~rng (G.public mgr) in
    (match G.join_issue ~rng mgr ~uid:"v" ~offer:offer2 with
     | None -> Alcotest.fail "issue failed"
     | Some (_, cert, _) ->
       let b = Bytes.of_string cert in
       Bytes.set b (Bytes.length b - 1)
         (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 1));
       Alcotest.(check bool) "tampered cert refused" true
         (G.join_complete req2 ~cert:(Bytes.to_string b) = None));
    Alcotest.(check bool) "revoke unknown uid" true (G.revoke ~rng mgr ~uid:"nobody" = None);
    let _rng2, _mgr2, alice, _, _ = fixture 66 in
    Alcotest.(check bool) "malformed update" true (G.apply_update alice "junk" = None)

  let suite label =
    [ Alcotest.test_case (label ^ ": sign/verify/open") `Slow test_sign_verify_open;
      Alcotest.test_case (label ^ ": anonymity shape") `Slow test_anonymity_shape;
      Alcotest.test_case (label ^ ": revocation flow") `Slow test_revocation_flow;
      Alcotest.test_case (label ^ ": impersonation rejected") `Slow test_impersonation_rejected;
      Alcotest.test_case (label ^ ": tamper") `Slow test_signature_tamper;
      Alcotest.test_case (label ^ ": bad join inputs") `Slow test_bad_join_inputs;
    ]
end

module Acjt_tests = Generic (Acjt)
module Kty_tests = Generic (Kty)

(* ------------------------------------------------------------------ *)
(* ACJT specifics: accumulator integration                             *)
(* ------------------------------------------------------------------ *)

let test_acjt_witness_tracking () =
  let rng = rng_of_seed 70 in
  let mgr = Acjt.setup ~rng ~modulus:(Lazy.force rsa) in
  let join mgr uid =
    let req, offer = Acjt.join_begin ~rng (Acjt.public mgr) in
    match Acjt.join_issue ~rng mgr ~uid ~offer with
    | Some (mgr, cert, upd) -> (mgr, Option.get (Acjt.join_complete req ~cert), upd)
    | None -> Alcotest.fail "join"
  in
  let mgr, m1, _ = join mgr "u1" in
  let mgr, m2, u2 = join mgr "u2" in
  let m1 = Option.get (Acjt.apply_update m1 u2) in
  let mgr, m3, u3 = join mgr "u3" in
  let m1 = Option.get (Acjt.apply_update m1 u3) in
  let m2 = Option.get (Acjt.apply_update m2 u3) in
  List.iteri
    (fun i m ->
      Alcotest.(check bool) (Printf.sprintf "witness %d" i) true
        (Acjt.member_witness_valid m))
    [ m1; m2; m3 ];
  (* revoke u2; u1 and u3 witnesses survive, u2's cannot *)
  let mgr, upd = Option.get (Acjt.revoke ~rng mgr ~uid:"u2") in
  let m1 = Option.get (Acjt.apply_update m1 upd) in
  let m3 = Option.get (Acjt.apply_update m3 upd) in
  let m2 = Option.get (Acjt.apply_update m2 upd) in
  Alcotest.(check bool) "u1 witness ok" true (Acjt.member_witness_valid m1);
  Alcotest.(check bool) "u3 witness ok" true (Acjt.member_witness_valid m3);
  Alcotest.(check bool) "u2 invalid" false (Acjt.member_valid m2);
  Alcotest.(check bool) "primes distinct" true
    (not
       (B.equal
          (Option.get (Acjt.certificate_prime mgr ~uid:"u1"))
          (Option.get (Acjt.certificate_prime mgr ~uid:"u3"))))

(* A member whose accumulator view is stale cannot verify fresh
   signatures — this is what forces GCD to pair GSIG updates with CGKD
   delivery. *)
let test_acjt_stale_view () =
  let rng = rng_of_seed 71 in
  let mgr = Acjt.setup ~rng ~modulus:(Lazy.force rsa) in
  let join mgr uid =
    let req, offer = Acjt.join_begin ~rng (Acjt.public mgr) in
    match Acjt.join_issue ~rng mgr ~uid ~offer with
    | Some (mgr, cert, upd) -> (mgr, Option.get (Acjt.join_complete req ~cert), upd)
    | None -> Alcotest.fail "join"
  in
  let mgr, stale, _ = join mgr "stale" in
  let _mgr, fresh, _upd = join mgr "fresh" in
  let s = Acjt.sign ~rng fresh ~msg:"m" in
  Alcotest.(check bool) "stale view cannot verify" false (Acjt.verify stale ~msg:"m" s)

(* ------------------------------------------------------------------ *)
(* KTY specifics: tracing tokens and the common-base tags              *)
(* ------------------------------------------------------------------ *)

let kty_fixture seed =
  let rng = rng_of_seed seed in
  let mgr = Kty.setup ~rng ~modulus:(Lazy.force rsa) in
  let join mgr uid =
    let req, offer = Kty.join_begin ~rng (Kty.public mgr) in
    match Kty.join_issue ~rng mgr ~uid ~offer with
    | Some (mgr, cert, upd) -> (mgr, Option.get (Kty.join_complete req ~cert), upd)
    | None -> Alcotest.fail "join"
  in
  let mgr, alice, _ = join mgr "alice" in
  let mgr, bob, _ = join mgr "bob" in
  (rng, mgr, alice, bob)

let test_kty_tracing_tokens () =
  let rng, mgr, alice, bob = kty_fixture 72 in
  let pub = Kty.public mgr in
  let tok_a = Option.get (Kty.tracing_token mgr ~uid:"alice") in
  let sa = Kty.sign ~rng alice ~msg:"1" in
  let sa2 = Kty.sign ~rng alice ~msg:"2" in
  let sb = Kty.sign ~rng bob ~msg:"3" in
  Alcotest.(check bool) "token matches alice (1)" true (Kty.matches_token pub ~token:tok_a sa);
  Alcotest.(check bool) "token matches alice (2)" true (Kty.matches_token pub ~token:tok_a sa2);
  Alcotest.(check bool) "token does not match bob" false (Kty.matches_token pub ~token:tok_a sb);
  Alcotest.(check bool) "unknown uid" true (Kty.tracing_token mgr ~uid:"zed" = None)

let test_kty_common_base () =
  let rng, mgr, alice, bob = kty_fixture 73 in
  let pub = Kty.public mgr in
  let base = Kty.base_of_bytes pub "session-transcript" in
  let sa = Kty.sign_with_base ~rng alice ~msg:"m" ~base in
  let sb = Kty.sign_with_base ~rng bob ~msg:"m" ~base in
  Alcotest.(check bool) "alice sig verifies" true (Kty.verify bob ~msg:"m" sa);
  Alcotest.(check bool) "bob sig verifies" true (Kty.verify alice ~msg:"m" sb);
  let t6a, t7a = Option.get (Kty.t6_t7 pub sa) in
  let t6b, t7b = Option.get (Kty.t6_t7 pub sb) in
  Alcotest.(check bool) "common T7" true (B.equal t7a base && B.equal t7b base);
  Alcotest.(check bool) "distinct T6" false (B.equal t6a t6b);
  (* the same member twice: T6 repeats — this is the §8.2 mechanism *)
  let sa2 = Kty.sign_with_base ~rng alice ~msg:"m2" ~base in
  let t6a2, _ = Option.get (Kty.t6_t7 pub sa2) in
  Alcotest.(check bool) "clone has equal T6" true (B.equal t6a t6a2);
  (* under a different base, the same member's T6 changes: unlinkable
     across handshakes *)
  let base2 = Kty.base_of_bytes pub "another-session" in
  let sa3 = Kty.sign_with_base ~rng alice ~msg:"m" ~base:base2 in
  let t6a3, _ = Option.get (Kty.t6_t7 pub sa3) in
  Alcotest.(check bool) "T6 differs across bases" false (B.equal t6a t6a3)

let test_kty_base_of_bytes () =
  let _rng, mgr, _, _ = kty_fixture 74 in
  let pub = Kty.public mgr in
  let b1 = Kty.base_of_bytes pub "x" in
  let b2 = Kty.base_of_bytes pub "x" in
  let b3 = Kty.base_of_bytes pub "y" in
  Alcotest.(check bool) "deterministic" true (B.equal b1 b2);
  Alcotest.(check bool) "input separates" false (B.equal b1 b3)

(* ------------------------------------------------------------------ *)
(* KTY revocation against CRLs of 1 to 12 tokens                       *)
(* ------------------------------------------------------------------ *)

(* a revoked signer first, in the middle and last of every CRL length
   from 1 to 12: [verify] rejects it wherever it sits (lists of two or
   more tokens take the one-table path, a single token its pow_mod),
   an unrevoked signer is accepted against the same list, and [open_]
   refuses the revoked one at manager CRLs of 1, 6 and 12 *)
let test_kty_crl_positions () =
  let rng = rng_of_seed 77 in
  let mgr = Kty.setup ~rng ~modulus:(Lazy.force rsa) in
  let join uid =
    let req, offer = Kty.join_begin ~rng (Kty.public mgr) in
    match Kty.join_issue ~rng mgr ~uid ~offer with
    | Some (_, cert, _) -> Option.get (Kty.join_complete req ~cert)
    | None -> Alcotest.fail "join"
  in
  let signer = join "signer" in
  let clean = join "clean" in
  let verifier = join "verifier" in
  let others = List.init 11 (fun i -> Printf.sprintf "d%d" i) in
  List.iter (fun uid -> ignore (join uid)) others;
  let revoked_sig = Kty.sign ~rng signer ~msg:"m" in
  let clean_sig = Kty.sign ~rng clean ~msg:"m" in
  let opens msg_label expected =
    Alcotest.(check (option string)) (msg_label ^ ": revoked signer") None
      (Kty.open_ mgr ~msg:"m" revoked_sig);
    Alcotest.(check (option string)) (msg_label ^ ": unrevoked signer")
      expected (Kty.open_ mgr ~msg:"m" clean_sig)
  in
  let updates = Hashtbl.create 12 in
  let revoke uid =
    match Kty.revoke ~rng mgr ~uid with
    | Some (_, upd) -> Hashtbl.replace updates uid upd
    | None -> Alcotest.fail "revoke"
  in
  revoke "signer";
  opens "manager CRL of 1" (Some "clean");
  List.iteri (fun i uid -> if i < 5 then revoke uid) others;
  opens "manager CRL of 6" (Some "clean");
  List.iteri (fun i uid -> if i >= 5 then revoke uid) others;
  opens "manager CRL of 12" (Some "clean");
  (* a verifier whose CRL lists [uids] in order: a CRL is newest first,
     so the updates go in last to first *)
  let with_crl uids =
    List.fold_left
      (fun mem uid -> Option.get (Kty.apply_update mem (Hashtbl.find updates uid)))
      verifier (List.rev uids)
  in
  for len = 1 to 12 do
    let decoys = List.filteri (fun i _ -> i < len - 1) others in
    List.iter
      (fun pos ->
        let uids =
          List.filteri (fun i _ -> i < pos) decoys
          @ ("signer" :: List.filteri (fun i _ -> i >= pos) decoys)
        in
        let v = with_crl uids in
        let label = Printf.sprintf "|CRL| = %d, revoked at %d" len pos in
        Alcotest.(check int) (label ^ ": length") len (Kty.crl_length v);
        Alcotest.(check bool) (label ^ ": revoked rejected") false
          (Kty.verify v ~msg:"m" revoked_sig);
        Alcotest.(check bool) (label ^ ": unrevoked accepted") true
          (Kty.verify v ~msg:"m" clean_sig))
      (List.sort_uniq compare [ 0; len / 2; len - 1 ])
  done

(* ------------------------------------------------------------------ *)
(* Production-size parameters: one full cycle at 1024 bits             *)
(* ------------------------------------------------------------------ *)

let test_1024_bit_cycle () =
  let rng = rng_of_seed 75 in
  let mgr = Kty.setup ~rng ~modulus:(Lazy.force Params.rsa_1024) in
  let join mgr uid =
    let req, offer = Kty.join_begin ~rng (Kty.public mgr) in
    match Kty.join_issue ~rng mgr ~uid ~offer with
    | Some (mgr, cert, _) -> (mgr, Option.get (Kty.join_complete req ~cert))
    | None -> Alcotest.fail "join"
  in
  let mgr, alice = join mgr "alice" in
  let mgr, bob = join mgr "bob" in
  let s = Kty.sign ~rng alice ~msg:"big" in
  Alcotest.(check bool) "1024-bit verify" true (Kty.verify bob ~msg:"big" s);
  Alcotest.(check (option string)) "1024-bit open" (Some "alice")
    (Kty.open_ mgr ~msg:"big" s)

let () =
  Alcotest.run "gsig"
    [ ( "accumulator",
        [ Alcotest.test_case "lifecycle" `Quick test_accumulator_lifecycle;
          Alcotest.test_case "remove restores" `Quick test_accumulator_remove_restores;
        ] );
      ("acjt-generic", Acjt_tests.suite "acjt");
      ("kty-generic", Kty_tests.suite "kty");
      ( "acjt-accumulator",
        [ Alcotest.test_case "witness tracking" `Slow test_acjt_witness_tracking;
          Alcotest.test_case "stale view" `Slow test_acjt_stale_view;
        ] );
      ( "kty-tracing",
        [ Alcotest.test_case "tracing tokens" `Slow test_kty_tracing_tokens;
          Alcotest.test_case "common base" `Slow test_kty_common_base;
          Alcotest.test_case "base_of_bytes" `Quick test_kty_base_of_bytes;
          Alcotest.test_case "revoked signer anywhere in CRLs of 1-12" `Slow
            test_kty_crl_positions;
        ] );
      ( "scaling",
        [ Alcotest.test_case "1024-bit full cycle" `Slow test_1024_bit_cycle ] );
    ]
