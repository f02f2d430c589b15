(* Format-stability ("golden") tests: deterministic values that pin down
   the wire formats and derived constants.  A failure here means a
   format-breaking change — serialized states and recorded transcripts
   from older versions would stop parsing.  Update the expectations only
   together with a deliberate format version bump. *)

let hex = Sha256.hex

let test_wire_encoding_stable () =
  Alcotest.(check string) "tagged empty" "0001740000" (hex (Wire.encode ~tag:"t" []));
  Alcotest.(check string) "exact encoding"
    "00036162630002000000017800000002797a"
    (hex (Wire.encode ~tag:"abc" [ "x"; "yz" ]))

let test_transcript_challenge_stable () =
  let t =
    Transcript.absorb
      (Transcript.absorb_num (Transcript.create ~domain:"golden") ~label:"n"
         (Bigint.of_int 123456789))
      ~label:"m" "hello"
  in
  let c = Transcript.challenge_bits t ~bits:128 in
  (* the Fiat–Shamir challenge derivation is part of the signature
     format; absorb_num and challenge_bits run through both byte
     conversions *)
  Alcotest.(check string) "challenge" "0xa374959b29a25247a0796c10e272f36c"
    (Bigint.to_hex c);
  Alcotest.(check string) "challenge bytes" "a374959b29a25247a0796c10e272f36c"
    (hex (Bigint.to_bytes_be c))

(* to_bytes_be of values at byte and limb (26-bit) boundaries, minimal
   and padded, and of_bytes_be back from both *)
let test_byte_conversions_stable () =
  let v512 =
    Bigint.of_string
      "0xfedcba9876543210f0e1d2c3b4a5968778695a4b3c2d1e0f0123456789abcdef\
       00ff00ff00ff00ff80000000000000010000000000000001deadbeefcafebabe"
  in
  List.iter
    (fun (label, v, len, minimal, padded) ->
      Alcotest.(check string) (label ^ " minimal") minimal (hex (Bigint.to_bytes_be v));
      Alcotest.(check string) (label ^ " padded") padded
        (hex (Bigint.to_bytes_be ~len v));
      Alcotest.(check string) (label ^ " of minimal") (Bigint.to_hex v)
        (Bigint.to_hex (Bigint.of_bytes_be (Bigint.to_bytes_be v)));
      Alcotest.(check string) (label ^ " of padded") (Bigint.to_hex v)
        (Bigint.to_hex (Bigint.of_bytes_be (Bigint.to_bytes_be ~len v))))
    [ ("0", Bigint.zero, 4, "", "00000000");
      ("255", Bigint.of_int 255, 4, "ff", "000000ff");
      ("256", Bigint.of_int 256, 4, "0100", "00000100");
      ("2^26-1", Bigint.of_int ((1 lsl 26) - 1), 8, "03ffffff", "0000000003ffffff");
      ("2^26", Bigint.of_int (1 lsl 26), 8, "04000000", "0000000004000000");
      ("2^52+1", Bigint.of_int ((1 lsl 52) + 1), 9, "10000000000001",
       "000010000000000001");
      ("512-bit", v512, 70,
       "fedcba9876543210f0e1d2c3b4a5968778695a4b3c2d1e0f0123456789abcdef\
        00ff00ff00ff00ff80000000000000010000000000000001deadbeefcafebabe",
       "000000000000\
        fedcba9876543210f0e1d2c3b4a5968778695a4b3c2d1e0f0123456789abcdef\
        00ff00ff00ff00ff80000000000000010000000000000001deadbeefcafebabe");
    ];
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) ("of_bytes_be " ^ hex input) expected
        (Bigint.to_hex (Bigint.of_bytes_be input)))
    [ ("", "0x0"); ("\x00", "0x0"); ("\x00\x00\xff", "0xff");
      ("\x00\x01\x00", "0x100");
      ("\x00\x00\x00\x00\x03\xff\xff\xff", "0x3ffffff");
      ("\x00\x04\x00\x00\x00", "0x4000000");
      ("\x00\x00\x10\x00\x00\x00\x00\x00\x01", "0x10000000000001") ]

let test_derived_sizes_stable () =
  (* signature sizes for the shipped 512-bit parameter set: any change
     breaks stored transcripts and the padding invariants *)
  let rng = Drbg.bytes_fn (Drbg.of_int_seed 777) in
  let amgr = Acjt.setup ~rng ~modulus:(Lazy.force Params.rsa_512) in
  let kmgr = Kty.setup ~rng ~modulus:(Lazy.force Params.rsa_512) in
  Alcotest.(check int) "acjt signature length" 1007
    (Acjt.signature_len (Acjt.public amgr));
  Alcotest.(check int) "kty signature length" 913
    (Kty.signature_len (Kty.public kmgr));
  Alcotest.(check int) "secretbox overhead" 48 Secretbox.overhead;
  Alcotest.(check int) "dhies ciphertext for a 32-byte key" 144
    (Dhies.ciphertext_len ~group:(Lazy.force Params.schnorr_512) ~plaintext_len:32)

let test_interval_constants_stable () =
  Alcotest.(check int) "challenge bits" 128 Interval.challenge_bits;
  Alcotest.(check int) "slack bits" 16 Interval.slack_bits;
  let sizes = Gsig_sizes.derive ~nbits:512 in
  Alcotest.(check int) "lambda center" 408 sizes.Gsig_sizes.lambda.Interval.center_log;
  Alcotest.(check int) "lambda width" 256 sizes.Gsig_sizes.lambda.Interval.halfwidth_log;
  Alcotest.(check int) "gamma center" 562 sizes.Gsig_sizes.gamma.Interval.center_log;
  Alcotest.(check int) "gamma width" 410 sizes.Gsig_sizes.gamma.Interval.halfwidth_log

let test_params_stable () =
  (* fingerprints of the embedded parameter sets: these are baked into
     every persisted state and every recorded transcript *)
  let fp v = hex (Sha256.digest (Bigint.to_bytes_be v)) in
  let s512 = Lazy.force Params.schnorr_512 in
  let r512 = Lazy.force Params.rsa_512 in
  Alcotest.(check string) "schnorr_512.p"
    "0e96c27bcaa28b850d9eee90e3447977c44564c114cd36f7d733cb2b0b58e305"
    (fp s512.Groupgen.p);
  Alcotest.(check string) "schnorr_512.q"
    "0e7d0a528be84c89aeacce7fcb4922d92bd602398e94a9e8b6a02a5eea049e13"
    (fp s512.Groupgen.q);
  Alcotest.(check string) "schnorr_512.g"
    "1d90b5d64838d15d4c6cefd2168bd12717ec90f6c75b5207dd81d6319acc1d02"
    (fp s512.Groupgen.g);
  Alcotest.(check string) "rsa_512.n"
    "23c0e55a214d1e3e3f5070da5246bf24a375373a63c7602feb3410d6b72300e3"
    (fp r512.Groupgen.n);
  Alcotest.(check bool) "schnorr_512 nonempty" true (Bigint.num_bits s512.Groupgen.p = 512);
  Alcotest.(check bool) "rsa_512 nonempty" true (Bigint.num_bits r512.Groupgen.n = 512);
  (* the derivation of the self-distinction base is format-bearing *)
  let rng = Drbg.bytes_fn (Drbg.of_int_seed 778) in
  let kmgr = Kty.setup ~rng ~modulus:r512 in
  let pub = Kty.public kmgr in
  let b1 = Kty.base_of_bytes pub "sid-bytes" in
  let b2 = Kty.base_of_bytes pub "sid-bytes" in
  Alcotest.(check string) "base_of_bytes deterministic" (Bigint.to_hex b1)
    (Bigint.to_hex b2)

(* Signature bytes.  The exponentiation kernels and the signer may
   evaluate a tag or a commitment in any order or grouping, but the
   group elements, and so the bytes, must not move: a seeded member's
   signature is pinned by its SHA-256.  Each member joins and signs from
   its own DRBG, so the three pins are independent. *)
let join_acjt seed =
  let rng = Drbg.bytes_fn (Drbg.of_int_seed seed) in
  let mgr = Acjt.setup ~rng ~modulus:(Lazy.force Params.rsa_512) in
  let req, offer = Acjt.join_begin ~rng (Acjt.public mgr) in
  let _, cert, _ = Option.get (Acjt.join_issue ~rng mgr ~uid:"golden" ~offer) in
  (Option.get (Acjt.join_complete req ~cert), rng)

let join_kty seed =
  let rng = Drbg.bytes_fn (Drbg.of_int_seed seed) in
  let mgr = Kty.setup ~rng ~modulus:(Lazy.force Params.rsa_512) in
  let req, offer = Kty.join_begin ~rng (Kty.public mgr) in
  let _, cert, _ = Option.get (Kty.join_issue ~rng mgr ~uid:"golden" ~offer) in
  (Option.get (Kty.join_complete req ~cert), Kty.public mgr, rng)

let test_signatures_stable () =
  let msg = "golden signature" in
  let mem, rng = join_acjt 780 in
  let sigma = Acjt.sign ~rng mem ~msg in
  Alcotest.(check bool) "acjt verifies" true (Acjt.verify mem ~msg sigma);
  Alcotest.(check string) "acjt signature"
    "47f78ebac8a10f459f0f52b9533b898544138fdcf9d18117bd3aff69eb65f122"
    (hex (Sha256.digest sigma));
  let mem, _, rng = join_kty 781 in
  let sigma = Kty.sign ~rng mem ~msg in
  Alcotest.(check bool) "kty fresh verifies" true (Kty.verify mem ~msg sigma);
  Alcotest.(check string) "kty fresh-mode signature"
    "1ea8929cbfb937383230146ca0942d710c9baa79532ab40cfe54cabb132d78e5"
    (hex (Sha256.digest sigma));
  let mem, pub, rng = join_kty 782 in
  let base = Kty.base_of_bytes pub "golden-sid" in
  let sigma = Kty.sign_with_base ~rng mem ~msg ~base in
  Alcotest.(check bool) "kty common-base verifies" true (Kty.verify mem ~msg sigma);
  Alcotest.(check string) "kty common-base signature"
    "11ea0382bc4bcb28b5e1061a2ec00c983a83fb1df42d99f107ab6e47b4569a9b"
    (hex (Sha256.digest sigma))

let () =
  Alcotest.run "golden"
    [ ( "formats",
        [ Alcotest.test_case "wire encoding" `Quick test_wire_encoding_stable;
          Alcotest.test_case "transcript challenge" `Quick test_transcript_challenge_stable;
          Alcotest.test_case "byte conversions" `Quick test_byte_conversions_stable;
          Alcotest.test_case "derived sizes" `Quick test_derived_sizes_stable;
          Alcotest.test_case "interval constants" `Quick test_interval_constants_stable;
          Alcotest.test_case "parameter fingerprints" `Quick test_params_stable;
          Alcotest.test_case "signature bytes" `Quick test_signatures_stable;
        ] );
    ]
