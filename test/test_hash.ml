(* Tests for SHA-256 / HMAC / HKDF / DRBG: official test vectors plus
   structural properties (incremental hashing, stream independence). *)

let hex = Sha256.hex

let unhex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (i * 2) 2)))

let check_hex msg expected actual = Alcotest.(check string) msg expected (hex actual)

(* FIPS 180-4 / NIST CAVP vectors *)
let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  (* Chunked updates must agree with one-shot hashing for all split points. *)
  let msg = String.init 300 (fun i -> Char.chr (i land 0xff)) in
  let expected = Sha256.digest msg in
  for cut = 0 to 299 do
    let a = String.sub msg 0 cut and b = String.sub msg cut (300 - cut) in
    let got = Sha256.finalize (Sha256.update (Sha256.update (Sha256.init ()) a) b) in
    Alcotest.(check string) (Printf.sprintf "cut %d" cut) (hex expected) (hex got)
  done

let test_sha256_boundary_lengths () =
  (* Padding corner cases: lengths around the 55/56/64-byte boundaries. *)
  List.iter
    (fun n ->
      let m = String.make n 'x' in
      let d1 = Sha256.digest m in
      let d2 =
        Sha256.finalize
          (String.fold_left (fun c ch -> Sha256.update c (String.make 1 ch)) (Sha256.init ()) m)
      in
      Alcotest.(check string) (Printf.sprintf "len %d" n) (hex d1) (hex d2))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 128; 129 ]

(* RFC 4231 *)
let test_hmac_vectors () =
  check_hex "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac ~key:"Jefe" "what do ya want for nothing?");
  check_hex "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* long key (> block size) is hashed first *)
  check_hex "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_structure () =
  let key = "k" and msg = "hello world" in
  Alcotest.(check bool) "verify ok" true
    (Hmac.verify ~key ~msg ~tag:(Hmac.mac ~key msg));
  Alcotest.(check bool) "verify bad tag" false
    (Hmac.verify ~key ~msg ~tag:(String.make 32 '\000'));
  Alcotest.(check bool) "verify bad len" false (Hmac.verify ~key ~msg ~tag:"short");
  Alcotest.(check string) "mac_list = mac of concat"
    (hex (Hmac.mac ~key "abcdef"))
    (hex (Hmac.mac_list ~key [ "ab"; "cd"; "ef" ]));
  Alcotest.(check bool) "ct equal" true (Hmac.equal_ct "abc" "abc");
  Alcotest.(check bool) "ct not equal" false (Hmac.equal_ct "abc" "abd")

(* RFC 5869 test case 1 *)
let test_hkdf_vectors () =
  let ikm = String.make 22 '\x0b' in
  let salt = unhex "000102030405060708090a0b0c" in
  let info = unhex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Hkdf.extract ~salt ~ikm () in
  check_hex "prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  check_hex "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Hkdf.expand ~prk ~info ~len:42)

let test_hkdf_properties () =
  let okm1 = Hkdf.derive ~ikm:"secret" ~info:"a" ~len:64 () in
  let okm2 = Hkdf.derive ~ikm:"secret" ~info:"b" ~len:64 () in
  Alcotest.(check bool) "info separates" true (okm1 <> okm2);
  Alcotest.(check int) "length" 64 (String.length okm1);
  (* prefix consistency: asking for fewer bytes yields a prefix *)
  let short = Hkdf.derive ~ikm:"secret" ~info:"a" ~len:16 () in
  Alcotest.(check string) "prefix" (String.sub okm1 0 16) short

let test_drbg () =
  let d1 = Drbg.create ~seed:"seed-A" () in
  let d2 = Drbg.create ~seed:"seed-A" () in
  let d3 = Drbg.create ~seed:"seed-B" () in
  let a = Drbg.generate d1 48 in
  Alcotest.(check string) "deterministic" (Sha256.hex a) (Sha256.hex (Drbg.generate d2 48));
  Alcotest.(check bool) "seed separates" true (a <> Drbg.generate d3 48);
  Alcotest.(check bool) "advances" true (Drbg.generate d1 48 <> a);
  (* generate in two calls = generate once?  No: HMAC-DRBG reseeds its state
     after each call, so we only require the stream to keep moving. *)
  let d4 = Drbg.create ~seed:"x" () in
  let xs = List.init 20 (fun _ -> Drbg.generate d4 16) in
  let distinct = List.sort_uniq compare xs in
  Alcotest.(check int) "no repeats" 20 (List.length distinct)

let test_drbg_split () =
  let parent = Drbg.create ~seed:"parent" () in
  let c1 = Drbg.split parent "child-1" in
  let c2 = Drbg.split parent "child-2" in
  let p1 = Drbg.create ~seed:"parent" () in
  let c1' = Drbg.split p1 "child-1" in
  Alcotest.(check bool) "children differ" true
    (Drbg.generate c1 32 <> Drbg.generate c2 32);
  Alcotest.(check string) "split deterministic"
    (hex (Drbg.generate (Drbg.split (Drbg.create ~seed:"parent" ()) "child-1") 32))
    (hex (Drbg.generate c1' 32))

let test_drbg_uniformity () =
  (* Crude sanity: byte histogram of 64 KiB should not be wildly skewed. *)
  let d = Drbg.of_int_seed 7 in
  let counts = Array.make 256 0 in
  let s = Drbg.generate d 65536 in
  String.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) s;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "byte %d in range" i) true (c > 120 && c < 400))
    counts

(* ------------------------------------------------------------------ *)
(* Byte identity of the fast paths                                     *)
(* ------------------------------------------------------------------ *)

(* The straightforward FIPS 180-4 compression (a fresh schedule and a
   fresh state per block, rotations on 32-bit words) over the padded
   message, kept here as the slow reference for [Sha256]. *)
let sha256_reference msg =
  let m32 = 0xffffffff in
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land m32 in
  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]
  in
  let len = String.length msg in
  let padded =
    let zeros = (64 - ((len + 9) mod 64)) mod 64 in
    let b = Bytes.make (len + 9 + zeros) '\000' in
    Bytes.blit_string msg 0 b 0 len;
    Bytes.set b len '\x80';
    for i = 0 to 7 do
      Bytes.set b (Bytes.length b - 1 - i) (Char.chr (((len * 8) lsr (8 * i)) land 0xff))
    done;
    Bytes.to_string b
  in
  let h =
    ref [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
           0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
  in
  for blk = 0 to (String.length padded / 64) - 1 do
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      let j = (blk * 64) + (i * 4) in
      w.(i) <-
        (Char.code padded.[j] lsl 24) lor (Char.code padded.[j + 1] lsl 16)
        lor (Char.code padded.[j + 2] lsl 8) lor Char.code padded.[j + 3]
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
      let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land m32
    done;
    let v = Array.copy !h in
    for i = 0 to 63 do
      let e = v.(4) and a = v.(0) in
      let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
      let ch = (e land v.(5)) lxor (lnot e land v.(6)) in
      let t1 = (v.(7) + s1 + ch + k.(i) + w.(i)) land m32 in
      let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
      let maj = (a land v.(1)) lxor (a land v.(2)) lxor (v.(1) land v.(2)) in
      let t2 = (s0 + maj) land m32 in
      Array.blit v 0 v 1 7;
      v.(4) <- (v.(4) + t1) land m32;
      v.(0) <- (t1 + t2) land m32
    done;
    h := Array.mapi (fun i x -> (x + v.(i)) land m32) !h
  done;
  String.concat ""
    (Array.to_list
       (Array.map
          (fun x -> String.init 4 (fun i -> Char.chr ((x lsr (24 - (8 * i))) land 0xff)))
          !h))

(* RFC 2104 over the one-shot digest: the key normalized and padded, the
   pads concatenated with the message — no cached state anywhere. *)
let hmac_reference key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let key = key ^ String.make (64 - String.length key) '\000' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key in
  Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

(* [long_factor] multiplies [count] under QCHECK_LONG=1 *)
let qtest name ?(count = 200) ?long_factor ~print gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ?long_factor ~print gen prop)

let gen_bytes max = QCheck2.Gen.(string_size ~gen:char (int_range 0 max))

(* A message cut at two points, so the three updates cover a partial
   first block stitched to [pending], runs of whole blocks, and a tail. *)
let gen_split3 =
  QCheck2.Gen.(
    gen_bytes 400 >>= fun msg ->
    let n = String.length msg in
    int_range 0 n >>= fun i ->
    int_range i n >|= fun j ->
    (msg, [ String.sub msg 0 i; String.sub msg i (j - i); String.sub msg j (n - j) ]))

let print_split3 (msg, _) = Printf.sprintf "%d-byte message" (String.length msg)

let byte_identity_props =
  [ qtest "digest agrees with the per-block reference" ~count:200 ~long_factor:20
      ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s)) (gen_bytes 300)
      (fun msg -> String.equal (Sha256.digest msg) (sha256_reference msg));
    qtest "three-way split agrees with one-shot" ~count:200 ~long_factor:20
      ~print:print_split3 gen_split3 (fun (msg, parts) ->
        String.equal
          (Sha256.finalize (List.fold_left Sha256.update (Sha256.init ()) parts))
          (Sha256.digest msg));
    qtest "prepared-key MAC agrees with the reference" ~count:200 ~long_factor:20
      ~print:(fun (key, split) ->
        Printf.sprintf "%d-byte key, %s" (String.length key) (print_split3 split))
      QCheck2.Gen.(pair (gen_bytes 130) gen_split3)
      (fun (key, (msg, parts)) ->
        let expected = hmac_reference key msg in
        String.equal (Hmac.mac_prepared (Hmac.prepare key) parts) expected
        && String.equal (Hmac.mac_list ~key parts) expected);
  ]

let test_prepared_key_reuse () =
  (* the pad states are shared by every tag under the key: MACing a
     second message must not disturb them *)
  let key = Hmac.prepare "reused key" in
  let t1 = Hmac.mac_prepared key [ "first message" ] in
  let t2 = Hmac.mac_prepared key [ String.make 150 'z' ] in
  let t3 = Hmac.mac_prepared key [ "first"; " message" ] in
  Alcotest.(check string) "first and third agree" (hex t1) (hex t3);
  Alcotest.(check bool) "second differs" true (not (String.equal t1 t2));
  Alcotest.(check string) "matches one-shot"
    (hex (Hmac.mac ~key:"reused key" "first message"))
    (hex t1)

let test_update_keeps_argument () =
  (* contexts are values: a context hashed onward stays usable *)
  let long = String.init 200 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let c0 = Sha256.init () in
  let d1 = Sha256.finalize (Sha256.update c0 long) in
  let d2 = Sha256.finalize (Sha256.update c0 long) in
  Alcotest.(check string) "init reused" (hex d1) (hex d2);
  Alcotest.(check string) "init reused = digest" (hex (Sha256.digest long)) (hex d1);
  let mid = Sha256.update c0 (String.sub long 0 100) in
  let a = Sha256.finalize (Sha256.update mid "a") in
  let b = Sha256.finalize (Sha256.update mid (String.sub long 100 100)) in
  let a' = Sha256.finalize (Sha256.update mid "a") in
  Alcotest.(check string) "shared mid, branch a"
    (hex (Sha256.digest (String.sub long 0 100 ^ "a")))
    (hex a);
  Alcotest.(check string) "shared mid, branch b" (hex (Sha256.digest long)) (hex b);
  Alcotest.(check string) "shared mid, branch a again" (hex a) (hex a');
  Alcotest.(check string) "finalize twice" (hex (Sha256.finalize mid))
    (hex (Sha256.finalize mid))

(* Recorded before the hash layer was rewritten for speed: every party
   secret, prime search and fault plan reads this stream, so a change
   here would move every key, transcript and loss pattern. *)
let test_drbg_pinned () =
  let t = Drbg.create ~seed:"pinned-stream" () in
  List.iter
    (fun (n, expected) ->
      check_hex (Printf.sprintf "generate %d" n) expected (Drbg.generate t n))
    [ (0, "");
      (7, "041cddee1154fe");
      (32, "bb2b71f45f67b0af07d392379b8bcee95a75cac0d5055359813c550b9ad12ac1");
      (33, "1f3b12e4d9487436e02a32eaf4f4593f745dceb8ce72fd4e5a0dd4113c9fd6a173");
      ( 64,
        "198e211627f098cd75baa008116c246037ead9e94b5113730308c56caef2290e\
         f10f1c85756624e8d64110d766d99cefc76a0584efe38a7c24ecf101843cc75b" );
      ( 65,
        "505cb5a6344afb3d3dd08e37ff09365d0bab35fecfcb5eab825b63ded81b0a92\
         2dc681fd88d6eb91865cb7e7b3643ae1a2cdf32cd5774a7ceffd53ec98c825ea27" );
    ];
  Drbg.reseed t "fresh entropy";
  check_hex "after reseed"
    "307809afc80710a4d4b643ac71d21053ce52a28ca19b0f0fba22965c19e6f0de"
    (Drbg.generate t 32);
  let child = Drbg.split t "child" in
  check_hex "split child"
    "0459b46fd41032f19a84829076e13ccd8663d9872315c1926f1e1f739e37e244"
    (Drbg.generate child 32);
  check_hex "split parent"
    "c28d4067938e41bf15ecaf76847ffc7a5637446b4e5414c9c66d5ab75870006d"
    (Drbg.generate t 32)

(* Re-recorded when the plan began to read its DRBG in 448-byte pools
   of 64 uniforms instead of one 7-byte request per uniform: the DRBG
   stream (pinned above) is unchanged, only how the plan slices it. *)
let test_fault_stream_pinned () =
  (* the first 1 000 uniforms of one fault plan, as exact hex floats *)
  let f = Faults.create ~drop:0.02 ~seed:1 () in
  let b = Buffer.create 24_000 in
  for _ = 1 to 1000 do
    Buffer.add_string b (Printf.sprintf "%h\n" (Faults.uniform f))
  done;
  check_hex "fault-plan stream"
    "50fe58487d447a5e0180a8300de47a974e0f87fb376871b95f3a140949c76109"
    (Sha256.digest (Buffer.contents b))

(* The fault plan's stream by its definition: successive 448-byte
   requests on the plan's DRBG, each cut into 64 seven-byte big-endian
   words whose top 53 bits make one uniform. *)
let reference_uniforms ~seed n =
  let d =
    Drbg.create ~personalization:"shs-fault-plan" ~seed:(string_of_int seed) ()
  in
  let pool = ref "" in
  List.init n (fun k ->
      if k mod 64 = 0 then pool := Drbg.generate d 448;
      let word = ref 0 in
      String.iter
        (fun c -> word := (!word lsl 8) lor Char.code c)
        (String.sub !pool (7 * (k mod 64)) 7);
      float_of_int (!word lsr 3) /. (2.0 ** 53.0))

let test_fault_stream_reference () =
  List.iter
    (fun seed ->
      let f = Faults.create ~seed () in
      List.iteri
        (fun k expected ->
          let got = Faults.uniform f in
          if not (Float.equal got expected) then
            Alcotest.failf "seed %d, uniform %d: %h, reference %h" seed k got
              expected)
        (reference_uniforms ~seed 1000))
    [ 1; 7; 82 ]

(* A draw of a class the plan has (nonzero probability or jitter) takes
   exactly the next uniform, a draw of any other class takes none: a
   second plan on the same seed, read with [uniform] only where a draw
   should consume, predicts every result and ends at the same place. *)
type draw = Drop | Duplicate | Jitter

let gen_rate = QCheck2.Gen.(oneof [ pure 0.0; float_range 0.0 1.0 ])

let gen_draws =
  QCheck2.Gen.(
    tup5 nat gen_rate gen_rate gen_rate
      (list_size (int_range 0 300) (oneofl [ Drop; Duplicate; Jitter ])))

let print_draws (seed, drop, duplicate, jitter, draws) =
  Printf.sprintf "seed %d, drop %h, duplicate %h, jitter %h, %d draws" seed
    drop duplicate jitter (List.length draws)

let fault_draw_props =
  [ qtest "one uniform per draw of a present class" ~count:200 ~long_factor:20
      ~print:print_draws gen_draws (fun (seed, drop, duplicate, jitter, draws) ->
        let plan = Faults.create ~drop ~duplicate ~jitter ~seed () in
        let shadow = Faults.create ~seed () in
        let next_if rate = if rate > 0.0 then Faults.uniform shadow else nan in
        List.for_all
          (function
            | Drop ->
              let u = next_if drop in
              Bool.equal (Faults.draw_drop plan) (drop > 0.0 && u < drop)
            | Duplicate ->
              let u = next_if duplicate in
              Bool.equal (Faults.draw_duplicate plan)
                (duplicate > 0.0 && u < duplicate)
            | Jitter ->
              let u = next_if jitter in
              Float.equal (Faults.draw_jitter plan)
                (if jitter > 0.0 then jitter *. u else 0.0))
          draws
        && Float.equal (Faults.uniform plan) (Faults.uniform shadow));
  ]

let test_negative_lengths () =
  let a = Drbg.create ~seed:"neg" () and b = Drbg.create ~seed:"neg" () in
  Alcotest.check_raises "generate -1"
    (Invalid_argument "Drbg.generate: negative length")
    (fun () -> ignore (Drbg.generate a (-1)));
  Alcotest.(check string) "rejected call left the stream in place"
    (hex (Drbg.generate b 16)) (hex (Drbg.generate a 16));
  Alcotest.check_raises "expand -1"
    (Invalid_argument "Hkdf.expand: negative length")
    (fun () -> ignore (Hkdf.expand ~prk:(String.make 32 'k') ~info:"" ~len:(-1)))

let () =
  Alcotest.run "hash"
    [ ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_boundary_lengths;
        ] );
      ( "hmac",
        [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_vectors;
          Alcotest.test_case "structure" `Quick test_hmac_structure;
        ] );
      ( "hkdf",
        [ Alcotest.test_case "RFC 5869 vectors" `Quick test_hkdf_vectors;
          Alcotest.test_case "properties" `Quick test_hkdf_properties;
        ] );
      ( "drbg",
        [ Alcotest.test_case "determinism" `Quick test_drbg;
          Alcotest.test_case "split" `Quick test_drbg_split;
          Alcotest.test_case "uniformity" `Quick test_drbg_uniformity;
          Alcotest.test_case "pinned stream" `Quick test_drbg_pinned;
          Alcotest.test_case "negative lengths" `Quick test_negative_lengths;
        ] );
      ( "byte identity",
        byte_identity_props
        @ [ Alcotest.test_case "prepared key reuse" `Quick test_prepared_key_reuse;
            Alcotest.test_case "update keeps its argument" `Quick
              test_update_keeps_argument;
            Alcotest.test_case "fault-plan stream" `Quick test_fault_stream_pinned;
            Alcotest.test_case "fault-plan stream by definition" `Quick
              test_fault_stream_reference;
          ]
        @ fault_draw_props );
    ]
