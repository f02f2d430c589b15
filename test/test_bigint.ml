(* Tests for the arbitrary-precision integer substrate.

   Strategy: exact unit tests on known values, cross-checks against native
   int arithmetic on small operands, and algebraic property tests (qcheck)
   on large random operands. *)

module B = Bigint

let b = B.of_string

let check_b msg expected actual =
  Alcotest.(check string) msg expected (B.to_string actual)

(* A qcheck generator for big integers of up to [bits] bits, signed. *)
let arb_big ?(bits = 512) () =
  let gen st =
    let nbits = 1 + QCheck2.Gen.generate1 ~rand:st (QCheck2.Gen.int_bound (bits - 1)) in
    let rng = Test_rng.make (QCheck2.Gen.generate1 ~rand:st (QCheck2.Gen.int_bound max_int)) in
    let v = B.random_bits rng nbits in
    if QCheck2.Gen.generate1 ~rand:st QCheck2.Gen.bool then B.neg v else v
  in
  QCheck2.Gen.make_primitive ~gen ~shrink:(fun _ -> Seq.empty)

let arb_nat ?(bits = 512) () = QCheck2.Gen.map B.abs (arb_big ~bits ())

(* [long_factor] multiplies [count] under QCHECK_LONG=1, the CI sweep *)
let qtest name ?(count = 200) ?long_factor gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ?long_factor gen prop)

(* ------------------------------------------------------------------ *)

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check int) (string_of_int n) n (B.to_int (B.of_int n)))
    [ 0; 1; -1; 42; -42; 12345678; max_int; min_int + 1; 1 lsl 40; -(1 lsl 50) ]

let test_string_known () =
  check_b "zero" "0" B.zero;
  check_b "one" "1" B.one;
  check_b "big dec"
    "123456789012345678901234567890"
    (b "123456789012345678901234567890");
  check_b "neg" "-987654321987654321" (b "-987654321987654321");
  check_b "hex" "255" (b "0xff");
  check_b "hex big" "18446744073709551616" (b "0x10000000000000000");
  check_b "neg hex" "-4096" (b "-0x1000");
  Alcotest.(check string) "to_hex" "0xff" (B.to_hex (B.of_int 255));
  Alcotest.(check string) "to_hex 0" "0x0" (B.to_hex B.zero);
  Alcotest.(check string) "to_hex neg" "-0x1000" (B.to_hex (B.of_int (-4096)))

let test_add_sub_known () =
  check_b "carry chain"
    "100000000000000000000"
    (B.add (b "99999999999999999999") B.one);
  check_b "borrow chain"
    "99999999999999999999"
    (B.sub (b "100000000000000000000") B.one);
  check_b "mixed signs" "-1" (B.add (b "41") (b "-42"));
  check_b "sub to zero" "0" (B.sub (b "12345") (b "12345"))

let test_mul_known () =
  check_b "square"
    "15241578753238836750495351562536198787501905199875019052100"
    (B.mul (b "123456789012345678901234567890") (b "123456789012345678901234567890"));
  check_b "times zero" "0" (B.mul (b "9999999") B.zero);
  check_b "sign" "-6" (B.mul (B.of_int 2) (B.of_int (-3)))

let test_div_known () =
  let q, r = B.div_rem (b "10000000000000000000000000000") (b "7777777777") in
  check_b "q" "1285714285842857142" q;
  check_b "r" "6766666666" r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.div_rem B.one B.zero));
  (* C-style truncation towards zero *)
  Alcotest.(check int) "trunc q" (-2) (B.to_int (B.div (B.of_int (-7)) (B.of_int 3)));
  Alcotest.(check int) "trunc r" (-1) (B.to_int (B.rem (B.of_int (-7)) (B.of_int 3)));
  Alcotest.(check int) "erem" 2 (B.to_int (B.erem (B.of_int (-7)) (B.of_int 3)))

let test_pow () =
  check_b "2^100" "1267650600228229401496703205376" (B.pow B.two 100);
  check_b "x^0" "1" (B.pow (b "123456789") 0);
  check_b "(-2)^3" "-8" (B.pow (B.of_int (-2)) 3)

let test_shift () =
  check_b "shl" "1267650600228229401496703205376" (B.shift_left B.one 100);
  check_b "shr" "1" (B.shift_right (B.shift_left B.one 100) 100);
  check_b "shr to zero" "0" (B.shift_right (B.of_int 5) 3);
  Alcotest.(check int) "num_bits 0" 0 (B.num_bits B.zero);
  Alcotest.(check int) "num_bits 255" 8 (B.num_bits (B.of_int 255));
  Alcotest.(check int) "num_bits 256" 9 (B.num_bits (B.of_int 256))

let test_bytes () =
  Alcotest.(check string) "to_bytes" "\x01\x00" (B.to_bytes_be (B.of_int 256));
  Alcotest.(check string) "padded" "\x00\x00\x01\x00"
    (B.to_bytes_be ~len:4 (B.of_int 256));
  Alcotest.(check int) "of_bytes" 256 (B.to_int (B.of_bytes_be "\x01\x00"));
  Alcotest.(check int) "of empty" 0 (B.to_int (B.of_bytes_be ""))

let test_modular_known () =
  let m = b "1000000007" in
  Alcotest.(check string) "pow_mod"
    (B.to_string (B.of_int 16))
    (B.to_string (B.pow_mod B.two (B.of_int 4) m));
  (* Fermat: 2^(p-1) = 1 mod p for prime p *)
  check_b "fermat" "1" (B.pow_mod B.two (B.sub m B.one) m);
  check_b "pow_mod zero exp" "1" (B.pow_mod (b "123") B.zero m);
  (* negative exponent = inverse *)
  let inv2 = B.pow_mod B.two (B.neg B.one) m in
  check_b "neg exp" "1" (B.mul_mod inv2 B.two m);
  let i = B.invert (B.of_int 3) (B.of_int 10) in
  Alcotest.(check int) "invert" 7 (B.to_int i);
  Alcotest.check_raises "non-invertible" Not_found (fun () ->
      ignore (B.invert (B.of_int 4) (B.of_int 10)))

let test_division_stress () =
  (* Patterns engineered at limb boundaries: dividends of the form
     2^a - small and divisors 2^b - small maximize quotient-digit
     overestimation in Knuth's algorithm D (the D6 "add back" path fires
     with probability ~2/base on random input, so random testing alone
     leaves it cold). *)
  List.iter
    (fun (abits, bbits, da, db) ->
      let x = B.sub (B.shift_left B.one abits) (B.of_int da) in
      let y = B.sub (B.shift_left B.one bbits) (B.of_int db) in
      let q, r = B.div_rem x y in
      let back = B.add (B.mul q y) r in
      Alcotest.(check bool)
        (Printf.sprintf "2^%d-%d / 2^%d-%d identity" abits da bbits db)
        true
        (B.equal back x && B.compare (B.abs r) y < 0 && B.sign r >= 0))
    [ (520, 260, 1, 1); (520, 260, 1, 2); (1040, 520, 3, 1); (312, 52, 1, 1);
      (312, 52, 5, 3); (78, 52, 1, 1); (104, 52, 1, 1); (1024, 26, 1, 1);
      (530, 265, 7, 9); (2080, 1040, 1, 1) ];
  (* exhaustive small-world cross-check around limb boundaries *)
  let base = B.shift_left B.one 26 in
  for i = -2 to 2 do
    for j = -2 to 2 do
      let x = B.add (B.mul base base) (B.of_int i) in
      let y = B.add base (B.of_int j) in
      let q, r = B.div_rem x y in
      Alcotest.(check bool)
        (Printf.sprintf "base^2%+d / base%+d" i j)
        true
        (B.equal x (B.add (B.mul q y) r) && B.compare (B.abs r) (B.abs y) < 0)
    done
  done

let test_gcd () =
  Alcotest.(check int) "gcd" 6 (B.to_int (B.gcd (B.of_int 48) (B.of_int 18)));
  Alcotest.(check int) "gcd neg" 6 (B.to_int (B.gcd (B.of_int (-48)) (B.of_int 18)));
  Alcotest.(check int) "gcd zero" 5 (B.to_int (B.gcd B.zero (B.of_int 5)))

(* ------------------------------------------------------------------ *)
(* Cross-check against native ints on small operands                   *)
(* ------------------------------------------------------------------ *)

let small_pair = QCheck2.Gen.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))

let native_props =
  [ qtest "add matches native" small_pair (fun (x, y) ->
        B.to_int (B.add (B.of_int x) (B.of_int y)) = x + y);
    qtest "sub matches native" small_pair (fun (x, y) ->
        B.to_int (B.sub (B.of_int x) (B.of_int y)) = x - y);
    qtest "mul matches native" small_pair (fun (x, y) ->
        B.to_int (B.mul (B.of_int x) (B.of_int y)) = x * y);
    qtest "div matches native" small_pair (fun (x, y) ->
        y = 0 || B.to_int (B.div (B.of_int x) (B.of_int y)) = x / y);
    qtest "rem matches native" small_pair (fun (x, y) ->
        y = 0 || B.to_int (B.rem (B.of_int x) (B.of_int y)) = x mod y);
    qtest "compare matches native" small_pair (fun (x, y) ->
        B.compare (B.of_int x) (B.of_int y) = Stdlib.compare x y);
  ]

(* ------------------------------------------------------------------ *)
(* Constant-time comparisons against their early-exit counterparts     *)
(* ------------------------------------------------------------------ *)

(* pairs biased towards the shapes the limb scans must get right: zero,
   equal values, equal magnitudes with opposite signs, and operands of
   different limb counts — including a longer one whose low limbs equal
   the shorter operand *)
let gen_ct_pair =
  let open QCheck2.Gen in
  let x = arb_big ~bits:200 () in
  let widen v j =
    let p = B.shift_left B.one (26 * ((B.num_bits v / 26) + j)) in
    if B.sign v < 0 then B.sub v p else B.add v p
  in
  oneof
    [ pair x x;
      map (fun v -> (v, v)) x;
      map (fun v -> (v, B.neg v)) x;
      map (fun v -> (B.zero, v)) x;
      pure (B.zero, B.zero);
      map (fun (v, j) -> (v, B.shift_left v (26 * j))) (pair x (int_range 1 3));
      map (fun (v, j) -> (v, widen v j)) (pair x (int_range 1 3));
      map (fun (v, j) -> (B.neg (widen v j), v)) (pair x (int_range 1 3));
    ]

let sign_of c = Int.compare c 0

let ct_props =
  [ qtest "equal_ct agrees with equal" gen_ct_pair (fun (x, y) ->
        B.equal_ct x y = B.equal x y && B.equal_ct y x = B.equal y x);
    qtest "compare_ct agrees with sign of compare" gen_ct_pair (fun (x, y) ->
        sign_of (B.compare_ct x y) = sign_of (B.compare x y)
        && sign_of (B.compare_ct y x) = sign_of (B.compare y x));
  ]

(* ------------------------------------------------------------------ *)
(* Algebraic properties on big operands                                 *)
(* ------------------------------------------------------------------ *)

let big_pair = QCheck2.Gen.pair (arb_big ()) (arb_big ())
let big_triple = QCheck2.Gen.triple (arb_big ()) (arb_big ()) (arb_big ())

let algebra_props =
  [ qtest "add comm" big_pair (fun (x, y) -> B.equal (B.add x y) (B.add y x));
    qtest "add assoc" big_triple (fun (x, y, z) ->
        B.equal (B.add (B.add x y) z) (B.add x (B.add y z)));
    qtest "sub inverse" big_pair (fun (x, y) -> B.equal (B.sub (B.add x y) y) x);
    qtest "mul comm" big_pair (fun (x, y) -> B.equal (B.mul x y) (B.mul y x));
    qtest "mul distributes" big_triple (fun (x, y, z) ->
        B.equal (B.mul x (B.add y z)) (B.add (B.mul x y) (B.mul x z)));
    qtest "div_rem identity" big_pair (fun (x, y) ->
        B.is_zero y
        || begin
          let q, r = B.div_rem x y in
          B.equal x (B.add (B.mul q y) r)
          && B.compare (B.abs r) (B.abs y) < 0
          && (B.is_zero r || B.sign r = B.sign x)
        end);
    qtest "erem range" big_pair (fun (x, y) ->
        B.is_zero y
        || begin
          let r = B.erem x y in
          B.sign r >= 0 && B.compare r (B.abs y) < 0
        end);
    qtest "mul then div exact" big_pair (fun (x, y) ->
        B.is_zero y || B.equal (B.div (B.mul x y) y) x);
    qtest "string roundtrip" (arb_big ()) (fun x ->
        B.equal x (B.of_string (B.to_string x)));
    qtest "hex roundtrip" (arb_big ()) (fun x ->
        B.equal x (B.of_string (B.to_hex x)));
    qtest "bytes roundtrip" (arb_nat ()) (fun x ->
        B.equal x (B.of_bytes_be (B.to_bytes_be x)));
    qtest "shift roundtrip"
      QCheck2.Gen.(pair (arb_nat ()) (int_bound 200))
      (fun (x, k) -> B.equal x (B.shift_right (B.shift_left x k) k));
    qtest "shift_left is mul by 2^k"
      QCheck2.Gen.(pair (arb_nat ()) (int_bound 200))
      (fun (x, k) -> B.equal (B.shift_left x k) (B.mul x (B.pow B.two k)));
    qtest "num_bits bound" (arb_nat ()) (fun x ->
        B.is_zero x
        || begin
          let n = B.num_bits x in
          B.compare x (B.pow B.two n) < 0 && B.compare x (B.pow B.two (n - 1)) >= 0
        end);
  ]

let modular_props =
  let gen_mod =
    QCheck2.Gen.map
      (fun (x, m) -> (x, B.add (B.abs m) B.two))
      QCheck2.Gen.(pair (arb_big ()) (arb_big ~bits:256 ()))
  in
  let gen_pow =
    QCheck2.Gen.map
      (fun ((b_, e), m) -> (b_, B.abs e, B.add (B.abs m) B.two))
      QCheck2.Gen.(pair (pair (arb_big ~bits:256 ()) (arb_big ~bits:64 ()))
                     (arb_big ~bits:128 ()))
  in
  [ qtest "pow_mod agrees with naive" ~count:60 gen_pow (fun (b_, e, m) ->
        B.equal (B.pow_mod b_ e m) (B.pow_mod_naive b_ e m));
    qtest "montgomery agrees with division ladder" ~count:60 gen_pow
      (fun (b_, e, m) ->
        (* force an odd modulus so pow_mod takes the Montgomery path *)
        let m = if B.is_even m then B.succ m else m in
        B.equal (B.pow_mod b_ e m) (B.pow_mod_div b_ e m));
    qtest "pow_mod multiplicative" ~count:60 gen_pow (fun (b_, e, m) ->
        let lhs = B.pow_mod b_ (B.add e e) m in
        let rhs = B.mul_mod (B.pow_mod b_ e m) (B.pow_mod b_ e m) m in
        B.equal lhs rhs);
    qtest "invert correct" ~count:100 gen_mod (fun (x, m) ->
        match B.invert x m with
        | inv -> B.equal (B.mul_mod inv (B.erem x m) m) (B.erem B.one m)
        | exception Not_found -> not (B.equal (B.gcd x m) B.one));
    qtest "ext_gcd identity" big_pair (fun (x, y) ->
        let g, u, v = B.ext_gcd x y in
        B.equal g (B.add (B.mul u x) (B.mul v y)) && B.sign g >= 0);
    qtest "gcd divides" big_pair (fun (x, y) ->
        let g = B.gcd x y in
        B.is_zero g || (B.is_zero (B.rem x g) && B.is_zero (B.rem y g)));
  ]

(* ------------------------------------------------------------------ *)
(* The Euclid kernel and the byte conversions against the slow paths   *)
(* they replaced, which live on here as references only                *)
(* ------------------------------------------------------------------ *)

(* binary Jacobi symbol, one shift per stripped factor of two *)
let ref_jacobi a n =
  let rec go a n acc =
    let a = B.erem a n in
    if B.is_zero a then if B.equal n B.one then acc else 0
    else begin
      let rec strip a acc =
        if B.is_even a then begin
          let n_mod8 = B.to_int (B.logand n (B.of_int 7)) in
          let acc = if n_mod8 = 3 || n_mod8 = 5 then -acc else acc in
          strip (B.shift_right a 1) acc
        end
        else (a, acc)
      in
      let a, acc = strip a acc in
      if B.equal a B.one then acc
      else begin
        let flip =
          B.to_int (B.logand a (B.of_int 3)) = 3
          && B.to_int (B.logand n (B.of_int 3)) = 3
        in
        go n a (if flip then -acc else acc)
      end
    end
  in
  go a n 1

(* the inverse from extended Euclid's Bezout pair *)
let ref_invert a m =
  let g, u, _ = B.ext_gcd (B.erem a m) m in
  if not (B.equal g B.one) then raise Not_found;
  B.erem u m

let ref_gcd a b =
  let rec go a b = if B.is_zero b then a else go b (B.erem a b) in
  go (B.abs a) (B.abs b)

(* one bignum multiplication per byte in, one division per byte out *)
let ref_of_bytes s =
  let acc = ref B.zero and byte = B.of_int 256 in
  String.iter
    (fun c -> acc := B.add (B.mul !acc byte) (B.of_int (Char.code c)))
    s;
  !acc

let ref_to_bytes ?len t =
  let nbytes = (B.num_bits t + 7) / 8 in
  let total = Option.value len ~default:nbytes in
  let out = Bytes.make total '\000' in
  let v = ref t and byte = B.of_int 256 in
  for i = total - 1 downto total - nbytes do
    let q, r = B.div_rem !v byte in
    Bytes.set out i (Char.chr (B.to_int r));
    v := q
  done;
  Bytes.to_string out

let invert_result a m = try Some (B.invert a m) with Not_found -> None
let ref_invert_result a m = try Some (ref_invert a m) with Not_found -> None

let fib =
  lazy
    (let f = Array.make 2960 B.zero in
     f.(1) <- B.one;
     for i = 2 to Array.length f - 1 do f.(i) <- B.add f.(i - 1) f.(i - 2) done;
     f)

(* (F_k, F_{k+1}), or the next pair when [odd] needs an odd second term:
   every quotient of their remainder sequence is 1, the longest Lehmer
   batches there are *)
let fib_pair ~odd k =
  let f = Lazy.force fib in
  if odd && B.is_even f.(k + 1) then (f.(k + 1), f.(k + 2)) else (f.(k), f.(k + 1))

(* (a, n) with n > 0 of 1 to 2048 bits, and odd when [odd]: uniform
   pairs, consecutive Fibonacci numbers, n = 1, a ≡ 0, negative a, a > n,
   moduli 2^(26k) ± 1 (and 2^(26k) when even moduli are allowed), and a
   tiny a or n - a against a wide n, whose huge quotient forces the
   division fallback *)
let gen_euclid ~odd =
  let open QCheck2.Gen in
  let nat bits = map B.abs (arb_big ~bits ()) in
  let fix n =
    let n = if B.is_zero n then B.one else n in
    if odd && B.is_even n then B.succ n else n
  in
  let limb_power =
    let* k = int_range 1 78 in
    let p = B.shift_left B.one (26 * k) in
    oneofl
      ((if odd then [] else [ p ]) @ [ B.succ p; B.pred p ])
  in
  frequency
    [ (4, map (fun (a, n) -> (a, fix n)) (pair (arb_big ~bits:2050 ()) (nat 2048)));
      (2, map (fib_pair ~odd) (int_range 2 2950));
      (1, map (fun a -> (a, B.one)) (arb_big ~bits:600 ()));
      ( 1,
        map
          (fun (k, n) -> let n = fix n in (B.mul k n, n))
          (pair (arb_big ~bits:200 ()) (nat 2048)) );
      ( 1,
        map
          (fun (a, n) -> let n = fix n in (B.neg (B.abs a), n))
          (pair (arb_big ~bits:2048 ()) (nat 2048)) );
      ( 1,
        map
          (fun (a, n) -> let n = fix n in (B.add (B.abs a) n, n))
          (pair (arb_big ~bits:2048 ()) (nat 2048)) );
      (2, pair (arb_big ~bits:2048 ()) limb_power);
      ( 2,
        map
          (fun ((a, n), flip) ->
            let n = fix (B.add n (B.shift_left B.one 1500)) in
            ((if flip then B.sub n a else a), n))
          (pair (pair (arb_big ~bits:30 ()) (nat 2048)) bool) );
    ]

(* a and n share a factor f > 1 (odd when n must be) *)
let gen_shared ~odd =
  let open QCheck2.Gen in
  map
    (fun ((x, y), f) ->
      let oddify v = if odd && B.is_even v then B.succ v else v in
      let f = oddify (B.add (B.abs f) B.two) and y = oddify (B.succ (B.abs y)) in
      (B.mul x f, B.mul y f))
    (pair (pair (arb_big ~bits:1000 ()) (arb_big ~bits:1000 ())) (arb_big ~bits:1000 ()))

(* big-endian strings of 0 to 256 bytes, some with leading zero bytes *)
let gen_bytes =
  let open QCheck2.Gen in
  map
    (fun ((zeros, n), seed) -> String.make zeros '\000' ^ Test_rng.make seed n)
    (pair (pair (int_bound 4) (int_bound 252)) (int_bound max_int))

let euclid_props =
  [ qtest "jacobi agrees with the per-bit reference" ~count:150 ~long_factor:20
      (gen_euclid ~odd:true)
      (fun (a, n) -> B.jacobi a n = ref_jacobi a n);
    qtest "invert agrees with the ext_gcd reference" ~count:150 ~long_factor:20
      (gen_euclid ~odd:false)
      (fun (a, m) -> invert_result a m = ref_invert_result a m);
    qtest "gcd agrees with the remainder-loop reference" ~count:150 ~long_factor:20
      (gen_euclid ~odd:false)
      (fun (a, m) -> B.equal (B.gcd a m) (ref_gcd a m) && B.equal (B.gcd m a) (ref_gcd a m));
    qtest "shared factor: jacobi is 0, invert raises" ~count:60 ~long_factor:20
      QCheck2.Gen.(pair (gen_shared ~odd:true) (gen_shared ~odd:false))
      (fun ((a, n), (b_, m)) ->
        B.jacobi a n = 0 && ref_jacobi a n = 0
        && invert_result b_ m = None && ref_invert_result b_ m = None);
    qtest "to_bytes_be agrees with the per-byte reference" ~count:150 ~long_factor:20
      QCheck2.Gen.(pair (arb_nat ~bits:2048 ()) (int_bound 5))
      (fun (x, pad) ->
        let len = ((B.num_bits x + 7) / 8) + pad in
        B.to_bytes_be x = ref_to_bytes x && B.to_bytes_be ~len x = ref_to_bytes ~len x);
    qtest "of_bytes_be agrees with the per-byte reference" ~count:150 ~long_factor:20
      gen_bytes
      (fun s -> B.equal (B.of_bytes_be s) (ref_of_bytes s));
  ]

(* every small case: a in [-40, 3n], n up to 150 (odd n for jacobi) *)
let test_euclid_small_grid () =
  for n = 1 to 150 do
    let bn = B.of_int n in
    for a = -40 to 3 * n do
      let ba = B.of_int a in
      if n land 1 = 1 && B.jacobi ba bn <> ref_jacobi ba bn then
        Alcotest.failf "jacobi %d %d" a n;
      if invert_result ba bn <> ref_invert_result ba bn then
        Alcotest.failf "invert %d %d" a n;
      if not (B.equal (B.gcd ba bn) (ref_gcd ba bn)) then
        Alcotest.failf "gcd %d %d" a n
    done
  done

let test_euclid_edges () =
  let m = B.pred (B.shift_left B.one 521) in
  Alcotest.(check int) "jacobi 0/1" 1 (B.jacobi B.zero B.one);
  Alcotest.(check int) "jacobi n/n" 0 (B.jacobi m m);
  Alcotest.(check int) "invert mod 1" 0 (B.to_int (B.invert (b "12345") B.one));
  Alcotest.check_raises "invert 0" Not_found (fun () -> ignore (B.invert B.zero m));
  Alcotest.check_raises "invert mod 0" Division_by_zero (fun () ->
      ignore (B.invert B.one B.zero));
  Alcotest.check_raises "jacobi even" (Invalid_argument "Bigint.jacobi: modulus must be odd and positive")
    (fun () -> ignore (B.jacobi B.one (B.of_int 10)));
  check_b "gcd 0 0" "0" (B.gcd B.zero B.zero);
  Alcotest.(check int) "erem_int negative" 2 (B.erem_int (B.of_int (-7)) 3);
  Alcotest.(check int) "erem_int wide" (B.to_int (B.erem m (B.of_int 9973)))
    (B.erem_int m 9973)

(* ------------------------------------------------------------------ *)
(* Multi-exponentiation: cross-checks over every evaluation mode        *)
(* ------------------------------------------------------------------ *)

(* the reference semantics: a fold of independent pow_mod calls.  Both
   sides raise Invalid_argument on exactly the same inputs (a negative
   exponent over a non-invertible base), so compare through Result. *)
let ref_product pairs m =
  try
    Ok
      (List.fold_left
         (fun acc (b_, e) -> B.mul_mod acc (B.pow_mod b_ e m) m)
         (B.erem B.one m) pairs)
  with Invalid_argument _ -> Error ()

let multi_result pairs m =
  try Ok (B.pow_mod_multi pairs m) with Invalid_argument _ -> Error ()

let in_mode mode f =
  let saved = B.multi_mode () in
  B.set_multi_mode mode;
  Fun.protect ~finally:(fun () -> B.set_multi_mode saved) f

let all_modes = [ B.Folded; B.Multi; B.Multi_fixed ]

(* [f ()] with [bases] declared for [n]; the tables it builds are
   dropped after, so a property's cases do not pile them up *)
let with_declared n bases f =
  B.declare_fixed_bases ~modulus:n bases;
  Fun.protect ~finally:B.reset_caches f

let gen_multi =
  let open QCheck2.Gen in
  let pairs =
    list_size (int_bound 4)
      (pair (arb_big ~bits:128 ()) (arb_big ~bits:96 ()))
  in
  map
    (fun (pairs, (m, odd)) ->
      let m = B.add (B.abs m) B.two in
      (pairs, if odd && B.is_even m then B.succ m else m))
    (pair pairs (pair (arb_big ~bits:100 ()) bool))

let multi_props =
  [ qtest "pow_mod_multi agrees with pow_mod fold (all modes)" ~count:120
      gen_multi
      (fun (pairs, m) ->
        let expected = ref_product pairs m in
        List.for_all
          (fun mode -> in_mode mode (fun () -> multi_result pairs m) = expected)
          all_modes);
    qtest "4-way pow_mod cross-check" ~count:60
      (QCheck2.Gen.map
         (fun ((b_, e), m) -> (b_, B.abs e, B.add (B.abs m) B.two))
         QCheck2.Gen.(pair (pair (arb_big ~bits:256 ()) (arb_big ~bits:64 ()))
                        (arb_big ~bits:128 ())))
      (fun (b_, e, m) ->
        let r = B.pow_mod b_ e m in
        B.equal r (B.pow_mod_naive b_ e m)
        && B.equal r (B.pow_mod_div b_ e m)
        && B.equal r (B.pow_mod_multi [ (b_, e) ] m));
  ]

(* a fixed odd >64-bit modulus (the Mersenne prime 2^107 - 1), forcing
   the Montgomery path *)
let m107 = B.pred (B.shift_left B.one 107)

let test_multi_edge_cases () =
  let check_all msg pairs m =
    let expected = ref_product pairs m in
    List.iter
      (fun mode ->
        Alcotest.(check bool) msg true
          (in_mode mode (fun () -> multi_result pairs m) = expected))
      all_modes
  in
  let e200 = B.pred (B.shift_left B.one 200) in
  check_all "empty product" [] m107;
  check_all "e = 0" [ (b "12345", B.zero) ] m107;
  check_all "b = 0" [ (B.zero, b "7") ] m107;
  check_all "b = 0, e = 0" [ (B.zero, B.zero) ] m107;
  check_all "b >= m" [ (B.add m107 (b "5"), e200) ] m107;
  check_all "even modulus" [ (b "123", e200); (b "77", b "999") ] (b "1000000");
  check_all "one-limb modulus" [ (b "123", e200); (b "45", b "67") ] (b "1009");
  check_all "negative exponent"
    [ (b "123456789", B.neg e200); (b "987654321", e200) ]
    m107;
  check_all "non-invertible negative exponent"
    [ (B.shift_left m107 1, B.neg (b "3")) ]
    m107;
  (* a declared base takes its table at its first call: the answer
     must not change once the table takes over *)
  B.reset_caches ();
  let g = b "123456789" in
  B.declare_fixed_bases ~modulus:m107 [ g ];
  let expected = B.pow_mod g e200 m107 in
  for _ = 1 to 8 do
    Alcotest.(check bool) "warm fixed-base table stays correct" true
      (B.equal expected (B.pow_mod_multi [ (g, e200) ] m107))
  done

(* every residue mod 1 is 0, the empty product included *)
let test_modulus_one () =
  let m1 = B.one in
  List.iter
    (fun e ->
      let msg name = Printf.sprintf "%s b^%s mod 1" name (B.to_string e) in
      check_b (msg "pow_mod") "0" (B.pow_mod (b "7") e m1);
      check_b (msg "pow_mod_div") "0" (B.pow_mod_div (b "7") e m1);
      check_b (msg "pow_mod_naive") "0" (B.pow_mod_naive (b "7") e m1);
      List.iter
        (fun mode ->
          check_b (msg "pow_mod_multi") "0"
            (in_mode mode (fun () -> B.pow_mod_multi [ (b "7", e) ] m1)))
        all_modes)
    [ B.zero; B.one; b "12345" ]

(* a term whose base reduces to 1 is dropped before any inversion or
   table, declared or not: the product costs what the other terms cost,
   in every mode *)
let test_base_one_dropped () =
  let e200 = B.pred (B.shift_left B.one 200) in
  let g = b "123456789" in
  B.declare_fixed_bases ~modulus:m107 [ g; B.one ];
  let muls f =
    let c0 = B.mul_count () in
    let r = f () in
    (r, B.mul_count () - c0)
  in
  List.iter
    (fun mode ->
      in_mode mode (fun () ->
          B.reset_caches ();
          let alone, c_alone = muls (fun () -> B.pow_mod_multi [ (g, e200) ] m107) in
          B.reset_caches ();
          let with_ones, c_ones =
            muls (fun () ->
                B.pow_mod_multi
                  [ (B.one, e200); (g, e200); (B.succ m107, B.neg e200) ]
                  m107)
          in
          Alcotest.(check bool) "same product" true (B.equal alone with_ones);
          Alcotest.(check int) "same multiplications" c_alone c_ones;
          Alcotest.(check int) "no table entry for 1"
            (if mode = B.Multi_fixed then 1 else 0)
            (B.fixed_base_cache_size ())))
    all_modes

(* ------------------------------------------------------------------ *)
(* Montgomery kernels at real sizes, with adversarial limbs             *)
(* ------------------------------------------------------------------ *)

let limb_max = (1 lsl 26) - 1

(* most-significant limb first *)
let of_limbs limbs =
  List.fold_left (fun acc l -> B.add (B.shift_left acc 26) (B.of_int l)) B.zero limbs

(* 2^(26k) - 1: k limbs, every one maximal *)
let all_ones k = B.pred (B.shift_left B.one (26 * k))

(* Odd moduli of exactly 20, 40 or 79 limbs (the 512-, 1024- and
   2048-bit classes) with limbs drawn from {0, 1, 2^26-1, uniform}, so
   some product-scanning columns sum near-maximal products; 2^(26k)-1 is
   drawn outright.  Two (base, exponent) terms per case: bases from
   {n-1, n-2, 2^(26k-1), uniform}, exponents of 9 to 96 bits (past
   pow_mod's tiny-exponent ladder). *)
let gen_wide =
  let open QCheck2.Gen in
  let limb = oneof [ pure 0; pure 1; pure limb_max; int_bound limb_max ] in
  let top = oneof [ pure 1; pure limb_max; int_range 1 limb_max ] in
  let modulus k =
    frequency
      [ (1, pure (all_ones k));
        ( 4,
          map
            (fun (t, rest) ->
              let v = of_limbs (t :: rest) in
              if B.is_even v then B.succ v else v)
            (pair top (list_repeat (k - 1) limb)) ) ]
  in
  let base k n =
    oneof
      [ pure (B.pred n);
        pure (B.sub n B.two);
        pure (B.shift_left B.one ((26 * k) - 1));
        map of_limbs (list_repeat k (int_bound limb_max)) ]
  in
  let exponent =
    map
      (fun (nb, seed) ->
        B.add (B.shift_left B.one (nb - 1))
          (B.random_bits (Test_rng.make seed) (nb - 1)))
      (pair (int_range 9 96) (int_bound max_int))
  in
  let* k = oneofl [ 20; 40; 79 ] in
  let* n = modulus k in
  let term = pair (base k n) exponent in
  map (fun (t1, t2) -> (n, t1, t2)) (pair term term)

let div_product terms n =
  List.fold_left
    (fun acc (b_, e) -> B.mul_mod acc (B.pow_mod_div b_ e n) n)
    (B.erem B.one n) terms

let wide_props =
  [ qtest "montgomery agrees with division ladder at 512-2048 bits"
      ~count:20 ~long_factor:20 gen_wide
      (fun (n, (b_, e), _) ->
        (* one-base pow_mod is the Multi arm's chain with one term *)
        let r = B.pow_mod b_ e n in
        B.equal r (B.pow_mod_div b_ e n)
        && B.equal r (in_mode B.Multi (fun () -> B.pow_mod_multi [ (b_, e) ] n)));
    qtest "Straus chain agrees with division ladder at 512-2048 bits"
      ~count:10 ~long_factor:20 gen_wide
      (fun (n, t1, t2) ->
        B.equal
          (in_mode B.Multi (fun () -> B.pow_mod_multi [ t1; t2 ] n))
          (div_product [ t1; t2 ] n));
    qtest "fixed-base tables agree with division ladder at 512-2048 bits"
      ~count:10 ~long_factor:20 gen_wide
      (fun (n, ((b1, _) as t1), t2) ->
        in_mode B.Multi_fixed (fun () ->
            (* b1 declared: the checked call builds its table, squarings
               included *)
            with_declared n [ b1 ] (fun () ->
                B.equal (B.pow_mod_multi [ t1; t2 ] n) (div_product [ t1; t2 ] n))));
  ]

(* ------------------------------------------------------------------ *)
(* The in-place chains against the division ladder: residues with a    *)
(* zero top limb, products that carry out of the top limb, window      *)
(* digits of 0 and 15, and cached tables that a chain must not write   *)
(* ------------------------------------------------------------------ *)

(* The chain moduli sit at the limb boundaries of the Montgomery
   domain, whose limbs are 27 bits wide; k counts domain limbs. *)

(* 2^(27(k-1)) + 1: a top limb of 1, so most residues have a zero one *)
let small_top k = B.succ (B.shift_left B.one (27 * (k - 1)))

(* 2^(27k) - 2t - 1: every limb but the lowest maximal, so a product
   before the subtraction often reaches 2^(27k) *)
let near_top k t = B.sub (B.pred (B.shift_left B.one (27 * k))) (B.of_int (2 * t))

(* pow_mod, the Multi arm and a declared base's table (built for
   exponent 1, then extended for [e]) against pow_mod_div *)
let chains_agree n b_ e =
  let expected = B.pow_mod_div b_ e n in
  B.equal (B.pow_mod b_ e n) expected
  && B.equal (in_mode B.Multi (fun () -> B.pow_mod_multi [ (b_, e) ] n)) expected
  && in_mode B.Multi_fixed (fun () ->
         with_declared n [ b_ ] (fun () ->
             ignore (B.pow_mod_multi [ (b_, B.one) ] n);
             B.equal (B.pow_mod_multi [ (b_, e) ] n) expected))

(* a modulus of class [modulus k] at 19, 38 or 76 domain limbs (513 to
   2 052 bits), a base from {n-1, 2^(27(k-1)), uniform below n} and an
   exponent of 9 to 200 bits *)
let gen_class modulus =
  let open QCheck2.Gen in
  let* k = oneofl [ 19; 38; 76 ] in
  let* n = modulus k in
  let* b_ =
    oneof
      [ pure (B.pred n);
        pure (B.shift_left B.one (27 * (k - 1)));
        map (fun seed -> B.random_below (Test_rng.make seed) n) (int_bound max_int) ]
  in
  let* e =
    map
      (fun (nb, seed) ->
        B.add (B.shift_left B.one (nb - 1))
          (B.random_bits (Test_rng.make seed) (nb - 1)))
      (pair (int_range 9 200) (int_bound max_int))
  in
  pure (n, b_, e)

let gen_small_top =
  gen_class (fun k ->
      QCheck2.Gen.(
        oneof
          [ pure (small_top k);
            (* a top limb below 16 over uniform lower limbs *)
            map
              (fun (t, seed) ->
                let v =
                  B.add
                    (B.shift_left (B.of_int t) (27 * (k - 1)))
                    (B.random_bits (Test_rng.make seed) (27 * (k - 1)))
                in
                if B.is_even v then B.succ v else v)
              (pair (int_range 1 15) (int_bound max_int)) ]))

let gen_near_top =
  gen_class (fun k -> QCheck2.Gen.map (near_top k) (QCheck2.Gen.int_bound (1 lsl 20)))

let chain_props =
  [ qtest "chains agree with division ladder, small top limb" ~count:15
      ~long_factor:20 gen_small_top
      (fun (n, b_, e) -> chains_agree n b_ e);
    qtest "chains agree with division ladder, carry out of top limb" ~count:15
      ~long_factor:20 gen_near_top
      (fun (n, b_, e) -> chains_agree n b_ e);
  ]

(* exponents 0, 1, 2^j and 2^j - 1 (every window digit 15) on the three
   modulus classes, through every entry point *)
let test_chain_exponent_edges () =
  let exps =
    [ B.zero; B.one; B.two ]
    @ List.map (B.shift_left B.one) [ 4; 8; 9; 64; 255 ]
    @ List.map (fun j -> B.pred (B.shift_left B.one j)) [ 8; 9; 64; 256 ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun n ->
          let bases = [ B.pred n; B.random_below (Test_rng.make k) n ] in
          List.iter
            (fun b_ ->
              List.iter
                (fun e ->
                  Alcotest.(check bool)
                    (Printf.sprintf "k=%d e=%s" k (B.to_hex e))
                    true (chains_agree n b_ e))
                exps)
            bases)
        [ small_top k; near_top k 0; near_top k 12345 ])
    [ 19; 76 ]

(* v at the bottom of each of the 7 chunks a 200-bit exponent spans:
   one window per chunk, taking entry v of every chunk table *)
let spread v =
  List.fold_left
    (fun acc c -> B.add acc (B.shift_left (B.of_int v) (32 * c)))
    B.zero [ 0; 1; 2; 3; 4; 5; 6 ]

(* a declared base's first product, which builds its tables, every
   entry of every chunk table, an unrelated chain on the same modulus,
   then all of them again: a chain that wrote into a table entry would
   change a later answer *)
let test_fixed_base_cache_integrity () =
  B.reset_caches ();
  List.iter
    (fun n ->
      let g = B.random_below (Test_rng.make 11) n in
      let h = B.random_below (Test_rng.make 12) n in
      let e1 = B.pred (B.shift_left B.one 200) in
      let e2 = B.random_bits (Test_rng.make 13) 300 in
      let reference pairs = div_product pairs n in
      let check msg pairs =
        Alcotest.(check bool) msg true
          (B.equal (B.pow_mod_multi pairs n) (reference pairs))
      in
      let every_entry msg =
        for i = 0 to 31 do
          check (Printf.sprintf "%s, entry %d" msg i) [ (g, spread ((2 * i) + 1)) ]
        done
      in
      in_mode B.Multi_fixed (fun () ->
          with_declared n [ g ] (fun () ->
              (* the first product builds g's 7 chunk tables *)
              check "first fixed-base product" [ (g, e1) ];
              Alcotest.(check int) "g's tables, and no other" 1
                (B.fixed_base_cache_size ());
              every_entry "every chunk table";
              check "unrelated chain" [ (h, e2); (B.succ g, e1) ];
              ignore (B.pow_mod h e2 n);
              check "first product again" [ (g, e1) ];
              every_entry "every chunk table again")))
    [ small_top 19; near_top 19 7; near_top 38 0 ]

(* ------------------------------------------------------------------ *)
(* The one chain's windows against the division ladder: exponent       *)
(* lengths at the 32-bit chunk boundaries and at every sliding-width   *)
(* step, window-extreme exponents, chunk-table growth, short dynamic   *)
(* terms beside long fixed ones, and fixed terms of both signs         *)
(* ------------------------------------------------------------------ *)

(* both sides of the chunk boundaries at 32, 64 and 512 bits and of the
   dynamic width steps at 24, 80, 240, 672 and 1 792 bits *)
let boundary_lengths =
  [ 31; 32; 33; 63; 64; 65; 511; 512; 513; 23; 24; 79; 80; 239; 240; 671; 672;
    1791; 1792 ]

(* an exponent of exactly [nb] bits: uniform below the top bit, all
   ones (every window the largest odd power) or 2^(nb-1) (one window) *)
let shaped_exponent nb shape seed =
  match shape with
  | 0 -> B.add (B.shift_left B.one (nb - 1)) (B.random_bits (Test_rng.make seed) (nb - 1))
  | 1 -> B.pred (B.shift_left B.one nb)
  | _ -> B.shift_left B.one (nb - 1)

(* an odd modulus of exactly k limbs and a base below it *)
let gen_modulus_base =
  let open QCheck2.Gen in
  let* k = oneofl [ 20; 40 ] in
  let* seed = int_bound max_int in
  let rng = Test_rng.make seed in
  let n =
    B.add (B.shift_left B.one ((26 * k) - 1)) (B.random_bits rng ((26 * k) - 1))
  in
  let n = if B.is_even n then B.succ n else n in
  pure (n, B.random_below rng n)

let gen_exponent lo hi =
  QCheck2.Gen.(
    map
      (fun (nb, seed) -> shaped_exponent nb 0 seed)
      (pair (int_range lo hi) (int_bound max_int)))

let gen_boundary =
  QCheck2.Gen.(
    map
      (fun ((n, b_), (nb, shape, seed)) -> (n, b_, shaped_exponent nb shape seed))
      (pair gen_modulus_base
         (triple (oneofl boundary_lengths) (int_bound 2) (int_bound max_int))))

(* a fixed base's first table from a short exponent, then grown for a
   longer one *)
let gen_growth =
  QCheck2.Gen.(
    map
      (fun ((n, b_), (short, long)) -> (n, b_, short, long))
      (pair gen_modulus_base (pair (gen_exponent 1 100) (gen_exponent 101 1400))))

(* a 1 364-bit exponent (the signature's ρ blinder) for a fixed base,
   and one of 1 to 31 bits for a dynamic one *)
let gen_short_beside_fixed =
  QCheck2.Gen.(
    map
      (fun ((n, g), (seed, long, short)) ->
        (n, g, B.random_below (Test_rng.make seed) n, long, short))
      (pair gen_modulus_base
         (triple (int_bound max_int) (gen_exponent 1364 1364) (gen_exponent 1 31))))

(* two fixed terms on the RSA modulus, the second with a negative
   exponent: its base's inverse gets chunk tables of its own *)
let gen_mixed_sign =
  QCheck2.Gen.(
    map
      (fun (seed, e1, e2) ->
        let n = (Lazy.force Params.rsa_512).Groupgen.n in
        let rng = Test_rng.make seed in
        (n, B.random_below rng n, B.random_below rng n, e1, e2))
      (triple (int_bound max_int) (gen_exponent 9 1400) (gen_exponent 9 1400)))

let window_props =
  [ qtest "chunk and width boundaries agree with division ladder" ~count:40
      ~long_factor:20 gen_boundary
      (fun (n, b_, e) -> chains_agree n b_ e);
    qtest "chunk tables grow from a short exponent to a long one" ~count:20
      ~long_factor:20 gen_growth
      (fun (n, b_, short, long) ->
        in_mode B.Multi_fixed (fun () ->
            with_declared n [ b_ ] (fun () ->
                let agrees e =
                  B.equal (B.pow_mod_multi [ (b_, e) ] n) (B.pow_mod_div b_ e n)
                in
                (* the first call builds the short tables, the long
                   exponent extends them, the short one reads them again *)
                agrees short && agrees long && agrees short)));
    qtest "short dynamic term beside a 1 364-bit fixed term" ~count:20
      ~long_factor:20 gen_short_beside_fixed
      (fun (n, g, h, long, short) ->
        in_mode B.Multi_fixed (fun () ->
            with_declared n [ g ] (fun () ->
                let pairs = [ (g, long); (h, short) ] in
                B.equal (B.pow_mod_multi pairs n) (div_product pairs n))));
    qtest "fixed terms of mixed sign agree with division ladder" ~count:20
      ~long_factor:20 gen_mixed_sign
      (fun (n, g, h, e1, e2) ->
        QCheck2.assume (B.equal (B.gcd h n) B.one);
        in_mode B.Multi_fixed (fun () ->
            with_declared n [ g; h ] (fun () ->
                B.equal
                  (B.pow_mod_multi [ (g, e1); (h, B.neg e2) ] n)
                  (div_product [ (g, e1); (B.invert h n, e2) ] n))));
  ]

(* ------------------------------------------------------------------ *)
(* One base, many exponents: the per-call chunk table against the      *)
(* division ladder, the widths its cost model picks, and the           *)
(* fixed-base registry it must stay out of                             *)
(* ------------------------------------------------------------------ *)

(* both sides of the 32-bit chunk boundary, of the KTY token lengths
   (408 and 409 bits) and the verifier's 536-bit exponents, and short
   ones below pow_mod's tiny-exponent cut *)
let many_lengths = [ 1; 8; 9; 31; 32; 33; 407; 408; 409; 410; 536 ]

(* uniform, all ones, a power of two, or zero *)
let gen_many_exponent =
  QCheck2.Gen.(
    map
      (fun (nb, shape, seed) ->
        if shape = 3 then B.zero else shaped_exponent nb shape seed)
      (triple (oneofl many_lengths) (int_bound 3) (int_bound max_int)))

(* 0 to 20 exponents; bases 0, 1, n - 1 or uniform; one modulus in five
   even, which takes one pow_mod per exponent *)
let gen_many =
  let open QCheck2.Gen in
  let* n, b_ = gen_modulus_base in
  let* even = map (fun i -> i = 0) (int_bound 4) in
  let n = if even then B.succ n else n in
  let* base = oneofl [ B.zero; B.one; B.pred n; b_ ] in
  let* es = list_size (int_bound 20) gen_many_exponent in
  pure (n, base, es)

(* products of [count] all-ones [bits]-bit exponents over one table of
   width [w]: the domain entry, 2^(w-1) odd powers per chunk and 32
   squarings per chunk past the first; then per exponent one product
   per window but the first (copied), one squaring per chain step below
   the topmost window, and the exit *)
let all_ones_many_products ~count ~bits w =
  let nchunks = (bits + 31) / 32 in
  let windows c = (Stdlib.min 32 (bits - (32 * c)) + w - 1) / w in
  let cs = List.init nchunks Fun.id in
  let total = List.fold_left (fun acc c -> acc + windows c) 0 cs in
  let top = List.fold_left (fun acc c -> Stdlib.max acc (w * (windows c - 1))) 0 cs in
  1 + (32 * (nchunks - 1)) + (nchunks lsl (w - 1)) + (count * (total + top))

let muls f =
  let c0 = B.mul_count () in
  f ();
  B.mul_count () - c0

(* the fallback and the widths the cost model picks at 409 bits, pinned
   by exact product counts: a width or a fallback decision that moves
   changes them even where the powers stay right *)
let test_many_products () =
  let n = near_top 20 7 in
  let b_ = B.random_below (Test_rng.make 23) n in
  let ones = B.pred (B.shift_left B.one 409) in
  let read es = Seq.iter ignore (B.pow_mod_many b_ es n) in
  Alcotest.(check int) "one exponent costs one pow_mod"
    (muls (fun () -> ignore (B.pow_mod b_ ones n)))
    (muls (fun () -> read [ ones ]));
  List.iter
    (fun (count, w) ->
      Alcotest.(check int)
        (Printf.sprintf "%d exponents: width %d" count w)
        (all_ones_many_products ~count ~bits:409 w)
        (muls (fun () -> read (List.init count (fun _ -> ones)))))
    [ (2, 3); (8, 4); (16, 5) ];
  (* a scan that stops at the first power pays the table and one chain,
     and counts one exponentiation *)
  let p0 = B.pow_mod_count () in
  Alcotest.(check int) "first power only"
    (all_ones_many_products ~count:1 ~bits:409 4)
    (muls (fun () ->
         ignore (Seq.uncons (B.pow_mod_many b_ (List.init 8 (fun _ -> ones)) n))));
  Alcotest.(check int) "one exponentiation counted" 1 (B.pow_mod_count () - p0)

(* the per-call table never enters the fixed-base registry: not for an
   undeclared base read many times, not for a declared base that
   already has tables *)
let test_many_stays_out_of_cache () =
  B.reset_caches ();
  let n = near_top 20 7 in
  let g = B.random_below (Test_rng.make 21) n in
  let h = B.random_below (Test_rng.make 22) n in
  let es = List.init 8 (fun i -> B.random_bits (Test_rng.make (30 + i)) 409) in
  B.declare_fixed_bases ~modulus:n [ g ];
  in_mode B.Multi_fixed (fun () ->
      ignore (B.pow_mod_multi [ (g, B.pred (B.shift_left B.one 409)) ] n);
      let size = B.fixed_base_cache_size () and words = B.fixed_base_table_words () in
      for _ = 1 to 5 do
        List.iter
          (fun b_ ->
            Alcotest.(check bool) "powers agree" true
              (List.equal B.equal
                 (List.of_seq (B.pow_mod_many b_ es n))
                 (List.map (fun e -> B.pow_mod_div b_ e n) es)))
          [ h; g ]
      done;
      Alcotest.(check int) "fixed-base entries" size (B.fixed_base_cache_size ());
      Alcotest.(check int) "fixed-base table words" words
        (B.fixed_base_table_words ()))

(* bases nobody declared stay dynamic however often they recur, with
   either sign of exponent, on a declared modulus or not: no call
   builds a table or adds an entry *)
let test_undeclared_no_tables () =
  let e200 = B.pred (B.shift_left B.one 200) in
  let g = b "123456789" in
  B.declare_fixed_bases ~modulus:m107 [ g ];
  ignore (B.pow_mod_multi [ (g, e200) ] m107);
  let size = B.fixed_base_cache_size () and words = B.fixed_base_table_words () in
  List.iter
    (fun n ->
      let h = B.random_below (Test_rng.make 41) n in
      for i = 1 to 6 do
        let fresh = B.random_below (Test_rng.make (50 + i)) n in
        Alcotest.(check bool) "product agrees" true
          (B.equal
             (B.pow_mod_multi [ (h, e200); (fresh, B.neg e200) ] n)
             (div_product [ (h, e200); (B.invert fresh n, e200) ] n))
      done)
    [ m107; (Lazy.force Params.rsa_512).Groupgen.n ];
  Alcotest.(check int) "fixed-base entries" size (B.fixed_base_cache_size ());
  Alcotest.(check int) "fixed-base table words" words
    (B.fixed_base_table_words ())

let many_props =
  [ qtest "pow_mod_many agrees with division ladder" ~count:20 ~long_factor:20
      gen_many
      (fun (n, b_, es) ->
        List.equal B.equal
          (List.of_seq (B.pow_mod_many b_ es n))
          (List.map (fun e -> B.pow_mod_div b_ e n) es));
  ]

(* ------------------------------------------------------------------ *)
(* The kernels at the domain's own limb boundaries: moduli of exactly  *)
(* k limbs of 27 bits, k odd and even so that the column left over by  *)
(* the two-column multiply runs in each sweep, up to the bound         *)
(* ------------------------------------------------------------------ *)

let limb27_max = (1 lsl 27) - 1

(* 2^(27k) - 1, 2^(27(k-1)) + 1, or uniform and odd under a top 27-bit
   limb of 1, 2^27 - 1 or uniform.  At k = 3 the last shapes can fall
   below the 64-bit Montgomery threshold and take the division ladder. *)
let gen_modulus27 k =
  let open QCheck2.Gen in
  let top = oneof [ pure 1; pure limb27_max; int_range 1 limb27_max ] in
  oneof
    [ pure (B.pred (B.shift_left B.one (27 * k)));
      pure (B.succ (B.shift_left B.one (27 * (k - 1))));
      map
        (fun (t, seed) ->
          let v =
            B.add
              (B.shift_left (B.of_int t) (27 * (k - 1)))
              (B.random_bits (Test_rng.make seed) (27 * (k - 1)))
          in
          if B.is_even v then B.succ v else v)
        (pair top (int_bound max_int)) ]

(* a modulus of k in {3, 4, 19, 20, 21, 38, 127} limbs, a base from
   {0, 1, n - 1, n - 2, uniform below n} and two to four exponents of 9
   to 96 bits *)
let gen_limb27 =
  let open QCheck2.Gen in
  let* k = oneofl [ 3; 4; 19; 20; 21; 38; 127 ] in
  let* n = gen_modulus27 k in
  let* b_ =
    oneof
      [ pure B.zero;
        pure B.one;
        pure (B.pred n);
        pure (B.sub n B.two);
        map (fun seed -> B.random_below (Test_rng.make seed) n) (int_bound max_int) ]
  in
  let* es = list_size (int_range 2 4) (gen_exponent 9 96) in
  pure (n, b_, es)

let limb27_props =
  [ qtest "27-bit limbs: pow_mod and multi agree with division ladder"
      ~count:20 ~long_factor:20 gen_limb27
      (fun (n, b_, es) -> chains_agree n b_ (List.hd es));
    qtest "27-bit limbs: pow_mod_many agrees with division ladder"
      ~count:20 ~long_factor:20 gen_limb27
      (fun (n, b_, es) ->
        List.equal B.equal
          (List.of_seq (B.pow_mod_many b_ es n))
          (List.map (fun e -> B.pow_mod_div b_ e n) es));
  ]

(* The lazy-carry bound: 127 limbs of 27 bits (3 429 bits) is the widest
   modulus the Montgomery kernels accept.  At 3 430 bits pow_mod and
   pow_mod_multi must take the division ladder, and a declaration must
   register no modulus (no Montgomery context). *)
let test_lazy_carry_bound () =
  let e = b "0xfff" in
  List.iter
    (fun (bits, contexts) ->
      let n = B.pred (B.shift_left B.one bits) in
      let base = B.sub n B.two in
      let before = B.mont_cache_size () in
      B.declare_fixed_bases ~modulus:n [ base ];
      let expected = B.pow_mod_div base e n in
      Alcotest.(check bool) (Printf.sprintf "pow_mod at %d bits" bits) true
        (B.equal (B.pow_mod base e n) expected);
      Alcotest.(check bool) (Printf.sprintf "pow_mod_multi at %d bits" bits) true
        (B.equal (B.pow_mod_multi [ (base, e) ] n) expected);
      Alcotest.(check int) (Printf.sprintf "Montgomery contexts after %d bits" bits)
        contexts (B.mont_cache_size () - before))
    [ (27 * 127, 1); ((27 * 127) + 1, 0) ];
  B.reset_caches ()

(* ------------------------------------------------------------------ *)
(* Metering and caching regressions                                     *)
(* ------------------------------------------------------------------ *)

(* every entry point bumps pow_mod_counter exactly once per call, on
   every path (the negative-exponent path historically delegated to a
   second metered entry point) *)
let test_pow_mod_counted_once () =
  let counted msg expected f =
    let c0 = B.pow_mod_count () in
    ignore (f ());
    Alcotest.(check int) msg expected (B.pow_mod_count () - c0)
  in
  let e200 = B.pred (B.shift_left B.one 200) in
  let even_m = b "1000000" in
  counted "tiny-exponent path" 1 (fun () -> B.pow_mod (b "7") (b "5") m107);
  counted "montgomery path" 1 (fun () -> B.pow_mod (b "7") e200 m107);
  counted "division-ladder path" 1 (fun () -> B.pow_mod (b "7") e200 even_m);
  counted "negative-exponent path" 1 (fun () ->
      B.pow_mod (b "7") (B.neg e200) m107);
  counted "pow_mod_naive" 1 (fun () -> B.pow_mod_naive (b "7") (b "100") m107);
  counted "pow_mod_div" 1 (fun () -> B.pow_mod_div (b "7") (b "100") m107);
  List.iter
    (fun mode ->
      counted
        (Printf.sprintf "pow_mod_multi (%s)"
           (match mode with
            | B.Folded -> "folded" | B.Multi -> "multi"
            | B.Multi_fixed -> "multi+fixed"))
        1
        (fun () ->
          in_mode mode (fun () ->
              B.pow_mod_multi [ (b "3", e200); (b "5", e200) ] m107)))
    all_modes

(* satellite regression: the negative-exponent path must route the
   inverted base through the windowed/Montgomery fast path.  The pre-fix
   code delegated to pow_mod_naive, making its mul count exactly equal
   to an explicit invert + naive ladder; the fast path is strictly
   cheaper on an all-ones exponent. *)
let test_neg_exponent_uses_fast_path () =
  let e200 = B.pred (B.shift_left B.one 200) in
  let base = b "123456789" in
  let c0 = B.mul_count () in
  let r_fast = B.pow_mod base (B.neg e200) m107 in
  let c1 = B.mul_count () in
  let inv = B.invert base m107 in
  let r_naive = B.pow_mod_naive inv e200 m107 in
  let c2 = B.mul_count () in
  Alcotest.(check bool) "same result" true (B.equal r_fast r_naive);
  Alcotest.(check bool)
    (Printf.sprintf "neg-exp muls (%d) strictly below invert+naive (%d)"
       (c1 - c0) (c2 - c1))
    true
    (c1 - c0 < c2 - c1)

(* satellite regression: on a declared modulus, which keeps its
   context, a Montgomery pow_mod
   charges exactly ONE Prof.Reduce — the caller-side erem of the
   oversized base.  The pre-fix code charged two more: a redundant
   second reduction of the already-reduced base in the Montgomery
   ladder, and a full Knuth division on domain exit even though the
   kernel's conditional subtraction already guarantees the result is
   < n. *)
let test_montgomery_single_reduce () =
  let e200 = B.pred (B.shift_left B.one 200) in
  let big_b = B.pred (B.shift_left m107 1) (* 2m-1: above m, same limb count *) in
  B.declare_fixed_bases ~modulus:m107 [] (* m107 keeps its context *);
  Prof.reset ();
  Prof.enable ();
  ignore (B.pow_mod big_b e200 m107);
  Prof.disable ();
  let t = Prof.snapshot () in
  Alcotest.(check int) "exactly one Reduce per warmed Montgomery pow_mod" 1
    (Prof.total t Prof.Reduce);
  Prof.reset ()

(* satellite regression: the declared bases' tables must not survive
   Obs.reset_all — setup cost used to bleed into whichever bench
   experiment first touched a base — while the declarations do: the
   next use builds the table again *)
let test_caches_reset_with_obs () =
  let e200 = B.pred (B.shift_left B.one 200) in
  let g = b "123456789" in
  B.declare_fixed_bases ~modulus:m107 [ g ];
  let moduli = B.mont_cache_size () in
  ignore (B.pow_mod_multi [ (g, e200) ] m107);
  Alcotest.(check bool) "table built at first use" true
    (B.fixed_base_cache_size () > 0);
  Obs.reset_all ();
  Alcotest.(check int) "tables dropped by Obs.reset_all" 0
    (B.fixed_base_cache_size ());
  Alcotest.(check int) "declared moduli kept" moduli (B.mont_cache_size ());
  ignore (B.pow_mod_multi [ (g, e200) ] m107);
  Alcotest.(check int) "table rebuilt from the declaration" 1
    (B.fixed_base_cache_size ())

let unit_tests =
  [ Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
    Alcotest.test_case "string known values" `Quick test_string_known;
    Alcotest.test_case "add/sub known" `Quick test_add_sub_known;
    Alcotest.test_case "mul known" `Quick test_mul_known;
    Alcotest.test_case "div known" `Quick test_div_known;
    Alcotest.test_case "division stress (add-back)" `Quick test_division_stress;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "shift" `Quick test_shift;
    Alcotest.test_case "bytes" `Quick test_bytes;
    Alcotest.test_case "modular known" `Quick test_modular_known;
    Alcotest.test_case "gcd" `Quick test_gcd;
  ]

let multi_unit_tests =
  [ Alcotest.test_case "multi-exp edge cases" `Quick test_multi_edge_cases;
    Alcotest.test_case "pow_mod counted once per path" `Quick
      test_pow_mod_counted_once;
    Alcotest.test_case "negative exponent uses fast path" `Quick
      test_neg_exponent_uses_fast_path;
    Alcotest.test_case "warmed Montgomery pow charges one Reduce" `Quick
      test_montgomery_single_reduce;
    Alcotest.test_case "caches reset with Obs.reset_all" `Quick
      test_caches_reset_with_obs;
  ]

let () =
  Alcotest.run "bigint"
    [ ("unit", unit_tests);
      ("native-crosscheck", native_props);
      ("constant-time", ct_props);
      ("algebra", algebra_props);
      ("modular", modular_props);
      ( "euclid",
        [ Alcotest.test_case "every small case vs references" `Quick
            test_euclid_small_grid;
          Alcotest.test_case "edge cases" `Quick test_euclid_edges ]
        @ euclid_props );
      ( "multi-exp",
        multi_unit_tests @ multi_props
        @ [ Alcotest.test_case "every entry point: residues mod 1" `Quick
              test_modulus_one;
            Alcotest.test_case "base-1 terms are dropped" `Quick
              test_base_one_dropped;
            Alcotest.test_case "undeclared bases build no tables" `Quick
              test_undeclared_no_tables ] );
      ( "montgomery-wide",
        Alcotest.test_case "lazy-carry bound at 127/128 limbs" `Quick
          test_lazy_carry_bound
        :: wide_props @ limb27_props );
      ( "in-place chains",
        [ Alcotest.test_case "exponents 0, 1, 2^j, 2^j - 1" `Quick
            test_chain_exponent_edges;
          Alcotest.test_case "fixed-base cache integrity" `Quick
            test_fixed_base_cache_integrity ]
        @ chain_props @ window_props );
      ( "many exponents",
        [ Alcotest.test_case "fallback and widths by product count" `Quick
            test_many_products;
          Alcotest.test_case "per-call table stays out of the cache" `Quick
            test_many_stays_out_of_cache ]
        @ many_props );
    ]
