module B = Bigint

type schnorr_group = { p : Bigint.t; q : Bigint.t; g : Bigint.t }

let schnorr_element ~rng grp =
  let rec go () =
    let h = B.add B.two (B.random_below rng (B.sub grp.p (B.of_int 3))) in
    let x = B.mul_mod h h grp.p in
    if B.equal x B.one then go () else x
  in
  go ()

let schnorr_group ~rng ~bits =
  let p, q = Primegen.random_safe_prime ~rng ~bits in
  let grp0 = { p; q; g = B.zero } in
  let g = schnorr_element ~rng grp0 in
  { p; q; g }

let schnorr_exponent ~rng grp =
  B.succ (B.random_below rng (B.pred grp.q))

let in_subgroup_slow grp x =
  B.compare x B.one > 0
  && B.compare x grp.p < 0
  && B.equal (B.pow_mod x grp.q grp.p) B.one

(* For a safe prime p = 2q + 1 the order-q subgroup is exactly QR(p), so a
   Jacobi-symbol evaluation decides membership without an exponentiation.
   p ≡ 3 (mod 4) always holds for safe primes; the exponentiation path is
   kept as the general fallback (and for the E8 ablation bench). *)
let in_subgroup grp x =
  if B.testbit grp.p 0 && B.testbit grp.p 1 then
    B.compare x B.one > 0
    && B.compare x grp.p < 0
    && B.jacobi x grp.p = 1
  else in_subgroup_slow grp x

type rsa_modulus = {
  n : Bigint.t;
  p_fac : Bigint.t;
  q_fac : Bigint.t;
  p' : Bigint.t;
  q' : Bigint.t;
}

let rsa_modulus ~rng ~bits =
  let half = bits / 2 in
  let p_fac, p' = Primegen.random_safe_prime ~rng ~bits:half in
  let rec distinct () =
    let q_fac, q' = Primegen.random_safe_prime ~rng ~bits:(bits - half) in
    if B.equal p_fac q_fac then distinct () else (q_fac, q')
  in
  let q_fac, q' = distinct () in
  { n = B.mul p_fac q_fac; p_fac; q_fac; p'; q' }

let qr_order m = B.mul m.p' m.q'

let sample_qr ~rng n =
  let rec go () =
    let h = B.add B.two (B.random_below rng (B.sub n (B.of_int 3))) in
    if B.equal (B.gcd h n) B.one then B.mul_mod h h n else go ()
  in
  go ()

let crt (r1, m1) (r2, m2) =
  let m1_inv = B.invert m1 m2 in
  let diff = B.erem (B.sub r2 r1) m2 in
  let t = B.mul_mod diff m1_inv m2 in
  B.erem (B.add r1 (B.mul t m1)) (B.mul m1 m2)
