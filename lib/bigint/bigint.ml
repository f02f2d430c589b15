(* Arbitrary-precision integers.

   Representation: a sign in {-1, 0, +1} and a magnitude stored as a
   little-endian array of limbs in base 2^26.  26-bit limbs keep every
   intermediate of schoolbook multiplication and Knuth algorithm-D division
   inside OCaml's 63-bit native ints: a limb product is < 2^52, leaving
   11 bits of headroom for carries and borrow bookkeeping.

   The Montgomery kernels (modular exponentiation with an odd modulus)
   spend that headroom differently: they sum a whole output column, up
   to 2k limb products for a k-limb modulus, into one int and carry
   once per column.  For w-bit limbs a column (2k products below
   2^(2w) plus a carry below 2^(62-w)) stays below 2^62 while
   2k·2^(2w) + 2^(62-w) <= 2^62.  The domain therefore has limbs of its
   own, 27 bits wide: at 27 bits the bound allows k <= 127 limbs
   (3 429-bit moduli), which covers every modulus in use, and a 512-bit
   modulus takes 19 limbs instead of 20, so (19/20)^2 = 0.90 of the
   limb products.  Wider odd moduli take the division ladder.  The
   domain packs 26-bit magnitudes into 27-bit limbs when a context is
   created and at [to_mont], and unpacks at [from_mont]; the rest of
   this module stays at 26 bits, because its bounds are stated for them
   (Lehmer's cofactor sums below, the d < 2^36 contract of [erem_int],
   algorithm D and the byte conversions).  The kernels also work in
   place: a residue in the domain is exactly k limbs, each product
   overwrites its destination (which may be an operand) and allocates
   nothing, and one chain squares and multiplies a single accumulator
   for [pow_mod] and [pow_mod_multi] alike.  The multiply sums two
   output columns per pass, so each limb it loads feeds two products;
   squaring keeps one column per pass, because a two-column squaring
   was no faster.  Every term feeds the chain with windows of odd
   value: a dynamic base by sliding windows over a per-call table of
   its odd powers, a declared fixed base through tables of 32 odd
   powers per 32-bit exponent chunk, built on its first use (the
   registry and the multi-exponentiation block below).

   The Euclid kernel behind [gcd], [invert] and [jacobi] (Lehmer's
   method, module [Euclid]) spends it a third way: a batch of quotients
   simulated on the top 60 bits of the pair is applied to the full
   numbers as a 2x2 matrix of cofactors, one signed pass over the limbs
   summing two cofactor-by-limb products per limb.  Cofactors stay below
   2^34, so that sum and its carry stay below 2^62.  [jacobi] drives a
   small state machine (sign, both values mod 8, which one is the
   denominator) with the same quotients; see the comment above it. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }
(* Invariant: mag has no trailing (most-significant) zero limb, and
   sign = 0 iff mag = [||]. *)

(* op counters live in the shared metrics registry (Shs_obs) so the bench
   harness and the CLI's --metrics report read the same numbers; the
   increment is a single field write, same cost as the int ref it
   replaces *)
let mul_counter = Obs.counter ~help:"bignum multiplications" "bigint.mul"
let pow_mod_counter = Obs.counter ~help:"modular exponentiations" "bigint.pow_mod"
let mul_count () = Obs.value mul_counter
let pow_mod_count () = Obs.value pow_mod_counter

let reset_counters () =
  Obs.reset_counter mul_counter;
  Obs.reset_counter pow_mod_counter

(* ------------------------------------------------------------------ *)
(* Magnitude (natural-number) primitives on little-endian limb arrays  *)
(* ------------------------------------------------------------------ *)

module Nat = struct
  let norm_len a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    !n

  let norm a =
    let n = norm_len a in
    if n = Array.length a then a else Array.sub a 0 n

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i < 0 then 0
        else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
        else go (i - 1)
      in
      go (la - 1)
    end

  let add a b =
    let la = Array.length a and lb = Array.length b in
    let lr = (if la > lb then la else lb) + 1 in
    let r = Array.make lr 0 in
    let carry = ref 0 in
    for i = 0 to lr - 2 do
      let av = if i < la then a.(i) else 0 in
      let bv = if i < lb then b.(i) else 0 in
      let s = av + bv + !carry in
      r.(i) <- s land mask;
      carry := s lsr limb_bits
    done;
    r.(lr - 1) <- !carry;
    norm r

  (* Requires a >= b. *)
  let sub a b =
    let la = Array.length a and lb = Array.length b in
    assert (la >= norm_len b);
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let bv = if i < lb then b.(i) else 0 in
      let d = a.(i) - bv - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    assert (!borrow = 0);
    norm r

  let mul_school a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then [||]
    else begin
      let r = Array.make (la + lb) 0 in
      for i = 0 to la - 1 do
        let ai = a.(i) in
        if ai <> 0 then begin
          let carry = ref 0 in
          for j = 0 to lb - 1 do
            let cur = r.(i + j) + (ai * b.(j)) + !carry in
            r.(i + j) <- cur land mask;
            carry := cur lsr limb_bits
          done;
          r.(i + lb) <- !carry
        end
      done;
      norm r
    end

  (* Karatsuba pays off once both operands exceed ~24 limbs (~620 bits);
     below that the split/recombine overhead dominates. *)
  let karatsuba_threshold = 24

  let shift_limbs a m =
    let n = norm_len a in
    if n = 0 then [||]
    else begin
      let r = Array.make (n + m) 0 in
      Array.blit a 0 r m n;
      r
    end

  let rec mul_raw a b =
    let la = norm_len a and lb = norm_len b in
    if la < karatsuba_threshold || lb < karatsuba_threshold then mul_school a b
    else begin
      let m = (Stdlib.max la lb + 1) / 2 in
      let lo x lx = Array.sub x 0 (Stdlib.min m lx) in
      let hi x lx = if lx <= m then [||] else Array.sub x m (lx - m) in
      let a0 = lo a la and a1 = hi a la in
      let b0 = lo b lb and b1 = hi b lb in
      let z0 = mul_raw a0 b0 in
      let z2 = mul_raw a1 b1 in
      let z1 =
        (* (a0+a1)(b0+b1) − z0 − z2 ≥ 0 *)
        sub (sub (mul_raw (add a0 a1) (add b0 b1)) z0) z2
      in
      add (shift_limbs z2 (2 * m)) (add (shift_limbs z1 m) z0)
    end

  let mul a b =
    Obs.incr mul_counter;
    if !Prof.active then Prof.charge Prof.Mul ~words:(norm_len a * norm_len b);
    mul_raw a b

  let num_bits a =
    let n = norm_len a in
    if n = 0 then 0
    else begin
      let top = a.(n - 1) in
      let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
      ((n - 1) * limb_bits) + width top 0
    end

  let shift_left a k =
    let n = norm_len a in
    if n = 0 || k = 0 then norm a
    else begin
      let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
      let lr = n + limb_shift + 1 in
      let r = Array.make lr 0 in
      if bit_shift = 0 then
        for i = 0 to n - 1 do r.(i + limb_shift) <- a.(i) done
      else begin
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let v = (a.(i) lsl bit_shift) lor !carry in
          r.(i + limb_shift) <- v land mask;
          carry := v lsr limb_bits
        done;
        r.(n + limb_shift) <- !carry
      end;
      norm r
    end

  let shift_right a k =
    let n = norm_len a in
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    if n <= limb_shift then [||]
    else begin
      let lr = n - limb_shift in
      let r = Array.make lr 0 in
      if bit_shift = 0 then
        for i = 0 to lr - 1 do r.(i) <- a.(i + limb_shift) done
      else
        for i = 0 to lr - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < n then
              (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done;
      norm r
    end

  (* Division by a single limb. *)
  let div_rem_limb a d =
    let n = Array.length a in
    let q = Array.make n 0 in
    let r = ref 0 in
    for i = n - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (norm q, !r)

  (* Knuth TAOCP vol. 2 algorithm D.  Requires [v] normalized, non-zero. *)
  let div_rem u v =
    let n = norm_len v in
    if n = 0 then raise Division_by_zero;
    let u = norm u in
    if compare u v < 0 then ([||], u)
    else if n = 1 then begin
      let q, r = div_rem_limb u v.(0) in
      (q, if r = 0 then [||] else [| r |])
    end else begin
      let lu = Array.length u in
      let m = lu - n in
      (* D1: normalize so the divisor's top limb has its high bit set. *)
      let rec top_width x acc = if x = 0 then acc else top_width (x lsr 1) (acc + 1) in
      let s = limb_bits - top_width v.(n - 1) 0 in
      let vn = Array.make n 0 in
      if s = 0 then Array.blit v 0 vn 0 n
      else begin
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let x = (v.(i) lsl s) lor !carry in
          vn.(i) <- x land mask;
          carry := x lsr limb_bits
        done
        (* the carry out of the top limb is zero by choice of s *)
      end;
      let un = Array.make (lu + 1) 0 in
      if s = 0 then Array.blit u 0 un 0 lu
      else begin
        let carry = ref 0 in
        for i = 0 to lu - 1 do
          let x = (u.(i) lsl s) lor !carry in
          un.(i) <- x land mask;
          carry := x lsr limb_bits
        done;
        un.(lu) <- !carry
      end;
      let q = Array.make (m + 1) 0 in
      let vtop = vn.(n - 1) and vsecond = vn.(n - 2) in
      for j = m downto 0 do
        (* D3: estimate the quotient digit. *)
        let top = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
        let qhat = ref (top / vtop) and rhat = ref (top mod vtop) in
        let adjusting = ref true in
        while !adjusting do
          if !qhat >= base
             || !qhat * vsecond > (!rhat lsl limb_bits) lor un.(j + n - 2)
          then begin
            decr qhat;
            rhat := !rhat + vtop;
            if !rhat >= base then adjusting := false
          end else adjusting := false
        done;
        (* D4: multiply and subtract. *)
        let borrow = ref 0 in
        for i = 0 to n - 1 do
          let p = !qhat * vn.(i) in
          let t = un.(i + j) - !borrow - (p land mask) in
          un.(i + j) <- t land mask;
          borrow := (p lsr limb_bits) - (t asr limb_bits)
        done;
        let t = un.(j + n) - !borrow in
        un.(j + n) <- t land mask;
        (* D5/D6: the estimate was one too large with tiny probability. *)
        if t < 0 then begin
          q.(j) <- !qhat - 1;
          let carry = ref 0 in
          for i = 0 to n - 1 do
            let t = un.(i + j) + vn.(i) + !carry in
            un.(i + j) <- t land mask;
            carry := t lsr limb_bits
          done;
          un.(j + n) <- (un.(j + n) + !carry) land mask
        end else q.(j) <- !qhat
      done;
      (* D8: denormalize the remainder. *)
      let r = shift_right (Array.sub un 0 n) s in
      (norm q, r)
    end
end

(* ------------------------------------------------------------------ *)
(* Euclid's remainder sequence, accelerated by Lehmer's method (Knuth, *)
(* TAOCP vol. 2, 4.5.2, algorithm L).  A batch simulates quotients in  *)
(* native ints on the top [window] bits of (u, v), then applies the    *)
(* batch's 2x2 matrix to the full numbers in one signed pass over the  *)
(* limbs.  When not even one quotient can be simulated, a single       *)
(* [Nat.div_rem] step takes its place.  A batch ends before any        *)
(* cofactor reaches 2^34, so a limb of the pass sums two products of a *)
(* cofactor and a 26-bit limb plus a carry, below 2^62; a quotient     *)
(* must stay below 2^27 so that q·|cofactor| is formed only when it    *)
(* fits.                                                               *)
(* ------------------------------------------------------------------ *)

module Euclid = struct
  let window = 60
  let cofactor_limit = 1 lsl 34
  let quotient_limit = 1 lsl 27

  (* bits [s, s + window) of [a]; [n] is the limb count of the larger
     operand, whose top limb bounds the shifts below 2^window *)
  let top a n s =
    let li = s / limb_bits and off = s mod limb_bits in
    let r = ref (a.(li) lsr off) in
    for j = li + 1 to n - 1 do
      r := !r + (a.(j) lsl ((limb_bits * (j - li)) - off))
    done;
    !r

  (* limb count of [a] once its limbs from [n] up are known to be zero *)
  let len_below a n =
    let n = ref n in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    !n

  (* [run ~quot ~batch ~big u v] runs Euclid on the magnitudes u >= v
     (neither array is modified) and returns gcd(u, v).  Each quotient q
     reaches [quot] as q mod 8, in sequence order.  [batch a b c d] gets
     each simulated batch's matrix as magnitudes: the batch maps (u, v)
     to (a·u - b·v, d·v - c·u) after an even number of quotients and to
     (b·v - a·u, c·u - d·v) after an odd one (the signs alternate).
     [big q] gets each quotient that a division step found instead. *)
  let run ~quot ~batch ~big u0 v0 =
    let cap = Array.length u0 in
    let u = ref (Array.make cap 0) and v = ref (Array.make cap 0) in
    Array.blit u0 0 !u 0 cap;
    Array.blit v0 0 !v 0 (Array.length v0);
    let nu = ref cap and nv = ref (Array.length v0) in
    (* invariant: u >= v, and limbs past nu (resp. nv) are zero *)
    while !nv > 0 do
      let uu = !u and vv = !v and n = !nu in
      let s = Stdlib.max 0 (Nat.num_bits uu - window) in
      (* below 2^window the simulated values are u and v themselves *)
      let exact = s = 0 in
      let uh = ref (top uu n s) and vh = ref (top vv n s) in
      let a = ref 1 and b = ref 0 and c = ref 0 and d = ref 1 in
      let steps = ref 0 and simulating = ref true in
      while !simulating do
        (* the true quotient lies between those of the corner pairs
           (uh + a, vh + c) and (uh + b, vh + d); -1 when they differ *)
        let q =
          if exact then (if !vh = 0 then -1 else !uh / !vh)
          else begin
            let vc = !vh + !c and vd = !vh + !d in
            if vc = 0 || vd = 0 then -1
            else begin
              let q = (!uh + !a) / vc in
              if q = (!uh + !b) / vd then q else -1
            end
          end
        in
        if q < 0 || q >= quotient_limit then simulating := false
        else begin
          (* signs alternate, so |a - q·c| = |a| + q·|c| *)
          let c' = !a - (q * !c) and d' = !b - (q * !d) in
          if Stdlib.abs c' >= cofactor_limit || Stdlib.abs d' >= cofactor_limit
          then simulating := false
          else begin
            quot (q land 7);
            a := !c;
            b := !d;
            c := c';
            d := d';
            let w = !uh - (q * !vh) in
            uh := !vh;
            vh := w;
            incr steps
          end
        end
      done;
      if !steps > 0 then begin
        let a = !a and b = !b and c = !c and d = !d in
        let cu = ref 0 and cv = ref 0 in
        for i = 0 to n - 1 do
          let x = uu.(i) and y = vv.(i) in
          let p = (a * x) + (b * y) + !cu and r = (c * x) + (d * y) + !cv in
          uu.(i) <- p land mask;
          vv.(i) <- r land mask;
          cu := p asr limb_bits;
          cv := r asr limb_bits
        done;
        (* both results are remainders, non-negative and below u *)
        assert (!cu = 0 && !cv = 0);
        nu := len_below uu n;
        nv := len_below vv n;
        batch (Stdlib.abs a) (Stdlib.abs b) (Stdlib.abs c) (Stdlib.abs d)
      end
      else begin
        let q, r = Nat.div_rem (Array.sub uu 0 n) (Array.sub vv 0 !nv) in
        quot (if Array.length q = 0 then 0 else q.(0) land 7);
        big q;
        (* (u, v) <- (v, r), reusing u's array for r *)
        Array.fill uu 0 n 0;
        Array.blit r 0 uu 0 (Array.length r);
        u := vv;
        v := uu;
        nu := !nv;
        nv := Array.length r
      end
    done;
    Array.sub !u 0 !nu
end

(* ------------------------------------------------------------------ *)
(* Signed wrapper                                                      *)
(* ------------------------------------------------------------------ *)

let zero = { sign = 0; mag = [||] }

let make sign mag =
  let mag = Nat.norm mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    let v = abs n in
    let rec limbs v = if v = 0 then [] else (v land mask) :: limbs (v lsr limb_bits) in
    { sign; mag = Array.of_list (limbs v) }
  end

let one = of_int 1
let two = of_int 2

let to_int_opt { sign; mag } =
  let n = Array.length mag in
  if n = 0 then Some 0
  else if Nat.num_bits mag > 62 then None
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do v := (!v lsl limb_bits) lor mag.(i) done;
    Some (sign * !v)
  end

let to_int t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bigint.to_int: value does not fit in a native int"

let sign t = t.sign
let is_zero t = t.sign = 0

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then Nat.compare a.mag b.mag
  else Nat.compare b.mag a.mag

let equal a b = compare a b = 0

(* Constant-time comparisons.  [compare]/[equal] above go through
   [Nat.compare], which early-exits on the first differing limb — fine
   for public values, an exploitable timing oracle when either operand
   is (derived from) a secret.  These variants scan every limb of the
   longer magnitude unconditionally, so their running time depends only
   on max(limb count), which is public (bounded by the modulus width);
   signs and limb counts themselves are treated as public. *)

let equal_ct a b =
  let la = Array.length a.mag and lb = Array.length b.mag in
  let n = if la > lb then la else lb in
  let acc = ref (a.sign lxor b.sign) in
  for i = 0 to n - 1 do
    let av = if i < la then a.mag.(i) else 0 in
    let bv = if i < lb then b.mag.(i) else 0 in
    acc := !acc lor (av lxor bv)
  done;
  !acc = 0

let compare_ct a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else begin
    (* Magnitude compare without early exit: visit every limb from the
       bottom up, keeping the most-significant difference seen.  The
       select is arithmetic, not a branch, so the loop body's timing is
       limb-value independent (limbs are < 2^26, differences fit). *)
    let la = Array.length a.mag and lb = Array.length b.mag in
    let n = if la > lb then la else lb in
    let r = ref 0 in
    for i = 0 to n - 1 do
      let av = if i < la then a.mag.(i) else 0 in
      let bv = if i < lb then b.mag.(i) else 0 in
      let d = av - bv in
      (* s = sign d in {-1, 0, 1}: bit 62 is the native-int sign bit *)
      let s = (d asr 62) lor ((-d) lsr 62) in
      r := (s * s * s) + ((1 - (s * s)) * !r)
    done;
    if a.sign >= 0 then !r else - !r
  end

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (Nat.add a.mag b.mag)
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (Nat.sub a.mag b.mag)
    else make b.sign (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (Nat.mul a.mag b.mag)

(* Identical arithmetic with no counter or profiler charge: the control
   arm of the bench harness's observability-overhead check, nothing
   else.  Protocol code must use the metered entry points. *)
module Unmetered = struct
  let mul a b =
    if a.sign = 0 || b.sign = 0 then zero
    else make (a.sign * b.sign) (Nat.mul_raw a.mag b.mag)
end

let div_rem a b =
  if b.sign = 0 then raise Division_by_zero;
  (if !Prof.active then begin
     (* Knuth algorithm-D work: one limb product per (quotient digit,
        divisor limb) pair *)
     let la = Array.length a.mag and lb = Array.length b.mag in
     if la >= lb then Prof.charge Prof.Reduce ~words:((la - lb + 1) * lb)
   end);
  let q, r = Nat.div_rem a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (div_rem a b)
let rem a b = snd (div_rem a b)

let erem a b =
  let r = rem a b in
  if r.sign < 0 then add r (abs b) else r

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  if t.sign = 0 then zero else make t.sign (Nat.shift_left t.mag k)

let shift_right t k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  if t.sign = 0 then zero else make t.sign (Nat.shift_right t.mag k)

let num_bits t = Nat.num_bits t.mag

let testbit t i =
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr bit) land 1 = 1

let is_even t = not (testbit t 0)

let logand a b =
  if a.sign < 0 || b.sign < 0 then invalid_arg "Bigint.logand: negative argument";
  let n = Stdlib.min (Array.length a.mag) (Array.length b.mag) in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do r.(i) <- a.mag.(i) land b.mag.(i) done;
  make 1 r

(* ------------------------------------------------------------------ *)
(* Modular arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let mul_mod a b m = erem (mul a b) m

(* [a mod d] for 0 < d < 2^36 by Horner's rule over the limbs: the
   partial remainder stays below 2^62 and nothing is allocated *)
let erem_int a d =
  if d <= 0 || d >= 1 lsl 36 then invalid_arg "Bigint.erem_int: divisor out of range";
  let r = ref 0 in
  for i = Array.length a.mag - 1 downto 0 do
    r := ((!r lsl limb_bits) lor a.mag.(i)) mod d
  done;
  if a.sign < 0 && !r <> 0 then d - !r else !r

let no_batch _ _ _ _ = ()

let gcd a b =
  let a = abs a and b = abs b in
  let u, v = if compare a b >= 0 then (a, b) else (b, a) in
  make 1 (Euclid.run ~quot:ignore ~batch:no_batch ~big:ignore u.mag v.mag)

let ext_gcd a b =
  (* Iterative extended Euclid over signed values. *)
  let rec go r0 r1 u0 u1 v0 v1 =
    if is_zero r1 then (r0, u0, v0)
    else begin
      let q, r2 = div_rem r0 r1 in
      go r1 r2 u1 (sub u0 (mul q u1)) v1 (sub v0 (mul q v1))
    end
  in
  let g, u, v = go a b one zero zero one in
  if g.sign < 0 then (neg g, neg u, neg v) else (g, u, v)

(* Euclid on (m, a mod m), tracking only the cofactor t of a (each
   remainder r ≡ t·a mod m) as magnitudes: cofactors alternate in sign,
   so a batch adds magnitudes, |t_u'| = |a|·|t_u| + |b|·|t_v|, and the
   cofactor of u is positive after an odd number of quotients. *)
let invert a m =
  if !Prof.active then Prof.charge Prof.Inv ~words:(Array.length m.mag);
  let r = erem a m in
  (* every cofactor magnitude is at most m *)
  let cap = Array.length m.mag in
  let su0 = Array.make cap 0 and sv0 = Array.make cap 0 in
  sv0.(0) <- 1;
  let su = ref su0 and sv = ref sv0 in
  (* limbs of the larger cofactor, the one of v *)
  let ls = ref 1 and steps = ref 0 in
  let batch a b c d =
    let x = !su and y = !sv in
    let cx = ref 0 and cy = ref 0 in
    for i = 0 to !ls - 1 do
      let xi = x.(i) and yi = y.(i) in
      let p = (a * xi) + (b * yi) + !cx and q = (c * xi) + (d * yi) + !cy in
      x.(i) <- p land mask;
      y.(i) <- q land mask;
      cx := p lsr limb_bits;
      cy := q lsr limb_bits
    done;
    let i = ref !ls in
    while !cx <> 0 || !cy <> 0 do
      x.(!i) <- !cx land mask;
      y.(!i) <- !cy land mask;
      cx := !cx lsr limb_bits;
      cy := !cy lsr limb_bits;
      incr i
    done;
    ls := Euclid.len_below y !i
  in
  let big q =
    let x = !su and y = !sv in
    let t = Nat.add (Array.sub x 0 !ls) (Nat.mul_raw q (Array.sub y 0 !ls)) in
    Array.fill x 0 cap 0;
    Array.blit t 0 x 0 (Array.length t);
    su := y;
    sv := x;
    ls := Array.length t
  in
  let g =
    Euclid.run ~quot:(fun _ -> incr steps) ~batch ~big m.mag r.mag
  in
  (* [a] is routinely a secret trapdoor (group orders, tracing keys);
     the invertibility check must not leak how close g is to 1. *)
  if not (equal_ct (make 1 g) one) then raise Not_found;
  erem (make (if !steps land 1 = 1 then 1 else -1) !su) m

(* Jacobi symbol over the same remainder sequence on (n, a mod n), with
   no factors of two stripped.  The denominator is always odd; the state
   is the sign, both values mod 8 and which one is the denominator.  For
   each quotient q, with w = u - q·v:
   - v the denominator: (u/v) = (w/v), nothing changes;
   - u the denominator, v odd: reciprocity, v becomes the denominator,
     the sign flips iff u ≡ v ≡ 3 mod 4;
   - u the denominator, v even: w stays the denominator; if v ≡ 2 mod 4
     the sign takes χ(u)·χ(w), χ(x) = -1 iff x ≡ ±3 mod 8, and flips
     again if v ≡ 6 mod 8 and u ≢ w mod 4.
   The residues follow from q mod 8 alone, so Lehmer's simulated
   quotients drive the state.  The symbol is the sign if the gcd is 1,
   and 0 otherwise. *)
let jacobi a n =
  if n.sign <= 0 || not (testbit n 0) then
    invalid_arg "Bigint.jacobi: modulus must be odd and positive";
  let r = erem a n in
  let x = ref (n.mag.(0) land 7) in
  let y = ref (if r.sign = 0 then 0 else r.mag.(0) land 7) in
  let den_u = ref true and sign = ref 1 in
  let chi v = v = 3 || v = 5 in
  let quot q =
    let w = (!x - (q * !y)) land 7 in
    if !den_u then begin
      if !y land 1 = 1 then begin
        if !x land 3 = 3 && !y land 3 = 3 then sign := - !sign
      end
      else begin
        if !y land 3 = 2 then begin
          if chi !x <> chi w then sign := - !sign;
          if !y = 6 && !x land 3 <> w land 3 then sign := - !sign
        end;
        den_u := false
      end
    end
    else den_u := true;
    x := !y;
    y := w
  in
  let g = Euclid.run ~quot ~batch:no_batch ~big:ignore n.mag r.mag in
  if Array.length g = 1 && g.(0) = 1 then !sign else 0

(* the empty product: 1 mod m for m > 0 (every residue mod 1 is 0) *)
let one_mod m = if equal m one then zero else one

let pow_mod_naive b e m =
  if m.sign <= 0 then raise Division_by_zero;
  if e.sign < 0 then invalid_arg "Bigint.pow_mod_naive: negative exponent";
  Obs.incr pow_mod_counter;
  if !Prof.active then Prof.charge Prof.Modexp ~words:(num_bits e);
  let b = erem b m in
  let nbits = num_bits e in
  let acc = ref (one_mod m) in
  for i = nbits - 1 downto 0 do
    acc := mul_mod !acc !acc m;
    if testbit e i then acc := mul_mod !acc b m
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Montgomery arithmetic: division-free modular multiplication for odd *)
(* moduli.  Exponentiation converts into the Montgomery domain once    *)
(* and multiplies there, replacing the per-step Knuth division of the  *)
(* naive ladder.                                                       *)
(*                                                                     *)
(* The domain has limbs of its own, 27 bits wide (file header): a      *)
(* residue is k = ceil(bits(n)/27) limbs, R = 2^(27k).  [create] and   *)
(* [to_mont] pack 26-bit magnitudes into it, [from_mont] unpacks the   *)
(* result; nothing else crosses the boundary.                          *)
(*                                                                     *)
(* The kernel is product scanning (Koç–Acar–Kaliski's "FIPS" method):  *)
(* output column i of a·b + m·n is summed into one native int — every  *)
(* a_j·b_{i-j} and m_j·n_{i-j} product plus the carry in — and the     *)
(* carry is taken once per column; [max_limbs] keeps a column within a *)
(* native int (file header).                                           *)
(* [mul_into] sums two columns per pass, so each limb it loads feeds   *)
(* two products.  [sqr_into] takes each column's cross products        *)
(* a_j·a_l (j < l) once and doubles them; it serves every squaring:    *)
(* the shared chain of [mont_multi] and the table steps of             *)
(* [odd_powers] and [grow_chunks].                                     *)
(*                                                                     *)
(* Both kernels write their k-limb result in place and allocate        *)
(* nothing.  Inside the domain a residue is exactly k limbs, a zero    *)
(* top limb included.  The destination may be either operand or both: *)
(* column i >= k reads only limbs i-k+1 .. k-1 of the operands, so     *)
(* output limb i-k is final when it is written.  The reduction limbs m *)
(* live in one scratch array of the context; that is safe because the *)
(* kernels make no callbacks and everything runs on one domain.        *)
(* ------------------------------------------------------------------ *)

module Montgomery = struct
  (* the domain's limb width and mask *)
  let bits = 27
  let mask = (1 lsl bits) - 1

  type ctx = {
    n_limbs : int array;  (* modulus as k domain limbs, little-endian *)
    k : int;  (* limb count *)
    n0' : int;  (* -n^{-1} mod 2^27 *)
    r2 : int array;  (* R^2 mod n as k limbs *)
    one : int array;  (* 1 as k limbs: the operand of the domain exit *)
    m : int array;  (* scratch: the reduction limbs of the product in flight *)
  }

  (* the limbs [src] of [w_in] bits each, regrouped into [len] limbs of
     [w_out] bits; [len] must hold every set bit *)
  let regroup src ~w_in ~w_out len =
    let dst = Array.make len 0 and out_mask = (1 lsl w_out) - 1 in
    let acc = ref 0 and held = ref 0 and j = ref 0 in
    for i = 0 to Array.length src - 1 do
      acc := !acc lor (src.(i) lsl !held);
      held := !held + w_in;
      while !held >= w_out do
        dst.(!j) <- !acc land out_mask;
        acc := !acc lsr w_out;
        held := !held - w_out;
        incr j
      done
    done;
    if !acc <> 0 then dst.(!j) <- !acc;
    dst

  (* [x] in [0, 2^(27k)) as k domain limbs *)
  let pack k x = regroup x.mag ~w_in:limb_bits ~w_out:bits k

  (* domain limbs back to a [Bigint.t] *)
  let unpack d =
    let len = ((bits * Array.length d) + limb_bits - 1) / limb_bits in
    make 1 (regroup d ~w_in:bits ~w_out:limb_bits len)

  (* inverse of odd [v] modulo 2^27, by Newton lifting *)
  let inv_mod_base v =
    let x = ref v in
    (* x_{i+1} = x_i (2 - v x_i); doubling precision each step *)
    for _ = 1 to 5 do
      x := !x * (2 - (v * !x)) land mask
    done;
    !x land mask

  (* the lazy-carry bound: the largest k with 2k·2^54 + 2^35 <= 2^62 *)
  let max_limbs = 127

  let create modulus =
    assert (modulus.sign > 0 && testbit modulus 0);
    let k = (num_bits modulus + bits - 1) / bits in
    if k > max_limbs then invalid_arg "Bigint.Montgomery.create: modulus too wide";
    let n_limbs = pack k modulus in
    let n0' = ((1 lsl bits) - inv_mod_base n_limbs.(0)) land mask in
    let r2 = pack k (erem (shift_left one (2 * k * bits)) modulus) in
    let one_k = Array.make k 0 in
    one_k.(0) <- 1;
    { n_limbs; k; n0'; r2; one = one_k; m = Array.make k 0 }

  (* Both kernels compute (x + m·n) / R with x = a·b (or a²) in two
     column sweeps.  Columns 0..k-1 choose the limb m_i that clears the
     column's low limb; columns k..2k-2 emit output limb i-k into [dst].
     Each column's sum starts from the carry [c] out of the last. *)

  (* a squaring or a multiply is one bigint.mul, charged the 2k² limb
     words of a schoolbook-equivalent Montgomery product *)
  let charge ctx =
    Obs.incr mul_counter;
    if !Prof.active then Prof.charge Prof.Mul ~words:(2 * ctx.k * ctx.k)

  (* limbs i..0 of [d] as a number are >= those of [n] *)
  let rec geq d n i =
    i < 0 || (if d.(i) <> n.(i) then d.(i) > n.(i) else geq d n (i - 1))

  (* the last column's carry, then the conditional subtraction.  The
     result lies in [0, 2n): k limbs in [dst] plus the carry-out bit,
     worth R > n.  It leaves in [0, n); when the bit is set, the borrow
     out of the top limb cancels it. *)
  let finish ctx dst c =
    let k = ctx.k and n = ctx.n_limbs in
    dst.(k - 1) <- c land mask;
    if c lsr bits <> 0 || geq dst n (k - 1) then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = dst.(i) - n.(i) - !borrow in
        dst.(i) <- d land mask;
        borrow := (d asr bits) land 1
      done
    end

  (* dst <- a·b / R mod n, two columns i and i+1 per pass.  Iteration j
     loads a_j, m_j, b_{i-j} and n_{i-j} once: their products go into
     column i, and a_j and m_j times the b and n limbs the iteration
     before loaded, b_{i+1-j} and n_{i+1-j}, into column i+1.  In the
     first sweep column i is finished first, so that m_i is chosen
     before a_i·b_1, a_{i+1}·b_0 and m_i·n_1 join column i+1.  When a
     sweep has an odd number of columns, its last one goes alone. *)
  let mul_into ctx dst a b =
    charge ctx;
    let k = ctx.k and n = ctx.n_limbs and n0' = ctx.n0' and m = ctx.m in
    let c = ref 0 in
    for p = 0 to (k / 2) - 1 do
      let i = 2 * p in
      let s0 = ref !c and s1 = ref 0 in
      let bp = ref b.(i + 1) and np = ref n.(i + 1) in
      for j = 0 to i - 1 do
        let aj = a.(j) and mj = m.(j) and bj = b.(i - j) and nj = n.(i - j) in
        s0 := !s0 + (aj * bj) + (mj * nj);
        s1 := !s1 + (aj * !bp) + (mj * !np);
        bp := bj;
        np := nj
      done;
      let ai = a.(i) in
      let s0 = !s0 + (ai * b.(0)) in
      let mi = ((s0 land mask) * n0') land mask in
      m.(i) <- mi;
      let s1 =
        !s1 + ((s0 + (mi * n.(0))) lsr bits)
        + (ai * !bp) + (a.(i + 1) * b.(0)) + (mi * !np)
      in
      let mi1 = ((s1 land mask) * n0') land mask in
      m.(i + 1) <- mi1;
      c := (s1 + (mi1 * n.(0))) lsr bits
    done;
    if k land 1 = 1 then begin
      (* column k-1 *)
      let i = k - 1 in
      let s = ref !c in
      for j = 0 to i - 1 do
        s := !s + (a.(j) * b.(i - j)) + (m.(j) * n.(i - j))
      done;
      let s = !s + (a.(i) * b.(0)) in
      let mi = ((s land mask) * n0') land mask in
      m.(i) <- mi;
      c := (s + (mi * n.(0))) lsr bits
    end;
    for p = 0 to ((k - 1) / 2) - 1 do
      let i = k + (2 * p) in
      let lo = i - k + 1 in
      let bp = ref b.(k - 1) and np = ref n.(k - 1) in
      let s0 = ref (!c + (a.(lo) * !bp) + (m.(lo) * !np)) and s1 = ref 0 in
      for j = lo + 1 to k - 1 do
        let aj = a.(j) and mj = m.(j) and bj = b.(i - j) and nj = n.(i - j) in
        s0 := !s0 + (aj * bj) + (mj * nj);
        s1 := !s1 + (aj * !bp) + (mj * !np);
        bp := bj;
        np := nj
      done;
      dst.(i - k) <- !s0 land mask;
      let s1 = !s1 + (!s0 lsr bits) in
      dst.(i - k + 1) <- s1 land mask;
      c := s1 lsr bits
    done;
    if k land 1 = 0 then begin
      (* column 2k-2 *)
      let s = !c + (a.(k - 1) * b.(k - 1)) + (m.(k - 1) * n.(k - 1)) in
      dst.(k - 2) <- s land mask;
      c := s lsr bits
    end;
    finish ctx dst !c

  (* dst <- a² / R mod n.  Column i's cross products a_j·a_{i-j} with
     j < i-j are summed once into [x] and doubled, plus a_{i/2}^2 when i
     is even; the loop over them also takes the m·n products of the same
     j, and a second loop the rest of the column's m·n products. *)
  let sqr_into ctx dst a =
    charge ctx;
    let k = ctx.k and n = ctx.n_limbs and n0' = ctx.n0' and m = ctx.m in
    let c = ref 0 in
    for i = 0 to k - 1 do
      let h = ((i + 1) / 2) - 1 in
      let x = ref 0 and s = ref !c in
      for j = 0 to h do
        x := !x + (a.(j) * a.(i - j));
        s := !s + (m.(j) * n.(i - j))
      done;
      for j = h + 1 to i - 1 do
        s := !s + (m.(j) * n.(i - j))
      done;
      let sq = if i land 1 = 0 then a.(i / 2) * a.(i / 2) else 0 in
      let s = !s + (2 * !x) + sq in
      let mi = ((s land mask) * n0') land mask in
      m.(i) <- mi;
      c := (s + (mi * n.(0))) lsr bits
    done;
    for i = k to (2 * k) - 2 do
      let h = ((i + 1) / 2) - 1 in
      let x = ref 0 and s = ref !c in
      for j = i - k + 1 to h do
        x := !x + (a.(j) * a.(i - j));
        s := !s + (m.(j) * n.(i - j))
      done;
      for j = h + 1 to k - 1 do
        s := !s + (m.(j) * n.(i - j))
      done;
      let sq = if i land 1 = 0 then a.(i / 2) * a.(i / 2) else 0 in
      let s = !s + (2 * !x) + sq in
      dst.(i - k) <- s land mask;
      c := s lsr bits
    done;
    finish ctx dst !c

  (* a fresh residue x·R mod n; [x] must be reduced into [0, n) *)
  let to_mont ctx x =
    let d = pack ctx.k x in
    mul_into ctx d d ctx.r2;
    d

  (* every product leaves in [0, n), so a residue leaves the domain by
     one multiplication with 1 — no reduction.  Consumes [acc]. *)
  let from_mont ctx acc =
    mul_into ctx acc acc ctx.one;
    unpack acc
end

(* The division ladder's fixed 4-bit window. *)
let window_bits = 4

(* Exponents up to this length take a plain square-and-multiply ladder
   with a division per product: no Montgomery conversion, no table. *)
let tiny_exponent_bits = 8

(* Threshold below which the Montgomery setup (one division + table) is
   not worth it. *)
let mont_threshold_bits = 64

(* moduli the Montgomery kernels serve: odd, above the setup threshold
   and within the lazy-carry bound; every other modulus takes the
   division ladder *)
let mont_ok m =
  let nbits = num_bits m in
  testbit m 0 && nbits >= mont_threshold_bits
  && nbits <= Montgomery.max_limbs * Montgomery.bits

(* The pre-Montgomery implementation: windowed ladder with a Knuth
   division after every multiplication.  Still used for the moduli
   [mont_ok] rejects, and exposed as [pow_mod_div] for the E8 ablation
   and as the differential reference of the Montgomery kernels. *)
let windowed_div_pow b e m nbits =
  let table = Array.make (1 lsl window_bits) one in
  for i = 1 to (1 lsl window_bits) - 1 do
    table.(i) <- mul_mod table.(i - 1) b m
  done;
  let nwindows = (nbits + window_bits - 1) / window_bits in
  let acc = ref (one_mod m) in
  for w = nwindows - 1 downto 0 do
    for _ = 1 to window_bits do acc := mul_mod !acc !acc m done;
    let digit = ref 0 in
    for k = window_bits - 1 downto 0 do
      let bit = (w * window_bits) + k in
      digit := (!digit lsl 1) lor (if testbit e bit then 1 else 0)
    done;
    if !digit <> 0 then acc := mul_mod !acc table.(!digit) m
  done;
  !acc

let pow_mod_div b e m =
  if m.sign <= 0 then raise Division_by_zero;
  if e.sign < 0 then invalid_arg "Bigint.pow_mod_div: negative exponent";
  Obs.incr pow_mod_counter;
  if !Prof.active then Prof.charge Prof.Modexp ~words:(num_bits e);
  windowed_div_pow (erem b m) e m (num_bits e)

(* ------------------------------------------------------------------ *)
(* Simultaneous multi-exponentiation: one squaring chain for every     *)
(* base.  A product Π bᵢ^eᵢ mod m is evaluated inside the Montgomery   *)
(* domain by ONE accumulator that is squared once per exponent bit,    *)
(* from the top bit down, and ONE domain exit.  Every term cuts its    *)
(* exponent into windows of odd value v; a window whose lowest bit is  *)
(* i multiplies the accumulator by a table entry at chain step i.      *)
(*   - A dynamic base gets a per-call table of its odd powers b, b³,   *)
(*     ..., b^(2^w - 1), and right-to-left sliding windows of width w  *)
(*     ([slide_width]) over its whole exponent.                        *)
(*   - A declared base (the scheme generators g, h, a, y ...) or the   *)
(*     inverse of one gets a table per 32-bit chunk c of its exponent, *)
(*     built on first use: the 32 odd powers of base^(2^(32c)).        *)
(*     Windows of width 6 never cross a chunk boundary, so chunk c's   *)
(*     windows land in the chain's last 32 steps: a fixed term costs   *)
(*     about one product per 7 bits and shares at most 31 squarings    *)
(*     with the rest of the product.                                   *)
(* The accumulator starts empty: the first window is a copy, and no    *)
(* product with 1 or squaring of 1 is paid.  [pow_mod] is the          *)
(* one-term case without the tables.                                   *)
(* ------------------------------------------------------------------ *)

type multi_mode = Folded | Multi | Multi_fixed

(* ablation switch for bench E3/E8: Folded replays the historical
   one-pow_mod-per-term evaluation, Multi is Straus without the
   declared bases' tables, Multi_fixed is the default production path *)
let multi_mode_ref = ref Multi_fixed
let set_multi_mode m = multi_mode_ref := m
let multi_mode () = !multi_mode_ref

(* A fixed base's chunk stride and window width.  Over strides 16-128
   and widths 4-6, stride 32 with width 6 takes the fewest products for
   one warm ACJT sign plus three verifies; stride 64 holds half the
   table memory for 0.6% more products, stride 16 twice the memory for
   2% more. *)
let fb_stride = 32
let fb_width = 6

(* The registry of declared fixed bases: schemes declare the bases that
   outlive a session (a group key's generators, the Schnorr g, the
   tracing key) where the key is built or imported.  A declared modulus
   keeps its Montgomery context here; any other modulus builds a fresh
   one per call.  Keyed by value, so a key restored from bytes finds the
   tables its original built. *)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal and hash = Hashtbl.hash
end)

type fixed = {
  fx_base : t;  (* reduced into [0, modulus) *)
  mutable fx_inv : fixed option;  (* its inverse, for negative exponents *)
  (* fx_chunks.(c).(i) = base^((2i+1)·2^(fb_stride·c)) in the Montgomery
     domain: 2^(fb_width-1) = 32 entries of k limbs per 32 exponent bits
     (the 4-bit window tables this replaces held 15 per 4 bits).  Built
     on first use and grown chunk by chunk as longer exponents arrive;
     the entries are never written once built *)
  mutable fx_chunks : int array array array;
}

type declared = { ctx : Montgomery.ctx; bases : fixed Tbl.t }

let registry : declared Tbl.t = Tbl.create 4

let fixed_of b = { fx_base = b; fx_inv = None; fx_chunks = [||] }

let declare_fixed_bases ~modulus bases =
  if mont_ok modulus then begin
    let d =
      match Tbl.find_opt registry modulus with
      | Some d -> d
      | None ->
        let d = { ctx = Montgomery.create modulus; bases = Tbl.create 8 } in
        Tbl.add registry modulus d;
        d
    in
    (* a base already reduced skips the division: each DGKA instance
       declares its group's g again *)
    List.iter
      (fun b ->
        let b =
          if b.sign >= 0 && compare b modulus < 0 then b else erem b modulus
        in
        if not (Tbl.mem d.bases b) then Tbl.add d.bases b (fixed_of b))
      bases
  end

let ctx_of m = function Some d -> d.ctx | None -> Montgomery.create m
let ctx_for m = ctx_of m (Tbl.find_opt registry m)
let mont_cache_size () = Tbl.length registry

(* every declared base and every inverse taken of one *)
let fold_fixed f acc =
  Tbl.fold
    (fun _ d acc ->
      Tbl.fold
        (fun _ fx acc ->
          let acc = f acc fx in
          match fx.fx_inv with Some inv -> f acc inv | None -> acc)
        d.bases acc)
    registry acc

let fixed_base_cache_size () =
  fold_fixed (fun n fx -> if Array.length fx.fx_chunks > 0 then n + 1 else n) 0

let fixed_base_table_words () =
  fold_fixed
    (fun acc fx ->
      Array.fold_left
        (Array.fold_left (fun acc x -> acc + Array.length x))
        acc fx.fx_chunks)
    0

let reset_caches () = fold_fixed (fun () fx -> fx.fx_chunks <- [||]) ()

(* join the bench harness's fixture-isolation point: [Obs.reset_all]
   between experiments also drops the built tables *)
let () = Obs.on_reset reset_caches

(* [p], p³, ..., p^(2n-1): one squaring and n - 1 products; entry 0 is
   [p] itself *)
let odd_powers ctx p n =
  let t = Array.make n p in
  if n > 1 then begin
    let p2 = Array.make ctx.Montgomery.k 0 in
    Montgomery.sqr_into ctx p2 p;
    for i = 1 to n - 1 do
      let x = Array.make ctx.Montgomery.k 0 in
      Montgomery.mul_into ctx x t.(i - 1) p2;
      t.(i) <- x
    done
  end;
  t

let chunks_for bits = (bits + fb_stride - 1) / fb_stride

(* [chunks] grown to [nchunks] chunk tables of the 2^(width-1) odd
   powers of base^(2^(32c)) ([base] reduced); chunk c's base is chunk
   c-1's entry 0 squared 32 times in a copy.  The declared bases' tables
   and [pow_mod_many]'s per-call table are both built here. *)
let grow_chunks ctx ~width base chunks nchunks =
  let cur = Array.length chunks in
  if cur >= nchunks then chunks
  else begin
    let grown = Array.make nchunks [||] in
    Array.blit chunks 0 grown 0 cur;
    for c = cur to nchunks - 1 do
      let p =
        if c = 0 then Montgomery.to_mont ctx base
        else begin
          let q = Array.copy grown.(c - 1).(0) in
          for _ = 1 to fb_stride do Montgomery.sqr_into ctx q q done;
          q
        end
      in
      grown.(c) <- odd_powers ctx p (1 lsl (width - 1))
    done;
    grown
  end

(* A dynamic base's window width: the w that minimises the table's
   2^(w-1) products plus about bits/(w+1) window products.  The
   crossover from w to w+1 sits at 2^(w-1)(w+1)(w+2) bits. *)
let slide_width bits =
  if bits < 24 then 2
  else if bits < 80 then 3
  else if bits < 240 then 4
  else if bits < 672 then 5
  else if bits < 1792 then 6
  else 7

(* [w] <= 7 bits of [mag] from bit [i] up, zero past the top limb *)
let bits_at mag i w =
  let li = i / limb_bits and off = i mod limb_bits in
  let n = Array.length mag in
  let v = if li < n then mag.(li) lsr off else 0 in
  let v =
    if off + w > limb_bits && li + 1 < n then
      v lor (mag.(li + 1) lsl (limb_bits - off))
    else v
  in
  v land ((1 lsl w) - 1)

(* Right-to-left sliding windows over bits [lo, hi) of [mag], none
   crossing [hi]: a window starts at each set bit i not yet covered,
   spans min(width, hi - i) bits, and has odd value v;
   [emit (i - lo) table.(v / 2)] for each, lowest window first. *)
let slide mag ~lo ~hi ~width table emit =
  let i = ref lo in
  while !i < hi do
    if bits_at mag !i 1 = 0 then incr i
    else begin
      let w = Stdlib.min width (hi - !i) in
      emit (!i - lo) table.(bits_at mag !i w lsr 1);
      i := !i + w
    end
  done

(* a chunked term's windows: chunk c's, of width [width] over its 32
   bits of [e], into the bucket of their chain step *)
let drop_chunked fixed_at chunks ~width e =
  for c = 0 to chunks_for (num_bits e) - 1 do
    slide e.mag ~lo:(c * fb_stride) ~hi:((c + 1) * fb_stride) ~width chunks.(c)
      (fun i x -> fixed_at.(i) <- x :: fixed_at.(i))
  done

(* The one chain: [fixed_at] holds the chunked terms' windows, one
   bucket per chain step below 32, and [dyn] each dynamic term's
   windows as a list of (chain step, table entry), topmost first.  The
   accumulator is a fresh array that the first window is copied into,
   so no table entry is ever written. *)
let run_chain ctx fixed_at dyn =
  let k = ctx.Montgomery.k in
  let top = ref (-1) in
  Array.iter (function (i, _) :: _ -> top := Stdlib.max !top i | [] -> ()) dyn;
  Array.iteri
    (fun i l -> match l with [] -> () | _ :: _ -> top := Stdlib.max !top i)
    fixed_at;
  let acc = Array.make k 0 and started = ref false in
  let mul_in x =
    if !started then Montgomery.mul_into ctx acc acc x
    else begin
      Array.blit x 0 acc 0 k;
      started := true
    end
  in
  for i = !top downto 0 do
    if !started then Montgomery.sqr_into ctx acc acc;
    for j = 0 to Array.length dyn - 1 do
      match dyn.(j) with
      | (at, x) :: rest when at = i ->
        mul_in x;
        dyn.(j) <- rest
      | _ -> ()
    done;
    if i < fb_stride then List.iter mul_in fixed_at.(i)
  done;
  Montgomery.from_mont ctx acc

(* Straus/Shamir core: bases reduced, exponents positive, modulus
   [mont_ok].  A term that carries a declared base's entry is a chunked
   term over its tables, built or grown for the exponent on the way;
   every other term is dynamic, with a per-call table of its odd powers
   and sliding windows over its whole exponent.  Nothing else allocated
   per call is longer than the 32 buckets, the odd-power tables and the
   k-limb residues, so below 257-limb moduli a call stays in the minor
   heap. *)
let mont_multi ctx terms =
  let fixed_at = Array.make fb_stride [] in
  let dyn =
    List.filter_map
      (fun (fx, b, e) ->
        let nbits = num_bits e in
        match fx with
        | Some fx ->
          fx.fx_chunks <-
            grow_chunks ctx ~width:fb_width b fx.fx_chunks (chunks_for nbits);
          drop_chunked fixed_at fx.fx_chunks ~width:fb_width e;
          None
        | None ->
          let w = slide_width nbits in
          let table = odd_powers ctx (Montgomery.to_mont ctx b) (1 lsl (w - 1)) in
          let ws = ref [] in
          slide e.mag ~lo:0 ~hi:nbits ~width:w table (fun i x ->
              ws := (i, x) :: !ws);
          Some !ws)
      terms
    |> Array.of_list
  in
  run_chain ctx fixed_at dyn

(* dispatch for a reduced base and non-negative exponent; shared by
   [pow_mod] and the folded arm of [pow_mod_multi] *)
let pow_mod_body b e m =
  let nbits = num_bits e in
  if nbits <= tiny_exponent_bits then begin
    let acc = ref (one_mod m) in
    for i = nbits - 1 downto 0 do
      acc := mul_mod !acc !acc m;
      if testbit e i then acc := mul_mod !acc b m
    done;
    !acc
  end
  else if mont_ok m then
    (* odd modulus, real exponent: the Montgomery chain with one dynamic
       base, on the declared modulus's context or a fresh one *)
    mont_multi (ctx_for m) [ (None, b, e) ]
  else windowed_div_pow b e m nbits

let rec pow_mod b e m =
  if m.sign <= 0 then raise Division_by_zero;
  if e.sign < 0 then
    (* invert once, then take the normal positive-exponent path — the
       counter bump and Modexp charge happen in the recursive call, so
       every [pow_mod] counts exactly once *)
    let inv = try invert b m with Not_found ->
      invalid_arg "Bigint.pow_mod: base not invertible for negative exponent"
    in
    pow_mod inv (neg e) m
  else begin
    Obs.incr pow_mod_counter;
    if !Prof.active then Prof.charge Prof.Modexp ~words:(num_bits e);
    pow_mod_body (erem b m) e m
  end

(* One base, many exponents ([pow_mod_many]): a per-call chunk table
   of the base, built by [grow_chunks] at a width w of its own, serves
   every exponent through [run_chain]'s buckets, unless one [pow_mod]
   per exponent costs no more.  The choice counts products the way
   [slide_width] does:
   - a [pow_mod] of a b-bit exponent: b squarings, its odd-power table
     and about b/(w'+1) windows, w' = [slide_width b];
   - the table: 32 squarings per chunk past the first and 2^(w-1) odd
     powers per chunk;
   - an exponent over it: at most 31 squarings and about b/(w+1)
     windows.
   One exponent always takes [pow_mod]; at 409 bits the table pays from
   two exponents up. *)
let dynamic_cost bits =
  let w = slide_width bits in
  bits + (1 lsl (w - 1)) + (bits / (w + 1))

let many_width ~count bits =
  let nchunks = chunks_for bits in
  let cost w =
    (fb_stride * (nchunks - 1)) + (nchunks lsl (w - 1))
    + (count * (fb_stride + (bits / (w + 1))))
  in
  let best = ref 2 in
  for w = 3 to fb_width do if cost w < cost !best then best := w done;
  if count >= 2 && cost !best < count * dynamic_cost bits then Some !best
  else None

let pow_mod_many b es m =
  if m.sign <= 0 then raise Division_by_zero;
  if List.exists (fun e -> e.sign < 0) es then
    invalid_arg "Bigint.pow_mod_many: negative exponent";
  let bits = List.fold_left (fun acc e -> Stdlib.max acc (num_bits e)) 0 es in
  match if mont_ok m then many_width ~count:(List.length es) bits else None with
  | None -> Seq.map (fun e -> pow_mod b e m) (List.to_seq es)
  | Some width ->
    let ctx = ctx_for m in
    (* built on the first power asked for, never kept past the call *)
    let chunks = lazy (grow_chunks ctx ~width (erem b m) [||] (chunks_for bits)) in
    Seq.map
      (fun e ->
        Obs.incr pow_mod_counter;
        if !Prof.active then Prof.charge Prof.Modexp ~words:(num_bits e);
        if is_zero e then one_mod m
        else begin
          let fixed_at = Array.make fb_stride [] in
          drop_chunked fixed_at (Lazy.force chunks) ~width e;
          run_chain ctx fixed_at [||]
        end)
      (List.to_seq es)

(* a declared base's inverse, taken at its first negative exponent and
   declared with the base: it gets chunk tables of its own *)
let inverse_of fx m =
  match fx.fx_inv with
  | Some inv -> inv
  | None ->
    let inv = fixed_of (invert fx.fx_base m) in
    fx.fx_inv <- Some inv;
    inv

let pow_mod_multi pairs m =
  if m.sign <= 0 then raise Division_by_zero;
  Obs.incr pow_mod_counter;
  if !Prof.active then
    Prof.charge Prof.Multi_exp
      ~words:(List.fold_left (fun a (_, e) -> a + num_bits e) 0 pairs);
  let mode = !multi_mode_ref in
  let declared = Tbl.find_opt registry m in
  (* the entry of a declared base, unless an ablation arm is running *)
  let fixed rb =
    match (mode, declared) with
    | Multi_fixed, Some d -> Tbl.find_opt d.bases rb
    | _ -> None
  in
  let zero_factor = ref false in
  let terms =
    List.filter_map
      (fun (b, e) ->
        if is_zero e then None
        else begin
          let rb = erem b m in
          (* 1^e = 1 for every e, negative ones included: the term goes
             before any inversion and builds no table *)
          if equal rb one then None
          else if e.sign < 0 then begin
            try
              match fixed rb with
              | Some fx ->
                let inv = inverse_of fx m in
                Some (Some inv, inv.fx_base, neg e)
              | None -> Some (None, invert rb m, neg e)
            with Not_found ->
              invalid_arg
                "Bigint.pow_mod_multi: base not invertible for negative exponent"
          end
          else if is_zero rb then begin
            zero_factor := true;
            None
          end
          else Some (fixed rb, rb, e)
        end)
      pairs
  in
  if !zero_factor then zero
  else
    match terms with
    | [] -> one_mod m
    | terms ->
      if mode <> Folded && mont_ok m then mont_multi (ctx_of m declared) terms
      else
        (* modulus not [mont_ok] (or the Folded ablation arm): fold of
           independent windowed ladders, one mul_mod between terms *)
        List.fold_left
          (fun acc (_, b, e) -> mul_mod acc (pow_mod_body b e m) m)
          (one_mod m) terms

(* ------------------------------------------------------------------ *)
(* String and byte conversions                                         *)
(* ------------------------------------------------------------------ *)

let chunk = 10_000_000 (* 10^7 < 2^26 *)
let chunk_digits = 7

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = Nat.div_rem_limb mag chunk in
        go q (r :: acc)
      end
    in
    (match go t.mag [] with
     | [] -> Buffer.add_char buf '0'
     | hd :: tl ->
       if t.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int hd);
       List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%0*d" chunk_digits d)) tl);
    Buffer.contents buf
  end

let to_hex t =
  if t.sign = 0 then "0x0"
  else begin
    let nibbles = (num_bits t + 3) / 4 in
    let buf = Buffer.create (nibbles + 3) in
    if t.sign < 0 then Buffer.add_char buf '-';
    Buffer.add_string buf "0x";
    let started = ref false in
    for i = nibbles - 1 downto 0 do
      let limb = (i * 4) / limb_bits and off = (i * 4) mod limb_bits in
      let v =
        if limb >= Array.length t.mag then 0
        else begin
          let lo = (t.mag.(limb) lsr off) land 0xf in
          if off > limb_bits - 4 && limb + 1 < Array.length t.mag then
            lo lor ((t.mag.(limb + 1) lsl (limb_bits - off)) land 0xf)
          else lo
        end
      in
      if v <> 0 || !started || i = 0 then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[v]
      end
    done;
    Buffer.contents buf
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let hex = len - start > 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X') in
  let digits_start = if hex then start + 2 else start in
  if digits_start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  if hex then begin
    let sixteen = of_int 16 in
    for i = digits_start to len - 1 do
      let c = Char.lowercase_ascii s.[i] in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | '_' -> -1
        | _ -> invalid_arg "Bigint.of_string: bad hex digit"
      in
      if d >= 0 then acc := add (mul !acc sixteen) (of_int d)
    done
  end else begin
    let ten = of_int 10 in
    for i = digits_start to len - 1 do
      match s.[i] with
      | '0' .. '9' as c -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Bigint.of_string: bad decimal digit"
    done
  end;
  if negative then neg !acc else !acc

(* Both byte conversions make one pass from the least significant end,
   moving 8 bits per step between the bytes and the 26-bit limbs
   through an accumulator of fewer than 34 bits. *)
let of_bytes_be s =
  let len = String.length s in
  let mag = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and k = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      mag.(!k) <- !acc land mask;
      incr k;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits
    end
  done;
  if !bits > 0 then mag.(!k) <- !acc;
  make 1 mag

let to_bytes_be ?len t =
  if t.sign < 0 then invalid_arg "Bigint.to_bytes_be: negative value";
  let nbytes = (num_bits t + 7) / 8 in
  let total =
    match len with
    | None -> nbytes
    | Some l ->
      if l < nbytes then invalid_arg "Bigint.to_bytes_be: length too small";
      l
  in
  let out = Bytes.make total '\000' in
  let first = total - nbytes in
  let acc = ref 0 and bits = ref 0 and pos = ref (total - 1) in
  for i = 0 to Array.length t.mag - 1 do
    acc := !acc lor (t.mag.(i) lsl !bits);
    bits := !bits + limb_bits;
    while !bits >= 8 && !pos >= first do
      Bytes.set out !pos (Char.chr (!acc land 0xff));
      decr pos;
      acc := !acc lsr 8;
      bits := !bits - 8
    done
  done;
  (* the top byte may hold fewer than 8 bits *)
  if !pos >= first then Bytes.set out !pos (Char.chr !acc);
  Bytes.to_string out

let random_bits rng n =
  if n <= 0 then zero
  else begin
    let nbytes = (n + 7) / 8 in
    let raw = rng nbytes in
    let v = of_bytes_be raw in
    let excess = (nbytes * 8) - n in
    shift_right v excess
  end

let random_below rng bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound must be positive";
  let n = num_bits bound in
  let rec draw () =
    let v = random_bits rng n in
    if compare v bound < 0 then v else draw ()
  in
  draw ()

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = erem
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
