module B = Bigint

let small_primes =
  let limit = 10_000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

let trial_division n =
  let n = B.abs n in
  match B.to_int_opt n with
  | Some v when v <= 10_000 ->
    (* small enough to decide outright *)
    v >= 2 && Array.exists (fun p -> p = v) small_primes
  | _ ->
    Array.for_all (fun p -> B.erem_int n p <> 0) small_primes

(* true iff [a] proves odd [n] composite. *)
let miller_rabin_witness n a =
  let n1 = B.pred n in
  (* n - 1 = d * 2^s with d odd *)
  let rec split d s = if B.is_even d then split (B.shift_right d 1) (s + 1) else (d, s) in
  let d, s = split n1 0 in
  let x = B.pow_mod a d n in
  if B.equal x B.one || B.equal x n1 then false
  else begin
    let rec squares x i =
      if i >= s - 1 then true (* composite *)
      else begin
        let x = B.mul_mod x x n in
        if B.equal x n1 then false else squares x (i + 1)
      end
    in
    squares x 0
  end

let fixed_witnesses = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

(* Below this bound the fixed witness set is a deterministic test
   (Sorenson & Webster): 3,317,044,064,679,887,385,961,981. *)
let deterministic_bound = B.of_string "3317044064679887385961981"

let is_probable_prime ?rng ?(rounds = 40) n =
  let n = B.abs n in
  if B.compare n B.two < 0 then false
  else if B.equal n B.two then true
  else if B.is_even n then false
  else begin
    match B.to_int_opt n with
    | Some v when v <= 10_000 -> Array.exists (fun p -> p = v) small_primes
    | _ ->
      if not (trial_division n) then false
      else begin
        let fixed_ok =
          List.for_all
            (fun a ->
              let a = B.of_int a in
              B.compare a (B.pred n) >= 0 || not (miller_rabin_witness n a))
            fixed_witnesses
        in
        if not fixed_ok then false
        else if B.compare n deterministic_bound < 0 then true
        else begin
          match rng with
          | None -> true (* fixed witnesses only: still < 4^-12 error *)
          | Some rng ->
            let three = B.of_int 3 in
            let span = B.sub n three in
            let rec rounds_ok i =
              i >= rounds
              || begin
                let a = B.add B.two (B.random_below rng span) in
                (not (miller_rabin_witness n a)) && rounds_ok (i + 1)
              end
            in
            rounds_ok 0
        end
      end
  end

let jacobi a n =
  if B.sign n <= 0 || B.is_even n then
    invalid_arg "Primality.jacobi: modulus must be odd and positive";
  B.jacobi a n
