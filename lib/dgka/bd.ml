module B = Bigint

let name = "bd"

let start_counter = Obs.counter ~help:"DGKA protocol instances started" "dgka.start"
let msg_counter = Obs.counter ~help:"DGKA protocol messages processed" "dgka.msg"

type outcome = { key : string; sid : string }

type instance = {
  grp : Groupgen.schnorr_group;
  self : int;
  n : int;
  r : B.t;  (* own exponent *)
  z : B.t option array;
  x : B.t option array;
  mutable sent_x : bool;
  mutable out : outcome option;
  mutable dead : bool;
}

let create ~rng ~group ~self ~n =
  if n < 2 then invalid_arg "Bd.create: need at least two parties";
  if self < 0 || self >= n then invalid_arg "Bd.create: bad position";
  { grp = group;
    self;
    n;
    r = Groupgen.schnorr_exponent ~rng group;
    z = Array.make n None;
    x = Array.make n None;
    sent_x = false;
    out = None;
    dead = false;
  }

let elem_len t = (B.num_bits t.grp.Groupgen.p + 7) / 8
let enc t v = B.to_bytes_be ~len:(elem_len t) v

let result t = t.out
let aborted t = t.dead

let all_present arr = Array.for_all Option.is_some arr

(* Total view of a slot array: [None] until every slot is filled.  The
   callers below only fire once [all_present] holds, but the decode path
   stays total either way (the [B.one] default is unreachable). *)
let filled arr =
  if all_present arr then Some (Array.map (Option.value ~default:B.one) arr)
  else None

let start t =
  Obs.incr start_counter;
  Prof.frame "dgka.bd.start" @@ fun () ->
  (* g recurs in every session: its fixed-base table serves z_i *)
  let z_self = B.pow_mod_multi [ (t.grp.Groupgen.g, t.r) ] t.grp.Groupgen.p in
  t.z.(t.self) <- Some z_self;
  [ (None, Wire.encode ~tag:"bd1" [ enc t z_self ]) ]

(* Once every z is known: X_i = (z_{i+1} · z_{i-1}^{-1})^{r_i}. *)
let emit_x t =
  match filled t.z with
  | None -> []
  | Some z ->
    let p = t.grp.Groupgen.p in
    let get arr i = arr.((i + t.n) mod t.n) in
    let z_next = get z (t.self + 1) and z_prev = get z (t.self - 1) in
    let ratio = B.mul_mod z_next (B.invert z_prev p) p in
    let x_self = B.pow_mod ratio t.r p in
    t.x.(t.self) <- Some x_self;
    t.sent_x <- true;
    [ (None, Wire.encode ~tag:"bd2" [ enc t x_self ]) ]

(* K = z_{i-1}^{n·r_i} · Π_{j=0}^{n-2} X_{i+j}^{n-1-j}, as the product
   of the running products a_0 = z_{i-1}^{r_i}, a_{j+1} = a_j · X_{i+j}:
   one exponentiation and 2(n - 1) multiplications. *)
let finish t =
  match (filled t.z, filled t.x) with
  | Some z, Some x ->
    let p = t.grp.Groupgen.p in
    let get arr i = arr.((i + t.n) mod t.n) in
    let a = ref (B.pow_mod (get z (t.self - 1)) t.r p) in
    let k = ref !a in
    for j = 0 to t.n - 2 do
      a := B.mul_mod !a (get x (t.self + j)) p;
      k := B.mul_mod !k !a p
    done;
    let transcript =
      let buf = Buffer.create 256 in
      Array.iter (fun zv -> Buffer.add_string buf (enc t zv)) z;
      Array.iter (fun xv -> Buffer.add_string buf (enc t xv)) x;
      Buffer.contents buf
    in
    let sid = Sha256.digest_list [ "bd-sid"; transcript ] in
    let key =
      Hkdf.derive ~salt:sid ~ikm:(enc t !k) ~info:"bd-session-key" ~len:32 ()
    in
    t.out <- Some { key; sid }
  | _ -> ()

(* X values may legitimately equal 1 (always, when n = 2), so bd2 uses a
   membership check that admits the identity; z values must not be 1. *)
let in_subgroup_or_one t v =
  B.equal v B.one || Groupgen.in_subgroup t.grp v

(* A slot violation kills the instance (the BD key needs every honest
   contribution, so there is nothing useful to salvage); the rejection
   is counted so an attack shows up in the metrics even though the
   observable behavior — an aborted Phase I — matches an honest abort. *)
let poison t reason =
  Shs_error.reject ~layer:"dgka" reason ~args:[ ("proto", name) ];
  t.dead <- true;
  false

let store t arr ~allow_one ~src v =
  if src < 0 || src >= t.n || src = t.self then poison t Shs_error.Forged
  else
    match arr.(src) with
    | Some old when not (B.equal old v) -> poison t Shs_error.Replayed
    | Some _ -> false (* duplicate: ignore *)
    | None ->
      let ok =
        if allow_one then in_subgroup_or_one t v else Groupgen.in_subgroup t.grp v
      in
      if ok then begin
        arr.(src) <- Some v;
        true
      end
      else poison t Shs_error.Malformed

let receive t ~src payload =
  Obs.incr msg_counter;
  Prof.frame "dgka.bd.msg" @@ fun () ->
  if t.dead || t.out <> None then []
  else
    match Wire.decode payload with
    | Some ("bd1", [ bytes ]) ->
      let fresh = store t t.z ~allow_one:false ~src (B.of_bytes_be bytes) in
      if fresh && all_present t.z && not t.sent_x then begin
        let msgs = emit_x t in
        (* n = 2: our own X completes the round immediately *)
        if all_present t.x then finish t;
        msgs
      end
      else []
    | Some ("bd2", [ bytes ]) ->
      let fresh = store t t.x ~allow_one:true ~src (B.of_bytes_be bytes) in
      if fresh && t.sent_x && all_present t.x then finish t;
      []
    | Some _ ->
      (* unknown tag or wrong arity for this protocol: ignore (the frame
         may belong to a different layer), but count it *)
      Shs_error.reject ~layer:"dgka" Shs_error.Malformed
        ~args:[ ("proto", name) ];
      []
    | None -> ignore (poison t Shs_error.Malformed); []
