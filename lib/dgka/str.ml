module B = Bigint

let name = "str"

let start_counter = Obs.counter ~help:"DGKA protocol instances started" "dgka.start"
let msg_counter = Obs.counter ~help:"DGKA protocol messages processed" "dgka.msg"

type outcome = { key : string; sid : string }

type instance = {
  grp : Groupgen.schnorr_group;
  self : int;
  n : int;
  r : B.t;
  bk : B.t option array;  (* round-1 blinded exponents *)
  mutable sponsored : bool;  (* sponsor: round 2 sent *)
  mutable pending2 : string list option;  (* str2 seen before round 1 done *)
  mutable out : outcome option;
  mutable dead : bool;
}

let create ~rng ~group ~self ~n =
  if n < 2 then invalid_arg "Str.create: need at least two parties";
  if self < 0 || self >= n then invalid_arg "Str.create: bad position";
  (* g recurs in every session: declared, it gets fixed-base tables *)
  B.declare_fixed_bases ~modulus:group.Groupgen.p [ group.Groupgen.g ];
  { grp = group;
    self;
    n;
    r = Groupgen.schnorr_exponent ~rng group;
    bk = Array.make n None;
    sponsored = false;
    pending2 = None;
    out = None;
    dead = false;
  }

let elem_len t = (B.num_bits t.grp.Groupgen.p + 7) / 8
let enc t v = B.to_bytes_be ~len:(elem_len t) v

let result t = t.out
let aborted t = t.dead

let all_present arr = Array.for_all Option.is_some arr

(* Total view of the round-1 slots: [None] until every blinded exponent
   arrived (the [B.one] default is unreachable past that check). *)
let filled arr =
  if all_present arr then Some (Array.map (Option.value ~default:B.one) arr)
  else None

let poison t reason =
  Shs_error.reject ~layer:"dgka" reason ~args:[ ("proto", name) ];
  t.dead <- true;
  []

let finish t ~k ~sid_material =
  let sid = Sha256.digest_list ("str-sid" :: sid_material) in
  let key = Hkdf.derive ~salt:sid ~ikm:(enc t k) ~info:"str-session-key" ~len:32 () in
  t.out <- Some { key; sid }

let sid_material t bk bgks = Array.to_list (Array.map (enc t) bk) @ bgks

(* Sponsor: fold the whole chain — K_0 = r_0, K_i = BK_i^{K_{i-1}} — and
   broadcast the blinded intermediates g^{K_{i-1}} that party i needs. *)
let sponsor_round t =
  match filled t.bk with
  | None -> []
  | Some bk ->
    t.sponsored <- true;
    let p = t.grp.Groupgen.p in
    let rec chain i k acc =
      if i = t.n then (k, List.rev acc)
      else begin
        let bgk = B.pow_mod_multi [ (t.grp.Groupgen.g, k) ] p in
        chain (i + 1) (B.pow_mod bk.(i) k p) (enc t bgk :: acc)
      end
    in
    let k_final, bgks = chain 1 t.r [] in
    finish t ~k:k_final ~sid_material:(sid_material t bk bgks);
    [ (None, Wire.encode ~tag:"str2" bgks) ]

(* Non-sponsor: recover K_self from g^{K_{self-1}}, fold the rest. *)
let process_downflow t bgks =
  let vals = List.map B.of_bytes_be bgks in
  if not (List.for_all (Groupgen.in_subgroup t.grp) vals) then
    ignore (poison t Shs_error.Malformed)
  else
    match (filled t.bk, List.nth_opt vals (t.self - 1)) with
    | Some bk, Some mine ->
      let p = t.grp.Groupgen.p in
      let k_self = B.pow_mod mine t.r p in
      let rec fold i k =
        if i = t.n then k else fold (i + 1) (B.pow_mod bk.(i) k p)
      in
      let k_final = fold (t.self + 1) k_self in
      finish t ~k:k_final ~sid_material:(sid_material t bk bgks)
    | _ ->
      (* the callers established both, but reject rather than trust that *)
      ignore (poison t Shs_error.Malformed)

let start t =
  Obs.incr start_counter;
  Prof.frame "dgka.str.start" @@ fun () ->
  let bk_self = B.pow_mod_multi [ (t.grp.Groupgen.g, t.r) ] t.grp.Groupgen.p in
  t.bk.(t.self) <- Some bk_self;
  [ (None, Wire.encode ~tag:"str1" [ enc t bk_self ]) ]

let receive t ~src payload =
  Obs.incr msg_counter;
  Prof.frame "dgka.str.msg" @@ fun () ->
  if t.dead || t.out <> None then []
  else
    match Wire.decode payload with
    | Some ("str1", [ bytes ]) ->
      if src < 0 || src >= t.n || src = t.self then poison t Shs_error.Forged
      else begin
        let v = B.of_bytes_be bytes in
        match t.bk.(src) with
        | Some old when not (B.equal old v) -> poison t Shs_error.Replayed
        | Some _ -> []
        | None ->
          if not (Groupgen.in_subgroup t.grp v) then poison t Shs_error.Malformed
          else begin
            t.bk.(src) <- Some v;
            if all_present t.bk then begin
              if t.self = 0 && not t.sponsored then sponsor_round t
              else begin
                (match t.pending2 with
                 | Some bgks when t.self <> 0 -> process_downflow t bgks
                 | _ -> ());
                []
              end
            end
            else []
          end
      end
    | Some ("str2", bgks) ->
      if src <> 0 || t.self = 0 then poison t Shs_error.Forged
      else if List.length bgks <> t.n - 1 then poison t Shs_error.Malformed
      else if not (all_present t.bk) then begin
        (* adversarial reordering can deliver the downflow before the last
           round-1 broadcast: stash it *)
        t.pending2 <- Some bgks;
        []
      end
      else begin
        process_downflow t bgks;
        []
      end
    | Some _ ->
      Shs_error.reject ~layer:"dgka" Shs_error.Malformed
        ~args:[ ("proto", name) ];
      []
    | None -> poison t Shs_error.Malformed
