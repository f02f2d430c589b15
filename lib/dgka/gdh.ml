module B = Bigint

let name = "gdh"

let start_counter = Obs.counter ~help:"DGKA protocol instances started" "dgka.start"
let msg_counter = Obs.counter ~help:"DGKA protocol messages processed" "dgka.msg"

type outcome = { key : string; sid : string }

type instance = {
  grp : Groupgen.schnorr_group;
  self : int;
  n : int;
  r : B.t;
  mutable out : outcome option;
  mutable dead : bool;
  mutable done_up : bool;
  mutable last_up : (int * string) option;  (* accepted upflow, for dup detection *)
}

let create ~rng ~group ~self ~n =
  if n < 2 then invalid_arg "Gdh.create: need at least two parties";
  if self < 0 || self >= n then invalid_arg "Gdh.create: bad position";
  (* g recurs in every session: declared, it gets fixed-base tables *)
  B.declare_fixed_bases ~modulus:group.Groupgen.p [ group.Groupgen.g ];
  { grp = group;
    self;
    n;
    r = Groupgen.schnorr_exponent ~rng group;
    out = None;
    dead = false;
    done_up = false;
    last_up = None;
  }

let elem_len t = (B.num_bits t.grp.Groupgen.p + 7) / 8
let enc t v = B.to_bytes_be ~len:(elem_len t) v

let result t = t.out
let aborted t = t.dead

let finish t ~k ~downflow_bytes =
  let sid = Sha256.digest_list ("gdh-sid" :: downflow_bytes) in
  let key = Hkdf.derive ~salt:sid ~ikm:(enc t k) ~info:"gdh-session-key" ~len:32 () in
  t.out <- Some { key; sid }

let start t =
  Obs.incr start_counter;
  Prof.frame "dgka.gdh.start" @@ fun () ->
  if t.self <> 0 then []
  else begin
    t.done_up <- true;
    let p = t.grp.Groupgen.p in
    let g = t.grp.Groupgen.g in
    let full = B.pow_mod_multi [ (g, t.r) ] p in
    (* upflow to party 1: [missing r_0; full] *)
    [ (Some 1, Wire.encode ~tag:"gdh-up" [ enc t g; enc t full ]) ]
  end

let valid_elem t v = Groupgen.in_subgroup t.grp v

let poison t reason =
  Shs_error.reject ~layer:"dgka" reason ~args:[ ("proto", name) ];
  t.dead <- true;
  []

let receive t ~src payload =
  Obs.incr msg_counter;
  Prof.frame "dgka.gdh.msg" @@ fun () ->
  if t.dead || t.out <> None then []
  else
    match Wire.decode payload with
    | Some ("gdh-up", fields) ->
      (* a duplicated or retransmitted copy of the upflow we already
         processed is channel noise, not an attack: ignore it *)
      if t.done_up && t.last_up = Some (src, payload) then []
      (* otherwise expected only from our predecessor, carrying self+1 values *)
      else if src <> t.self - 1 then poison t Shs_error.Forged
      else if t.done_up then
        (* a second, different upflow for a slot already consumed *)
        poison t Shs_error.Replayed
      else if List.length fields <> t.self + 1 then poison t Shs_error.Malformed
      else begin
        let vals = List.map B.of_bytes_be fields in
        if not (List.for_all (valid_elem t) vals) then
          poison t Shs_error.Malformed
        else begin
          t.done_up <- true;
          t.last_up <- Some (src, payload);
          let p = t.grp.Groupgen.p in
          let raised = List.map (fun v -> B.pow_mod v t.r p) vals in
          (* the arity check above pins both lists at self+1 elements, so
             index self exists; stay total anyway *)
          match (List.nth_opt vals t.self, List.nth_opt raised t.self) with
          | Some full, Some new_full ->
            (* values missing r_j for j < self, raised; then [full] missing
               r_self; then the new running product *)
            let missing = List.filteri (fun i _ -> i < t.self) raised in
            if t.self = t.n - 1 then begin
              (* last party: broadcast the downflow and finish *)
              let down = List.map (enc t) missing in
              finish t ~k:new_full ~downflow_bytes:down;
              [ (None, Wire.encode ~tag:"gdh-down" down) ]
            end
            else
              [ (Some (t.self + 1),
                 Wire.encode ~tag:"gdh-up" (List.map (enc t) (missing @ [ full; new_full ]))) ]
          | _ -> poison t Shs_error.Malformed
        end
      end
    | Some ("gdh-down", fields) ->
      if src <> t.n - 1 || t.self = t.n - 1 then poison t Shs_error.Forged
      else if List.length fields <> t.n - 1 then poison t Shs_error.Malformed
      else begin
        match List.nth_opt fields t.self with
        | None -> poison t Shs_error.Malformed
        | Some mine_bytes ->
          let mine = B.of_bytes_be mine_bytes in
          if not (valid_elem t mine) then poison t Shs_error.Malformed
          else begin
            let k = B.pow_mod mine t.r t.grp.Groupgen.p in
            finish t ~k ~downflow_bytes:fields;
            []
          end
      end
    | Some _ ->
      Shs_error.reject ~layer:"dgka" Shs_error.Malformed
        ~args:[ ("proto", name) ];
      []
    | None -> poison t Shs_error.Malformed
