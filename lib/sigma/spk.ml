module B = Bigint

type term = { base : B.t; var : string; positive : bool }
type relation = { target : B.t; terms : term list }

type statement = {
  modulus : B.t;
  vars : (string * Interval.spec) list;
  relations : relation list;
}

type proof = { challenge : B.t; responses : (string * B.t) list }

(* a term's exponent, negated for a term in the denominator *)
let signed exponents t =
  let e = List.assoc t.var exponents in
  if t.positive then e else B.neg e

(* The verifier's Π base^(±exponent) mod n, times the extra
   [target^challenge] factor.  Everything goes through one simultaneous
   multi-exponentiation, so the whole equation shares a single squaring
   chain, and the statement's declared bases read their fixed-base
   tables. *)
let combine st ~extra terms exponents =
  let pairs = List.map (fun t -> (t.base, signed exponents t)) terms in
  B.pow_mod_multi (extra :: pairs) st.modulus

(* The prover's commitment Π base^(±blinder) mod n.  A term over a base
   the prover knows as gen^k (from [reps]) becomes gen^(k·blinder), and
   the terms over one base merge into a single signed exponent, so a
   one-shot tag's per-call table and squarings become windows over a
   generator's fixed-base tables. *)
let commitment st ~reps terms blinders =
  let rec merge ((b, e) as term) = function
    | [] -> [ term ]
    | (b', e') :: rest when B.equal b b' -> (b', B.add e' e) :: rest
    | p :: rest -> p :: merge term rest
  in
  let pairs =
    List.fold_left
      (fun acc t ->
        let e = signed blinders t in
        let rep =
          List.find_map
            (fun (b, gk) -> if B.equal b t.base then Some gk else None)
            reps
        in
        merge (match rep with Some (g, k) -> (g, B.mul k e) | None -> (t.base, e)) acc)
      [] terms
  in
  B.pow_mod_multi pairs st.modulus

(* Bind the statement structure itself: bases, targets, variable specs. *)
let absorb_statement tr st =
  let tr = Transcript.absorb_num tr ~label:"modulus" st.modulus in
  let tr =
    List.fold_left
      (fun tr (name, (spec : Interval.spec)) ->
        Transcript.absorb tr ~label:"var"
          (Printf.sprintf "%s:%d:%d" name spec.Interval.center_log
             spec.Interval.halfwidth_log))
      tr st.vars
  in
  List.fold_left
    (fun tr rel ->
      let tr = Transcript.absorb_num tr ~label:"target" rel.target in
      List.fold_left
        (fun tr t ->
          let tr = Transcript.absorb_num tr ~label:"base" t.base in
          Transcript.absorb tr ~label:"term"
            (t.var ^ if t.positive then "+" else "-"))
        tr rel.terms)
    tr st.relations

let absorb_commitments tr ds =
  List.fold_left (fun tr d -> Transcript.absorb_num tr ~label:"commitment" d) tr ds

(* static per-equation frame names, so profiling a proof does not
   allocate a fresh string per relation per call *)
let eq_names = Array.init 16 (Printf.sprintf "spk.eq%d")
let eq_name i = if i < Array.length eq_names then eq_names.(i) else "spk.eq-rest"

let prove ?(reps = []) ~rng st ~secrets ~transcript =
  Prof.frame "spk.prove" @@ fun () ->
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name secrets) then
        invalid_arg (Printf.sprintf "Spk.prove: missing secret %S" name))
    st.vars;
  let blinders =
    List.map (fun (name, spec) -> (name, Interval.sample_blinder ~rng spec)) st.vars
  in
  let ds =
    List.mapi
      (fun i rel ->
        Prof.frame (eq_name i) (fun () -> commitment st ~reps rel.terms blinders))
      st.relations
  in
  let tr = absorb_commitments (absorb_statement transcript st) ds in
  let challenge = Transcript.challenge_bits tr ~bits:Interval.challenge_bits in
  let responses =
    List.map
      (fun (name, spec) ->
        let blinder = List.assoc name blinders in
        let secret = List.assoc name secrets in
        (name, Interval.response ~blinder ~challenge ~secret spec))
      st.vars
  in
  { challenge; responses }

let verify st ~transcript proof =
  Prof.frame "spk.verify" @@ fun () ->
  let vars_match =
    List.length proof.responses = List.length st.vars
    && List.for_all2
         (fun (n1, _) (n2, _) -> String.equal n1 n2)
         st.vars proof.responses
  in
  if not vars_match then false
  else begin
    let ranges_ok =
      List.for_all2
        (fun (_, spec) (_, resp) -> Interval.response_in_range spec resp)
        st.vars proof.responses
    in
    if not ranges_ok then false
    else begin
      let shifted =
        List.map2
          (fun (name, spec) (_, resp) ->
            (name, Interval.shifted_exponent ~challenge:proof.challenge ~response:resp spec))
          st.vars proof.responses
      in
      let ds =
        List.mapi
          (fun i rel ->
            Prof.frame (eq_name i) @@ fun () ->
            combine st ~extra:(rel.target, proof.challenge) rel.terms shifted)
          st.relations
      in
      let tr = absorb_commitments (absorb_statement transcript st) ds in
      let expected = Transcript.challenge_bits tr ~bits:Interval.challenge_bits in
      B.equal expected proof.challenge
    end
  end

(* --- fixed-width encoding ------------------------------------------- *)

(* response width: covers the verifier's acceptance range with a sign byte *)
let response_bytes (spec : Interval.spec) =
  let bits = spec.Interval.halfwidth_log + Interval.challenge_bits + Interval.slack_bits + 2 in
  1 + ((bits + 7) / 8)

let challenge_bytes = (Interval.challenge_bits + 7) / 8

let encoded_len st =
  challenge_bytes
  + List.fold_left (fun acc (_, spec) -> acc + response_bytes spec) 0 st.vars

let encode st proof =
  let buf = Buffer.create (encoded_len st) in
  Buffer.add_string buf (B.to_bytes_be ~len:challenge_bytes proof.challenge);
  List.iter2
    (fun (_, spec) (_, resp) ->
      let w = response_bytes spec - 1 in
      Buffer.add_char buf (if B.sign resp < 0 then '-' else '+');
      Buffer.add_string buf (B.to_bytes_be ~len:w (B.abs resp)))
    st.vars proof.responses;
  Buffer.contents buf

let decode st s =
  if String.length s <> encoded_len st then None
  else begin
    let challenge = B.of_bytes_be (String.sub s 0 challenge_bytes) in
    let rec go off vars acc =
      match vars with
      | [] -> Some { challenge; responses = List.rev acc }
      | (name, spec) :: rest ->
        let w = response_bytes spec in
        let sgn = s.[off] in
        if sgn <> '+' && sgn <> '-' then None
        else begin
          let mag = B.of_bytes_be (String.sub s (off + 1) (w - 1)) in
          let v = if sgn = '-' then B.neg mag else mag in
          go (off + w) rest ((name, v) :: acc)
        end
    in
    go challenge_bytes st.vars []
  end
