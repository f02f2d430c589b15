(* Randomized protocol-level properties (qcheck): CGKD under arbitrary
   churn, the accumulator under arbitrary add/remove sequences, the SPK
   engine over randomly-shaped statements, codec fuzz, and handshake
   robustness under random message corruption. *)

module B = Bigint

let rng_of_seed seed = Drbg.bytes_fn (Drbg.of_int_seed seed)

(* [long_factor] multiplies [count] under QCHECK_LONG=1, the CI sweep *)
let qtest name ?(count = 50) ?long_factor gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ?long_factor gen prop)

(* ------------------------------------------------------------------ *)
(* CGKD churn: any join/leave sequence keeps live members in sync and   *)
(* departed members out                                                 *)
(* ------------------------------------------------------------------ *)

module Churn (C : Cgkd_intf.S) = struct
  (* ops: true = join a fresh uid, false = leave a random live uid *)
  let gen_ops = QCheck2.Gen.(pair int (list_size (int_range 4 14) bool))

  let run (seed, ops) =
    let gc = ref (C.setup ~rng:(rng_of_seed seed) ~capacity:16) in
    let live = ref [] in
    let departed = ref [] in
    let fresh = ref 0 in
    let ok = ref true in
    let apply_all msg =
      live :=
        List.map
          (fun (u, m) ->
            match C.rekey m msg with
            | Some m -> (u, m)
            | None ->
              ok := false;
              (u, m))
          !live
    in
    List.iter
      (fun is_join ->
        if is_join then begin
          (* stateless schemes burn slots on leave: stop when full *)
          incr fresh;
          let uid = Printf.sprintf "u%d" !fresh in
          match C.join !gc ~uid with
          | Some (gc', m, msg) ->
            gc := gc';
            apply_all msg;
            live := (uid, m) :: !live
          | None -> () (* capacity exhausted: skip *)
        end
        else begin
          match !live with
          | [] -> ()
          | (uid, m) :: rest ->
            (match C.leave !gc ~uid with
             | Some (gc', msg) ->
               gc := gc';
               live := rest;
               departed := m :: !departed;
               apply_all msg
             | None -> ok := false)
        end)
      ops;
    (* all live members share the controller key *)
    let ck = C.controller_key !gc in
    List.iter (fun (_, m) -> if C.group_key m <> ck then ok := false) !live;
    (* no departed member holds the current key *)
    List.iter (fun m -> if C.group_key m = ck then ok := false) !departed;
    !ok

  let test label = qtest (label ^ ": random churn keeps sync") ~count:30 gen_ops run
end

module Churn_lkh = Churn (Lkh)
module Churn_sd = Churn (Sd)
module Churn_oft = Churn (Oft)

(* ------------------------------------------------------------------ *)
(* Accumulator under arbitrary sequences                                *)
(* ------------------------------------------------------------------ *)

let accumulator_prop (seed, ops) =
  let rng = rng_of_seed seed in
  let modulus = Lazy.force Params.rsa_512 in
  let n = modulus.Groupgen.n in
  let acc = ref (Accumulator.create ~rng modulus) in
  let members = ref [] in (* (prime, witness) of present members *)
  let ok = ref true in
  List.iter
    (fun is_add ->
      if is_add then begin
        let e = Primegen.random_prime ~rng ~bits:48 in
        let w = Accumulator.value !acc in
        acc := Accumulator.add !acc ~prime:e;
        members :=
          (e, w)
          :: List.map
               (fun (e', w') ->
                 (e', Accumulator.witness_on_add ~modulus:n ~witness:w' ~added:e))
               !members
      end
      else begin
        match !members with
        | [] -> ()
        | (e, _) :: rest ->
          acc := Accumulator.remove !acc ~prime:e;
          let v = Accumulator.value !acc in
          members :=
            List.map
              (fun (e', w') ->
                match
                  Accumulator.witness_on_remove ~modulus:n ~witness:w' ~self:e'
                    ~removed:e ~new_value:v
                with
                | Some w'' -> (e', w'')
                | None ->
                  ok := false;
                  (e', w'))
              rest
      end)
    ops;
  let v = Accumulator.value !acc in
  List.iter
    (fun (e, w) ->
      if not (Accumulator.verify_witness ~modulus:n ~value:v ~witness:w ~prime:e)
      then ok := false)
    !members;
  !ok

(* ------------------------------------------------------------------ *)
(* SPK over randomly-shaped statements                                  *)
(* ------------------------------------------------------------------ *)

(* Build a random statement with 1-3 variables whose relations' targets
   are computed from random secrets; completeness must hold, and a
   perturbed secret must break it.  Some bases are g^k for a k the
   prover knows (returned as [reps]): each such base appears beside g in
   a relation of its own, so a prover given [reps] merges the two
   terms, and in random relations. *)
let random_statement seed =
  let rng = rng_of_seed seed in
  let n = (Lazy.force Params.rsa_512).Groupgen.n in
  let byte () = Char.code (rng 1).[0] in
  let nvars = 1 + (byte () mod 3) in
  let vars =
    List.init nvars (fun i ->
        let spec =
          if i mod 2 = 0 then Interval.make ~center_log:64 ~halfwidth_log:32
          else Interval.make ~center_log:200 ~halfwidth_log:200
        in
        (Printf.sprintf "v%d" i, spec))
  in
  let secrets = List.map (fun (name, spec) -> (name, Interval.sample ~rng spec)) vars in
  let g = Groupgen.sample_qr ~rng n in
  let reps =
    List.init (1 + (byte () mod 2)) (fun _ ->
        let k = B.random_bits rng (64 + (byte () * 4)) in
        (B.pow_mod g k n, (g, k)))
  in
  let term ?(var = fst (List.nth vars (byte () mod nvars))) base =
    { Spk.base; var; positive = byte () mod 2 = 0 }
  in
  let relation terms =
    let target =
      List.fold_left
        (fun acc t ->
          let e = List.assoc t.Spk.var secrets in
          let e = if t.Spk.positive then e else B.neg e in
          B.mul_mod acc (B.pow_mod t.Spk.base e n) n)
        B.one terms
    in
    { Spk.target; terms }
  in
  (* pin every variable in a single-term relation of a positive term, so
     that the soundness property (perturb one secret -> proof fails)
     cannot pick a variable the statement never constrains *)
  let pinned =
    List.map
      (fun (var, _) ->
        relation [ { (term ~var (Groupgen.sample_qr ~rng n)) with positive = true } ])
      vars
  in
  let merged = List.map (fun (base, _) -> relation [ term base; term g ]) reps in
  let pool = g :: List.map fst reps in
  let random =
    List.init (1 + (byte () mod 3)) (fun _ ->
        relation
          (List.init (1 + (byte () mod 3)) (fun _ ->
               term
                 (if byte () mod 2 = 0 then Groupgen.sample_qr ~rng n
                  else List.nth pool (byte () mod List.length pool)))))
  in
  ( { Spk.modulus = n; vars; relations = pinned @ merged @ random },
    secrets,
    reps,
    rng )

let spk_random_complete seed =
  let st, secrets, _, rng = random_statement seed in
  let tr = Transcript.create ~domain:"prop" in
  let proof = Spk.prove ~rng st ~secrets ~transcript:tr in
  Spk.verify st ~transcript:tr proof

let spk_random_sound seed =
  let st, secrets, _, rng = random_statement seed in
  let tr = Transcript.create ~domain:"prop" in
  (* perturb one secret *)
  let bad =
    match secrets with
    | (name, v) :: rest -> (name, B.succ v) :: rest
    | [] -> []
  in
  let proof = Spk.prove ~rng st ~secrets:bad ~transcript:tr in
  not (Spk.verify st ~transcript:tr proof)

(* proving with [reps] must give the very proof the plain prover gives
   from the same DRBG seed, and a representation off by one in k a proof
   that verification rejects *)
let spk_reps_prop seed =
  let st, secrets, reps, _ = random_statement seed in
  let tr = Transcript.create ~domain:"prop" in
  let prove reps =
    Spk.prove ~reps ~rng:(rng_of_seed (seed + 1)) st ~secrets ~transcript:tr
  in
  let folded = prove reps in
  let off_by_one = List.map (fun (base, (g, k)) -> (base, (g, B.succ k))) reps in
  String.equal (Spk.encode st (prove [])) (Spk.encode st folded)
  && Spk.verify st ~transcript:tr folded
  && not (Spk.verify st ~transcript:tr (prove off_by_one))

(* ------------------------------------------------------------------ *)
(* Codec fuzz                                                           *)
(* ------------------------------------------------------------------ *)

let wire_fuzz bytes =
  match Wire.decode bytes with
  | None -> true
  | Some (tag, fields) ->
    (* decoded input must re-encode to exactly the input (canonicity) *)
    String.equal (Wire.encode ~tag fields) bytes

let secretbox_fuzz (key_seed, bytes) =
  let key = Sha256.digest (string_of_int key_seed) in
  match Secretbox.open_ ~key bytes with
  | None -> true
  | Some _ ->
    (* forging an authenticated box from random bytes must not happen *)
    false

let dhies_fuzz (seed, bytes) =
  let rng = rng_of_seed seed in
  let group = Lazy.force Params.schnorr_256 in
  let _pk, sk = Dhies.key_gen ~rng ~group in
  Dhies.decrypt ~sk bytes = None

(* ------------------------------------------------------------------ *)
(* Handshake robustness under random corruption                        *)
(* ------------------------------------------------------------------ *)

let scheme1_world =
  lazy
    (let ga = Scheme1.default_authority ~rng:(rng_of_seed 7000) () in
     let members =
       Array.init 3 (fun i ->
           Option.get
             (Scheme1.admit ga ~uid:(Printf.sprintf "m%d" i)
                ~member_rng:(rng_of_seed (7100 + i))))
     in
     Array.iteri
       (fun i (_, upd) ->
         Array.iteri
           (fun j (m, _) -> if j < i then ignore (Scheme1.update m upd))
           members)
       members;
     (ga, Array.map fst members))

let handshake_corruption_prop (seed, flip_pos) =
  (* corrupt one random byte of one random in-flight message: the session
     must terminate without exceptions, and no party may accept a partner
     set that includes a corrupted-out participant inconsistently;
     crucially nothing may crash *)
  let ga, members = Lazy.force scheme1_world in
  let fmt = Scheme1.default_format ga in
  let count = ref 0 in
  let adversary ~src:_ ~dst:_ ~payload =
    incr count;
    if !count = 1 + (seed mod 24) then begin
      let b = Bytes.of_string payload in
      if Bytes.length b = 0 then Engine.Deliver
      else begin
        let i = flip_pos mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        Engine.Replace (Bytes.to_string b)
      end
    end
    else Engine.Deliver
  in
  match
    Scheme1.run_session ~adversary ~fmt
      (Array.map Scheme1.participant_of_member members)
  with
  | r ->
    (* any party that reports full acceptance must agree with every other
       accepting party on the partner set *)
    let accepted =
      Array.to_list r.Gcd_types.outcomes
      |> List.filter_map (fun o ->
             match o with
             | Some o when o.Gcd_types.accepted -> Some o.Gcd_types.partners
             | _ -> None)
    in
    (match accepted with
     | [] -> true
     | p :: rest -> List.for_all (( = ) p) rest)
  | exception _ -> false

let () =
  Alcotest.run "props"
    [ ( "cgkd-churn",
        [ Churn_lkh.test "lkh"; Churn_sd.test "sd"; Churn_oft.test "oft" ] );
      ( "accumulator",
        [ qtest "random add/remove sequences" ~count:10
            QCheck2.Gen.(pair int (list_size (int_range 3 10) bool))
            accumulator_prop ] );
      ( "spk-random-statements",
        [ qtest "completeness" ~count:8 QCheck2.Gen.int spk_random_complete;
          qtest "soundness (perturbed witness)" ~count:8 QCheck2.Gen.int
            spk_random_sound;
          qtest "known representations: same proof, wrong k rejected" ~count:8
            ~long_factor:20 QCheck2.Gen.int spk_reps_prop ] );
      ( "codec-fuzz",
        [ qtest "wire decode total + canonical" ~count:500
            QCheck2.Gen.(string_size ~gen:char (int_bound 128))
            wire_fuzz;
          qtest "secretbox forgery resistance" ~count:200
            QCheck2.Gen.(pair int (string_size ~gen:char (int_bound 256)))
            secretbox_fuzz;
          qtest "dhies decrypt total" ~count:40
            QCheck2.Gen.(pair int (string_size ~gen:char (int_bound 300)))
            dhies_fuzz ] );
      ( "handshake-corruption",
        [ qtest "random corruption never crashes or splits acceptance" ~count:6
            QCheck2.Gen.(pair (int_bound 1000) (int_bound 2000))
            handshake_corruption_prop ] );
    ]
