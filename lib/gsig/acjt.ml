module B = Bigint

let name = "acjt"

(* shared across GSIG schemes: one registry entry per operation kind *)
let sign_counter = Obs.counter ~help:"group signatures produced" "gsig.sign"
let verify_counter = Obs.counter ~help:"group signatures verified" "gsig.verify"
let open_counter = Obs.counter ~help:"group signatures opened" "gsig.open"

type public = {
  n : B.t;
  a : B.t;
  a0 : B.t;
  g : B.t;
  h : B.t;
  g2 : B.t;  (* witness-commitment bases *)
  h2 : B.t;
  y : B.t;  (* opening key, y = g^theta *)
  sizes : Gsig_sizes.t;
  acc0 : B.t;  (* accumulator value at setup *)
}

type entry = { a_cert : B.t; e_cert : B.t; mutable revoked : bool }

type manager = {
  pub : public;
  order : B.t;  (* p'q', the trapdoor *)
  theta : B.t;  (* opening secret *)
  acc : Accumulator.t;
  roster : (string, entry) Hashtbl.t;
  mutable join_order : string list;  (* most recent first *)
}

type member = {
  mpub : public;
  a_mem : B.t;
  e_mem : B.t;
  x : B.t;
  witness : B.t;
  acc_value : B.t;
  valid : bool;
}

type join_request = { jpub : public; jx : B.t }

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(* the key's generators: declared, they get fixed-base tables *)
let declare pub =
  B.declare_fixed_bases ~modulus:pub.n
    [ pub.a; pub.a0; pub.g; pub.h; pub.g2; pub.h2; pub.y ];
  pub

let setup ~rng ~modulus =
  let n = modulus.Groupgen.n in
  let sample () = Groupgen.sample_qr ~rng n in
  let sizes = Gsig_sizes.derive ~nbits:(B.num_bits n) in
  let g = sample () in
  let order = Groupgen.qr_order modulus in
  let theta = B.succ (B.random_below rng (B.pred order)) in
  let acc = Accumulator.create ~rng modulus in
  let pub =
    declare
      { n;
        a = sample ();
        a0 = sample ();
        g;
        h = sample ();
        g2 = sample ();
        h2 = sample ();
        y = B.pow_mod g theta n;
        sizes;
        acc0 = Accumulator.value acc;
      }
  in
  { pub; order; theta; acc; roster = Hashtbl.create 16; join_order = [] }

let public mgr = mgr.pub

(* ------------------------------------------------------------------ *)
(* Join                                                                *)
(* ------------------------------------------------------------------ *)

let join_begin ~rng pub =
  let x = Interval.sample ~rng pub.sizes.Gsig_sizes.lambda in
  let offer = B.pow_mod_multi [ (pub.a, x) ] pub.n in
  ( { jpub = pub; jx = x },
    Wire.encode ~tag:"acjt-offer" [ B.to_bytes_be offer ] )

let join_issue ~rng mgr ~uid ~offer =
  match Wire.expect ~tag:"acjt-offer" offer with
  | Some [ c_bytes ] when not (Hashtbl.mem mgr.roster uid) ->
    let pub = mgr.pub in
    let c = B.of_bytes_be c_bytes in
    if B.compare c B.two < 0 || B.compare c pub.n >= 0 then None
    else begin
      let spec = pub.sizes.Gsig_sizes.gamma in
      let e =
        Primegen.random_prime_in ~rng ~lo:(Interval.lo spec) ~hi:(Interval.hi spec)
      in
      let d = B.invert e mgr.order in
      let a_cert = B.pow_mod (B.mul_mod pub.a0 c pub.n) d pub.n in
      let witness = Accumulator.value mgr.acc in
      let acc = Accumulator.add mgr.acc ~prime:e in
      let acc_value = Accumulator.value acc in
      Hashtbl.add mgr.roster uid { a_cert; e_cert = e; revoked = false };
      let mgr = { mgr with acc; join_order = uid :: mgr.join_order } in
      let cert_msg =
        Wire.encode ~tag:"acjt-cert"
          [ B.to_bytes_be a_cert; B.to_bytes_be e;
            B.to_bytes_be witness; B.to_bytes_be acc_value ]
      in
      let update_msg =
        Wire.encode ~tag:"acjt-upd"
          [ "join"; B.to_bytes_be e; B.to_bytes_be acc_value ]
      in
      Some (mgr, cert_msg, update_msg)
    end
  | _ -> None

let join_complete req ~cert =
  match Wire.expect ~tag:"acjt-cert" cert with
  | Some [ a_bytes; e_bytes; w_bytes; v_bytes ] ->
    let pub = req.jpub in
    let a_mem = B.of_bytes_be a_bytes in
    let e_mem = B.of_bytes_be e_bytes in
    let witness = B.of_bytes_be w_bytes in
    let acc_value = B.of_bytes_be v_bytes in
    (* the certificate equation A^e = a0 · a^x *)
    let lhs = B.pow_mod a_mem e_mem pub.n in
    let rhs = B.mul_mod pub.a0 (B.pow_mod_multi [ (pub.a, req.jx) ] pub.n) pub.n in
    let cert_ok = B.equal lhs rhs in
    let e_ok = Interval.mem pub.sizes.Gsig_sizes.gamma e_mem in
    let wit_ok =
      Accumulator.verify_witness ~modulus:pub.n ~value:acc_value ~witness
        ~prime:e_mem
    in
    if cert_ok && e_ok && wit_ok then
      Some { mpub = pub; a_mem; e_mem; x = req.jx; witness; acc_value; valid = true }
    else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Revocation and updates                                              *)
(* ------------------------------------------------------------------ *)

let revoke ~rng:_ mgr ~uid =
  match Hashtbl.find_opt mgr.roster uid with
  | Some entry when not entry.revoked ->
    entry.revoked <- true;
    let acc = Accumulator.remove mgr.acc ~prime:entry.e_cert in
    let mgr = { mgr with acc } in
    let update_msg =
      Wire.encode ~tag:"acjt-upd"
        [ "leave"; B.to_bytes_be entry.e_cert;
          B.to_bytes_be (Accumulator.value acc) ]
    in
    Some (mgr, update_msg)
  | _ -> None

let apply_update mem update =
  match Wire.expect ~tag:"acjt-upd" update with
  | Some [ "join"; e_bytes; v_bytes ] ->
    let added = B.of_bytes_be e_bytes in
    let witness =
      Accumulator.witness_on_add ~modulus:mem.mpub.n ~witness:mem.witness ~added
    in
    Some { mem with witness; acc_value = B.of_bytes_be v_bytes }
  | Some [ "leave"; e_bytes; v_bytes ] ->
    let removed = B.of_bytes_be e_bytes in
    let new_value = B.of_bytes_be v_bytes in
    (match
       Accumulator.witness_on_remove ~modulus:mem.mpub.n ~witness:mem.witness
         ~self:mem.e_mem ~removed ~new_value
     with
     | Some witness -> Some { mem with witness; acc_value = new_value }
     | None ->
       (* own certificate prime removed: this member has been revoked *)
       Some { mem with acc_value = new_value; valid = false })
  | _ -> None

let member_valid mem = mem.valid

(* ------------------------------------------------------------------ *)
(* The signature statement                                             *)
(* ------------------------------------------------------------------ *)

(* Tags: T1 T2 T3 Cw D; variables: x e r rho rw rhow. *)
let statement pub ~acc_value ~t1 ~t2 ~t3 ~cw ~d =
  let s = pub.sizes in
  let open Gsig_sizes in
  let term base var positive = { Spk.base; var; positive } in
  { Spk.modulus = pub.n;
    vars =
      [ ("x", s.lambda); ("e", s.gamma); ("r", s.free); ("rho", s.product);
        ("rw", s.free); ("rhow", s.product) ];
    relations =
      [ (* T2 = g^r *)
        { Spk.target = t2; terms = [ term pub.g "r" true ] };
        (* T3 = g^e h^r *)
        { Spk.target = t3; terms = [ term pub.g "e" true; term pub.h "r" true ] };
        (* 1 = T2^e g^-rho  (binds rho = e·r) *)
        { Spk.target = B.one; terms = [ term t2 "e" true; term pub.g "rho" false ] };
        (* a0 = T1^e a^-x y^-rho  (the certificate equation) *)
        { Spk.target = pub.a0;
          terms = [ term t1 "e" true; term pub.a "x" false; term pub.y "rho" false ] };
        (* v = Cw^e h2^-rhow  (accumulated, i.e. non-revoked) *)
        { Spk.target = acc_value;
          terms = [ term cw "e" true; term pub.h2 "rhow" false ] };
        (* D = g2^rw *)
        { Spk.target = d; terms = [ term pub.g2 "rw" true ] };
        (* 1 = D^e g2^-rhow  (binds rhow = e·rw) *)
        { Spk.target = B.one; terms = [ term d "e" true; term pub.g2 "rhow" false ] };
      ];
  }

let base_transcript pub ~acc_value ~msg =
  let tr = Transcript.create ~domain:"shs-gsig-acjt-v1" in
  let tr = Transcript.absorb_num tr ~label:"n" pub.n in
  let tr = Transcript.absorb_num tr ~label:"acc" acc_value in
  Transcript.absorb tr ~label:"msg" msg

let elem_len pub = Gsig_sizes.elem_len pub.sizes

let skeleton_statement pub =
  statement pub ~acc_value:B.one ~t1:B.one ~t2:B.one ~t3:B.one ~cw:B.one ~d:B.one

let signature_len pub = (5 * elem_len pub) + Spk.encoded_len (skeleton_statement pub)

let sign ~rng mem ~msg =
  if not mem.valid then invalid_arg "Acjt.sign: member revoked";
  Obs.incr sign_counter;
  Prof.frame "gsig.acjt.sign" @@ fun () ->
  let pub = mem.mpub in
  let s = pub.sizes in
  let r = Interval.sample ~rng s.Gsig_sizes.free in
  let rw = Interval.sample ~rng s.Gsig_sizes.free in
  (* tags over the fixed generators go through pow_mod_multi: T3 shares
     one squaring chain across its two terms, and all of y/g/h/h2/g2
     read their declared bases' tables *)
  let t1 = B.mul_mod mem.a_mem (B.pow_mod_multi [ (pub.y, r) ] pub.n) pub.n in
  let t2 = B.pow_mod_multi [ (pub.g, r) ] pub.n in
  let t3 = B.pow_mod_multi [ (pub.g, mem.e_mem); (pub.h, r) ] pub.n in
  let cw = B.mul_mod mem.witness (B.pow_mod_multi [ (pub.h2, rw) ] pub.n) pub.n in
  let d = B.pow_mod_multi [ (pub.g2, rw) ] pub.n in
  let st = statement pub ~acc_value:mem.acc_value ~t1 ~t2 ~t3 ~cw ~d in
  let secrets =
    [ ("x", mem.x); ("e", mem.e_mem); ("r", r); ("rho", B.mul mem.e_mem r);
      ("rw", rw); ("rhow", B.mul mem.e_mem rw) ]
  in
  let tr = base_transcript pub ~acc_value:mem.acc_value ~msg in
  (* T2 = g^r and D = g2^rw: eq2's commitment T2^b_e g^-b_rho is
     evaluated as g^(r·b_e - b_rho), eq6's likewise over g2 *)
  let reps = [ (t2, (pub.g, r)); (d, (pub.g2, rw)) ] in
  let proof = Spk.prove ~reps ~rng st ~secrets ~transcript:tr in
  let w = elem_len pub in
  String.concat ""
    [ B.to_bytes_be ~len:w t1; B.to_bytes_be ~len:w t2; B.to_bytes_be ~len:w t3;
      B.to_bytes_be ~len:w cw; B.to_bytes_be ~len:w d; Spk.encode st proof ]

type decoded = { t1 : B.t; t2 : B.t; t3 : B.t; cw : B.t; d : B.t; proof : Spk.proof }

let decode_signature pub s =
  if String.length s <> signature_len pub then None
  else begin
    let w = elem_len pub in
    let elem i = B.of_bytes_be (String.sub s (i * w) w) in
    let t1 = elem 0 and t2 = elem 1 and t3 = elem 2 and cw = elem 3 and d = elem 4 in
    let in_range v = B.compare v B.one > 0 && B.compare v pub.n < 0 in
    if not (List.for_all in_range [ t1; t2; t3; cw; d ]) then None
    else begin
      let rest = String.sub s (5 * w) (String.length s - (5 * w)) in
      match Spk.decode (skeleton_statement pub) rest with
      | Some proof -> Some { t1; t2; t3; cw; d; proof }
      | None -> None
    end
  end

let verify_against pub ~acc_value ~msg sigma =
  match decode_signature pub sigma with
  | None -> false
  | Some { t1; t2; t3; cw; d; proof } ->
    let st = statement pub ~acc_value ~t1 ~t2 ~t3 ~cw ~d in
    let tr = base_transcript pub ~acc_value ~msg in
    Spk.verify st ~transcript:tr proof

let verify mem ~msg sigma =
  Obs.incr verify_counter;
  Prof.frame "gsig.acjt.verify" @@ fun () ->
  verify_against mem.mpub ~acc_value:mem.acc_value ~msg sigma

(* ------------------------------------------------------------------ *)
(* Open                                                                *)
(* ------------------------------------------------------------------ *)

let open_ mgr ~msg sigma =
  Obs.incr open_counter;
  Prof.frame "gsig.acjt.open" @@ fun () ->
  let pub = mgr.pub in
  if not (verify_against pub ~acc_value:(Accumulator.value mgr.acc) ~msg sigma)
  then None
  else
    match decode_signature pub sigma with
    | None -> None
    | Some { t1; t2; _ } ->
      let mask = B.pow_mod t2 mgr.theta pub.n in
      let a_signer = B.mul_mod t1 (B.invert mask pub.n) pub.n in
      let found = ref None in
      Hashtbl.iter
        (fun uid entry -> if B.equal entry.a_cert a_signer then found := Some uid)
        mgr.roster;
      !found

let roster mgr =
  List.rev_map
    (fun uid -> (uid, (Hashtbl.find mgr.roster uid).revoked))
    mgr.join_order

(* ------------------------------------------------------------------ *)
(* Extras                                                              *)
(* ------------------------------------------------------------------ *)

let certificate_prime mgr ~uid =
  Option.map (fun e -> e.e_cert) (Hashtbl.find_opt mgr.roster uid)

let member_witness_valid mem =
  Accumulator.verify_witness ~modulus:mem.mpub.n ~value:mem.acc_value
    ~witness:mem.witness ~prime:mem.e_mem

let forge_without_membership ~rng pub ~msg =
  (* a forger without a certificate: random tags and a proof attempted
     with random "secrets" — the SPK cannot hold *)
  let s = pub.sizes in
  let x = Interval.sample ~rng s.Gsig_sizes.lambda in
  let e = Interval.sample ~rng s.Gsig_sizes.gamma in
  let r = Interval.sample ~rng s.Gsig_sizes.free in
  let rw = Interval.sample ~rng s.Gsig_sizes.free in
  let fake_a = Groupgen.sample_qr ~rng pub.n in
  let fake_w = Groupgen.sample_qr ~rng pub.n in
  let t1 = B.mul_mod fake_a (B.pow_mod_multi [ (pub.y, r) ] pub.n) pub.n in
  let t2 = B.pow_mod_multi [ (pub.g, r) ] pub.n in
  let t3 = B.pow_mod_multi [ (pub.g, e); (pub.h, r) ] pub.n in
  let cw = B.mul_mod fake_w (B.pow_mod_multi [ (pub.h2, rw) ] pub.n) pub.n in
  let d = B.pow_mod_multi [ (pub.g2, rw) ] pub.n in
  let st = statement pub ~acc_value:pub.acc0 ~t1 ~t2 ~t3 ~cw ~d in
  let secrets =
    [ ("x", x); ("e", e); ("r", r); ("rho", B.mul e r); ("rw", rw);
      ("rhow", B.mul e rw) ]
  in
  let tr = base_transcript pub ~acc_value:pub.acc0 ~msg in
  let proof = Spk.prove ~rng st ~secrets ~transcript:tr in
  let w = elem_len pub in
  String.concat ""
    [ B.to_bytes_be ~len:w t1; B.to_bytes_be ~len:w t2; B.to_bytes_be ~len:w t3;
      B.to_bytes_be ~len:w cw; B.to_bytes_be ~len:w d; Spk.encode st proof ]

(* ------------------------------------------------------------------ *)
(* Verifiable opening (Fig. 3: "incontestable evidence")               *)
(* ------------------------------------------------------------------ *)

let opening_context ~msg sigma = Sha256.digest_list [ "acjt-open"; msg; sigma ]

let open_with_evidence ~rng mgr ~msg sigma =
  let pub = mgr.pub in
  if not (verify_against pub ~acc_value:(Accumulator.value mgr.acc) ~msg sigma)
  then None
  else
    match decode_signature pub sigma with
    | None -> None
    | Some { t1; t2; _ } ->
      let evidence =
        Opening.prove ~rng ~n:pub.n ~g:pub.g ~y:pub.y ~theta:mgr.theta ~t1 ~t2
          ~context:(opening_context ~msg sigma)
      in
      let a_signer = Opening.signer evidence in
      let found = ref None in
      Hashtbl.iter
        (fun uid entry -> if B.equal entry.a_cert a_signer then found := Some uid)
        mgr.roster;
      Option.map
        (fun uid -> (uid, Opening.encode ~n:pub.n evidence))
        !found

(* Judge-side check: returns the proven certificate value A on success,
   which the judge matches against the registration it was shown. *)
let verify_opening pub ~msg ~sigma ~evidence =
  match (decode_signature pub sigma, Opening.decode ~n:pub.n evidence) with
  | Some { t1; t2; _ }, Some ev ->
    if
      Opening.verify ~n:pub.n ~g:pub.g ~y:pub.y ~t1 ~t2
        ~context:(opening_context ~msg sigma) ev
    then Some (Opening.signer ev)
    else None
  | _ -> None

let certificate_value mgr ~uid =
  Option.map (fun e -> e.a_cert) (Hashtbl.find_opt mgr.roster uid)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let export_public pub =
  Wire.encode ~tag:"acjt-pub"
    [ B.to_bytes_be pub.n; B.to_bytes_be pub.a; B.to_bytes_be pub.a0;
      B.to_bytes_be pub.g; B.to_bytes_be pub.h; B.to_bytes_be pub.g2;
      B.to_bytes_be pub.h2; B.to_bytes_be pub.y; B.to_bytes_be pub.acc0 ]

let import_public s =
  match Wire.expect ~tag:"acjt-pub" s with
  | Some [ n; a; a0; g; h; g2; h2; y; acc0 ] ->
    let n = B.of_bytes_be n in
    if B.num_bits n < 256 then None
    else
      Some
        (declare
           { n;
             a = B.of_bytes_be a;
             a0 = B.of_bytes_be a0;
             g = B.of_bytes_be g;
             h = B.of_bytes_be h;
             g2 = B.of_bytes_be g2;
             h2 = B.of_bytes_be h2;
             y = B.of_bytes_be y;
             sizes = Gsig_sizes.derive ~nbits:(B.num_bits n);
             acc0 = B.of_bytes_be acc0;
           })
  | _ -> None

(* NO-PLAINTEXT-WIRE suppression: this is the at-rest checkpoint
   serializer — the trapdoor fields are the state being persisted, and
   import_manager must read them back verbatim.  Persist wraps it under
   the same trusted-storage model as its own export_authority. *)
let[@shs.lint_ignore "NO-PLAINTEXT-WIRE"] export_manager mgr =
  let entry uid =
    let e = Hashtbl.find mgr.roster uid in
    Wire.encode ~tag:"ent"
      [ uid; B.to_bytes_be e.a_cert; B.to_bytes_be e.e_cert;
        (if e.revoked then "1" else "0") ]
  in
  Wire.encode ~tag:"acjt-mgr"
    (export_public mgr.pub :: B.to_bytes_be mgr.order :: B.to_bytes_be mgr.theta
     :: Accumulator.export mgr.acc
     :: List.rev_map entry mgr.join_order)

let import_manager s =
  match Wire.expect ~tag:"acjt-mgr" s with
  | Some (pub_s :: order_s :: theta_s :: acc_s :: entries) ->
    (match (import_public pub_s, Accumulator.import acc_s) with
     | Some pub, Some acc ->
       let roster = Hashtbl.create 16 in
       let join_order = ref [] in
       let ok =
         List.for_all
           (fun ent ->
             match Wire.expect ~tag:"ent" ent with
             | Some [ uid; a; e; rev ] ->
               Hashtbl.replace roster uid
                 { a_cert = B.of_bytes_be a; e_cert = B.of_bytes_be e;
                   revoked = rev = "1" };
               join_order := uid :: !join_order;
               true
             | _ -> false)
           entries
       in
       if ok then
         Some
           { pub;
             order = B.of_bytes_be order_s;
             theta = B.of_bytes_be theta_s;
             acc;
             roster;
             join_order = !join_order;
           }
       else None
     | _ -> None)
  | _ -> None

(* NO-PLAINTEXT-WIRE suppression: at-rest member-state checkpoint,
   same trusted-storage rationale as export_manager above. *)
let[@shs.lint_ignore "NO-PLAINTEXT-WIRE"] export_member mem =
  Wire.encode ~tag:"acjt-mem"
    [ export_public mem.mpub; B.to_bytes_be mem.a_mem; B.to_bytes_be mem.e_mem;
      B.to_bytes_be mem.x; B.to_bytes_be mem.witness;
      B.to_bytes_be mem.acc_value; (if mem.valid then "1" else "0") ]

let import_member s =
  match Wire.expect ~tag:"acjt-mem" s with
  | Some [ pub_s; a; e; x; w; v; valid ] ->
    (match import_public pub_s with
     | Some mpub ->
       Some
         { mpub;
           a_mem = B.of_bytes_be a;
           e_mem = B.of_bytes_be e;
           x = B.of_bytes_be x;
           witness = B.of_bytes_be w;
           acc_value = B.of_bytes_be v;
           valid = valid = "1";
         }
     | None -> None)
  | _ -> None

let member_public mem = mem.mpub
