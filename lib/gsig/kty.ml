module B = Bigint

let name = "kty"

(* interned by name, so these are the same registry entries Acjt uses *)
let sign_counter = Obs.counter ~help:"group signatures produced" "gsig.sign"
let verify_counter = Obs.counter ~help:"group signatures verified" "gsig.verify"
let open_counter = Obs.counter ~help:"group signatures opened" "gsig.open"

type public = {
  n : B.t;
  a : B.t;
  a0 : B.t;
  b : B.t;
  g : B.t;
  h : B.t;
  y : B.t;
  sizes : Gsig_sizes.t;
}

type entry = { a_cert : B.t; e_cert : B.t; x_trace : B.t; mutable revoked : bool }

type manager = {
  pub : public;
  order : B.t;
  theta : B.t;
  roster : (string, entry) Hashtbl.t;
  mutable join_order : string list;
}

type member = {
  mpub : public;
  a_mem : B.t;
  e_mem : B.t;
  x : B.t;  (* tracing trapdoor, known to GM *)
  x' : B.t;  (* member-only secret *)
  crl : B.t list;  (* revoked members' tracing tokens *)
  valid : bool;
}

type join_request = { jpub : public; jx' : B.t }

(* the key's generators: declared, they get fixed-base tables *)
let declare pub =
  B.declare_fixed_bases ~modulus:pub.n
    [ pub.a; pub.a0; pub.b; pub.g; pub.h; pub.y ];
  pub

let setup ~rng ~modulus =
  let n = modulus.Groupgen.n in
  let sample () = Groupgen.sample_qr ~rng n in
  let sizes = Gsig_sizes.derive ~nbits:(B.num_bits n) in
  let g = sample () in
  let order = Groupgen.qr_order modulus in
  let theta = B.succ (B.random_below rng (B.pred order)) in
  let pub =
    declare
      { n; a = sample (); a0 = sample (); b = sample (); g; h = sample ();
        y = B.pow_mod g theta n; sizes }
  in
  { pub; order; theta; roster = Hashtbl.create 16; join_order = [] }

let public mgr = mgr.pub

(* ------------------------------------------------------------------ *)
(* Join                                                                *)
(* ------------------------------------------------------------------ *)

let join_begin ~rng pub =
  let x' = Interval.sample ~rng pub.sizes.Gsig_sizes.lambda in
  let offer = B.pow_mod_multi [ (pub.b, x') ] pub.n in
  ({ jpub = pub; jx' = x' }, Wire.encode ~tag:"kty-offer" [ B.to_bytes_be offer ])

let join_issue ~rng mgr ~uid ~offer =
  match Wire.expect ~tag:"kty-offer" offer with
  | Some [ c_bytes ] when not (Hashtbl.mem mgr.roster uid) ->
    let pub = mgr.pub in
    let c = B.of_bytes_be c_bytes in
    if B.compare c B.two < 0 || B.compare c pub.n >= 0 then None
    else begin
      let x = Interval.sample ~rng pub.sizes.Gsig_sizes.lambda in
      let spec = pub.sizes.Gsig_sizes.gamma in
      let e =
        Primegen.random_prime_in ~rng ~lo:(Interval.lo spec) ~hi:(Interval.hi spec)
      in
      let d = B.invert e mgr.order in
      let base =
        B.mul_mod (B.mul_mod pub.a0 (B.pow_mod_multi [ (pub.a, x) ] pub.n) pub.n)
          c pub.n
      in
      let a_cert = B.pow_mod base d pub.n in
      Hashtbl.add mgr.roster uid { a_cert; e_cert = e; x_trace = x; revoked = false };
      let mgr = { mgr with join_order = uid :: mgr.join_order } in
      let cert_msg =
        Wire.encode ~tag:"kty-cert"
          [ B.to_bytes_be a_cert; B.to_bytes_be e; B.to_bytes_be x ]
      in
      (* joins do not change other members' view in a VLR scheme *)
      let update_msg = Wire.encode ~tag:"kty-upd" [ "join" ] in
      Some (mgr, cert_msg, update_msg)
    end
  | _ -> None

let join_complete req ~cert =
  match Wire.expect ~tag:"kty-cert" cert with
  | Some [ a_bytes; e_bytes; x_bytes ] ->
    let pub = req.jpub in
    let a_mem = B.of_bytes_be a_bytes in
    let e_mem = B.of_bytes_be e_bytes in
    let x = B.of_bytes_be x_bytes in
    let lhs = B.pow_mod a_mem e_mem pub.n in
    (* a0 · a^x · b^x' in one simultaneous exponentiation *)
    let rhs =
      B.mul_mod pub.a0
        (B.pow_mod_multi [ (pub.a, x); (pub.b, req.jx') ] pub.n)
        pub.n
    in
    if B.equal lhs rhs
       && Interval.mem pub.sizes.Gsig_sizes.gamma e_mem
       && Interval.mem pub.sizes.Gsig_sizes.lambda x
    then Some { mpub = pub; a_mem; e_mem; x; x' = req.jx'; crl = []; valid = true }
    else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Revocation: verifier-local, via tracing tokens                      *)
(* ------------------------------------------------------------------ *)

let revoke ~rng:_ mgr ~uid =
  match Hashtbl.find_opt mgr.roster uid with
  | Some entry when not entry.revoked ->
    entry.revoked <- true;
    let update_msg =
      Wire.encode ~tag:"kty-upd" [ "leave"; B.to_bytes_be entry.x_trace ]
    in
    Some (mgr, update_msg)
  | _ -> None

let apply_update mem update =
  match Wire.expect ~tag:"kty-upd" update with
  | Some [ "join" ] -> Some mem
  | Some [ "leave"; x_bytes ] ->
    let token = B.of_bytes_be x_bytes in
    (* [token] is attacker-observable wire data, [mem.x] the member's
       secret tracing trapdoor: the comparison must be constant-time or
       a probing GA learns x limb by limb from response latency. *)
    if B.equal_ct token mem.x then Some { mem with valid = false }
    else Some { mem with crl = token :: mem.crl }
  | _ -> None

let member_valid mem = mem.valid

(* ------------------------------------------------------------------ *)
(* Signing                                                             *)
(* ------------------------------------------------------------------ *)

(* Tags: T1..T7; variables: x x' e r rho. *)
let statement pub ~t1 ~t2 ~t3 ~t4 ~t5 ~t6 ~t7 =
  let s = pub.sizes in
  let open Gsig_sizes in
  let term base var positive = { Spk.base; var; positive } in
  { Spk.modulus = pub.n;
    vars =
      [ ("x", s.lambda); ("x'", s.lambda); ("e", s.gamma); ("r", s.free);
        ("rho", s.product) ];
    relations =
      [ { Spk.target = t2; terms = [ term pub.g "r" true ] };
        { Spk.target = t3; terms = [ term pub.g "e" true; term pub.h "r" true ] };
        { Spk.target = B.one; terms = [ term t2 "e" true; term pub.g "rho" false ] };
        { Spk.target = t4; terms = [ term t5 "x" true ] };
        { Spk.target = t6; terms = [ term t7 "x'" true ] };
        { Spk.target = pub.a0;
          terms =
            [ term t1 "e" true; term pub.a "x" false; term pub.b "x'" false;
              term pub.y "rho" false ] };
      ];
  }

let base_transcript pub ~msg =
  let tr = Transcript.create ~domain:"shs-gsig-kty-v1" in
  let tr = Transcript.absorb_num tr ~label:"n" pub.n in
  Transcript.absorb tr ~label:"msg" msg

let elem_len pub = Gsig_sizes.elem_len pub.sizes

let skeleton_statement pub =
  statement pub ~t1:B.one ~t2:B.one ~t3:B.one ~t4:B.one ~t5:B.one ~t6:B.one
    ~t7:B.one

let signature_len pub = (7 * elem_len pub) + Spk.encoded_len (skeleton_statement pub)

let base_of_bytes pub seed =
  (* expand to |n| + 128 bits, reduce, square into QR(n); re-derive in the
     vanishingly unlikely degenerate cases *)
  let nbytes = elem_len pub + 16 in
  let rec go i =
    let raw =
      Hkdf.derive ~ikm:seed ~info:(Printf.sprintf "kty-qr-base:%d" i) ~len:nbytes ()
    in
    let v = B.erem (B.of_bytes_be raw) pub.n in
    let sq = B.mul_mod v v pub.n in
    if B.compare sq B.two < 0 || not (B.equal (B.gcd v pub.n) B.one) then go (i + 1)
    else sq
  in
  go 0

let sign_internal ~rng mem ~msg ~t7_and_k' =
  if not mem.valid then invalid_arg "Kty.sign: member revoked";
  Obs.incr sign_counter;
  Prof.frame "gsig.kty.sign" @@ fun () ->
  let pub = mem.mpub in
  let s = pub.sizes in
  let r = Interval.sample ~rng s.Gsig_sizes.free in
  let k = Interval.sample ~rng s.Gsig_sizes.free in
  (* every tag but T1 and a common-base T7 is a power of g with a known
     exponent, so it rides g's fixed-base tables: T4 = T5^x is
     g^(k·x), and in fresh mode T6 = T7^x' is g^(k'·x') *)
  let t1 = B.mul_mod mem.a_mem (B.pow_mod_multi [ (pub.y, r) ] pub.n) pub.n in
  let t2 = B.pow_mod_multi [ (pub.g, r) ] pub.n in
  let t3 = B.pow_mod_multi [ (pub.g, mem.e_mem); (pub.h, r) ] pub.n in
  let t5 = B.pow_mod_multi [ (pub.g, k) ] pub.n in
  let t4 = B.pow_mod_multi [ (pub.g, B.mul k mem.x) ] pub.n in
  let t7, t6, rep7 =
    match t7_and_k' with
    | `Common_base base -> (base, B.pow_mod base mem.x' pub.n, [])
    | `Fresh ->
      let k' = Interval.sample ~rng s.Gsig_sizes.free in
      let t7 = B.pow_mod_multi [ (pub.g, k') ] pub.n in
      (t7, B.pow_mod_multi [ (pub.g, B.mul k' mem.x') ] pub.n, [ (t7, (pub.g, k')) ])
  in
  let st = statement pub ~t1 ~t2 ~t3 ~t4 ~t5 ~t6 ~t7 in
  let secrets =
    [ ("x", mem.x); ("x'", mem.x'); ("e", mem.e_mem); ("r", r);
      ("rho", B.mul mem.e_mem r) ]
  in
  let tr = base_transcript pub ~msg in
  (* eq2's T2^b_e g^-b_rho becomes g^(r·b_e - b_rho), eq3's T5^b_x
     g^(k·b_x), and in fresh mode eq4's T7^b_x' g^(k'·b_x') *)
  let reps = (t2, (pub.g, r)) :: (t5, (pub.g, k)) :: rep7 in
  let proof = Spk.prove ~reps ~rng st ~secrets ~transcript:tr in
  let w = elem_len pub in
  String.concat ""
    (List.map (fun v -> B.to_bytes_be ~len:w v) [ t1; t2; t3; t4; t5; t6; t7 ]
    @ [ Spk.encode st proof ])

let sign ~rng mem ~msg = sign_internal ~rng mem ~msg ~t7_and_k':`Fresh

let sign_with_base ~rng mem ~msg ~base =
  sign_internal ~rng mem ~msg ~t7_and_k':(`Common_base base)

type decoded = { tags : B.t array; proof : Spk.proof }

let decode_signature pub s =
  if String.length s <> signature_len pub then None
  else begin
    let w = elem_len pub in
    let tags = Array.init 7 (fun i -> B.of_bytes_be (String.sub s (i * w) w)) in
    let in_range v = B.compare v B.one > 0 && B.compare v pub.n < 0 in
    if not (Array.for_all in_range tags) then None
    else begin
      let rest = String.sub s (7 * w) (String.length s - (7 * w)) in
      match Spk.decode (skeleton_statement pub) rest with
      | Some proof -> Some { tags; proof }
      | None -> None
    end
  end

let verify_spk pub ~msg { tags; proof } =
  let t1 = tags.(0) and t2 = tags.(1) and t3 = tags.(2) and t4 = tags.(3) in
  let t5 = tags.(4) and t6 = tags.(5) and t7 = tags.(6) in
  let st = statement pub ~t1 ~t2 ~t3 ~t4 ~t5 ~t6 ~t7 in
  Spk.verify st ~transcript:(base_transcript pub ~msg) proof

(* T5^token for every token from one table of T5's powers, in CRL
   order, stopping at the first match *)
let revoked_by_crl pub crl { tags; _ } =
  let t4 = tags.(3) and t5 = tags.(4) in
  Seq.exists (B.equal t4) (B.pow_mod_many t5 crl pub.n)

(* with [base], T7 must equal it, checked before the SPK and the CRL
   scan are paid for *)
let verify_internal ?base mem ~msg sigma =
  Obs.incr verify_counter;
  Prof.frame "gsig.kty.verify" @@ fun () ->
  match decode_signature mem.mpub sigma with
  | None -> false
  | Some dec ->
    (match base with None -> true | Some b -> B.equal dec.tags.(6) b)
    && verify_spk mem.mpub ~msg dec
    && not (revoked_by_crl mem.mpub mem.crl dec)

let verify mem ~msg sigma = verify_internal mem ~msg sigma
let verify_with_base mem ~msg ~base sigma = verify_internal ~base mem ~msg sigma

(* ------------------------------------------------------------------ *)
(* Open and tracing                                                    *)
(* ------------------------------------------------------------------ *)

let open_ mgr ~msg sigma =
  Obs.incr open_counter;
  Prof.frame "gsig.kty.open" @@ fun () ->
  let pub = mgr.pub in
  match decode_signature pub sigma with
  | None -> None
  | Some dec ->
    if not (verify_spk pub ~msg dec) then None
    else begin
      let revoked_tokens =
        Hashtbl.fold
          (fun _ entry acc -> if entry.revoked then entry.x_trace :: acc else acc)
          mgr.roster []
      in
      if revoked_by_crl pub revoked_tokens dec then None
      else begin
        let t1 = dec.tags.(0) and t2 = dec.tags.(1) in
        let mask = B.pow_mod t2 mgr.theta pub.n in
        let a_signer = B.mul_mod t1 (B.invert mask pub.n) pub.n in
        let found = ref None in
        Hashtbl.iter
          (fun uid entry -> if B.equal entry.a_cert a_signer then found := Some uid)
          mgr.roster;
        !found
      end
    end

let roster mgr =
  List.rev_map
    (fun uid -> (uid, (Hashtbl.find mgr.roster uid).revoked))
    mgr.join_order

(* ------------------------------------------------------------------ *)
(* Extras                                                              *)
(* ------------------------------------------------------------------ *)

let t6_t7 pub sigma =
  Option.map (fun dec -> (dec.tags.(5), dec.tags.(6))) (decode_signature pub sigma)

let tracing_token mgr ~uid =
  Option.map (fun e -> e.x_trace) (Hashtbl.find_opt mgr.roster uid)

let matches_token pub ~token sigma =
  match decode_signature pub sigma with
  | None -> false
  | Some dec -> B.equal dec.tags.(3) (B.pow_mod dec.tags.(4) token pub.n)

let crl_length mem = List.length mem.crl

let forge_without_membership ~rng pub ~msg =
  let s = pub.sizes in
  let x = Interval.sample ~rng s.Gsig_sizes.lambda in
  let x' = Interval.sample ~rng s.Gsig_sizes.lambda in
  let e = Interval.sample ~rng s.Gsig_sizes.gamma in
  let r = Interval.sample ~rng s.Gsig_sizes.free in
  let k = Interval.sample ~rng s.Gsig_sizes.free in
  let k' = Interval.sample ~rng s.Gsig_sizes.free in
  let fake_a = Groupgen.sample_qr ~rng pub.n in
  let t1 = B.mul_mod fake_a (B.pow_mod_multi [ (pub.y, r) ] pub.n) pub.n in
  let t2 = B.pow_mod_multi [ (pub.g, r) ] pub.n in
  let t3 = B.pow_mod_multi [ (pub.g, e); (pub.h, r) ] pub.n in
  let t5 = B.pow_mod_multi [ (pub.g, k) ] pub.n in
  let t4 = B.pow_mod t5 x pub.n in
  let t7 = B.pow_mod_multi [ (pub.g, k') ] pub.n in
  let t6 = B.pow_mod t7 x' pub.n in
  let st = statement pub ~t1 ~t2 ~t3 ~t4 ~t5 ~t6 ~t7 in
  let secrets =
    [ ("x", x); ("x'", x'); ("e", e); ("r", r); ("rho", B.mul e r) ]
  in
  let proof = Spk.prove ~rng st ~secrets ~transcript:(base_transcript pub ~msg) in
  let w = elem_len pub in
  String.concat ""
    (List.map (fun v -> B.to_bytes_be ~len:w v) [ t1; t2; t3; t4; t5; t6; t7 ]
    @ [ Spk.encode st proof ])

(* ------------------------------------------------------------------ *)
(* Verifiable opening and signature claiming                           *)
(* ------------------------------------------------------------------ *)

let opening_context ~msg sigma = Sha256.digest_list [ "kty-open"; msg; sigma ]

let open_with_evidence ~rng mgr ~msg sigma =
  let pub = mgr.pub in
  match decode_signature pub sigma with
  | None -> None
  | Some dec ->
    if not (verify_spk pub ~msg dec) then None
    else begin
      let t1 = dec.tags.(0) and t2 = dec.tags.(1) in
      let evidence =
        Opening.prove ~rng ~n:pub.n ~g:pub.g ~y:pub.y ~theta:mgr.theta ~t1 ~t2
          ~context:(opening_context ~msg sigma)
      in
      let a_signer = Opening.signer evidence in
      let found = ref None in
      Hashtbl.iter
        (fun uid entry -> if B.equal entry.a_cert a_signer then found := Some uid)
        mgr.roster;
      Option.map (fun uid -> (uid, Opening.encode ~n:pub.n evidence)) !found
    end

let verify_opening pub ~msg ~sigma ~evidence =
  match (decode_signature pub sigma, Opening.decode ~n:pub.n evidence) with
  | Some dec, Some ev ->
    if
      Opening.verify ~n:pub.n ~g:pub.g ~y:pub.y ~t1:dec.tags.(0) ~t2:dec.tags.(1)
        ~context:(opening_context ~msg sigma) ev
    then Some (Opening.signer ev)
    else None
  | _ -> None

let certificate_value mgr ~uid =
  Option.map (fun e -> e.a_cert) (Hashtbl.find_opt mgr.roster uid)

(* Claiming (the KTY "(T6, T7) allows one to claim its signatures"): the
   signer proves knowledge of x' with T6 = T7^{x'}, bound to a
   caller-chosen label (e.g. "this is my petition entry, signed <date>").
   Nobody else knows x', so nobody else can produce the claim. *)

let claim_statement pub ~t6 ~t7 =
  { Spk.modulus = pub.n;
    vars = [ ("x'", pub.sizes.Gsig_sizes.lambda) ];
    relations =
      [ { Spk.target = t6; terms = [ { Spk.base = t7; var = "x'"; positive = true } ] } ];
  }

let claim_transcript pub sigma ~label =
  let tr = Transcript.create ~domain:"shs-kty-claim-v1" in
  let tr = Transcript.absorb_num tr ~label:"n" pub.n in
  let tr = Transcript.absorb tr ~label:"sigma" (Sha256.digest sigma) in
  Transcript.absorb tr ~label:"claim-label" label

let claim ~rng mem sigma ~label =
  let pub = mem.mpub in
  match decode_signature pub sigma with
  | None -> None
  | Some dec ->
    let t6 = dec.tags.(5) and t7 = dec.tags.(6) in
    (* only signatures actually produced with this member's x' *)
    if not (B.equal t6 (B.pow_mod t7 mem.x' pub.n)) then None
    else begin
      let st = claim_statement pub ~t6 ~t7 in
      let proof =
        Spk.prove ~rng st ~secrets:[ ("x'", mem.x') ]
          ~transcript:(claim_transcript pub sigma ~label)
      in
      Some (Wire.encode ~tag:"kty-claim" [ Spk.encode st proof ])
    end

let verify_claim pub sigma ~label claim_msg =
  match (decode_signature pub sigma, Wire.expect ~tag:"kty-claim" claim_msg) with
  | Some dec, Some [ p_bytes ] ->
    let t6 = dec.tags.(5) and t7 = dec.tags.(6) in
    let st = claim_statement pub ~t6 ~t7 in
    (match Spk.decode st p_bytes with
     | Some proof ->
       Spk.verify st ~transcript:(claim_transcript pub sigma ~label) proof
     | None -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let export_public pub =
  Wire.encode ~tag:"kty-pub"
    [ B.to_bytes_be pub.n; B.to_bytes_be pub.a; B.to_bytes_be pub.a0;
      B.to_bytes_be pub.b; B.to_bytes_be pub.g; B.to_bytes_be pub.h;
      B.to_bytes_be pub.y ]

let import_public s =
  match Wire.expect ~tag:"kty-pub" s with
  | Some [ n; a; a0; b; g; h; y ] ->
    let n = B.of_bytes_be n in
    if B.num_bits n < 256 then None
    else
      Some
        (declare
           { n;
             a = B.of_bytes_be a;
             a0 = B.of_bytes_be a0;
             b = B.of_bytes_be b;
             g = B.of_bytes_be g;
             h = B.of_bytes_be h;
             y = B.of_bytes_be y;
             sizes = Gsig_sizes.derive ~nbits:(B.num_bits n);
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
        B.to_bytes_be e.x_trace; (if e.revoked then "1" else "0") ]
  in
  Wire.encode ~tag:"kty-mgr"
    (export_public mgr.pub :: B.to_bytes_be mgr.order :: B.to_bytes_be mgr.theta
     :: List.rev_map entry mgr.join_order)

let import_manager s =
  match Wire.expect ~tag:"kty-mgr" s with
  | Some (pub_s :: order_s :: theta_s :: entries) ->
    (match import_public pub_s with
     | Some pub ->
       let roster = Hashtbl.create 16 in
       let join_order = ref [] in
       let ok =
         List.for_all
           (fun ent ->
             match Wire.expect ~tag:"ent" ent with
             | Some [ uid; a; e; x; rev ] ->
               Hashtbl.replace roster uid
                 { a_cert = B.of_bytes_be a; e_cert = B.of_bytes_be e;
                   x_trace = B.of_bytes_be x; revoked = rev = "1" };
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
             roster;
             join_order = !join_order;
           }
       else None
     | None -> None)
  | _ -> None

(* NO-PLAINTEXT-WIRE suppression: at-rest member-state checkpoint,
   same trusted-storage rationale as export_manager above. *)
let[@shs.lint_ignore "NO-PLAINTEXT-WIRE"] export_member mem =
  Wire.encode ~tag:"kty-mem"
    (export_public mem.mpub :: B.to_bytes_be mem.a_mem :: B.to_bytes_be mem.e_mem
     :: B.to_bytes_be mem.x :: B.to_bytes_be mem.x'
     :: (if mem.valid then "1" else "0")
     :: List.map B.to_bytes_be mem.crl)

let import_member s =
  match Wire.expect ~tag:"kty-mem" s with
  | Some (pub_s :: a :: e :: x :: x' :: valid :: crl) ->
    (match import_public pub_s with
     | Some mpub ->
       Some
         { mpub;
           a_mem = B.of_bytes_be a;
           e_mem = B.of_bytes_be e;
           x = B.of_bytes_be x;
           x' = B.of_bytes_be x';
           crl = List.map B.of_bytes_be crl;
           valid = valid = "1";
         }
     | None -> None)
  | _ -> None

let member_public mem = mem.mpub
