(** The typed-pass rule catalogue: the repo's taint configuration for
    {!Lint_taint}, plus the cross-module TOTAL-DECODE reachability check
    that replaces the per-file approximation when the typed pass runs.

    Three rules ride the taint engine:
    - {b NO-POLY-COMPARE} — structural/polymorphic comparison over a
      secret-tainted operand (supersedes CT-EQ's naming heuristic);
    - {b NO-SECRET-PRINT} (v2) — print/log/Obs payloads that carry
      secret-tainted data, wherever the emission happens;
    - {b NO-PLAINTEXT-WIRE} — [Wire.encode] of tainted material outside
      the ciphertext-framing modules.

    TOTAL-DECODE is re-run here over the resolved cross-module call
    graph, so a decoder in [Gcd] reaching a [failwith] in [Lkh] is now
    visible; the untyped same-module variant is superseded. *)

open Lint_types

(* ------------------------------------------------------------------ *)
(* Repo taint configuration                                            *)
(* ------------------------------------------------------------------ *)

let repo_config : Lint_taint.config =
  { sources =
      [ (* key derivation *)
        "Hkdf.derive";
        "Secretbox.derive_keys";
        (* DRBG output drawn directly as key material *)
        "Drbg.generate";
        (* prepared HMAC keys: their pad states are key-equivalent, and a
           polymorphic compare over the int arrays inside would leak
           timing *)
        "Hmac.prepare";
        (* discrete-log secrets *)
        "Groupgen.schnorr_exponent";
        (* CGKD key material (also reached as [C.group_key] through the
           Gcd functor parameters — the fallback resolver handles it) *)
        "Lkh.group_key";
        "Lkh.controller_key";
        "Oft.group_key";
        "Oft.controller_key";
        "Sd_core.group_key";
        "Sd_core.controller_key";
        (* exported PKE secret keys *)
        "Dhies.export_secret";
      ];
    secret_fields =
      [ ("secret_key", "x");  (* Dhies *)
        ("manager", "order");  (* acjt/kty group-manager trapdoors *)
        ("manager", "theta");
        ("member", "x");
        ("member", "x'");
        ("rsa_modulus", "p_fac");
        ("rsa_modulus", "q_fac");
        ("rsa_modulus", "p'");
        ("rsa_modulus", "q'");
        ("join_request", "jx");
        ("join_request", "jx'");
        ("authority", "trace_sk");  (* Gcd tracing key skT *)
        ("outcome", "key");  (* DGKA session key k* (sid stays public) *)
      ];
    transparent_mods =
      [ "String"; "Bytes"; "List"; "Array"; "Option"; "Result"; "Either";
        "Seq"; "Fun"; "Buffer"; "Printf"; "Format"; "Obs"; "Prof" ];
    transparent_fns =
      [ (* byte/string views of a bigint keep its secrecy... *)
        "Bigint.to_bytes_be"; "Bigint.of_bytes_be"; "Bigint.to_string";
        "Bigint.to_hex"; "Bigint.of_string"; "Bigint.of_bytes_le";
        (* ...and sign tweaks do too; modular arithmetic deliberately
           cleanses (the blinding boundary) *)
        "Bigint.neg"; "Bigint.abs" ];
    compare_sinks =
      [ "="; "<>"; "=="; "!="; "compare"; "<"; "<="; ">"; ">=";
        "Hashtbl.hash"; "String.equal"; "String.compare"; "Bytes.equal";
        "Bytes.compare"; "Bigint.equal"; "Bigint.compare";
        "Bigint.Infix.="; "Bigint.Infix.<>"; "Bigint.Infix.<";
        "Bigint.Infix.<="; "Bigint.Infix.>"; "Bigint.Infix.>=" ];
    print_sinks =
      [ "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"; "Format.printf";
        "Format.eprintf"; "Format.fprintf"; "print_endline"; "print_string";
        "print_char"; "print_int"; "print_float"; "print_newline";
        "prerr_endline"; "prerr_string"; "prerr_newline"; "output_string";
        "output_bytes"; "output_char"; "Obs.instant"; "Logs.debug";
        "Logs.info"; "Logs.warn"; "Logs.err"; "Logs.app"; "Log.debug";
        "Log.info"; "Log.warn"; "Log.err"; "Log.app" ];
    wire_sinks = [ "Wire.encode" ];
    wire_exempt_files = [ "lib/cipher/secretbox.ml"; "lib/pke/dhies.ml" ];
  }

(* ------------------------------------------------------------------ *)
(* Catalogue                                                           *)
(* ------------------------------------------------------------------ *)

let catalogue : rule_info list =
  [ { ri_id = "NO-POLY-COMPARE";
      ri_severity = Error;
      ri_doc =
        "no polymorphic =/compare/Hashtbl.hash or String/Bytes/Bigint \
         comparison over secret-tainted values (taint-tracked across \
         modules); use Hmac.equal_ct or Bigint.equal_ct";
      ri_pass = "typed";
    };
    { ri_id = "NO-SECRET-PRINT";
      ri_severity = Error;
      ri_doc =
        "no print/log/Obs payload may carry secret-tainted data, wherever \
         the emitting call lives";
      ri_pass = "typed";
    };
    { ri_id = "NO-PLAINTEXT-WIRE";
      ri_severity = Error;
      ri_doc =
        "no Wire.encode of secret-tainted fields outside the \
         Secretbox/Pke ciphertext framing modules";
      ri_pass = "typed";
    };
    { ri_id = "TOTAL-DECODE";
      ri_severity = Error;
      ri_doc =
        "no raising or partial construct reachable from a \
         decode-and-verify entry point, across module boundaries";
      ri_pass = "typed";
    };
  ]

(* Untyped rules the typed pass replaces wholesale. *)
let superseded = [ "CT-EQ"; "TOTAL-DECODE"; "NO-SECRET-PRINT" ]

(* ------------------------------------------------------------------ *)
(* Taint findings → lint findings                                      *)
(* ------------------------------------------------------------------ *)

let message_of_rule = function
  | "NO-POLY-COMPARE" ->
    "structural comparison over secret-tainted data (timing distinguishes \
     operand bytes); use Hmac.equal_ct or Bigint.equal_ct"
  | "NO-SECRET-PRINT" -> "print/log emission of secret-tainted data"
  | "NO-PLAINTEXT-WIRE" ->
    "secret-tainted value written into a plaintext wire frame; only \
     Secretbox/Pke ciphertext may carry key material"
  | _ -> "secret-taint violation"

let finding_of_emission (e : Lint_taint.emission) =
  ( { rule = e.e_rule;
      severity = Error;
      file = e.e_file;
      line = e.e_line;
      col = e.e_col;
      binding = e.e_binding;
      construct = e.e_construct;
      message = message_of_rule e.e_rule;
      pass = "typed";
      path = e.e_steps;
    },
    e.e_supp )

(* ------------------------------------------------------------------ *)
(* Cross-module TOTAL-DECODE                                           *)
(* ------------------------------------------------------------------ *)

let decode_scope =
  [ "lib/wire/"; "lib/cgkd/"; "lib/dgka/"; "lib/pke/"; "lib/core/" ]

let in_scope file =
  List.exists
    (fun d ->
      String.length file >= String.length d
      && String.equal (String.sub file 0 (String.length d)) d)
    decode_scope

let partial_constructs =
  [ "failwith"; "invalid_arg"; "raise"; "raise_notrace"; "Option.get";
    "List.hd"; "List.nth"; "List.tl"; "int_of_string" ]

(* Typed-expression traversal mirroring [Lint_ast.iter_expr]'s
   suppression scoping. *)
let iter_expr_typed ~init ~f expr0 =
  let stack = ref [ init ] in
  let suppressed rule =
    List.exists (fun l -> List.mem rule l || List.mem "all" l) !stack
  in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun self (e : Typedtree.expression) ->
          stack := Lint_ast.suppressions e.exp_attributes :: !stack;
          f ~suppressed e;
          Tast_iterator.default_iterator.expr self e;
          stack := List.tl !stack);
      value_binding =
        (fun self (vb : Typedtree.value_binding) ->
          stack := Lint_ast.suppressions vb.vb_attributes :: !stack;
          Tast_iterator.default_iterator.value_binding self vb;
          stack := List.tl !stack);
    }
  in
  it.expr it expr0

let decode_entry_markers =
  [ "receive"; "decode"; "rekey"; "import"; "verify"; "update"; "unwrap";
    "expect"; "parse"; "load"; "decrypt" ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  m = 0 || go 0

let is_decode_entry name =
  List.exists (fun m -> contains name m) decode_entry_markers

(* Resolved call edges of a top, with the use-site line for witnesses. *)
let edges_of (prog : Lint_tast.program) (t : Lint_tast.top) =
  let acc = ref [] in
  iter_expr_typed ~init:[] t.t_expr ~f:(fun ~suppressed:_ e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) ->
        (match Lint_tast.resolve prog ~unit:t.t_unit p with
         | Lint_tast.Fn cands ->
           let line, _ = Lint_tast.loc_of e in
           List.iter
             (fun (c : Lint_tast.top) ->
               if not (String.equal c.t_qual t.t_qual) then
                 acc := (c.t_qual, line) :: !acc)
             cands
         | _ -> ())
      | _ -> ());
  List.rev !acc

let total_decode_typed (prog : Lint_tast.program) =
  let edges = Hashtbl.create 256 in
  List.iter
    (fun (t : Lint_tast.top) -> Hashtbl.replace edges t.t_qual (edges_of prog t))
    prog.p_tops;
  (* BFS with frozen first-reach witnesses: qual → entry→here steps *)
  let reached : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun (t : Lint_tast.top) ->
      if in_scope t.t_unit && is_decode_entry t.t_name then begin
        if not (Hashtbl.mem reached t.t_qual) then begin
          Hashtbl.replace reached t.t_qual
            [ Printf.sprintf "%s: decode entry %s" t.t_unit t.t_qual ];
          Queue.add t.t_qual queue
        end
      end)
    prog.p_tops;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    let steps = Hashtbl.find reached q in
    List.iter
      (fun (callee, line) ->
        if not (Hashtbl.mem reached callee) then begin
          let caller_unit =
            match Hashtbl.find_opt prog.p_by_qual q with
            | Some t -> t.Lint_tast.t_unit
            | None -> "?"
          in
          Hashtbl.replace reached callee
            (steps @ [ Printf.sprintf "%s:%d: calls %s" caller_unit line callee ]);
          Queue.add callee queue
        end)
      (Option.value ~default:[] (Hashtbl.find_opt edges q))
  done;
  let out = ref [] in
  List.iter
    (fun (t : Lint_tast.top) ->
      match Hashtbl.find_opt reached t.t_qual with
      | Some steps when in_scope t.t_unit ->
        iter_expr_typed ~init:(Lint_ast.suppressions t.t_attrs) t.t_expr
          ~f:(fun ~suppressed e ->
            let flag construct =
              let line, col = Lint_tast.loc_of e in
              out :=
                ( { rule = "TOTAL-DECODE";
                    severity = Error;
                    file = t.t_unit;
                    line;
                    col;
                    binding = t.t_name;
                    construct;
                    message =
                      "partial or raising construct reachable from a \
                       decode-and-verify entry point (cross-module); \
                       malformed input must come back as a typed \
                       Shs_error rejection, not an exception";
                    pass = "typed";
                    path = steps @ [ Printf.sprintf "%s:%d: %s" t.t_unit line construct ];
                  },
                  suppressed "TOTAL-DECODE" )
                :: !out
            in
            match e.exp_desc with
            | Texp_ident (p, _, _) ->
              let n = Lint_tast.normalize prog ~unit:t.t_unit p in
              if List.mem n partial_constructs then flag n
            | Texp_assert (cond, _) ->
              (match cond.exp_desc with
               | Texp_construct ({ txt = Longident.Lident "false"; _ }, _, [])
                 ->
                 flag "assert false"
               | _ -> ())
            | _ -> ())
      | _ -> ())
    prog.p_tops;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(config = repo_config) (prog : Lint_tast.program) :
    (finding * bool) list =
  List.map finding_of_emission (Lint_taint.run ~cfg:config prog)
  @ total_decode_typed prog
