(** The rule catalogue: the repo's taint configuration for
    {!Lint_taint}, the cross-module TOTAL-DECODE reachability check, and
    the reference checks that need no dataflow.

    Three rules ride the taint engine, over the units under [lib/]:
    - {b NO-POLY-COMPARE} — structural/polymorphic comparison over a
      secret-tainted operand or a MAC tag;
    - {b NO-SECRET-PRINT} — print/log/Obs payloads that carry
      secret-tainted data; its second clause bans channel emitters from
      [lib/] outright, since taint is laundered by mutable fields and by
      byte-wise code;
    - {b NO-PLAINTEXT-WIRE} — [Wire.encode] of tainted material outside
      the ciphertext-framing modules.

    TOTAL-DECODE walks the resolved cross-module call graph from every
    decode-named entry point; NO-AMBIENT-ENTROPY and TAXONOMY check the
    references and constructors of every unit under [lib/], [bin/] and
    [bench/]. *)

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
    mac_sources = [ "Hmac.mac"; "Hmac.mac_list"; "Hmac.mac_prepared" ];
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
      ri_doc =
        "no polymorphic =/compare/Hashtbl.hash or String/Bytes/Bigint \
         comparison over secret-tainted values or MAC tags (taint-tracked \
         across modules); use Hmac.equal_ct or Bigint.equal_ct";
    };
    { ri_id = "NO-SECRET-PRINT";
      ri_doc =
        "no print/log/Obs payload may carry secret-tainted data, and no \
         unit under lib/ references a channel emitter (print_*, \
         Printf.printf, output_string, ...)";
    };
    { ri_id = "NO-PLAINTEXT-WIRE";
      ri_doc =
        "no Wire.encode of secret-tainted fields outside the \
         Secretbox/Pke ciphertext framing modules";
    };
    { ri_id = "TOTAL-DECODE";
      ri_doc =
        "no raising or partial construct reachable from a \
         decode-and-verify entry point, across module boundaries";
    };
    { ri_id = "NO-AMBIENT-ENTROPY";
      ri_doc =
        "no Random.*, Sys.time or Unix.gettimeofday/Unix.time outside the \
         designated clock (lib/obs/obs.ml), in lib/, bin/ and bench/";
    };
    { ri_id = "TAXONOMY";
      ri_doc =
        "every Error _ constructed under lib/, bin/ or bench/ carries a \
         typed reason (Shs_error.reason or a module error variant), never a \
         bare string";
    };
  ]

(* ------------------------------------------------------------------ *)
(* Taint findings → lint findings                                      *)
(* ------------------------------------------------------------------ *)

let message_of_rule = function
  | "NO-POLY-COMPARE" ->
    "structural comparison over secret-tainted data or a MAC tag (timing \
     distinguishes operand bytes); use Hmac.equal_ct or Bigint.equal_ct"
  | "NO-SECRET-PRINT" -> "print/log emission of secret-tainted data"
  | "NO-PLAINTEXT-WIRE" ->
    "secret-tainted value written into a plaintext wire frame; only \
     Secretbox/Pke ciphertext may carry key material"
  | _ -> "secret-taint violation"

let finding_of_emission (e : Lint_taint.emission) =
  ( { rule = e.e_rule;
      file = e.e_file;
      line = e.e_line;
      col = e.e_col;
      binding = e.e_binding;
      construct = e.e_construct;
      message = message_of_rule e.e_rule;
      path = e.e_steps;
    },
    e.e_supp )

(* A finding flagged at expression [e] of top [t]. *)
let finding_at (t : Lint_tast.top) ~rule ~construct ~message ?(path = []) e =
  let line, col = Lint_tast.loc_of e in
  { rule; file = t.t_unit; line; col; binding = t.t_name; construct; message; path }

(* ------------------------------------------------------------------ *)
(* Cross-module TOTAL-DECODE                                           *)
(* ------------------------------------------------------------------ *)

let decode_scope =
  [ "lib/wire/"; "lib/cgkd/"; "lib/dgka/"; "lib/pke/"; "lib/core/" ]

let partial_constructs =
  [ "failwith"; "invalid_arg"; "raise"; "raise_notrace"; "Option.get";
    "List.hd"; "List.nth"; "List.tl"; "int_of_string" ]

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
  Lint_tast.iter_expr ~init:[] t.t_expr ~f:(fun ~suppressed:_ e ->
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

let total_decode (prog : Lint_tast.program) =
  let in_scope file =
    List.exists (fun d -> Lint_tast.starts_with d file) decode_scope
  in
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
        Lint_tast.iter_expr ~init:(Lint_tast.suppressions t.t_attrs) t.t_expr
          ~f:(fun ~suppressed e ->
            let flag construct =
              let line, _ = Lint_tast.loc_of e in
              out :=
                ( finding_at t e ~rule:"TOTAL-DECODE" ~construct
                    ~message:
                      "partial or raising construct reachable from a \
                       decode-and-verify entry point (cross-module); \
                       malformed input must come back as a typed \
                       Shs_error rejection, not an exception"
                    ~path:
                      (steps @ [ Printf.sprintf "%s:%d: %s" t.t_unit line construct ]),
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
(* Reference checks: entropy, channel emitters, stringly errors        *)
(* ------------------------------------------------------------------ *)

(* The simulation's replay guarantee holds only if every random or
   temporal input flows through the seeded DRBG or the pluggable
   observability clock; obs.ml defines that clock. *)
let entropy_allowed_files = [ "lib/obs/obs.ml" ]
let entropy_exact = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

let is_ambient name =
  Lint_tast.starts_with "Random." name || List.mem name entropy_exact

(* Functions that write to a channel, and the standard channels and
   formatters themselves, applied or passed as a value. *)
let channel_emitters =
  [ "print_string"; "print_bytes"; "print_char"; "print_int"; "print_float";
    "print_endline"; "print_newline"; "prerr_string"; "prerr_bytes";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_endline";
    "prerr_newline"; "output_string"; "output_bytes"; "output_char";
    "output_substring"; "output"; "Printf.printf"; "Printf.eprintf";
    "Printf.fprintf"; "Format.printf"; "Format.eprintf";
    "Out_channel.output_string"; "Out_channel.output_bytes";
    "Out_channel.output_char"; "stdout"; "stderr"; "Out_channel.stdout";
    "Out_channel.stderr"; "Format.std_formatter"; "Format.err_formatter" ]

let stringly_heads =
  [ "Printf.sprintf"; "Format.sprintf"; "Format.asprintf"; "Printexc.to_string";
    "String.concat"; "String.cat"; "^" ]

let references (prog : Lint_tast.program) =
  let out = ref [] in
  List.iter
    (fun (t : Lint_tast.top) ->
      let normalize = Lint_tast.normalize prog ~unit:t.t_unit in
      Lint_tast.iter_expr ~init:(Lint_tast.suppressions t.t_attrs) t.t_expr
        ~f:(fun ~suppressed (e : Typedtree.expression) ->
          let flag rule construct message site =
            out :=
              (finding_at t site ~rule ~construct ~message, suppressed rule)
              :: !out
          in
          match e.exp_desc with
          | Texp_ident (p, _, _) ->
            let n = normalize p in
            if is_ambient n && not (List.mem t.t_unit entropy_allowed_files)
            then
              flag "NO-AMBIENT-ENTROPY" n
                "ambient entropy/time source; it breaks seeded \
                 byte-identical replay — draw from the session DRBG or the \
                 Obs clock"
                e
            else if
              List.mem n channel_emitters && Lint_tast.starts_with "lib/" t.t_unit
            then
              flag "NO-SECRET-PRINT" n
                "channel emitter referenced under lib/; library code reports \
                 through Obs and returned values, never a channel"
                e
          | Texp_construct (_, { cstr_name = "Error"; _ }, [ payload ]) ->
            let stringly =
              match payload.exp_desc with
              | Texp_constant (Const_string _) -> true
              | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
                List.mem (normalize p) stringly_heads
              | _ -> false
            in
            if stringly then
              flag "TAXONOMY" "Error(string)"
                "stringly Error payload; rejections must carry a typed reason \
                 so the Shs_error taxonomy stays total"
                payload
          | _ -> ()))
    prog.p_tops;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Every rule over [units], each finding paired with its suppression
   flag.  The flow rules see the library alone: bin/ and bench/ mains
   would only widen the last-name fallback of functor-parameter calls. *)
let run ?(config = repo_config) (units : Lint_tast.unit_info list) :
    (finding * bool) list =
  let lib =
    Lint_tast.index
      (List.filter (fun u -> Lint_tast.starts_with "lib/" u.Lint_tast.u_path) units)
  in
  List.map finding_of_emission (Lint_taint.run ~cfg:config lib)
  @ total_decode lib
  @ references (Lint_tast.index units)
