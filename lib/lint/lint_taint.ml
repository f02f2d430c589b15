(** Interprocedural secret-taint dataflow over {!Lint_tast.program}.

    The abstract value of an expression is a {!taint}: [direct] when the
    value definitely derives from a declared secret source,
    [compare_only] when it derives from a MAC output, and [via k] when it
    derives from the enclosing function's parameter [k] — each carrying
    a frozen source→here witness.  Per-function {!summary}s
    (return taint + parameter-conditional sinks) are iterated to a
    fixpoint, so a key that enters module A, threads through a helper in
    C, and hits a sink in B is caught with the full path as evidence.

    Deliberate precision choices (DESIGN.md §9):
    - record {e construction} does not propagate (records are the
      declared taint boundary; secrecy of a field is configuration —
      [secret_fields]), and values of immediate type (int/bool/...) are
      clamped clean, so [String.length key = 32] never fires;
    - unknown external functions {e cleanse} unless listed transparent,
      and so does every call into [Bigint] whatever its summary says —
      modular arithmetic is the blinding boundary — while its
      byte/string conversions ([transparent_fns]) propagate;
    - MAC outputs ([mac_sources]) are compare-only: a tag is public once
      sent, so print and wire sinks ignore that class, but comparing it
      in variable time still distinguishes a forgery's abort;
    - witnesses freeze at first discovery, which keeps the fixpoint
      monotone: a later, shorter path never replaces a recorded one. *)

module SMap = Map.Make (String)

type step = string  (** "file:line: what happened" *)

type taint = {
  direct : step list option;  (** derives from a source, with witness *)
  compare_only : step list option;
      (** derives from a MAC output: public once sent, so only
          NO-POLY-COMPARE answers to it *)
  via : step list SMap.t;  (** param key → witness from param to here *)
}

let bot = { direct = None; compare_only = None; via = SMap.empty }
let is_bot t = t.direct = None && t.compare_only = None && SMap.is_empty t.via

let first a b = match a with Some _ -> a | None -> b

let join a b =
  { direct = first a.direct b.direct;
    compare_only = first a.compare_only b.compare_only;
    via = SMap.union (fun _ w _ -> Some w) a.via b.via;
  }

let source_taint step = { bot with direct = Some [ step ] }

(* The witness a sink of [rule] fires on, if the value reaches it. *)
let witness ~rule t =
  if String.equal rule "NO-POLY-COMPARE" then first t.direct t.compare_only
  else t.direct

(* Shape only — witnesses are frozen, so growth is key growth. *)
let taint_shape t =
  (t.direct <> None, t.compare_only <> None, List.map fst (SMap.bindings t.via))

(* A sink that fires iff the given parameter arrives tainted: lifted
   into the function's summary so callers test it against their own
   arguments (and re-lift it against their own parameters in turn). *)
type cond_sink = {
  cs_key : string;
  cs_rule : string;
  cs_construct : string;
  cs_file : string;
  cs_line : int;
  cs_col : int;
  cs_binding : string;  (** function containing the sink site *)
  cs_steps : step list;  (** parameter entry → sink *)
  cs_supp : bool;  (** sink site suppressed by [@shs.lint_ignore] *)
}

type summary = { s_ret : taint; s_sinks : cond_sink list }

let empty_summary = { s_ret = bot; s_sinks = [] }

let summary_shape s =
  ( taint_shape s.s_ret,
    List.sort_uniq compare
      (List.map
         (fun c -> (c.cs_key, c.cs_rule, c.cs_file, c.cs_line, c.cs_col, c.cs_construct))
         s.s_sinks) )

(* A sink actually reached by source-derived data. *)
type emission = {
  e_rule : string;
  e_construct : string;
  e_file : string;
  e_line : int;
  e_col : int;
  e_binding : string;
  e_steps : step list;  (** full source → sink witness *)
  e_supp : bool;
}

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  sources : string list;
      (** qualified functions whose result is secret, matched against
          every name a call site can answer to ({!Lint_tast.names_of}),
          so [C.group_key] through a functor parameter still counts *)
  mac_sources : string list;
      (** functions whose result is a MAC tag: compare-only taint *)
  secret_fields : (string * string) list;
      (** (record type's last name, field label) pairs whose projection
          is secret *)
  transparent_mods : string list;
      (** external modules whose functions propagate argument taint *)
  transparent_fns : string list;  (** exact external names that propagate *)
  compare_sinks : string list;  (** NO-POLY-COMPARE heads *)
  print_sinks : string list;  (** NO-SECRET-PRINT heads *)
  wire_sinks : string list;  (** NO-PLAINTEXT-WIRE heads *)
  wire_exempt_files : string list;
      (** units where wire-encoding derived material is the point
          (ciphertext framing), not a leak *)
}

let secret_attr = "shs.secret"

let has_secret_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      String.equal a.attr_name.Location.txt secret_attr)
    attrs

(* ------------------------------------------------------------------ *)
(* Analysis context                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cfg : config;
  prog : Lint_tast.program;
  summaries : (string, summary) Hashtbl.t;  (** qual → converged-so-far *)
  mutable emissions : emission list;  (** reporting pass only *)
  mutable cur_sinks : cond_sink list;  (** sinks of the function in analysis *)
  mutable supp_stack : string list list;  (** active suppression scopes *)
  cur_unit : string;
  cur_binding : string;
}

let suppressed ctx rule = Lint_tast.is_suppressed ctx.supp_stack rule

let mod_head name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> ""

(* The blinding boundary.  [Bigint] is program code, so its calls would
   return whatever their summaries say, and those differ between entry
   points into the same arithmetic ([pow_mod_multi]'s passes the
   exponent's taint on, [pow_mod]'s does not).  A call into it that is
   neither transparent nor a compare sink returns clean; the callee's
   own sinks still fire. *)
let blinding_module = "Bigint"

let step_at ctx e what =
  let line, _ = Lint_tast.loc_of e in
  Printf.sprintf "%s:%d: %s" ctx.cur_unit line what

(* Immediate-typed values cannot be secret bytes: lengths, counts,
   comparison results.  Unexpanded aliases of int stay un-clamped, which
   only errs toward keeping taint. *)
let immediate_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    (match Path.name p with
     | "int" | "bool" | "char" | "unit" | "float" | "int32" | "int64"
     | "nativeint" -> true
     | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Parameter peeling                                                   *)
(* ------------------------------------------------------------------ *)

let param_key ~pos = function
  | Asttypes.Labelled l | Asttypes.Optional l -> "~" ^ l
  | Asttypes.Nolabel -> "#" ^ string_of_int pos

(* Peel the leading single-case [fun] chain of a top binding: the
   parameter list (key, ident, pattern idents) and the body.  A trailing
   multi-case [function] contributes one last scrutinee parameter whose
   cases all belong to the body. *)
type peeled = {
  params : (string * Ident.t * (Ident.t * string) list) list;
  bodies : Typedtree.expression list;
  scrutinee : (string * Typedtree.value Typedtree.case list) option;
}

let peel expr =
  let rec go pos acc (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { arg_label; param; cases = [ c ]; _ }
      when c.c_guard = None ->
      let key = param_key ~pos arg_label in
      let pos = if arg_label = Asttypes.Nolabel then pos + 1 else pos in
      go pos ((key, param, Lint_tast.pattern_idents c.c_lhs) :: acc) c.c_rhs
    | Texp_function { arg_label; param; cases; _ } ->
      let key = param_key ~pos arg_label in
      { params = List.rev ((key, param, []) :: acc);
        bodies = List.map (fun c -> c.Typedtree.c_rhs) cases;
        scrutinee = Some (key, cases);
      }
    | _ -> { params = List.rev acc; bodies = [ e ]; scrutinee = None }
  in
  go 0 [] expr

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

(* Flatten nested applications and rewrite [@@]/[|>] so the true callee
   heads the argument list. *)
let rec flatten_apply (f : Typedtree.expression) args =
  match f.exp_desc with
  | Texp_apply (f', args') -> flatten_apply f' (args' @ args)
  | _ ->
    (match f.exp_desc with
     | Texp_ident (p, _, _) ->
       (match Lint_tast.strip_stdlib (Path.name p) with
        | "@@" ->
          (match args with
           | (_, Some g) :: rest -> flatten_apply g rest
           | _ -> (f, args))
        | "|>" ->
          (match args with
           | [ x; (_, Some g) ] -> flatten_apply g [ x ]
           | _ -> (f, args))
        | _ -> (f, args))
     | _ -> (f, args))

let cond_sink_key c =
  (c.cs_key, c.cs_rule, c.cs_file, c.cs_line, c.cs_col, c.cs_construct)

let add_cond_sink ctx c =
  if
    not
      (List.exists (fun c' -> cond_sink_key c' = cond_sink_key c) ctx.cur_sinks)
  then ctx.cur_sinks <- c :: ctx.cur_sinks

(* [emit]/[lift] a sink touched by [t] at the given site. *)
let sink_hit ctx ~rule ~construct ~site ~supp t =
  let line, col = Lint_tast.loc_of site in
  let here = Printf.sprintf "%s:%d: %s" ctx.cur_unit line construct in
  (match witness ~rule t with
   | Some steps ->
     ctx.emissions <-
       { e_rule = rule;
         e_construct = construct;
         e_file = ctx.cur_unit;
         e_line = line;
         e_col = col;
         e_binding = ctx.cur_binding;
         e_steps = steps @ [ here ];
         e_supp = supp;
       }
       :: ctx.emissions
   | None -> ());
  SMap.iter
    (fun key steps ->
      add_cond_sink ctx
        { cs_key = key;
          cs_rule = rule;
          cs_construct = construct;
          cs_file = ctx.cur_unit;
          cs_line = line;
          cs_col = col;
          cs_binding = ctx.cur_binding;
          cs_steps = steps @ [ here ];
          cs_supp = supp;
        })
    t.via

(* Fire a callee's parameter-conditional sinks against call-site
   argument taints, composing witnesses through the call. *)
let apply_cond_sinks ctx ~site ~callee (sinks : cond_sink list) arg_taints =
  List.iter
    (fun c ->
      match List.assoc_opt c.cs_key arg_taints with
      | None -> ()
      | Some t ->
        let call_step =
          step_at ctx site
            (Printf.sprintf "argument %s of %s" c.cs_key callee)
        in
        (match witness ~rule:c.cs_rule t with
         | Some steps ->
           ctx.emissions <-
             { e_rule = c.cs_rule;
               e_construct = c.cs_construct;
               e_file = c.cs_file;
               e_line = c.cs_line;
               e_col = c.cs_col;
               e_binding = c.cs_binding;
               e_steps = steps @ (call_step :: c.cs_steps);
               e_supp = c.cs_supp;
             }
             :: ctx.emissions
         | None -> ());
        SMap.iter
          (fun key steps ->
            add_cond_sink ctx
              { c with
                cs_key = key;
                cs_steps = steps @ (call_step :: c.cs_steps);
              })
          t.via)
    sinks

(* Instantiate a callee's return taint at a call site. *)
let instantiate_ret ctx ~site ~callee (s : summary) arg_taints =
  let ret = { s.s_ret with via = SMap.empty } in
  SMap.fold
    (fun key steps acc ->
      match List.assoc_opt key arg_taints with
      | None -> acc
      | Some t ->
        let call_step =
          step_at ctx site
            (Printf.sprintf "argument %s of %s" key callee)
        in
        let lift w = w @ (call_step :: steps) in
        join acc
          { direct = Option.map lift t.direct;
            compare_only = Option.map lift t.compare_only;
            via = SMap.map lift t.via;
          })
    s.s_ret.via ret

let lookup_summary ctx qual =
  Option.value ~default:empty_summary (Hashtbl.find_opt ctx.summaries qual)

(* Positional/labelled argument taints of a call, as callee param keys. *)
let keyed_args (evald : (Asttypes.arg_label * taint) list) =
  let pos = ref (-1) in
  List.filter_map
    (fun (lbl, t) ->
      let key =
        match lbl with
        | Asttypes.Nolabel ->
          incr pos;
          "#" ^ string_of_int !pos
        | Asttypes.Labelled l | Asttypes.Optional l -> "~" ^ l
      in
      if is_bot t then None else Some (key, t))
    evald

let rec eval ctx env (e : Typedtree.expression) : taint =
  let scopes = Lint_tast.suppressions e.exp_attributes in
  ctx.supp_stack <- scopes :: ctx.supp_stack;
  let t = eval_desc ctx env e in
  ctx.supp_stack <- List.tl ctx.supp_stack;
  let t =
    if has_secret_attr e.exp_attributes then
      join (source_taint (step_at ctx e "[@shs.secret] value")) t
    else t
  in
  if immediate_type e.exp_type then bot else t

and eval_desc ctx env (e : Typedtree.expression) : taint =
  match e.exp_desc with
  | Texp_constant _ -> bot
  | Texp_ident (p, _, _) ->
    (match p with
     | Path.Pident id when Hashtbl.mem env (Lint_tast.ident_key id) ->
       Hashtbl.find env (Lint_tast.ident_key id)
     | _ ->
       (match Lint_tast.resolve ctx.prog ~unit:ctx.cur_unit p with
        | Lint_tast.Fn cands ->
          (* a bare reference to a program binding: its value taint is
             the summary's unconditional part (no arguments to bind) *)
          List.fold_left
            (fun acc t ->
              join acc
                { (lookup_summary ctx t.Lint_tast.t_qual).s_ret with
                  via = SMap.empty;
                })
            bot cands
        | Lint_tast.Extern _ | Lint_tast.Local _ -> bot))
  | Texp_let (_, vbs, body) ->
    List.iter (fun vb -> eval_binding ctx env vb) vbs;
    eval ctx env body
  | Texp_function { cases; _ } ->
    (* inner lambda: its value carries whatever its body captures from
       the environment; its own parameters are clean here (they get
       bound at application sites of the *summarized* functions only) *)
    List.fold_left
      (fun acc (c : Typedtree.value Typedtree.case) ->
        List.iter (fun (id, _) -> Hashtbl.replace env (Lint_tast.ident_key id) bot)
          (Lint_tast.pattern_idents c.c_lhs);
        join acc (eval ctx env c.c_rhs))
      bot cases
  | Texp_apply (f, args) ->
    let f, args = flatten_apply f args in
    let evald =
      List.map
        (fun (lbl, arg) ->
          match arg with
          | Some a -> (lbl, eval ctx env a)
          | None -> (lbl, bot))
        args
    in
    let arg_taints = keyed_args evald in
    let arg_union =
      List.fold_left (fun acc (_, t) -> join acc t) bot evald
    in
    (match f.exp_desc with
     | Texp_ident (p, _, _) ->
       let names = Lint_tast.names_of ctx.prog ~unit:ctx.cur_unit p in
       let display = List.hd names in
       let matches l = List.exists (fun n -> List.mem n l) names in
       if matches ctx.cfg.compare_sinks then begin
         List.iter
           (fun (_, t) ->
             if not (is_bot t) then
               sink_hit ctx ~rule:"NO-POLY-COMPARE" ~construct:display ~site:e
                 ~supp:(suppressed ctx "NO-POLY-COMPARE") t)
           evald;
         bot
       end
       else if matches ctx.cfg.print_sinks then begin
         List.iter
           (fun (_, t) ->
             if not (is_bot t) then
               sink_hit ctx ~rule:"NO-SECRET-PRINT" ~construct:display ~site:e
                 ~supp:(suppressed ctx "NO-SECRET-PRINT") t)
           evald;
         bot
       end
       else if matches ctx.cfg.wire_sinks then begin
         if not (List.mem ctx.cur_unit ctx.cfg.wire_exempt_files) then
           List.iter
             (fun (_, t) ->
               if not (is_bot t) then
                 sink_hit ctx ~rule:"NO-PLAINTEXT-WIRE" ~construct:display
                   ~site:e ~supp:(suppressed ctx "NO-PLAINTEXT-WIRE") t)
             evald;
         bot
       end
       else if matches ctx.cfg.sources then
         source_taint (step_at ctx e (display ^ " (declared secret source)"))
       else if matches ctx.cfg.mac_sources then
         (* the tag is compare-only whatever its key's taint *)
         { bot with
           compare_only = Some [ step_at ctx e (display ^ " (MAC output)") ];
         }
       else if matches ctx.cfg.transparent_fns then
         (* configured transparency wins over the callee's summary: these
            are representation changes (to_hex, to_bytes_be, …) whose
            bodies decompose values into immediate types, which the
            clamp would otherwise launder to ⊥ *)
         arg_union
       else (
         match Lint_tast.resolve ctx.prog ~unit:ctx.cur_unit p with
         | Lint_tast.Fn cands ->
           List.fold_left
             (fun acc (t : Lint_tast.top) ->
               let s = lookup_summary ctx t.t_qual in
               apply_cond_sinks ctx ~site:e ~callee:t.t_qual s.s_sinks
                 arg_taints;
               if String.equal (mod_head t.t_qual) blinding_module then acc
               else
                 join acc (instantiate_ret ctx ~site:e ~callee:t.t_qual s arg_taints))
             bot cands
         | Lint_tast.Local id ->
           (* applying a local function value: its captured taint plus
              anything the arguments carry (conservative) *)
           let fn_t =
             Option.value ~default:bot (Hashtbl.find_opt env (Lint_tast.ident_key id))
           in
           join fn_t arg_union
         | Lint_tast.Extern name ->
           if
             List.mem name ctx.cfg.transparent_fns
             || List.mem (mod_head name) ctx.cfg.transparent_mods
             || not (String.contains name '.')
           then arg_union
           else bot)
     | _ ->
       (* unknown callee expression: evaluate it, join with arguments *)
       join (eval ctx env f) arg_union)
  | Texp_match (scrut, cases, _) ->
    let st = eval ctx env scrut in
    List.fold_left
      (fun acc (c : Typedtree.computation Typedtree.case) ->
        List.iter (fun (id, _) -> Hashtbl.replace env (Lint_tast.ident_key id) st)
          (Lint_tast.pattern_idents c.c_lhs);
        (match c.c_guard with Some g -> ignore (eval ctx env g) | None -> ());
        join acc (eval ctx env c.c_rhs))
      bot cases
  | Texp_try (body, cases) ->
    let bt = eval ctx env body in
    List.fold_left
      (fun acc (c : Typedtree.value Typedtree.case) ->
        List.iter (fun (id, _) -> Hashtbl.replace env (Lint_tast.ident_key id) bot)
          (Lint_tast.pattern_idents c.c_lhs);
        join acc (eval ctx env c.c_rhs))
      bt cases
  | Texp_ifthenelse (c, t, eo) ->
    ignore (eval ctx env c);
    let tt = eval ctx env t in
    (match eo with Some el -> join tt (eval ctx env el) | None -> tt)
  | Texp_record { fields; extended_expression; _ } ->
    (* records are the declared taint boundary: construction swallows
       taint, and only configured secret fields give it back *)
    (match extended_expression with
     | Some base -> ignore (eval ctx env base)
     | None -> ());
    Array.iter
      (fun (_, def) ->
        match def with
        | Typedtree.Overridden (_, fe) -> ignore (eval ctx env fe)
        | Typedtree.Kept _ -> ())
      fields;
    bot
  | Texp_field (r, _, ld) ->
    ignore (eval ctx env r);
    let tyname =
      match Types.get_desc ld.lbl_res with
      | Types.Tconstr (p, _, _) -> Path.last p
      | _ -> ""
    in
    if List.mem (tyname, ld.lbl_name) ctx.cfg.secret_fields then
      source_taint
        (step_at ctx e (Printf.sprintf "secret field %s.%s" tyname ld.lbl_name))
    else bot
  | _ ->
    (* generic: union of direct children (tuples, constructors, arrays,
       sequences, asserts, ...); [expr_children] stops at module exprs *)
    List.fold_left
      (fun acc c -> join acc (eval ctx env c))
      bot
      (Lint_tast.expr_children e)

and eval_binding ctx env (vb : Typedtree.value_binding) =
  ctx.supp_stack <- Lint_tast.suppressions vb.vb_attributes :: ctx.supp_stack;
  let t = eval ctx env vb.vb_expr in
  ctx.supp_stack <- List.tl ctx.supp_stack;
  let t =
    if has_secret_attr vb.vb_attributes then
      let line = vb.vb_loc.Location.loc_start.Lexing.pos_lnum in
      join
        (source_taint
           (Printf.sprintf "%s:%d: [@shs.secret] binding" ctx.cur_unit line))
        t
    else t
  in
  List.iter
    (fun (id, _) -> Hashtbl.replace env (Lint_tast.ident_key id) t)
    (Lint_tast.pattern_idents vb.vb_pat)

(* ------------------------------------------------------------------ *)
(* Per-function analysis and the fixpoint                              *)
(* ------------------------------------------------------------------ *)

let analyze_top ~cfg ~prog ~summaries ~collect (t : Lint_tast.top) =
  let ctx =
    { cfg;
      prog;
      summaries;
      emissions = [];
      cur_sinks = [];
      supp_stack = [ Lint_tast.suppressions t.t_attrs ];
      cur_unit = t.t_unit;
      cur_binding = t.t_name;
    }
  in
  let env = Hashtbl.create 32 in
  let { params; bodies; scrutinee } = peel t.t_expr in
  List.iter
    (fun (key, param, pids) ->
      let entry =
        Printf.sprintf "%s: parameter %s of %s" t.t_unit key t.t_qual
      in
      let pt = { bot with via = SMap.singleton key [ entry ] } in
      Hashtbl.replace env (Lint_tast.ident_key param) pt;
      List.iter (fun (id, _) -> Hashtbl.replace env (Lint_tast.ident_key id) pt) pids)
    params;
  (match scrutinee with
   | Some (key, cases) ->
     let entry =
       Printf.sprintf "%s: parameter %s of %s" t.t_unit key t.t_qual
     in
     let pt = { bot with via = SMap.singleton key [ entry ] } in
     List.iter
       (fun (c : Typedtree.value Typedtree.case) ->
         List.iter (fun (id, _) -> Hashtbl.replace env (Lint_tast.ident_key id) pt)
           (Lint_tast.pattern_idents c.c_lhs))
       cases
   | None -> ());
  let ret =
    List.fold_left (fun acc body -> join acc (eval ctx env body)) bot bodies
  in
  let ret =
    if has_secret_attr t.t_attrs then
      let line = t.t_expr.exp_loc.Location.loc_start.Lexing.pos_lnum in
      join
        (source_taint
           (Printf.sprintf "%s:%d: [@shs.secret] binding" t.t_unit line))
        ret
    else ret
  in
  collect ctx.emissions;
  { s_ret = ret; s_sinks = List.rev ctx.cur_sinks }

let max_rounds = 20

(* Converge summaries, then run one reporting pass with the fixed
   summaries; only that pass's emissions count, so nothing is reported
   twice and every witness reflects the final call-graph knowledge. *)
let run ~cfg (prog : Lint_tast.program) : emission list =
  let summaries = Hashtbl.create 256 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    changed := false;
    incr rounds;
    List.iter
      (fun (t : Lint_tast.top) ->
        let old = Hashtbl.find_opt summaries t.t_qual in
        let s =
          analyze_top ~cfg ~prog ~summaries ~collect:(fun _ -> ()) t
        in
        let s =
          (* monotone join with the previous round freezes witnesses *)
          match old with
          | None -> s
          | Some o ->
            { s_ret = join o.s_ret s.s_ret;
              s_sinks =
                o.s_sinks
                @ List.filter
                    (fun c ->
                      not
                        (List.exists
                           (fun c' -> cond_sink_key c' = cond_sink_key c)
                           o.s_sinks))
                    s.s_sinks;
            }
        in
        (match old with
         | Some o when summary_shape o = summary_shape s -> ()
         | _ ->
           changed := true;
           Hashtbl.replace summaries t.t_qual s))
      prog.p_tops
  done;
  let out = ref [] in
  List.iter
    (fun (t : Lint_tast.top) ->
      ignore
        (analyze_top ~cfg ~prog ~summaries
           ~collect:(fun es -> out := es @ !out)
           t))
    prog.p_tops;
  (* several callers can light up the same sink: keep one emission per
     site, smallest witness, for deterministic output *)
  let best = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let k = (e.e_rule, e.e_file, e.e_line, e.e_col, e.e_construct) in
      match Hashtbl.find_opt best k with
      | Some e' when compare e'.e_steps e.e_steps <= 0 -> ()
      | _ -> Hashtbl.replace best k e)
    !out;
  Hashtbl.fold (fun _ e acc -> e :: acc) best []
  |> List.sort (fun a b ->
         compare
           (a.e_file, a.e_line, a.e_col, a.e_rule, a.e_construct)
           (b.e_file, b.e_line, b.e_col, b.e_rule, b.e_construct))
