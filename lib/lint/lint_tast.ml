(** Typed program model for [shs_lint]: loading [.cmt] Typedtrees
    ([Cmt_format]), flattening every compilation unit into a list of
    top-level bindings, resolving [Path.t] references to a whole-program
    qualified namespace, and the [[@shs.lint_ignore]] suppression scopes
    every rule walks under.

    Resolution semantics (probed against this repo's own cmts):
    - references to global compilation units appear directly
      (["Hkdf.derive"], ["Secretbox.seal"]) — every repo library is
      [(wrapped false)];
    - [Stdlib] members appear as ["Stdlib.compare"],
      ["Stdlib.String.sub"] — the leading ["Stdlib."] is stripped;
    - local module aliases ([module B = Bigint]) are {e not} resolved in
      paths (the head stays the non-global [B]) — we rebuild the alias
      map per unit from [Tstr_module] bindings;
    - functor-parameter members ([C.rekey] inside [Gcd.Make]) have a
      non-global head that no alias explains — those fall back to
      resolution by last name across every scanned unit, capped so an
      overly common name resolves to nothing rather than to everything. *)

type unit_info = {
  u_path : string;  (** source path relative to the repo root *)
  u_modname : string;  (** compilation unit name, e.g. ["Gcd"] *)
  u_str : Typedtree.structure;
}

type top = {
  t_unit : string;  (** owning unit's [u_path] *)
  t_qual : string;  (** qualified name, e.g. ["Gcd.admit"] *)
  t_name : string;  (** last component of [t_qual] *)
  t_ids : Ident.t list;  (** idents the binding's pattern introduces *)
  t_attrs : Parsetree.attributes;
  t_expr : Typedtree.expression;
}

(* ------------------------------------------------------------------ *)
(* cmt discovery and loading                                           *)
(* ------------------------------------------------------------------ *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* The trees the linter covers, as root-relative directory prefixes. *)
let linted_dirs = [ "lib/"; "bin/"; "bench/" ]

(* Every .cmt under the linted trees of the dune build tree (or of
   [root] itself when running from inside _build/default): dune keeps a
   unit's cmt under its source directory.  Unlike source discovery,
   dot-directories must be walked: dune keeps cmts in .objs/byte. *)
let discover_cmts root =
  let base =
    let d = Filename.concat (Filename.concat root "_build") "default" in
    if Sys.file_exists d && Sys.is_directory d then d else root
  in
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
      Array.sort compare names;
      Array.iter
        (fun name ->
          let p = Filename.concat dir name in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix name ".cmt" then acc := p :: !acc)
        names
  in
  List.iter (fun d -> walk (Filename.concat base d)) linted_dirs;
  List.rev !acc

(* Load the Implementation cmts whose recorded source lives under one of
   [linted_dirs] (dune records sources root-relative, e.g.
   "lib/core/gcd.ml").  Unreadable or foreign cmts are skipped here; the
   linter's coverage guard then names every source left without a unit. *)
let load_units root =
  let keep src =
    Filename.check_suffix src ".ml"
    && List.exists (fun d -> starts_with d src) linted_dirs
  in
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception _ -> None
      | cmt ->
        (match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
         | Cmt_format.Implementation str, Some src
           when keep src && not (Hashtbl.mem seen src) ->
           Hashtbl.add seen src ();
           Some { u_path = src; u_modname = cmt.Cmt_format.cmt_modname; u_str = str }
         | _ -> None))
    (discover_cmts root)
  |> List.sort (fun a b -> compare a.u_path b.u_path)

(* ------------------------------------------------------------------ *)
(* Pattern and expression helpers                                      *)
(* ------------------------------------------------------------------ *)

let pattern_idents (type k) (p : k Typedtree.general_pattern) =
  let acc = ref [] in
  let f : type a. Tast_iterator.iterator -> a Typedtree.general_pattern -> unit
      =
   fun self p ->
    (match p.pat_desc with
     | Typedtree.Tpat_var (id, { txt; _ }) -> acc := (id, txt) :: !acc
     | Typedtree.Tpat_alias (_, id, { txt; _ }) -> acc := (id, txt) :: !acc
     | _ -> ());
    Tast_iterator.default_iterator.pat self p
  in
  let it = { Tast_iterator.default_iterator with pat = f } in
  it.pat it p;
  List.rev !acc

(* Direct sub-expressions of [e], one level deep — the generic join in
   the taint evaluator and the generic descent in the graph walk. *)
let expr_children (e : Typedtree.expression) =
  let acc = ref [] in
  let it =
    { Tast_iterator.default_iterator with
      expr = (fun _ c -> acc := c :: !acc);
      (* a [let module]/[let open] body is still this expression's
         child, but do not descend into module expressions here *)
      module_expr = (fun _ _ -> ());
    }
  in
  Tast_iterator.default_iterator.expr it e;
  List.rev !acc

let loc_of (e : Typedtree.expression) =
  let p = e.exp_loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Stable per-binder key ("name_stamp"): [Ident] does not expose stamps,
   but [unique_name] embeds one, and a reference to a binder carries the
   binder's own ident. *)
let ident_key (id : Ident.t) = Ident.unique_name id

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                              *)
(* ------------------------------------------------------------------ *)

let ignore_attr = "shs.lint_ignore"

(* [[@shs.lint_ignore "NO-POLY-COMPARE"]] or a comma-separated list of
   rule ids; a payload of ["all"] silences every rule for the subtree. *)
let suppressions (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if not (String.equal a.attr_name.txt ignore_attr) then []
      else
        match a.attr_payload with
        | PStr
            [ { pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              }
            ] ->
          List.filter_map
            (fun r ->
              let r = String.trim r in
              if String.equal r "" then None else Some r)
            (String.split_on_char ',' s)
        | _ -> [])
    attrs

let is_suppressed stack rule =
  List.exists (fun l -> List.mem rule l || List.mem "all" l) stack

(* Visit every expression under [expr0], calling [f] with the rule
   suppressions active at that node ([suppressed] answers for a rule
   id).  Attributes on nested [let] bindings scope over the binding's
   own expression, as the compiler scopes its own attributes. *)
let iter_expr ~init ~f expr0 =
  let stack = ref [ init ] in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun self (e : Typedtree.expression) ->
          stack := suppressions e.exp_attributes :: !stack;
          f ~suppressed:(is_suppressed !stack) e;
          Tast_iterator.default_iterator.expr self e;
          stack := List.tl !stack);
      value_binding =
        (fun self (vb : Typedtree.value_binding) ->
          stack := suppressions vb.vb_attributes :: !stack;
          Tast_iterator.default_iterator.value_binding self vb;
          stack := List.tl !stack);
    }
  in
  it.expr it expr0

(* ------------------------------------------------------------------ *)
(* Flattening units into top-level bindings                            *)
(* ------------------------------------------------------------------ *)

let rec tops_of_str ~u ~mpath ~aliases (str : Typedtree.structure) acc =
  List.fold_left
    (fun acc (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.fold_left
          (fun acc (vb : Typedtree.value_binding) ->
            let ids = pattern_idents vb.vb_pat in
            let name = match ids with (_, n) :: _ -> n | [] -> "<pattern>" in
            { t_unit = u.u_path;
              t_qual = String.concat "." (List.rev (name :: mpath));
              t_name = name;
              t_ids = List.map fst ids;
              t_attrs = vb.vb_attributes;
              t_expr = vb.vb_expr;
            }
            :: acc)
          acc vbs
      | Tstr_eval (e, attrs) ->
        { t_unit = u.u_path;
          t_qual = String.concat "." (List.rev ("<toplevel>" :: mpath));
          t_name = "<toplevel>";
          t_ids = [];
          t_attrs = attrs;
          t_expr = e;
        }
        :: acc
      | Tstr_module mb -> tops_of_mb ~u ~mpath ~aliases mb acc
      | Tstr_recmodule mbs ->
        List.fold_left (fun acc mb -> tops_of_mb ~u ~mpath ~aliases mb acc) acc mbs
      | Tstr_include incl -> tops_of_me ~u ~mpath ~aliases incl.incl_mod acc
      | _ -> acc)
    acc str.str_items

and tops_of_mb ~u ~mpath ~aliases (mb : Typedtree.module_binding) acc =
  let name =
    match (mb.mb_name.Location.txt, mb.mb_id) with
    | Some n, _ -> n
    | None, Some id -> Ident.name id
    | None, None -> "_"
  in
  (match mb.mb_expr.mod_desc with
   | Tmod_ident (p, _) ->
     (* [module B = Bigint]-style alias: later paths keep the head [B] *)
     Hashtbl.replace aliases name (Path.name p)
   | _ -> ());
  tops_of_me ~u ~mpath:(name :: mpath) ~aliases mb.mb_expr acc

and tops_of_me ~u ~mpath ~aliases (me : Typedtree.module_expr) acc =
  match me.mod_desc with
  | Tmod_structure str -> tops_of_str ~u ~mpath ~aliases str acc
  | Tmod_functor (_, body) -> tops_of_me ~u ~mpath ~aliases body acc
  | Tmod_constraint (me, _, _, _) -> tops_of_me ~u ~mpath ~aliases me acc
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* Whole-program index                                                 *)
(* ------------------------------------------------------------------ *)

type program = {
  p_units : unit_info list;
  p_tops : top list;  (** source order within each unit, units sorted *)
  p_by_qual : (string, top) Hashtbl.t;
  p_by_local : (string * string, top) Hashtbl.t;
      (** (unit path, {!ident_key}) — same-structure references are plain
          non-global [Pident]s carrying the definition's own ident *)
  p_by_name : (string, top list) Hashtbl.t;  (** last name → candidates *)
  p_aliases : (string, (string, string) Hashtbl.t) Hashtbl.t;
      (** unit path → local module alias map *)
}

let index units =
  let p_by_qual = Hashtbl.create 256 in
  let p_by_local = Hashtbl.create 256 in
  let p_by_name = Hashtbl.create 256 in
  let p_aliases = Hashtbl.create 64 in
  let p_tops =
    List.concat_map
      (fun u ->
        let aliases = Hashtbl.create 8 in
        Hashtbl.replace p_aliases u.u_path aliases;
        let tops =
          List.rev (tops_of_str ~u ~mpath:[ u.u_modname ] ~aliases u.u_str [])
        in
        List.iter
          (fun t ->
            if not (Hashtbl.mem p_by_qual t.t_qual) then
              Hashtbl.add p_by_qual t.t_qual t;
            List.iter
              (fun id ->
                Hashtbl.replace p_by_local (u.u_path, ident_key id) t)
              t.t_ids;
            Hashtbl.replace p_by_name t.t_name
              (Option.value ~default:[] (Hashtbl.find_opt p_by_name t.t_name)
              @ [ t ]))
          tops;
        tops)
      units
  in
  { p_units = units; p_tops; p_by_qual; p_by_local; p_by_name; p_aliases }

(* ------------------------------------------------------------------ *)
(* Path resolution                                                     *)
(* ------------------------------------------------------------------ *)

let rec head_ident = function
  | Path.Pident id -> Some id
  | Path.Pdot (p, _) -> head_ident p
  | _ -> None

let strip_stdlib name =
  let pre = "Stdlib." in
  if String.length name > String.length pre && starts_with pre name then
    String.sub name (String.length pre) (String.length name - String.length pre)
  else name

(* Normalized dotted name of a reference as the rest of the linter
   matches it: Stdlib-stripped and local-alias-expanded. *)
let normalize prog ~unit path =
  let name = strip_stdlib (Path.name path) in
  match head_ident path with
  | Some id when Ident.global id -> name
  | _ ->
    (match String.index_opt name '.' with
     | None -> name
     | Some i ->
       let head = String.sub name 0 i in
       let rest = String.sub name i (String.length name - i) in
       (match Hashtbl.find_opt prog.p_aliases unit with
        | Some aliases ->
          (match Hashtbl.find_opt aliases head with
           | Some target -> strip_stdlib target ^ rest
           | None -> name)
        | None -> name))

(* How many same-last-name candidates the functor-parameter fallback may
   return before we refuse to guess. *)
let fallback_cap = 8

type resolution =
  | Fn of top list  (** program functions this reference may denote *)
  | Extern of string  (** normalized dotted name outside the program *)
  | Local of Ident.t  (** a genuinely local value (parameter, let) *)

let resolve prog ~unit path =
  match path with
  | Path.Pident id when not (Ident.global id) ->
    (match Hashtbl.find_opt prog.p_by_local (unit, ident_key id) with
     | Some t -> Fn [ t ]
     | None -> Local id)
  | _ ->
    let name = normalize prog ~unit path in
    (match Hashtbl.find_opt prog.p_by_qual name with
     | Some t -> Fn [ t ]
     | None ->
       let head_global =
         match head_ident path with Some id -> Ident.global id | None -> false
       in
       let aliased =
         (* an alias-expanded head is as good as a global one *)
         not (String.equal name (strip_stdlib (Path.name path)))
       in
       if head_global || aliased || not (String.contains name '.') then
         Extern name
       else
         (* non-global dotted head: a functor parameter or local module —
            fall back to every unit's binding with the same last name *)
         let last =
           match String.rindex_opt name '.' with
           | Some i -> String.sub name (i + 1) (String.length name - i - 1)
           | None -> name
         in
         (match Hashtbl.find_opt prog.p_by_name last with
          | Some cands when cands <> [] && List.length cands <= fallback_cap ->
            Fn cands
          | _ -> Extern name))

(* The normalized names a reference can answer to: the exact dotted name
   plus, for [Fn] resolutions, every candidate's qualified name.  Source
   and sink membership tests run over this set. *)
let names_of prog ~unit path =
  let n = normalize prog ~unit path in
  match resolve prog ~unit path with
  | Fn cands -> n :: List.map (fun t -> t.t_qual) cands
  | Extern n' -> if String.equal n n' then [ n ] else [ n; n' ]
  | Local _ -> [ n ]
