(** Shared vocabulary of [shs_lint], the repo's domain-specific static
    analysis (DESIGN.md §9).

    The analysis is one typed pass: it loads the whole program's [.cmt]
    Typedtrees ({!Lint_tast}), runs a secret-taint dataflow over the
    cross-module call graph ({!Lint_taint}) and the reference checks of
    {!Lint_typed_rules}.  Every rule produces the same {!finding} shape;
    a finding is "actionable" unless an in-scope
    [[@shs.lint_ignore "RULE"]] attribute suppresses it, and any
    actionable finding fails the gate. *)

type finding = {
  rule : string;  (** rule id, e.g. ["NO-POLY-COMPARE"] *)
  file : string;  (** path relative to the lint root, '/'-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based column, as the compiler reports *)
  binding : string;
      (** enclosing top-level binding (module nesting flattened), or
          ["<toplevel>"] for bare structure-level expressions *)
  construct : string;  (** offending construct, e.g. ["String.equal"] *)
  message : string;
  path : string list;
      (** source→sink witness ("file:line: step" per hop) for flow
          findings; [[]] when the flagged site is the whole evidence *)
}

(* Deterministic report order: by position, then rule, then construct —
   two runs over the same tree must serialize byte-identically. *)
let compare_finding a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c
      else
        let c = compare a.rule b.rule in
        if c <> 0 then c else compare a.construct b.construct

(** Rule catalogue entry, as the report and [--list-rules] show it. *)
type rule_info = { ri_id : string; ri_doc : string }
