(** The ledger of [shs_lint]: coverage guard, suppression split and
    rendering.  Only {!discover} and {!uncovered} touch the
    filesystem. *)

(** {1 Coverage} *)

val discover : string -> string list
(** Every [.ml] under [lib/], [bin/] and [bench/] of the root, as sorted
    root-relative paths, skipping directories whose name starts with
    ['.'] or ['_']. *)

val uncovered : string -> covered:string list -> string list
(** [uncovered root ~covered] is {!discover}[ root] minus [covered]: the
    sources no loaded [.cmt] unit stands for. *)

(** {1 Linting} *)

type outcome = {
  files_scanned : int;  (** units analysed *)
  actionable : Lint_types.finding list;
      (** not suppressed — any of these fails the gate *)
  suppressed : Lint_types.finding list;
}

val lint : ?config:Lint_taint.config -> Lint_tast.unit_info list -> outcome
(** Run every rule ({!Lint_typed_rules.run}, taint policy [config],
    default the repo's) over the units.  Finding lists come back sorted
    by [Lint_types.compare_finding] with one finding per site, rule and
    construct (a flow finding wins, for its witness), so equal inputs
    yield byte-equal reports. *)

(** {1 Rendering} *)

val report_json : outcome -> Obs_json.t
(** The deterministic ["shs-lint/3"] document; findings carry their
    source→sink [path] witness where the rule has one. *)

val finding_line : Lint_types.finding -> string
(** ["file:line:col: [RULE] (binding) construct — message"]. *)

val render_human : ?quiet:bool -> outcome -> string
(** Human report; [quiet] omits suppressed lines.  Ends with a one-line
    summary. *)
