(* shs_lint: driver for the repo's domain-specific static analysis
   (lib/lint, DESIGN.md §9).

   Loads the .cmt Typedtrees of every .ml under lib/, bin/ and bench/
   from --root/_build/default, runs the rule catalogue over them
   (cross-module secret taint, decode totality, ambient entropy, error
   taxonomy), subtracts inline [@shs.lint_ignore] suppressions, and
   exits

     0  no actionable findings
     1  at least one actionable finding (the CI gate)
     2  a source under lib/, bin/ or bench/ has no .cmt (build with
        `dune build @check` first), or there is nothing to lint

   Typical invocations:

     dune build @lint                                 # the CI gate
     dune exec bin/shs_lint.exe -- --json             # shs-lint/3 report
     dune exec bin/shs_lint.exe -- --list-rules *)

let print_rule_catalogue () =
  List.iter
    (fun (i : Lint_types.rule_info) -> Printf.printf "%-20s %s\n" i.ri_id i.ri_doc)
    Lint_typed_rules.catalogue

let run root json list_rules quiet =
  if list_rules then begin
    print_rule_catalogue ();
    0
  end
  else
    let units = Lint_tast.load_units root in
    let covered = List.map (fun (u : Lint_tast.unit_info) -> u.u_path) units in
    match Lint_engine.uncovered root ~covered with
    | _ :: _ as missing ->
      List.iter (fun f -> prerr_endline ("shs_lint: no .cmt for " ^ f)) missing;
      prerr_endline "shs_lint: run `dune build @check` before linting";
      2
    | [] when units = [] ->
      prerr_endline ("shs_lint: no .ml under lib/, bin/ or bench/ of " ^ root);
      2
    | [] ->
      let o = Lint_engine.lint units in
      if json then
        print_string
          (Obs_json.to_string ~pretty:true (Lint_engine.report_json o) ^ "\n")
      else print_string (Lint_engine.render_human ~quiet o);
      if o.actionable <> [] then 1 else 0

open Cmdliner

let root_t =
  Arg.(
    value
    & opt string "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to lint (default: .).")

let json_t =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the shs-lint/3 JSON report.")

let list_rules_t =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"Print the rule catalogue.")

let quiet_t =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Omit suppressed findings from the human report.")

let main =
  Cmd.v
    (Cmd.info "shs_lint" ~version:"3.0.0"
       ~doc:"Crypto-hygiene and determinism linter for the shs codebase")
    Term.(const run $ root_t $ json_t $ list_rules_t $ quiet_t)

let () = exit (Cmd.eval' main)
