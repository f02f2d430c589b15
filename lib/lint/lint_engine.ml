(** The ledger of [shs_lint]: the coverage guard over the linted trees,
    the split of findings into actionable and suppressed, and both
    renderings of the result (human lines and the ["shs-lint/3"] JSON
    document).  Everything but {!discover} is pure, so the unit suite
    drives it with fixture programs typechecked in-process. *)

open Lint_types

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)
(* ------------------------------------------------------------------ *)

(* Every .ml under the linted trees of [root], as sorted root-relative
   paths.  Directories whose name starts with '.' or '_' are skipped. *)
let discover root =
  let hidden name = String.equal name "" || name.[0] = '.' || name.[0] = '_' in
  let rec walk rel acc =
    let names = Sys.readdir (Filename.concat root rel) in
    Array.sort compare names;
    Array.fold_left
      (fun acc name ->
        let rel' = rel ^ "/" ^ name in
        if hidden name then acc
        else if Sys.is_directory (Filename.concat root rel') then walk rel' acc
        else if Filename.check_suffix name ".ml" then rel' :: acc
        else acc)
      acc names
  in
  List.concat_map
    (fun d ->
      let dir = String.sub d 0 (String.length d - 1) in
      if Sys.file_exists (Filename.concat root dir) then walk dir [] else [])
    Lint_tast.linted_dirs
  |> List.sort compare

(* The sources no loaded unit covers: a partial build must not shrink
   the set of linted files without saying so. *)
let uncovered root ~covered =
  List.filter (fun f -> not (List.mem f covered)) (discover root)

(* ------------------------------------------------------------------ *)
(* Linting                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  files_scanned : int;
  actionable : finding list;  (** not suppressed; these fail the gate *)
  suppressed : finding list;
}

(* Sorted, one finding per site, rule and construct: a print of tainted
   data under lib/ is both a flow finding and an emitter reference, and
   the flow finding, which comes first and carries the witness, stays. *)
let ordered findings =
  let rec dedup = function
    | a :: b :: rest when compare_finding a b = 0 -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup (List.stable_sort compare_finding findings)

let lint ?config units =
  let actionable, suppressed =
    List.partition_map
      (fun (f, is_suppressed) -> if is_suppressed then Right f else Left f)
      (Lint_typed_rules.run ?config units)
  in
  { files_scanned = List.length units;
    actionable = ordered actionable;
    suppressed = ordered suppressed;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let finding_json f =
  Obs_json.Obj
    [ ("rule", Obs_json.Str f.rule);
      ("file", Obs_json.Str f.file);
      ("line", Obs_json.Int f.line);
      ("col", Obs_json.Int f.col);
      ("binding", Obs_json.Str f.binding);
      ("construct", Obs_json.Str f.construct);
      ("message", Obs_json.Str f.message);
      ("path", Obs_json.List (List.map (fun s -> Obs_json.Str s) f.path));
    ]

let report_json o =
  Obs_json.Obj
    [ ("schema", Obs_json.Str "shs-lint/3");
      ("files_scanned", Obs_json.Int o.files_scanned);
      ( "rules",
        Obs_json.List
          (List.map
             (fun r ->
               Obs_json.Obj
                 [ ("id", Obs_json.Str r.ri_id); ("doc", Obs_json.Str r.ri_doc) ])
             Lint_typed_rules.catalogue) );
      ("findings", Obs_json.List (List.map finding_json o.actionable));
      ("suppressed", Obs_json.List (List.map finding_json o.suppressed));
      ( "summary",
        Obs_json.Obj
          [ ("actionable", Obs_json.Int (List.length o.actionable));
            ("suppressed", Obs_json.Int (List.length o.suppressed));
          ] );
    ]

let finding_line f =
  Printf.sprintf "%s:%d:%d: [%s] (%s) %s — %s" f.file f.line f.col f.rule
    f.binding f.construct f.message

(* Human report, as one string the driver prints; gate status last, so a
   scrolled terminal still shows the verdict. *)
let render_human ?(quiet = false) o =
  let b = Buffer.create 256 in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  List.iter
    (fun f ->
      line (finding_line f);
      (* flow findings carry their source→sink witness *)
      List.iter (fun s -> line ("    " ^ s)) f.path)
    o.actionable;
  if not quiet then
    List.iter (fun f -> line ("suppressed: " ^ finding_line f)) o.suppressed;
  line
    (Printf.sprintf "shs_lint: %d file(s) scanned, %d actionable, %d suppressed"
       o.files_scanned
       (List.length o.actionable)
       (List.length o.suppressed));
  Buffer.contents b
