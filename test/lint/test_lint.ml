(* Tests for shs_lint (lib/lint), both passes.

   Untyped: each rule fires on a minimal fixture exactly once, a clean
   fixture yields nothing, suppression attributes and the baseline each
   retire findings without hiding new ones, and the JSON report is
   byte-deterministic.

   Typed: fixtures are typechecked in-process (Typemod over a threaded
   Env, no filesystem) and fed to the same whole-program analysis the
   driver runs over .cmt files — cross-module taint, recursive summary
   convergence, suppression scoping, the [@shs.secret] attribute, and
   cross-module TOTAL-DECODE. *)

let src path code = { Lint_engine.path; code }

let run ?rules ?typed ?baseline sources =
  Lint_engine.lint ?rules ?typed ?baseline sources

let rules_of (o : Lint_engine.outcome) =
  List.map (fun f -> f.Lint_types.rule) o.actionable

let check_counts label (o : Lint_engine.outcome) ~actionable ~baselined
    ~suppressed =
  Alcotest.(check int) (label ^ ": actionable") actionable
    (List.length o.actionable);
  Alcotest.(check int) (label ^ ": baselined") baselined
    (List.length o.baselined);
  Alcotest.(check int) (label ^ ": suppressed") suppressed
    (List.length o.suppressed);
  Alcotest.(check int) (label ^ ": parse failures") 0
    (List.length o.parse_failures)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* One fixture per untyped rule                                        *)
(* ------------------------------------------------------------------ *)

let ct_eq_fixture =
  src "lib/core/fixture.ml"
    "let check ~mac ~expected = String.equal mac expected\n"

let test_ct_eq () =
  let o = run [ ct_eq_fixture ] in
  check_counts "ct-eq" o ~actionable:1 ~baselined:0 ~suppressed:0;
  Alcotest.(check (list string)) "rule id" [ "CT-EQ" ] (rules_of o);
  let f = List.hd o.actionable in
  Alcotest.(check string) "construct" "String.equal" f.Lint_types.construct;
  Alcotest.(check string) "binding" "check" f.Lint_types.binding;
  Alcotest.(check string) "pass" "untyped" f.Lint_types.pass;
  Alcotest.(check int) "line" 1 f.Lint_types.line

let test_ct_eq_needs_secret_operand () =
  (* the same comparison over non-secret names is not a finding, and
     count-suffixed names ([key_len]) do not count as secrets *)
  let o =
    run
      [ src "lib/core/fixture.ml"
          "let same a b = String.equal a b\n\
           let fits ~key_len = key_len = 32\n\
           let missing ~kprime = kprime = None\n" ]
  in
  check_counts "non-secret operands" o ~actionable:0 ~baselined:0 ~suppressed:0

let test_ct_eq_out_of_scope () =
  (* CT-EQ only patrols the secret-bearing layers *)
  let o = run [ src "lib/net/fixture.ml" ct_eq_fixture.Lint_engine.code ] in
  check_counts "out of scope" o ~actionable:0 ~baselined:0 ~suppressed:0

let test_entropy () =
  let o =
    run [ src "lib/net/fixture.ml" "let jitter () = Random.float 1.0\n" ]
  in
  check_counts "entropy" o ~actionable:1 ~baselined:0 ~suppressed:0;
  Alcotest.(check (list string)) "rule id" [ "NO-AMBIENT-ENTROPY" ] (rules_of o);
  (* the rule patrols bin/ and bench/ too, not just lib/ *)
  let bench =
    run [ src "bench/fixture.ml" "let now () = Unix.gettimeofday ()\n" ]
  in
  check_counts "bench in scope" bench ~actionable:1 ~baselined:0 ~suppressed:0;
  (* the designated DRBG module is allowed to touch the ambient sources *)
  let allowed =
    run [ src "lib/hashing/drbg.ml" "let jitter () = Random.float 1.0\n" ]
  in
  check_counts "drbg allowlisted" allowed ~actionable:0 ~baselined:0
    ~suppressed:0

let test_total_decode () =
  let o =
    run
      [ src "lib/wire/fixture.ml"
          "let explode () = failwith \"boom\"\n\
           let decode s = if String.length s = 0 then explode () else s\n\
           let unrelated () = Option.get None\n" ]
  in
  (* [failwith] is flagged because [decode] reaches [explode] through the
     same-module call graph; [unrelated] is not on any decode path *)
  check_counts "total-decode" o ~actionable:1 ~baselined:0 ~suppressed:0;
  let f = List.hd o.actionable in
  Alcotest.(check string) "rule id" "TOTAL-DECODE" f.Lint_types.rule;
  Alcotest.(check string) "construct" "failwith" f.Lint_types.construct;
  Alcotest.(check string) "binding" "explode" f.Lint_types.binding

let test_taxonomy () =
  let o =
    run
      [ src "lib/error/fixture.ml"
          "let reject () = Error \"empty frame\"\n\
           let ok () = Error (`Malformed \"ctx\")\n" ]
  in
  (* only the bare-string payload is stringly; the tagged one is typed *)
  check_counts "taxonomy" o ~actionable:1 ~baselined:0 ~suppressed:0;
  Alcotest.(check (list string)) "rule id" [ "TAXONOMY" ] (rules_of o)

let test_no_secret_print () =
  let o =
    run
      [ src "lib/gsig/fixture.ml"
          "let secret_key = \"k\"\nlet dump () = print_endline secret_key\n" ]
  in
  check_counts "no-secret-print" o ~actionable:1 ~baselined:0 ~suppressed:0;
  Alcotest.(check (list string)) "rule id" [ "NO-SECRET-PRINT" ] (rules_of o);
  (* printing in a module without key material is fine *)
  let harmless =
    run [ src "lib/obs/fixture.ml" "let hello () = print_endline \"hi\"\n" ]
  in
  check_counts "print without secrets" harmless ~actionable:0 ~baselined:0
    ~suppressed:0

let test_clean_fixture () =
  let o =
    run
      [ src "lib/core/clean.ml"
          "let add a b = a + b\n\
           let tags_ok t = Hmac.equal_ct t \"expected\"\n" ]
  in
  check_counts "clean" o ~actionable:0 ~baselined:0 ~suppressed:0

let test_superseded_catalogue () =
  (* every rule the typed pass supersedes really is an untyped rule, and
     the typed catalogue is consistently tagged *)
  List.iter
    (fun id ->
      Alcotest.(check bool) ("superseded rule exists: " ^ id) true
        (Lint_rules.find id <> None))
    Lint_typed_rules.superseded;
  List.iter
    (fun (i : Lint_types.rule_info) ->
      Alcotest.(check string) ("typed pass tag: " ^ i.ri_id) "typed" i.ri_pass)
    Lint_typed_rules.catalogue

(* ------------------------------------------------------------------ *)
(* Suppression and baseline                                            *)
(* ------------------------------------------------------------------ *)

let test_suppression_attribute () =
  let o =
    run
      [ src "lib/core/fixture.ml"
          "let check ~mac ~expected =\n\
          \  (String.equal mac expected [@shs.lint_ignore \"CT-EQ\"])\n" ]
  in
  check_counts "suppressed" o ~actionable:0 ~baselined:0 ~suppressed:1;
  (* naming a different rule does not silence this one *)
  let wrong =
    run
      [ src "lib/core/fixture.ml"
          "let check ~mac ~expected =\n\
          \  (String.equal mac expected [@shs.lint_ignore \"TAXONOMY\"])\n" ]
  in
  check_counts "wrong rule named" wrong ~actionable:1 ~baselined:0 ~suppressed:0

let test_baseline_roundtrip () =
  let o = run [ ct_eq_fixture ] in
  let entries = Lint_engine.baseline_of_findings o.actionable in
  Alcotest.(check int) "one entry" 1 (List.length entries);
  Alcotest.(check string) "entry carries its pass" "untyped"
    (List.hd entries).Lint_engine.b_pass;
  let text = Lint_engine.baseline_to_string entries in
  Alcotest.(check bool) "v2 schema written" true
    (contains_sub text Lint_engine.baseline_schema);
  (match Lint_engine.baseline_of_string text with
   | None -> Alcotest.fail "baseline did not round-trip"
   | Some parsed ->
     Alcotest.(check bool) "entries survive round-trip" true (parsed = entries);
     let o' = run ~baseline:parsed [ ct_eq_fixture ] in
     check_counts "baselined run" o' ~actionable:0 ~baselined:1 ~suppressed:0;
     (* a second, new finding in the same file is NOT absorbed *)
     let two =
       src ct_eq_fixture.Lint_engine.path
         (ct_eq_fixture.Lint_engine.code
         ^ "let check2 ~mac ~expected = String.equal mac expected\n")
     in
     let o2 = run ~baseline:parsed [ two ] in
     check_counts "baseline does not grow" o2 ~actionable:1 ~baselined:1
       ~suppressed:0)

let v1_baseline_doc =
  "{\"schema\": \"shs-lint-baseline/1\", \"entries\": [{\"rule\": \"CT-EQ\", \
   \"file\": \"lib/core/fixture.ml\", \"binding\": \"check\", \"construct\": \
   \"String.equal\", \"count\": 1}]}"

let test_baseline_migration () =
  (* a v1 document parses, its entries come back pass-agnostic, and
     re-serializing yields the v2 schema that parses to the same
     entries — the --migrate-baseline round trip *)
  match Lint_engine.baseline_of_string v1_baseline_doc with
  | None -> Alcotest.fail "v1 baseline rejected"
  | Some entries ->
    Alcotest.(check int) "one entry" 1 (List.length entries);
    let e = List.hd entries in
    Alcotest.(check string) "v1 entries are pass-agnostic" "any"
      e.Lint_engine.b_pass;
    let migrated = Lint_engine.baseline_to_string entries in
    Alcotest.(check bool) "migration writes v2" true
      (contains_sub migrated Lint_engine.baseline_schema);
    Alcotest.(check bool) "migration is lossless" true
      (Lint_engine.baseline_of_string migrated = Some entries);
    (* a pass-agnostic allowance still absorbs the untyped finding *)
    let o = run ~baseline:entries [ ct_eq_fixture ] in
    check_counts "v1 allowance still applies" o ~actionable:0 ~baselined:1
      ~suppressed:0

let fabricated_typed_finding =
  { Lint_types.rule = "NO-POLY-COMPARE";
    severity = Lint_types.Error;
    file = "lib/gsig/fx.ml";
    line = 3;
    col = 2;
    binding = "cmp";
    construct = "String.equal";
    message = "structural comparison over secret-tainted data";
    pass = "typed";
    path = [ "lib/gsig/fx.ml:3: String.equal" ];
  }

let test_baseline_pass_specific () =
  (* an allowance scoped to the untyped pass must not retire a typed
     finding; "typed" and "any" allowances must *)
  let entry pass =
    { Lint_engine.b_rule = "NO-POLY-COMPARE";
      b_file = "lib/gsig/fx.ml";
      b_binding = "cmp";
      b_construct = "String.equal";
      b_count = 1;
      b_pass = pass;
    }
  in
  let with_pass pass =
    run ~typed:[ (fabricated_typed_finding, false) ] ~baseline:[ entry pass ] []
  in
  check_counts "untyped allowance misses typed finding" (with_pass "untyped")
    ~actionable:1 ~baselined:0 ~suppressed:0;
  check_counts "typed allowance applies" (with_pass "typed") ~actionable:0
    ~baselined:1 ~suppressed:0;
  check_counts "any allowance applies" (with_pass "any") ~actionable:0
    ~baselined:1 ~suppressed:0

let test_baseline_malformed () =
  Alcotest.(check bool) "empty object rejected" true
    (Lint_engine.baseline_of_string "{}" = None);
  Alcotest.(check bool) "garbage rejected" true
    (Lint_engine.baseline_of_string "not json" = None);
  Alcotest.(check bool) "wrong schema rejected" true
    (Lint_engine.baseline_of_string
       "{\"schema\": \"shs-bench/1\", \"entries\": []}"
    = None);
  Alcotest.(check bool) "bad pass value rejected" true
    (Lint_engine.baseline_of_string
       "{\"schema\": \"shs-lint-baseline/2\", \"entries\": [{\"rule\": \
        \"CT-EQ\", \"file\": \"f.ml\", \"binding\": \"b\", \"construct\": \
        \"c\", \"count\": 1, \"pass\": \"sideways\"}]}"
    = None)

(* ------------------------------------------------------------------ *)
(* Typed pass: in-process fixtures                                     *)
(* ------------------------------------------------------------------ *)

(* Typecheck a list of (path, module name, code) fixtures in order,
   threading the environment so later units see earlier ones as
   persistent modules — the same cross-module shape the driver gets
   from .cmt files, without touching the filesystem. *)
let typecheck units =
  Compmisc.init_path ();
  let env0 = Compmisc.initial_env () in
  let _, infos =
    List.fold_left
      (fun (env, acc) (path, modname, code) ->
        let lexbuf = Lexing.from_string code in
        Location.init lexbuf path;
        let ast = Parse.implementation lexbuf in
        let str, sg, _, _, _ = Typemod.type_structure env ast in
        let env =
          Env.add_module
            (Ident.create_persistent modname)
            Types.Mp_present (Types.Mty_signature sg) env
        in
        ( env,
          { Lint_tast.u_path = path; u_modname = modname; u_str = str } :: acc ))
      (env0, []) units
  in
  Lint_tast.index (List.rev infos)

(* Minimal policy for the fixtures: one source, one print sink, one
   compare sink. *)
let typed_config : Lint_taint.config =
  { sources = [ "A.gen" ];
    secret_fields = [];
    transparent_mods = [];
    transparent_fns = [];
    compare_sinks = [ "String.equal" ];
    print_sinks = [ "print_string" ];
    wire_sinks = [];
    wire_exempt_files = [];
  }

let run_typed units = Lint_typed_rules.run ~config:typed_config (typecheck units)

let cross_module_units =
  [ ("lib/gsig/a.ml", "A", "let gen () = \"k\"\n");
    ("lib/gsig/c.ml", "C", "let pass x = x\n");
    ("lib/gsig/b.ml", "B", "let leak () = print_string (C.pass (A.gen ()))\n");
  ]

let test_typed_cross_module () =
  (* the secret born in A flows through C's summary into B's sink — no
     single module shows the whole path *)
  match run_typed cross_module_units with
  | [ (f, suppressed) ] ->
    Alcotest.(check bool) "not suppressed" false suppressed;
    Alcotest.(check string) "rule" "NO-SECRET-PRINT" f.Lint_types.rule;
    Alcotest.(check string) "file" "lib/gsig/b.ml" f.Lint_types.file;
    Alcotest.(check string) "binding" "leak" f.Lint_types.binding;
    Alcotest.(check string) "pass" "typed" f.Lint_types.pass;
    let witness = String.concat " | " f.Lint_types.path in
    Alcotest.(check bool) "witness names the source" true
      (contains_sub witness "A.gen");
    Alcotest.(check bool) "witness crosses through C" true
      (contains_sub witness "C.pass");
    Alcotest.(check bool) "witness reaches the sink" true
      (contains_sub witness "print_string")
  | fs ->
    Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_typed_recursive_summary () =
  (* the taint survives a recursive carrier: the fixpoint must converge
     (this test terminating is half the point) and still report *)
  let fs =
    run_typed
      [ ("lib/gsig/a.ml", "A", "let gen () = \"k\"\n");
        ( "lib/gsig/r.ml",
          "R",
          "let rec churn n x = if n = 0 then x else churn (n - 1) x\n" );
        ( "lib/gsig/b.ml",
          "B",
          "let leak () = print_string (R.churn 3 (A.gen ()))\n" );
      ]
  in
  match fs with
  | [ (f, false) ] ->
    Alcotest.(check string) "rule" "NO-SECRET-PRINT" f.Lint_types.rule;
    Alcotest.(check string) "file" "lib/gsig/b.ml" f.Lint_types.file;
    Alcotest.(check bool) "witness goes through churn" true
      (contains_sub (String.concat " | " f.Lint_types.path) "R.churn")
  | fs ->
    Alcotest.failf "expected exactly one live finding, got %d" (List.length fs)

let test_typed_suppression_scoping () =
  (* a correctly named suppression retires the typed finding; naming a
     different rule does not *)
  let leak attr =
    [ ("lib/gsig/a.ml", "A", "let gen () = \"k\"\n");
      ( "lib/gsig/b.ml",
        "B",
        Printf.sprintf
          "let leak () = (print_string (A.gen ()) [@shs.lint_ignore %S])\n" attr
      );
    ]
  in
  (match run_typed (leak "NO-SECRET-PRINT") with
   | [ (_, true) ] -> ()
   | fs ->
     Alcotest.failf "expected one suppressed finding, got %d" (List.length fs));
  match run_typed (leak "CT-EQ") with
  | [ (_, false) ] -> ()
  | fs ->
    Alcotest.failf "expected one live finding, got %d" (List.length fs)

let test_typed_secret_attribute () =
  (* [@shs.secret] makes a local binding a source without any declared
     source function in the program *)
  let fs =
    run_typed
      [ ( "lib/gsig/m.ml",
          "M",
          "let show () = let x = (\"k\" [@shs.secret]) in print_string x\n" );
      ]
  in
  match fs with
  | [ (f, false) ] ->
    Alcotest.(check string) "rule" "NO-SECRET-PRINT" f.Lint_types.rule;
    Alcotest.(check bool) "witness names the attribute" true
      (contains_sub (String.concat " | " f.Lint_types.path) "[@shs.secret]")
  | fs ->
    Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_typed_total_decode_cross_module () =
  (* the partial construct lives in H, the decode entry in D: only the
     cross-module walk connects them *)
  let fs =
    run_typed
      [ ("lib/core/h.ml", "H", "let boom s = failwith s\n");
        ("lib/core/d.ml", "D", "let decode_frame s = H.boom s\n");
      ]
  in
  match fs with
  | [ (f, false) ] ->
    Alcotest.(check string) "rule" "TOTAL-DECODE" f.Lint_types.rule;
    Alcotest.(check string) "file" "lib/core/h.ml" f.Lint_types.file;
    Alcotest.(check string) "construct" "failwith" f.Lint_types.construct;
    Alcotest.(check string) "pass" "typed" f.Lint_types.pass;
    Alcotest.(check bool) "witness names the entry" true
      (contains_sub (String.concat " | " f.Lint_types.path) "decode_frame")
  | fs ->
    Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* The blinding boundary: a fixture bignum module [m] whose
   [pow_mod_multi] summary passes its argument's taint through, one
   wire sink, and [m.to_bytes_be] as the one transparent conversion. *)
let run_blinding m =
  Lint_typed_rules.run
    ~config:
      { typed_config with
        transparent_fns = [ m ^ ".to_bytes_be" ];
        wire_sinks = [ "Wire.encode" ];
      }
    (typecheck
       [ ("lib/gsig/a.ml", "A", "let gen () = \"k\"\n");
         ( "lib/bigint/n.ml",
           m,
           "let pow_mod_multi pairs = match pairs with (_, e) :: _ -> e | [] -> \"\"\n\
            let to_bytes_be x = x\n" );
         ("lib/wire/wire.ml", "Wire", "let encode s = s\n");
         ( "lib/core/u.ml",
           "U",
           Printf.sprintf
             "let blinded () = Wire.encode (%s.pow_mod_multi [ (\"g\", A.gen ()) ])\n\
              let leak () = Wire.encode (%s.to_bytes_be (A.gen ()))\n"
             m m );
       ])

let test_typed_blinding_boundary () =
  (* a secret exponent through Bigint.pow_mod_multi reaches the wire
     clean; the same secret through the byte view still fires *)
  (match run_blinding "Bigint" with
   | [ (f, false) ] ->
     Alcotest.(check string) "rule" "NO-PLAINTEXT-WIRE" f.Lint_types.rule;
     Alcotest.(check string) "binding" "leak" f.Lint_types.binding;
     Alcotest.(check bool) "witness names the source" true
       (contains_sub (String.concat " | " f.Lint_types.path) "A.gen")
   | fs ->
     Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  (* the fixture's summary does carry the taint: under any other module
     name both calls fire *)
  Alcotest.(check int) "both fire outside Bigint" 2
    (List.length (run_blinding "Bignum"))

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_determinism () =
  let sources =
    [ ct_eq_fixture;
      src "lib/net/fixture.ml" "let jitter () = Random.float 1.0\n";
      src "lib/error/fixture.ml" "let reject () = Error \"empty\"\n";
    ]
  in
  let render () =
    Obs_json.to_string ~pretty:true (Lint_engine.report_json (run sources))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical reports" a b;
  Alcotest.(check bool) "schema tagged" true
    (match Obs_json.of_string a with
     | Some doc -> Obs_json.member "schema" doc = Some (Obs_json.Str "shs-lint/2")
     | None -> false)

let test_typed_json_determinism () =
  (* the whole pipeline — typecheck, fixpoint, report — twice from
     scratch; hashtable iteration anywhere inside would break this *)
  let render () =
    let typed = run_typed cross_module_units in
    Obs_json.to_string ~pretty:true
      (Lint_engine.report_json (run ~typed [ ct_eq_fixture ]))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical typed reports" a b;
  Alcotest.(check bool) "typed finding carries its witness" true
    (contains_sub a "A.gen")

let test_parse_failure_exit_path () =
  let o = run [ src "lib/core/broken.ml" "let let let\n" ] in
  Alcotest.(check int) "one parse failure" 1 (List.length o.parse_failures);
  Alcotest.(check int) "no findings" 0 (List.length o.actionable)

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "CT-EQ fires once" `Quick test_ct_eq;
          Alcotest.test_case "CT-EQ needs a secret operand" `Quick
            test_ct_eq_needs_secret_operand;
          Alcotest.test_case "CT-EQ scope" `Quick test_ct_eq_out_of_scope;
          Alcotest.test_case "NO-AMBIENT-ENTROPY" `Quick test_entropy;
          Alcotest.test_case "TOTAL-DECODE via call graph" `Quick
            test_total_decode;
          Alcotest.test_case "TAXONOMY" `Quick test_taxonomy;
          Alcotest.test_case "NO-SECRET-PRINT" `Quick test_no_secret_print;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "superseded/catalogue consistency" `Quick
            test_superseded_catalogue;
        ] );
      ( "mechanisms",
        [ Alcotest.test_case "suppression attribute" `Quick
            test_suppression_attribute;
          Alcotest.test_case "baseline round-trip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "baseline v1 migration" `Quick
            test_baseline_migration;
          Alcotest.test_case "baseline pass scoping" `Quick
            test_baseline_pass_specific;
          Alcotest.test_case "malformed baseline" `Quick test_baseline_malformed;
          Alcotest.test_case "deterministic JSON" `Quick test_json_determinism;
          Alcotest.test_case "parse failure surfaces" `Quick
            test_parse_failure_exit_path;
        ] );
      ( "typed",
        [ Alcotest.test_case "cross-module taint A->C->B" `Quick
            test_typed_cross_module;
          Alcotest.test_case "recursive summary converges" `Quick
            test_typed_recursive_summary;
          Alcotest.test_case "suppression scoping" `Quick
            test_typed_suppression_scoping;
          Alcotest.test_case "[@shs.secret] attribute" `Quick
            test_typed_secret_attribute;
          Alcotest.test_case "cross-module TOTAL-DECODE" `Quick
            test_typed_total_decode_cross_module;
          Alcotest.test_case "deterministic typed JSON" `Quick
            test_typed_json_determinism;
          Alcotest.test_case "Bigint is the blinding boundary" `Quick
            test_typed_blinding_boundary;
        ] );
    ]
