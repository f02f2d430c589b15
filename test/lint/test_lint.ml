(* Tests for shs_lint (lib/lint).

   Fixtures are typechecked in-process (Typemod over a threaded Env, no
   filesystem) and fed to the same whole-program analysis shs_lint
   runs over .cmt files: each rule fires on a minimal fixture, a clean
   fixture yields nothing, suppression attributes retire findings
   without hiding others, the JSON report is byte-deterministic, and
   the taint engine handles cross-module flow, recursive summaries, the
   [@shs.secret] attribute, the blinding boundary and compare-only MAC
   tags.  The in-process environment does not load [unix], so the
   entropy fixtures use [Sys.time] and [Random]. *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

(* Typecheck a list of (path, module name, code) fixtures in order,
   threading the environment so later units see earlier ones as
   persistent modules — the same cross-module shape shs_lint gets
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
  List.rev infos

(* Minimal policy for the flow fixtures: one source, one log sink, one
   compare sink.  The sink is a logger, not a channel emitter, because
   NO-SECRET-PRINT bans emitters from lib/ whatever they print. *)
let typed_config : Lint_taint.config =
  { sources = [ "A.gen" ];
    mac_sources = [];
    secret_fields = [];
    transparent_mods = [];
    transparent_fns = [];
    compare_sinks = [ "String.equal" ];
    print_sinks = [ "Log.info" ];
    wire_sinks = [];
    wire_exempt_files = [];
  }

let log_unit = ("lib/obs/log.ml", "Log", "let info (_ : string) = ()\n")

let run_typed units =
  Lint_typed_rules.run ~config:typed_config (typecheck (log_unit :: units))

(* The whole ledger under the repo policy, for rules outside the taint
   engine and for the MAC fixtures. *)
let lint units = Lint_engine.lint (typecheck units)

let rules_of (o : Lint_engine.outcome) =
  List.map (fun f -> f.Lint_types.rule) o.actionable

let constructs_of (o : Lint_engine.outcome) =
  List.map (fun f -> f.Lint_types.construct) o.actionable

let check_counts label (o : Lint_engine.outcome) ~actionable ~suppressed =
  Alcotest.(check int) (label ^ ": actionable") actionable
    (List.length o.actionable);
  Alcotest.(check int) (label ^ ": suppressed") suppressed
    (List.length o.suppressed)

(* A constant-time compare shaped like the repo's, and a MAC whose tag
   is plainly derived from its key. *)
let hmac_unit =
  ( "lib/hashing/hmac.ml",
    "Hmac",
    "let mac_prepared key parts = String.concat key parts\n\
     let equal_ct a b =\n\
    \  String.length a = String.length b\n\
    \  && (let d = ref 0 in\n\
    \      String.iteri (fun i c -> d := !d lor (Char.code c lxor Char.code b.[i])) a;\n\
    \      !d = 0)\n" )

(* ------------------------------------------------------------------ *)
(* One fixture per reference rule                                      *)
(* ------------------------------------------------------------------ *)

let test_entropy () =
  let o =
    lint [ ("lib/net/fixture.ml", "Fixture", "let jitter () = Random.float 1.0\n") ]
  in
  check_counts "entropy" o ~actionable:1 ~suppressed:0;
  Alcotest.(check (list string)) "rule id" [ "NO-AMBIENT-ENTROPY" ] (rules_of o);
  Alcotest.(check (list string)) "construct" [ "Random.float" ] (constructs_of o);
  (* the rule patrols bin/ and bench/ too, not just lib/ *)
  let bench = lint [ ("bench/fixture.ml", "Fixture", "let now () = Sys.time ()\n") ] in
  check_counts "bench in scope" bench ~actionable:1 ~suppressed:0;
  (* the Obs clock is the one designated reader of the wall clock *)
  let clock = lint [ ("lib/obs/obs.ml", "Obs", "let now () = Sys.time ()\n") ] in
  check_counts "obs clock allowlisted" clock ~actionable:0 ~suppressed:0;
  (* the DRBG reads no ambient source, so it is held to the rule *)
  let drbg =
    lint [ ("lib/hashing/drbg.ml", "Drbg", "let jitter () = Random.float 1.0\n") ]
  in
  check_counts "drbg not exempt" drbg ~actionable:1 ~suppressed:0

let test_total_decode () =
  let o =
    lint
      [ ( "lib/wire/fixture.ml",
          "Fixture",
          "let explode () = failwith \"boom\"\n\
           let decode s = if String.length s = 0 then explode () else s\n\
           let unrelated () = Option.get None\n" );
      ]
  in
  (* [failwith] is flagged because [decode] reaches [explode] through the
     call graph; [unrelated] is not on any decode path *)
  check_counts "total-decode" o ~actionable:1 ~suppressed:0;
  let f = List.hd o.actionable in
  Alcotest.(check string) "rule id" "TOTAL-DECODE" f.Lint_types.rule;
  Alcotest.(check string) "construct" "failwith" f.Lint_types.construct;
  Alcotest.(check string) "binding" "explode" f.Lint_types.binding

let test_taxonomy () =
  let o =
    lint
      [ ( "lib/error/fixture.ml",
          "Fixture",
          "let reject () = Error \"empty frame\"\n\
           let ok () = Error (`Malformed \"ctx\")\n" );
      ]
  in
  (* only the bare-string payload is stringly; the tagged one is typed *)
  check_counts "taxonomy" o ~actionable:1 ~suppressed:0;
  Alcotest.(check (list string)) "rule id" [ "TAXONOMY" ] (rules_of o)

let test_no_secret_print () =
  let o =
    lint [ ("lib/gsig/fixture.ml", "Fixture", "let dump () = print_endline \"hi\"\n") ]
  in
  check_counts "no-secret-print" o ~actionable:1 ~suppressed:0;
  Alcotest.(check (list string)) "rule id" [ "NO-SECRET-PRINT" ] (rules_of o);
  (* a pretty-printer aimed at the standard formatter emits as surely *)
  let pp =
    lint
      [ ( "lib/gsig/fixture.ml",
          "Fixture",
          "let dump () = Format.pp_print_string Format.std_formatter \"hi\"\n" );
      ]
  in
  Alcotest.(check (list string)) "standard formatter" [ "Format.std_formatter" ]
    (constructs_of pp);
  (* a tainted print is one finding, the one with the witness *)
  let leak =
    lint
      [ ("lib/hashing/hkdf.ml", "Hkdf", "let derive (s : string) = s\n");
        ( "lib/core/leak.ml",
          "Leak",
          "let leak () = print_string (Hkdf.derive \"ikm\")\n" );
      ]
  in
  check_counts "tainted print" leak ~actionable:1 ~suppressed:0;
  Alcotest.(check bool) "with its witness" true
    ((List.hd leak.actionable).Lint_types.path <> []);
  (* executables own the terminal *)
  let main =
    lint [ ("bin/fixture.ml", "Fixture", "let hello () = print_endline \"hi\"\n") ]
  in
  check_counts "print in bin/" main ~actionable:0 ~suppressed:0

let test_clean_fixture () =
  (* a tag checked in constant time, a length check and a shape check
     on key material: none is a finding *)
  let o =
    lint
      [ hmac_unit;
        ( "lib/core/clean.ml",
          "Clean",
          "let add a b = a + b\n\
           let tag_ok k t = Hmac.equal_ct t (Hmac.mac_prepared k [ \"x\" ])\n\
           let fits key = String.length key = 32\n\
           let missing kprime = kprime = None\n" );
      ]
  in
  check_counts "clean" o ~actionable:0 ~suppressed:0

let test_catalogue () =
  (* six rules, one entry each, and every id a fixture in this file
     produces is one of them *)
  let ids =
    List.map (fun (r : Lint_types.rule_info) -> r.ri_id) Lint_typed_rules.catalogue
  in
  Alcotest.(check int) "six rules" 6 (List.length (List.sort_uniq compare ids));
  let produced =
    List.concat_map
      (fun units -> rules_of (lint units))
      [ [ ("lib/net/j.ml", "J", "let j () = Random.bits ()\n") ];
        [ ("lib/core/d.ml", "D", "let decode s = List.hd s\n") ];
        [ ("lib/core/e.ml", "E", "let e () = Error \"x\"\n") ];
        [ ("lib/core/p.ml", "P", "let p () = print_newline ()\n") ];
        [ hmac_unit; ("lib/core/c.ml", "C", "let c k t = Hmac.mac_prepared k [] = t\n") ];
        [ ("lib/hashing/hkdf.ml", "Hkdf", "let derive (s : string) = s\n");
          ("lib/wire/wire.ml", "Wire", "let encode (s : string) = s\n");
          ("lib/core/w.ml", "W", "let w () = Wire.encode (Hkdf.derive \"\")\n");
        ];
      ]
  in
  List.iter
    (fun id -> Alcotest.(check bool) ("catalogued: " ^ id) true (List.mem id ids))
    produced;
  Alcotest.(check int) "every rule exercised" 6
    (List.length (List.sort_uniq compare produced))

(* ------------------------------------------------------------------ *)
(* Mechanisms                                                          *)
(* ------------------------------------------------------------------ *)

let mac_check attr =
  [ hmac_unit;
    ( "lib/core/fixture.ml",
      "Fixture",
      Printf.sprintf
        "let check k tag =\n\
        \  (String.equal tag (Hmac.mac_prepared k [ \"x\" ]) [@shs.lint_ignore %S])\n"
        attr );
  ]

let test_suppression_attribute () =
  check_counts "suppressed" (lint (mac_check "NO-POLY-COMPARE")) ~actionable:0
    ~suppressed:1;
  (* naming a different rule does not silence this one *)
  check_counts "wrong rule named" (lint (mac_check "TAXONOMY")) ~actionable:1
    ~suppressed:0

let test_json_determinism () =
  let units =
    mac_check "TAXONOMY"
    @ [ ("lib/net/jitter.ml", "Jitter", "let jitter () = Random.float 1.0\n");
        ("lib/error/reject.ml", "Reject", "let reject () = Error \"empty\"\n");
      ]
  in
  let render () =
    Obs_json.to_string ~pretty:true (Lint_engine.report_json (lint units))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical reports" a b;
  Alcotest.(check bool) "schema tagged" true
    (match Obs_json.of_string a with
     | Some doc -> Obs_json.member "schema" doc = Some (Obs_json.Str "shs-lint/3")
     | None -> false);
  Alcotest.(check bool) "three findings" true (contains_sub a "\"actionable\": 3")

let test_coverage_guard () =
  (* a fake root: sources under the linted trees, one outside them, one
     in a hidden directory; only one of them has a unit *)
  let root = Filename.temp_dir "shs_lint_cov" "" in
  let touch rel =
    let path = Filename.concat root rel in
    let rec mkdirs d =
      if not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdirs (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "")
  in
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove root) @@ fun () ->
  List.iter touch
    [ "lib/core/a.ml"; "lib/core/a.mli"; "bin/main.ml"; "bench/b.ml";
      "test/t.ml"; "lib/.hidden/h.ml"; "lib/_opam/o.ml" ];
  Alcotest.(check (list string)) "discovered"
    [ "bench/b.ml"; "bin/main.ml"; "lib/core/a.ml" ]
    (Lint_engine.discover root);
  Alcotest.(check (list string)) "uncovered"
    [ "bench/b.ml"; "bin/main.ml" ]
    (Lint_engine.uncovered root ~covered:[ "lib/core/a.ml" ]);
  Alcotest.(check (list string)) "fully covered" []
    (Lint_engine.uncovered root
       ~covered:[ "bench/b.ml"; "bin/main.ml"; "lib/core/a.ml" ])

(* ------------------------------------------------------------------ *)
(* Typed pass: in-process fixtures                                     *)
(* ------------------------------------------------------------------ *)

let cross_module_units =
  [ ("lib/gsig/a.ml", "A", "let gen () = \"k\"\n");
    ("lib/gsig/c.ml", "C", "let pass x = x\n");
    ("lib/gsig/b.ml", "B", "let leak () = Log.info (C.pass (A.gen ()))\n");
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
    let witness = String.concat " | " f.Lint_types.path in
    Alcotest.(check bool) "witness names the source" true
      (contains_sub witness "A.gen");
    Alcotest.(check bool) "witness crosses through C" true
      (contains_sub witness "C.pass");
    Alcotest.(check bool) "witness reaches the sink" true
      (contains_sub witness "Log.info")
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
        ("lib/gsig/b.ml", "B", "let leak () = Log.info (R.churn 3 (A.gen ()))\n");
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
        Printf.sprintf "let leak () = (Log.info (A.gen ()) [@shs.lint_ignore %S])\n"
          attr );
    ]
  in
  (match run_typed (leak "NO-SECRET-PRINT") with
   | [ (_, true) ] -> ()
   | fs ->
     Alcotest.failf "expected one suppressed finding, got %d" (List.length fs));
  match run_typed (leak "TAXONOMY") with
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
          "let show () = let x = (\"k\" [@shs.secret]) in Log.info x\n" );
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

(* The repo policy on a prepared HMAC key, over fixtures shaped like
   [Sha256] and [Hmac]: the key is a record of two hash states holding
   int arrays, and a tag is written out of such a state word by word. *)
let prepared_key_units =
  [ ( "lib/hashing/sha256.ml",
      "Sha256",
      "type ctx = { h : int array; pending : string; total : int }\n\
       let init () = { h = Array.make 8 0; pending = \"\"; total = 0 }\n\
       let update c s =\n\
      \  let h = Array.copy c.h in\n\
      \  String.iteri (fun i ch -> h.(i land 7) <- h.(i land 7) lxor Char.code ch) s;\n\
      \  { h; pending = \"\"; total = c.total + String.length s }\n\
       let finalize c =\n\
      \  let out = Bytes.create 32 in\n\
      \  for i = 0 to 7 do Bytes.set_int32_be out (i * 4) (Int32.of_int c.h.(i)) done;\n\
      \  Bytes.to_string out\n" );
    ( "lib/hashing/hmac.ml",
      "Hmac",
      "type key = { inner : Sha256.ctx; outer : Sha256.ctx }\n\
       let prepare k =\n\
      \  { inner = Sha256.update (Sha256.init ()) k;\n\
      \    outer = Sha256.update (Sha256.init ()) k }\n\
       let mac_prepared key parts =\n\
      \  let inner = Sha256.finalize (List.fold_left Sha256.update key.inner parts) in\n\
      \  Sha256.finalize (Sha256.update key.outer inner)\n" );
    ("lib/wire/wire.ml", "Wire", "let encode ~tag parts = String.concat tag parts\n");
    ( "lib/core/p.ml",
      "P",
      "let same_key a b = Hmac.prepare a = Hmac.prepare b\n\
       let send_tag k sid =\n\
      \  Wire.encode ~tag:\"hs2\" [ Hmac.mac_prepared (Hmac.prepare k) [ sid ] ]\n" );
  ]

let test_typed_prepared_key () =
  (* under the repo configuration [Hmac.prepare] is a source: comparing
     two prepared keys fires, while a tag under one reaches the wire
     clean *)
  match
    Lint_typed_rules.run ~config:Lint_typed_rules.repo_config
      (typecheck prepared_key_units)
  with
  | [ (f, false) ] ->
    Alcotest.(check string) "rule" "NO-POLY-COMPARE" f.Lint_types.rule;
    Alcotest.(check string) "binding" "same_key" f.Lint_types.binding;
    Alcotest.(check bool) "witness names the source" true
      (contains_sub (String.concat " | " f.Lint_types.path) "Hmac.prepare")
  | fs ->
    Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* The [Gcd.mac_valid] shape: the tag comes back from a wrapper around
   the MAC, its key a plain parameter, and is compared directly, through
   a comparing helper and after a pass-through; the same tag also goes
   to the wire and to the Obs log, both of which a sent tag may reach. *)
let mac_wrapper_units =
  [ hmac_unit;
    ("lib/obs/obs.ml", "Obs", "let instant (_ : string) (_ : string) = ()\n");
    ("lib/wire/wire.ml", "Wire", "let encode ~tag parts = String.concat tag parts\n");
    ( "lib/core/g.ml",
      "G",
      "let mac_phase2 ~tag_key ~sid i =\n\
      \  Hmac.mac_prepared tag_key [ sid; string_of_int i ]\n\
       let mac_valid tag_key sid mac j = String.equal mac (mac_phase2 ~tag_key ~sid j)\n\
       let same a b = String.equal a b\n\
       let checked tag_key sid mac = same mac (mac_phase2 ~tag_key ~sid 0)\n\
       let pass x = x\n\
       let relayed tag_key sid mac = mac = pass (mac_phase2 ~tag_key ~sid 0)\n\
       let send tag_key sid = Wire.encode ~tag:\"hs2\" [ mac_phase2 ~tag_key ~sid 0 ]\n\
       let trace tag_key sid = Obs.instant \"gcd.tag\" (mac_phase2 ~tag_key ~sid 0)\n" );
  ]

let test_typed_mac_wrapper () =
  let o = lint mac_wrapper_units in
  check_counts "mac wrapper" o ~actionable:3 ~suppressed:0;
  Alcotest.(check (list string)) "rules"
    [ "NO-POLY-COMPARE"; "NO-POLY-COMPARE"; "NO-POLY-COMPARE" ] (rules_of o);
  Alcotest.(check (list string)) "bindings" [ "mac_valid"; "same"; "relayed" ]
    (List.map (fun f -> f.Lint_types.binding) o.actionable);
  let witness f = String.concat " | " f.Lint_types.path in
  List.iter
    (fun f ->
      Alcotest.(check bool) "witness names the MAC" true
        (contains_sub (witness f) "Hmac.mac_prepared (MAC output)"))
    o.actionable;
  (* the helper's sink fires through its summary, at the call site *)
  Alcotest.(check bool) "witness enters the helper" true
    (contains_sub (witness (List.nth o.actionable 1)) "argument #1 of G.same");
  Alcotest.(check bool) "witness crosses the pass-through" true
    (contains_sub (witness (List.nth o.actionable 2)) "argument #0 of G.pass")

let test_typed_emitter_value () =
  (* an emitter passed as a value prints a mutable field the taint
     engine cannot follow; NO-SECRET-PRINT rejects the reference *)
  let code =
    "type party = { mutable kprime : string option }\n\
     let show p = Option.iter print_string p.kprime\n"
  in
  let o = lint [ ("lib/core/party.ml", "Party", code) ] in
  check_counts "emitter value" o ~actionable:1 ~suppressed:0;
  Alcotest.(check (list string)) "rule" [ "NO-SECRET-PRINT" ] (rules_of o);
  Alcotest.(check (list string)) "construct" [ "print_string" ] (constructs_of o);
  check_counts "emitter value in bench/"
    (lint [ ("bench/party.ml", "Party", code) ])
    ~actionable:0 ~suppressed:0

let test_typed_entropy_alias () =
  (* a module alias and a local open hide the source from a name match;
     the resolved paths still read Random.int and Sys.time *)
  let o =
    lint
      [ ( "lib/net/clock.ml",
          "Clock",
          "module R = Random\n\
           let roll () = R.int 6\n\
           let stamp () =\n\
          \  let open Sys in\n\
          \  time ()\n" );
      ]
  in
  check_counts "alias and open" o ~actionable:2 ~suppressed:0;
  Alcotest.(check (list string)) "constructs" [ "Random.int"; "Sys.time" ]
    (constructs_of o)

let test_typed_qualified_error () =
  let o =
    lint
      [ ( "bench/report.ml",
          "Report",
          "let reject n = Result.Error (Printf.sprintf \"bad %d\" n)\n" );
      ]
  in
  check_counts "Result.Error" o ~actionable:1 ~suppressed:0;
  Alcotest.(check (list string)) "rule" [ "TAXONOMY" ] (rules_of o)

let test_typed_json_determinism () =
  (* the whole pipeline — typecheck, fixpoint, report — twice from
     scratch; hashtable iteration anywhere inside would break this *)
  let render () =
    Obs_json.to_string ~pretty:true
      (Lint_engine.report_json
         (Lint_engine.lint ~config:typed_config
            (typecheck (log_unit :: cross_module_units))))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical typed reports" a b;
  Alcotest.(check bool) "typed finding carries its witness" true
    (contains_sub a "A.gen")

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "NO-AMBIENT-ENTROPY" `Quick test_entropy;
          Alcotest.test_case "TOTAL-DECODE via call graph" `Quick
            test_total_decode;
          Alcotest.test_case "TAXONOMY" `Quick test_taxonomy;
          Alcotest.test_case "NO-SECRET-PRINT" `Quick test_no_secret_print;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "catalogue covers every rule" `Quick
            test_catalogue;
        ] );
      ( "mechanisms",
        [ Alcotest.test_case "suppression attribute" `Quick
            test_suppression_attribute;
          Alcotest.test_case "deterministic JSON" `Quick test_json_determinism;
          Alcotest.test_case "coverage guard" `Quick test_coverage_guard;
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
          Alcotest.test_case "a prepared HMAC key is key material" `Quick
            test_typed_prepared_key;
          Alcotest.test_case "MAC compared through a wrapper" `Quick
            test_typed_mac_wrapper;
          Alcotest.test_case "emitter passed as a value" `Quick
            test_typed_emitter_value;
          Alcotest.test_case "entropy via alias or open" `Quick
            test_typed_entropy_alias;
          Alcotest.test_case "Result.Error with sprintf" `Quick
            test_typed_qualified_error;
        ] );
    ]
