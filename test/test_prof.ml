(* Tests for the deterministic cost-attribution profiler: charge
   bookkeeping, span-hook integration (including exception safety of
   [Obs.with_span] and [Prof.frame]), golden collapsed-stack and
   speedscope exports, a QCheck round-trip for the profile JSON, the
   byte-identical-replay guarantee on a real handshake, and the
   Obs_bench synthesized-row comparison rules. *)

let reset_all () =
  Prof.disable ();
  Prof.reset ();
  Obs.reset_all ()

(* ------------------------------------------------------------------ *)
(* Charging and attribution                                            *)
(* ------------------------------------------------------------------ *)

let test_charge_bookkeeping () =
  reset_all ();
  Prof.enable ();
  Prof.charge Prof.Mul ~words:1;  (* at the root: unattributed *)
  Prof.frame "a" (fun () ->
      Prof.charge Prof.Mul ~words:10;
      Prof.charge Prof.Mul ~words:10;
      Prof.frame "b" (fun () -> Prof.charge Prof.Modexp ~words:7));
  Prof.frame "a" (fun () -> Prof.charge Prof.Inv ~words:3);
  Prof.disable ();
  let t = Prof.snapshot () in
  Alcotest.(check int) "total mul" 3 (Prof.total t Prof.Mul);
  Alcotest.(check int) "total mul words" 21 (Prof.total_words t Prof.Mul);
  Alcotest.(check int) "total modexp" 1 (Prof.total t Prof.Modexp);
  Alcotest.(check (float 1e-9)) "2/3 of muls attributed" (2.0 /. 3.0)
    (Prof.attributed_fraction t Prof.Mul);
  (* the two "a" scopes reuse one node: same parent, same name *)
  Alcotest.(check (list (pair string int))) "by_frame merges scopes"
    [ ("a", 2); ("root", 1) ]
    (Prof.by_frame t Prof.Mul);
  Alcotest.(check (list (pair string int))) "inv charged under a"
    [ ("a", 1) ]
    (Prof.by_frame t Prof.Inv)

let test_disabled_is_inert () =
  reset_all ();
  (* frame while disabled runs the body without touching the tree *)
  Prof.frame "ghost" (fun () -> ());
  let t = Prof.snapshot () in
  Alcotest.(check int) "no children" 0 (List.length t.Prof.t_children)

let test_reset_inside_open_frame () =
  reset_all ();
  Prof.enable ();
  Prof.frame "outer" (fun () ->
      Prof.reset ();
      (* the pending pop must not underflow past the fresh root *)
      ());
  Prof.charge Prof.Mul ~words:1;
  Prof.disable ();
  let t = Prof.snapshot () in
  Alcotest.(check int) "charge landed on the fresh root" 1
    (Prof.calls t Prof.Mul)

(* ------------------------------------------------------------------ *)
(* Span-hook integration and exception safety (satellite: with_span     *)
(* must close its span and pop its frame on an exception)              *)
(* ------------------------------------------------------------------ *)

exception Boom

let test_with_span_exception_safe () =
  reset_all ();
  Obs.set_clock (Obs.manual_clock ());
  Obs.set_sink Obs.Memory;
  Prof.enable ();
  (try
     Obs.with_span "outer" (fun () ->
         Prof.charge Prof.Mul ~words:5;
         raise Boom)
   with Boom -> ());
  (* after the exception both stacks must be unwound: a new charge
     lands at the root, not inside "outer" *)
  Prof.charge Prof.Mul ~words:1;
  Prof.disable ();
  Obs.set_clock Obs.default_clock;
  let t = Prof.snapshot () in
  Alcotest.(check (list (pair string int))) "frame popped by the exception"
    [ ("outer", 1); ("root", 1) ]
    (Prof.by_frame t Prof.Mul);
  (* and the span itself was closed: it is recorded with one call *)
  match List.find_opt (fun n -> n.Obs.span_name = "outer") (Obs.trace ()) with
  | None -> Alcotest.fail "span not recorded"
  | Some n -> Alcotest.(check int) "span closed once" 1 n.Obs.calls

let test_frame_exception_safe () =
  reset_all ();
  Prof.enable ();
  (try Prof.frame "f" (fun () -> raise Boom) with Boom -> ());
  Prof.charge Prof.Mul ~words:1;
  Prof.disable ();
  let t = Prof.snapshot () in
  Alcotest.(check (list (pair string int))) "charge at root after unwind"
    [ ("root", 1) ]
    (Prof.by_frame t Prof.Mul)

let test_span_hooks_follow_spans () =
  reset_all ();
  Obs.set_clock (Obs.manual_clock ());
  Obs.set_sink Obs.Memory;
  Prof.enable ();
  Obs.with_span "phase" (fun () ->
      Prof.charge Prof.Mul ~words:2;
      Obs.with_span "inner" (fun () -> Prof.charge Prof.Mul ~words:4));
  Prof.disable ();
  Obs.set_clock Obs.default_clock;
  let t = Prof.snapshot () in
  Alcotest.(check string) "span nesting becomes frame nesting"
    "root;phase 2\nroot;phase;inner 4\n"
    (Prof.to_collapsed ~weight:Prof.Words t)

(* ------------------------------------------------------------------ *)
(* Golden exports                                                      *)
(* ------------------------------------------------------------------ *)

(* hand-built frozen tree: root -> a (mul 2 calls / 10 words, 4 minor
   words) -> b (modexp 1/7, 0 minor); root -> c (inv 1/3, 2 minor) *)
let golden_tree =
  let node name calls words minor children =
    { Prof.t_name = name; t_calls = calls; t_words = words;
      t_minor_words = minor; t_major_words = 0.0; t_children = children }
  in
  node "root" [| 0; 0; 0; 0; 0 |] [| 0; 0; 0; 0; 0 |] 0.0
    [ node "a" [| 2; 0; 0; 0; 0 |] [| 10; 0; 0; 0; 0 |] 4.0
        [ node "b" [| 0; 0; 1; 0; 0 |] [| 0; 0; 7; 0; 0 |] 0.0 [] ];
      node "c" [| 0; 0; 0; 1; 0 |] [| 0; 0; 0; 3; 0 |] 2.0 [];
    ]

let test_collapsed_golden () =
  Alcotest.(check string) "collapsed by words"
    "root;a 10\nroot;a;b 7\nroot;c 3\n"
    (Prof.to_collapsed ~weight:Prof.Words golden_tree);
  Alcotest.(check string) "collapsed by calls"
    "root;a 2\nroot;a;b 1\nroot;c 1\n"
    (Prof.to_collapsed ~weight:Prof.Calls golden_tree);
  Alcotest.(check string) "collapsed by alloc"
    "root;a 4\nroot;c 2\n"
    (Prof.to_collapsed ~weight:Prof.Alloc golden_tree)

let test_speedscope_golden () =
  let open Obs_json in
  let profile name total samples weights =
    Obj
      [ ("type", Str "sampled"); ("name", Str name); ("unit", Str "none");
        ("startValue", Int 0);
        ("endValue", Float total);
        ("samples",
         List (List.map (fun s -> List (List.map (fun i -> Int i) s)) samples));
        ("weights", List (List.map (fun w -> Float w) weights));
      ]
  in
  (* frame indices in first-visit DFS order: root 0, a 1, b 2, c 3 *)
  let expected =
    Obj
      [ ("$schema", Str "https://www.speedscope.app/file-format-schema.json");
        ("name", Str "golden");
        ("activeProfileIndex", Int 0);
        ("exporter", Str "shs_prof");
        ("shared",
         Obj
           [ ("frames",
              List
                [ Obj [ ("name", Str "root") ]; Obj [ ("name", Str "a") ];
                  Obj [ ("name", Str "b") ]; Obj [ ("name", Str "c") ];
                ]) ]);
        ("profiles",
         List
           [ profile "bigint calls" 4.0 [ [0;1]; [0;1;2]; [0;3] ] [ 2.0; 1.0; 1.0 ];
             profile "limb words" 20.0 [ [0;1]; [0;1;2]; [0;3] ] [ 10.0; 7.0; 3.0 ];
             profile "minor words" 6.0 [ [0;1]; [0;3] ] [ 4.0; 2.0 ];
           ]);
      ]
  in
  let actual = Prof.to_speedscope ~name:"golden" golden_tree in
  Alcotest.(check string) "speedscope document"
    (to_string ~pretty:true expected)
    (to_string ~pretty:true actual)

let test_top_k_and_report () =
  let rows = Prof.top_k ~k:2 golden_tree in
  Alcotest.(check (list string)) "top-2 by self words"
    [ "root;a"; "root;a;b" ]
    (List.map fst rows);
  let r = Prof.report golden_tree in
  Alcotest.(check bool) "report mentions attribution" true
    (String.length r > 0
    && String.sub r 0 16 = "cost attribution")

(* ------------------------------------------------------------------ *)
(* QCheck: profile JSON round-trips through the Obs_json codec         *)
(* ------------------------------------------------------------------ *)

(* the serializer prints integral floats without a ".", so they parse
   back as Int: compare numbers by value, not by constructor *)
let rec json_equiv a b =
  let open Obs_json in
  match (a, b) with
  | Int i, Float f | Float f, Int i -> float_of_int i = f
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 json_equiv xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equiv v1 v2)
         xs ys
  | _ -> a = b

let tree_gen =
  let open QCheck.Gen in
  let arr5 = array_size (return 5) (int_bound 50) in
  let rec node depth =
    let* name = oneofl [ "p1"; "p2"; "eq"; "sign"; "verify" ] in
    let* calls = arr5 in
    let* words = arr5 in
    let* minor = int_bound 10_000 in
    let* children =
      if depth = 0 then return []
      else list_size (int_bound 2) (node (depth - 1))
    in
    return
      { Prof.t_name = name; t_calls = calls; t_words = words;
        t_minor_words = float_of_int minor; t_major_words = 0.0;
        t_children = children }
  in
  let* children = list_size (int_bound 3) (node 2) in
  return
    { Prof.t_name = "root"; t_calls = Array.make 5 0;
      t_words = Array.make 5 0; t_minor_words = 0.0; t_major_words = 0.0;
      t_children = children }

let qcheck_speedscope_roundtrip =
  QCheck.Test.make ~count:200 ~name:"speedscope JSON round-trips"
    (QCheck.make tree_gen ~print:(fun t -> Prof.to_collapsed t))
    (fun t ->
      let doc = Prof.to_speedscope t in
      match Obs_json.of_string (Obs_json.to_string doc) with
      | Some back -> json_equiv doc back
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Determinism: profiles of a fixed-seed handshake replay identically  *)
(* ------------------------------------------------------------------ *)

module W1 = World.Make (Scheme1)

let test_profile_replay_identical () =
  reset_all ();
  (* warm every lazy cache (parameter sets, first-session paths) so the
     two profiled runs execute identically *)
  let warm = W1.create 9100 in
  let _ = W1.populate warm [ "u0"; "u1" ] in
  ignore (W1.handshake warm [ "u0"; "u1" ]);
  let profiled () =
    let w = W1.create 9100 in
    let _ = W1.populate w [ "u0"; "u1" ] in
    (* start with no fixed-base table built: table builds then land at
       the same points in both runs (the same fixture-isolation
       contract Obs.reset_all provides the bench harness) *)
    Bigint.reset_caches ();
    Prof.reset ();
    Prof.enable ();
    let r = W1.handshake w [ "u0"; "u1" ] in
    Prof.disable ();
    (match r.Gcd_types.outcomes.(0) with
     | Some o -> Alcotest.(check bool) "accepted" true o.Gcd_types.accepted
     | None -> Alcotest.fail "no outcome");
    let t = Prof.snapshot () in
    ( Prof.to_collapsed ~weight:Prof.Words t,
      Prof.to_collapsed ~weight:Prof.Calls t,
      Obs_json.to_string (Prof.to_speedscope t),
      Prof.total_minor_words t )
  in
  let w1, c1, s1, a1 = profiled () in
  let w2, c2, s2, a2 = profiled () in
  Alcotest.(check string) "collapsed (words) bytes identical" w1 w2;
  Alcotest.(check string) "collapsed (calls) bytes identical" c1 c2;
  Alcotest.(check string) "speedscope bytes identical" s1 s2;
  Alcotest.(check bool) "collapsed is non-trivial" true
    (String.length w1 > 0);
  (* calls, limb words and minor words are all exact (the speedscope
     document carries all three profiles): Gc.minor_words counts every
     allocated word, whenever the minor collections fall *)
  Alcotest.(check (float 0.0)) "alloc totals identical" a1 a2;
  reset_all ()

let test_handshake_attribution () =
  reset_all ();
  let w = W1.create 9200 in
  let _ = W1.populate w [ "u0"; "u1" ] in
  Prof.reset ();
  Prof.enable ();
  ignore (W1.handshake w [ "u0"; "u1" ]);
  Prof.disable ();
  let t = Prof.snapshot () in
  Alcotest.(check bool) "muls were metered" true (Prof.total t Prof.Mul > 0);
  Alcotest.(check bool) ">= 95% of muls attributed" true
    (Prof.attributed_fraction t Prof.Mul >= 0.95);
  (* the per-equation frames are present in the tree, whether or not
     any work is charged to the frame itself *)
  let names = Prof.fold (fun acc node -> node.Prof.t_name :: acc) [] t in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " present") true (List.mem f names))
    [ "spk.prove"; "spk.verify"; "gsig.acjt.sign"; "gsig.acjt.verify" ];
  reset_all ()

(* ------------------------------------------------------------------ *)
(* Obs_bench synthesized rows and the same-set rule                    *)
(* ------------------------------------------------------------------ *)

let bench_doc ?elapsed exps =
  let open Obs_json in
  let exp (name, mul) =
    Obj
      [ ("name", Str name);
        ("series",
         List
           [ Obj
               [ ("series", Str "s"); ("param", Null); ("value", Int 10);
                 ("unit", Str "count") ] ]);
        ("metrics", Obj [ ("counters", Obj [ ("bigint.mul", Int mul) ]) ]);
      ]
  in
  Obj
    ([ ("schema", Str "shs-bench/1") ]
    @ (match elapsed with
       | Some e -> [ ("elapsed_s", Float e) ]
       | None -> [])
    @ [ ("experiments", List (List.map exp exps)) ])

let test_synthesized_rows () =
  let doc = bench_doc ~elapsed:2.5 [ ("e1", 100); ("e2", 200) ] in
  let rows = Obs_bench.synthesized_rows doc in
  Alcotest.(check int) "two mul rows + elapsed" 3 (List.length rows);
  let mul_e2 =
    List.find
      (fun r ->
        r.Obs_bench.sx_experiment = "e2"
        && r.Obs_bench.sx_series = "bigint.mul total")
      rows
  in
  Alcotest.(check (float 1e-9)) "mul value" 200.0 mul_e2.Obs_bench.sx_value

let run_compare ?elapsed_tolerance ~baseline ~current () =
  match
    Obs_bench.compare_docs ?elapsed_tolerance ~tolerance:0.15 ~baseline
      ~current ()
  with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let test_same_set_gates_mul () =
  let baseline = bench_doc ~elapsed:1.0 [ ("e1", 1000); ("e2", 2000) ] in
  (* same experiment set, e2's mul total off by 50%: flagged *)
  let bad = bench_doc ~elapsed:1.0 [ ("e1", 1000); ("e2", 3000) ] in
  let c = run_compare ~baseline ~current:bad () in
  Alcotest.(check int) "one violation" 1 (List.length c.Obs_bench.violations);
  Alcotest.(check string) "it is the synthesized row" "bigint.mul total"
    (List.hd c.Obs_bench.violations).Obs_bench.v_baseline.Obs_bench.sx_series;
  (* within tolerance: clean *)
  let ok = bench_doc ~elapsed:1.0 [ ("e1", 1000); ("e2", 2100) ] in
  Alcotest.(check bool) "within tolerance passes" true
    (Obs_bench.passed (run_compare ~baseline ~current:ok ()))

let test_subset_skips_synthesized () =
  let baseline = bench_doc ~elapsed:1.0 [ ("e1", 1000); ("e2", 2000) ] in
  (* an --only subset: e2 alone, with a wildly different mul total
     (fixture construction bled into it).  The synthesized rows must not
     fire; the stored series still compare. *)
  let subset = bench_doc ~elapsed:0.2 [ ("e2", 9999) ] in
  let c = run_compare ~baseline ~current:subset () in
  Alcotest.(check bool) "subset run passes" true (Obs_bench.passed c)

let test_elapsed_tolerance () =
  let baseline = bench_doc ~elapsed:1.0 [ ("e1", 1000) ] in
  (* 40% slower: inside the default 50% elapsed tolerance even though it
     is far outside the 15% series tolerance *)
  let slower = bench_doc ~elapsed:1.4 [ ("e1", 1000) ] in
  Alcotest.(check bool) "elapsed uses its own tolerance" true
    (Obs_bench.passed (run_compare ~baseline ~current:slower ()));
  (* 3x slower: flagged *)
  let blowup = bench_doc ~elapsed:3.0 [ ("e1", 1000) ] in
  Alcotest.(check bool) "order-of-magnitude blowup fails" false
    (Obs_bench.passed (run_compare ~baseline ~current:blowup ()));
  (* and the knob is a knob *)
  Alcotest.(check bool) "custom tolerance admits it" true
    (Obs_bench.passed
       (run_compare ~elapsed_tolerance:5.0 ~baseline ~current:blowup ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prof"
    [ ( "charging",
        [ Alcotest.test_case "bookkeeping" `Quick test_charge_bookkeeping;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "reset inside open frame" `Quick
            test_reset_inside_open_frame;
        ] );
      ( "span hooks",
        [ Alcotest.test_case "with_span exception safe" `Quick
            test_with_span_exception_safe;
          Alcotest.test_case "frame exception safe" `Quick
            test_frame_exception_safe;
          Alcotest.test_case "span nesting becomes frames" `Quick
            test_span_hooks_follow_spans;
        ] );
      ( "exports",
        [ Alcotest.test_case "collapsed golden" `Quick test_collapsed_golden;
          Alcotest.test_case "speedscope golden" `Quick test_speedscope_golden;
          Alcotest.test_case "top-k and report" `Quick test_top_k_and_report;
          QCheck_alcotest.to_alcotest qcheck_speedscope_roundtrip;
        ] );
      ( "determinism",
        [ Alcotest.test_case "profile replays byte-identically" `Slow
            test_profile_replay_identical;
          Alcotest.test_case "handshake attribution >= 95%" `Slow
            test_handshake_attribution;
        ] );
      ( "bench synthesized rows",
        [ Alcotest.test_case "extraction" `Quick test_synthesized_rows;
          Alcotest.test_case "same set gates mul totals" `Quick
            test_same_set_gates_mul;
          Alcotest.test_case "subset skips synthesized" `Quick
            test_subset_skips_synthesized;
          Alcotest.test_case "elapsed tolerance" `Quick test_elapsed_tolerance;
        ] );
    ]
