(* Deterministic cost attribution.  See the .mli for the contract.

   The live tree is a mutable trie of frames; [cur] points at the frame
   all charges land on.  Charges are O(1) — a counter bump on the
   current frame only — and the full-path semantics fall out of node
   identity: a frame node is reachable only through its parent chain, so
   exports can reconstruct every path without the hot path ever touching
   it.  GC allocation deltas are settled lazily, only when the frame
   stack changes shape (push/pop/disable), so the data path between two
   frame boundaries costs one counter read at each end no matter how
   many primitives ran inside.  Minor words come from [Gc.minor_words],
   which counts every word including the minor heap's live part and
   allocates nothing; [Gc.counters]'s minor count advances only at
   minor collections on OCaml 5, so only its major count is used. *)

type op = Mul | Reduce | Modexp | Inv | Multi_exp

let n_ops = 5
let op_index = function
  | Mul -> 0 | Reduce -> 1 | Modexp -> 2 | Inv -> 3 | Multi_exp -> 4
let op_name = function
  | Mul -> "mul"
  | Reduce -> "reduce"
  | Modexp -> "modexp"
  | Inv -> "inv"
  | Multi_exp -> "multi_exp"

let all_ops = [ Mul; Reduce; Modexp; Inv; Multi_exp ]

(* live frame node: children in reverse first-seen order *)
type frame_node = {
  f_name : string;
  f_parent : frame_node option;
  mutable f_children : frame_node list;
  f_calls : int array;  (* indexed by op_index *)
  f_words : int array;
  mutable f_minor : float;
  mutable f_major : float;
}

let make_node ?parent name =
  { f_name = name; f_parent = parent; f_children = [];
    f_calls = Array.make n_ops 0; f_words = Array.make n_ops 0;
    f_minor = 0.0; f_major = 0.0 }

let live_root = ref (make_node "root")
let cur = ref !live_root
let active = ref false

(* allocation baselines: words already accounted to some frame *)
let last_minor = ref 0.0
let last_major = ref 0.0

let settle node =
  let minor = Gc.minor_words () and _, _, major = Gc.counters () in
  node.f_minor <- node.f_minor +. (minor -. !last_minor);
  node.f_major <- node.f_major +. (major -. !last_major);
  last_minor := minor;
  last_major := major

let rebaseline () =
  let minor = Gc.minor_words () and _, _, major = Gc.counters () in
  last_minor := minor;
  last_major := major

let child_of parent name =
  match List.find_opt (fun n -> String.equal n.f_name name) parent.f_children with
  | Some n -> n
  | None ->
    let n = make_node ~parent name in
    parent.f_children <- n :: parent.f_children;
    n

let push name =
  if !active then begin
    let c = !cur in
    settle c;
    cur := child_of c name
  end

let pop () =
  if !active then begin
    let c = !cur in
    settle c;
    (* a pop with no parent means the stack was reset under an open
       scope (reset/disable+enable inside a frame): stay at the root
       rather than underflow *)
    match c.f_parent with Some p -> cur := p | None -> ()
  end

let reset () =
  let r = make_node "root" in
  live_root := r;
  cur := r;
  rebaseline ()

let enable () =
  if not !active then begin
    rebaseline ();
    active := true;
    Obs.set_span_hooks ~on_open:push ~on_close:pop
  end

let disable () =
  if !active then begin
    settle !cur;
    active := false;
    Obs.clear_span_hooks ();
    (* abandon any frames still open; their pending pops are no-ops *)
    cur := !live_root
  end

let frame name f =
  if not !active then f ()
  else begin
    push name;
    Fun.protect ~finally:pop f
  end

let charge op ~words =
  let n = !cur in
  let i = op_index op in
  n.f_calls.(i) <- n.f_calls.(i) + 1;
  n.f_words.(i) <- n.f_words.(i) + words

(* ------------------------------------------------------------------ *)
(* Frozen trees                                                        *)
(* ------------------------------------------------------------------ *)

type tree = {
  t_name : string;
  t_calls : int array;
  t_words : int array;
  t_minor_words : float;
  t_major_words : float;
  t_children : tree list;
}

let rec freeze n =
  { t_name = n.f_name;
    t_calls = Array.copy n.f_calls;
    t_words = Array.copy n.f_words;
    t_minor_words = n.f_minor;
    t_major_words = n.f_major;
    (* children are stored newest-first; rev_map restores call order *)
    t_children = List.rev_map freeze n.f_children }

let snapshot () =
  if !active then settle !cur;
  freeze !live_root

let calls t op = t.t_calls.(op_index op)
let words t op = t.t_words.(op_index op)

let rec fold f acc t = List.fold_left (fold f) (f acc t) t.t_children

let total t op = fold (fun acc n -> acc + calls n op) 0 t
let total_words t op = fold (fun acc n -> acc + words n op) 0 t
let total_minor_words t = fold (fun acc n -> acc +. n.t_minor_words) 0.0 t

let attributed_fraction t op =
  let tot = total t op in
  if tot = 0 then 1.0
  else float_of_int (tot - calls t op) /. float_of_int tot

let by_frame t op =
  let tbl = Hashtbl.create 16 in
  fold
    (fun () n ->
      let c = calls n op in
      if c > 0 then
        Hashtbl.replace tbl n.t_name
          (c + Option.value ~default:0 (Hashtbl.find_opt tbl n.t_name)))
    () t;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)
(* ------------------------------------------------------------------ *)

type weight = Calls | Words | Alloc

let node_weight w t =
  match w with
  | Calls -> float_of_int (Array.fold_left ( + ) 0 t.t_calls)
  | Words -> float_of_int (Array.fold_left ( + ) 0 t.t_words)
  | Alloc -> t.t_minor_words

(* every (path, node) pair in DFS order, paths ';'-joined *)
let paths t =
  let rows = ref [] in
  let rec go prefix n =
    let path = if prefix = "" then n.t_name else prefix ^ ";" ^ n.t_name in
    rows := (path, n) :: !rows;
    List.iter (go path) n.t_children
  in
  go "" t;
  List.rev !rows

let to_collapsed ?(weight = Words) t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (path, n) ->
      let w = node_weight weight n in
      if w > 0.0 then Buffer.add_string buf (Printf.sprintf "%s %.0f\n" path w))
    (paths t);
  Buffer.contents buf

let to_speedscope ?(name = "shs profile") t =
  (* frame table: one entry per distinct frame name, first-visit DFS
     order, so the document is a pure function of the tree *)
  let frames = ref [] and n_frames = ref 0 in
  let index = Hashtbl.create 16 in
  let frame_idx fname =
    match Hashtbl.find_opt index fname with
    | Some i -> i
    | None ->
      let i = !n_frames in
      Hashtbl.add index fname i;
      incr n_frames;
      frames := fname :: !frames;
      i
  in
  let samples = ref [] in
  let rec go stack n =
    let stack = frame_idx n.t_name :: stack in
    samples := (List.rev stack, n) :: !samples;
    List.iter (go stack) n.t_children
  in
  go [] t;
  let samples = List.rev !samples in
  let profile pname w =
    let rows = List.filter (fun (_, n) -> node_weight w n > 0.0) samples in
    let total = List.fold_left (fun acc (_, n) -> acc +. node_weight w n) 0.0 rows in
    Obs_json.Obj
      [ ("type", Obs_json.Str "sampled");
        ("name", Obs_json.Str pname);
        ("unit", Obs_json.Str "none");
        ("startValue", Obs_json.Int 0);
        ("endValue", Obs_json.Float total);
        ("samples",
         Obs_json.List
           (List.map
              (fun (stack, _) ->
                Obs_json.List (List.map (fun i -> Obs_json.Int i) stack))
              rows));
        ("weights",
         Obs_json.List (List.map (fun (_, n) -> Obs_json.Float (node_weight w n)) rows));
      ]
  in
  Obs_json.Obj
    [ ("$schema", Obs_json.Str "https://www.speedscope.app/file-format-schema.json");
      ("name", Obs_json.Str name);
      ("activeProfileIndex", Obs_json.Int 0);
      ("exporter", Obs_json.Str "shs_prof");
      ("shared",
       Obs_json.Obj
         [ ("frames",
            Obs_json.List
              (List.rev_map (fun n -> Obs_json.Obj [ ("name", Obs_json.Str n) ]) !frames))
         ]);
      ("profiles",
       Obs_json.List
         [ profile "bigint calls" Calls;
           profile "limb words" Words;
           profile "minor words" Alloc;
         ]);
    ]

let top_k ?(k = 5) t =
  let busy =
    List.filter
      (fun (_, n) -> node_weight Words n > 0.0 || node_weight Calls n > 0.0)
      (paths t)
  in
  let sorted =
    List.sort
      (fun (p1, a) (p2, b) ->
        match compare (node_weight Words b) (node_weight Words a) with
        | 0 -> compare p1 p2
        | c -> c)
      busy
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k sorted

let report ?(k = 5) t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "cost attribution (top %d frames by limb-word work):\n" k);
  Buffer.add_string buf
    (Printf.sprintf "  %-44s %9s %9s %13s %12s\n" "frame path" "mul" "modexp"
       "limb-words" "minor-words");
  List.iter
    (fun (path, n) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-44s %9d %9d %13d %12.0f\n" path (calls n Mul)
           (calls n Modexp)
           (Array.fold_left ( + ) 0 n.t_words)
           n.t_minor_words))
    (top_k ~k t);
  Buffer.add_string buf
    (Printf.sprintf "  attributed: %.1f%% of bigint.mul calls in a non-root frame\n"
       (100.0 *. attributed_fraction t Mul));
  Buffer.contents buf
