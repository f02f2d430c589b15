(* Handshake benchmark: one seeded workload per invocation, run for a
   wall budget, every output checked, one JSON result line last.

     hsbench.exe --workload s1-m4 --seed 1 --seconds 28 --trace 0

   A run is a sequence of batches until the budget is spent.  The set-up
   (group authority, roster admissions, update replay, warm-up burst)
   runs before the first batch and is repeated between later ones; set-up
   time is the median of the repeats.  The first [prefix] batches are the
   counted prefix: every count and ratio comes from them, so counts are a
   pure function of the seed and repeat exactly.  Times come from every
   untraced batch, divided by the host contention factor measured during
   the batch, or during the engine run for per-session times and rates
   (see [Pb_trace]).  A run lasts until [min_seat_samples] party samples
   are in, even past its budget.

   --trace 0 reports the end-to-end metrics.  --trace 1 reports the
   per-layer metrics instead: counts from the prefix (with the Shs_prof
   limb-word charge on), layer times from spans recorded in alternate
   batches, and the tracing overhead from the untraced batches between
   them. *)

open Pb_scheme

let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* linear interpolation between closest ranks; 0 on no samples *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = truncate h in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let ms ns = ns /. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  m : int;
  clean : bool;  (* lossless and three-phase: every seat must complete *)
  prefix : int;  (* batches in the counted prefix *)
  setup_reps : int;
  setup_every : int;  (* batches between set-up repeats *)
  churn : bool;  (* batches are churn epochs of [churn_cycles] cycles *)
  setup : unit -> unit;  (* build the world the batches use, warm it *)
  prepare : int -> unit;  (* untimed, before batch [b] *)
  batch : int -> batch;
}

(* The group and its membership schedule are a fixed fixture: a join's
   cost is dominated by a prime search whose length varies wildly with
   the random stream, so seeding it per run would drown every
   membership-latency change in input noise.  So is the loss pattern:
   a session's drops depend on its sid alone, because whether about
   half of 400 lossy sessions complete is a coin toss that moved the
   complete fraction by 10% between seeds.  The seed drives the rest of
   the traffic: arrival schedules and every seat's randomness. *)
let world_seed = 1000

(* sessions per burst, churn cycles per epoch *)
let s1_burst = 4
let loss_burst = 20
let churn_cycles = 8

(* Scheme 1 world shared by the two burst workloads: a roster of eight
   plus four spares that are admitted and then revoked, so set-up
   exercises every membership operation; a warm-up burst fills the
   fixed-base and Montgomery caches. *)
let scheme1 ~seed ~m ~sessions ~two_phase ~drop ~prefix ~setup_reps ~setup_every =
  let world = ref None in
  let setup () =
    new_replay ();
    let w = S1.create ~seed:world_seed in
    for i = 0 to 11 do
      ignore
        (S1.admit w ~uid:(sprintf "m%d" i)
           ~rng:(drbg ~seed:world_seed (sprintf "member/%d" i)))
    done;
    for i = 8 to 11 do
      S1.remove w ~uid:(sprintf "m%d" i)
    done;
    let fmt = S1.format w in
    let hooks = S1.instrument S1.S.default_hooks in
    ignore
      (S1.burst ~roster:w.S1.members ~fmt ~hooks ~m ~sessions:2 ~two_phase
         ~drop:0.0 ~loss_seed:world_seed ~seed ~first_sid:1_000_000);
    world := Some (w, fmt, hooks)
  in
  let batch b =
    match !world with
    | None -> invalid_arg "batch before set-up"
    | Some (w, fmt, hooks) ->
      S1.burst ~roster:w.S1.members ~fmt ~hooks ~m ~sessions ~two_phase ~drop
        ~loss_seed:world_seed ~seed ~first_sid:(b * 1000)
  in
  { m; clean = drop = 0.0 && not two_phase; prefix; setup_reps; setup_every;
    churn = false; setup; prepare = ignore; batch }

(* Scheme 2 churn: a core of four never-revoked members and a window of
   two churners.  Each cycle admits a churner, revokes the oldest, has
   every member apply both broadcasts, then runs one core handshake.
   An epoch of cycles starts from the set-up snapshot, so every epoch
   sees the same CRL growth. *)
let core = 4

let crl_first = ref []
let crl_last = ref []

let churn ~seed =
  let base = ref None in
  let live = ref None in
  let setup () =
    (* the churn cycles are this workload's membership operations *)
    recording := false;
    let w = S2.create ~seed:world_seed in
    let add uid =
      ignore (S2.admit w ~uid ~rng:(drbg ~seed:world_seed ("member/" ^ uid)))
    in
    List.iter add [ "c0"; "c1"; "c2"; "c3"; "k0"; "k1" ];
    recording := true;
    let gpub = S2.S.group_public w.S2.ga in
    let sd = Scheme2.sd_hooks ~gpub in
    let hooks =
      S2.instrument
        { S2.S.h_sign = sd.Scheme2.h_sign;
          h_verify = sd.Scheme2.h_verify;
          h_filter = sd.Scheme2.h_filter;
        }
    in
    let fmt = S2.format w in
    let roster = List.filteri (fun i _ -> i < core) w.S2.members in
    ignore
      (S2.burst ~roster ~fmt ~hooks ~m:core ~sessions:2 ~two_phase:false
         ~drop:0.0 ~loss_seed:world_seed ~seed ~first_sid:1_000_000);
    let snap =
      ( Kty.export_manager w.S2.ga.S2.S.gm,
        Lkh.export_controller w.S2.ga.S2.S.gc,
        List.map
          (fun m ->
            (m, Kty.export_member m.S2.S.gsig, Lkh.export_member m.S2.S.cgkd))
          w.S2.members )
    in
    base := Some (w, snap, fmt, hooks)
  in
  let restore (w, (gm, gc, members), _, _) =
    let get what = function Some v -> v | None -> failwith ("restore " ^ what) in
    { S2.ga =
        { w.S2.ga with
          S2.S.gm = get "manager" (Kty.import_manager gm);
          gc =
            get "controller"
              (Lkh.import_controller ~rng:(drbg ~seed:world_seed "gc") gc);
          ga_rng = drbg ~seed:world_seed "ga/epoch";
        };
      members =
        List.map
          (fun ((m : S2.S.member), gsig, cgkd) ->
            { m with
              S2.S.gsig = get "member" (Kty.import_member gsig);
              cgkd = get "member" (Lkh.import_member cgkd);
              active = true;
            })
          members;
    }
  in
  let prepare _ =
    match !base with
    | None -> invalid_arg "batch before set-up"
    | Some snap ->
      new_replay ();
      live := Some (restore snap)
  in
  let batch b =
    match (!base, !live) with
    | Some (_, _, fmt, hooks), Some w ->
      let cycles =
        List.init churn_cycles (fun c ->
            ignore
              (S2.admit w
                 ~uid:(sprintf "k%d" (c + 2))
                 ~rng:(drbg ~seed:world_seed (sprintf "churner/%d" c)));
            S2.remove w ~uid:(sprintf "k%d" c);
            if not (S2.keys_agree w) then
              ops.op_failed <- ops.op_failed + 1;
            let roster = List.filteri (fun i _ -> i < core) w.S2.members in
            let crl = Kty.crl_length (List.hd roster).S2.S.gsig in
            if c = 0 then crl_first := fi crl :: !crl_first;
            if c = churn_cycles - 1 then crl_last := fi crl :: !crl_last;
            S2.burst ~roster ~fmt ~hooks ~m:core ~sessions:1 ~two_phase:false
              ~drop:0.0 ~loss_seed:world_seed ~seed ~first_sid:((b * 1000) + c))
      in
      { sessions = List.concat_map (fun x -> x.sessions) cycles;
        refused = List.fold_left (fun a x -> a + x.refused) 0 cycles;
        run_ns = List.fold_left (fun a x -> a +. x.run_ns) 0.0 cycles;
        rates = List.concat_map (fun x -> x.rates) cycles;
        sim_events = List.fold_left (fun a x -> a + x.sim_events) 0 cycles;
        lat_sim = List.concat_map (fun x -> x.lat_sim) cycles;
      }
    | _ -> invalid_arg "batch before set-up"
  in
  { m = core; clean = true; prefix = 1; setup_reps = 3; setup_every = 2;
    churn = true; setup; prepare; batch }

let workload ~seed = function
  | "s1-m4" ->
    scheme1 ~seed ~m:4 ~sessions:s1_burst ~two_phase:false ~drop:0.0 ~prefix:4
      ~setup_reps:5 ~setup_every:4
  | "2phase-m8-loss" ->
    scheme1 ~seed ~m:8 ~sessions:loss_burst ~two_phase:true ~drop:0.02 ~prefix:20
      ~setup_reps:5 ~setup_every:4
  | "s2-churn" -> churn ~seed
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

(* ------------------------------------------------------------------ *)
(* Checks and tallies                                                  *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable batches : int;
  mutable attempted : int;
  mutable full : int;  (* every seat Complete, every check passed *)
  mutable failed : int;  (* a correctness check failed *)
  mutable wall_ns : float;
  mutable run_ns : float;
  mutable rates : float list;
  mutable seat_cpu_ms : float list;
  mutable sim_events : int;
  mutable lat_sim : float list;
  mutable seats_complete : int;
  mutable seats_partial : int;
  mutable seats_aborted : int;
  mutable verifies : int;
  mutable dgka_msgs : int;
}

let new_tally () =
  { batches = 0; attempted = 0; full = 0; failed = 0; wall_ns = 0.0;
    run_ns = 0.0; rates = []; seat_cpu_ms = []; sim_events = 0;
    lat_sim = []; seats_complete = 0; seats_partial = 0; seats_aborted = 0;
    verifies = 0; dgka_msgs = 0 }

(* Per session: every seat terminal; seats that completed share one
   key.  Clean workloads also need every seat Complete, m(m-1) group
   signature verifications, m signatures, and four messages per party
   (two BD rounds, the Phase II tag, Phase III).  Two-phase sessions must
   never reach GSIG. *)
let check (wl : workload) t (s : session) =
  let tl = s.tally in
  t.verifies <- t.verifies + tl.Pb_trace.verifies;
  t.dgka_msgs <- t.dgka_msgs + tl.Pb_trace.dgka_msgs;
  Array.iter
    (fun ns -> t.seat_cpu_ms <- ms (ns /. s.factor) :: t.seat_cpu_ms)
    tl.Pb_trace.cpu_ns;
  let ok, full =
    match s.report with
    | None -> (false, false)
    | Some r ->
      let outs = r.Shs_engine.r_outcomes in
      Array.iter
        (function
          | Some (o : Gcd_types.outcome) ->
            (match o.Gcd_types.termination with
             | Gcd_types.Complete -> t.seats_complete <- t.seats_complete + 1
             | Gcd_types.Partial -> t.seats_partial <- t.seats_partial + 1
             | Gcd_types.Aborted -> t.seats_aborted <- t.seats_aborted + 1)
          | None -> ())
        outs;
      let terminal = Array.for_all Option.is_some outs in
      let complete_keys =
        Array.to_list outs
        |> List.filter_map (function
             | Some (o : Gcd_types.outcome)
               when o.Gcd_types.termination = Gcd_types.Complete ->
               Some o.Gcd_types.session_key
             | _ -> None)
      in
      let keys_ok =
        match complete_keys with
        | [] -> true
        | k :: rest -> Option.is_some k && List.for_all (( = ) k) rest
      in
      let full =
        r.Shs_engine.r_disposition = Shs_engine.Completed
        && List.length complete_keys = wl.m
      in
      let m = wl.m in
      let shape =
        if wl.clean then
          full
          && tl.Pb_trace.verifies = m * (m - 1)
          && tl.Pb_trace.signs = m
          && tl.Pb_trace.dgka_msgs = 2 * m
          && Array.for_all (( = ) 4) tl.Pb_trace.msgs_out
        else tl.Pb_trace.verifies = 0 && tl.Pb_trace.signs = 0
      in
      let ok = terminal && keys_ok && shape in
      (ok, ok && full)
  in
  t.attempted <- t.attempted + 1;
  if full then t.full <- t.full + 1;
  if not ok then t.failed <- t.failed + 1

(* batch times are divided by the batch's contention factor, session
   times and rates by their engine run's *)
let account wl t (b : batch) ~wall_ns ~factor =
  t.batches <- t.batches + 1;
  t.wall_ns <- t.wall_ns +. (wall_ns /. factor);
  t.run_ns <- t.run_ns +. (b.run_ns /. factor);
  t.rates <- b.rates @ t.rates;
  t.sim_events <- t.sim_events + b.sim_events;
  t.lat_sim <- b.lat_sim @ t.lat_sim;
  t.attempted <- t.attempted + b.refused;
  List.iter (check wl t) b.sessions

(* ------------------------------------------------------------------ *)
(* Layer attribution from spans                                        *)
(* ------------------------------------------------------------------ *)

type layers = {
  mutable gsig : float;  (* self ns *)
  mutable dgka : float;
  mutable cgkd : float;
  mutable gcd : float;  (* party state machine and membership glue *)
  mutable engine_top : float;  (* root spans inside engine runs *)
  mutable member_top : float;  (* root membership spans *)
  mutable sign : float list;  (* ms *)
  mutable verify : float list;
  mutable verify_first : float list;  (* first churn cycle of an epoch *)
  mutable verify_last : float list;
  mutable cgkd_join : float list;
  mutable cgkd_leave : float list;
  mutable cgkd_rekey : float list;  (* us *)
  mutable gsig_join : float list;
  mutable spans : Pb_trace.span list list;
}

let layers =
  { gsig = 0.0; dgka = 0.0; cgkd = 0.0; gcd = 0.0; engine_top = 0.0;
    member_top = 0.0; sign = []; verify = []; verify_first = [];
    verify_last = []; cgkd_join = []; cgkd_leave = []; cgkd_rekey = [];
    gsig_join = []; spans = [] }

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* [timed]: spans of a measured batch (layer self times count), as
   opposed to set-up spans, which only feed the membership samples *)
let absorb ~churn ~timed ~factor spans =
  layers.spans <- spans :: layers.spans;
  let joins = Hashtbl.create 16 in
  List.iter
    (fun (s : Pb_trace.span) ->
      let name = s.Pb_trace.name and d = Pb_trace.dur s /. factor in
      if timed then begin
        let self = Pb_trace.self_ns s /. factor in
        if has_prefix "gsig." name then layers.gsig <- layers.gsig +. self
        else if has_prefix "dgka." name then layers.dgka <- layers.dgka +. self
        else if has_prefix "cgkd." name then layers.cgkd <- layers.cgkd +. self
        else layers.gcd <- layers.gcd +. self;
        if s.Pb_trace.parent < 0 then
          if has_prefix "gcd." name then layers.member_top <- layers.member_top +. d
          else layers.engine_top <- layers.engine_top +. d
      end;
      (match name with
       | "gsig.sign" -> layers.sign <- ms d :: layers.sign
       | "gsig.verify" ->
         layers.verify <- ms d :: layers.verify;
         let cycle = s.Pb_trace.sid mod 1000 in
         if churn && cycle = 0 then
           layers.verify_first <- ms d :: layers.verify_first;
         if churn && cycle = churn_cycles - 1 then
           layers.verify_last <- ms d :: layers.verify_last
       | "cgkd.join" -> layers.cgkd_join <- ms d :: layers.cgkd_join
       | "cgkd.leave" -> layers.cgkd_leave <- ms d :: layers.cgkd_leave
       | "cgkd.rekey" -> layers.cgkd_rekey <- (d /. 1e3) :: layers.cgkd_rekey
       | _ -> ());
      if has_prefix "gsig.join_" name then
        Hashtbl.replace joins s.Pb_trace.parent
          (d +. Option.value ~default:0.0 (Hashtbl.find_opt joins s.Pb_trace.parent)))
    spans;
  Hashtbl.iter (fun _ d -> layers.gsig_join <- ms d :: layers.gsig_join) joins

(* ------------------------------------------------------------------ *)
(* Direct kernel timings on fixture-sized (512-bit) operands           *)
(* ------------------------------------------------------------------ *)

let kernels ~seed =
  let n = (Lazy.force Params.rsa_512).Groupgen.n in
  let rng = drbg ~seed "kernels" in
  let rand () = Bigint.random_below rng n in
  (* median over [reps] of the per-call time of [calls] calls, each call
     on fresh operands so no base recurs into a fixed-base table *)
  let per_call ~reps ~calls mk f =
    List.init reps (fun _ ->
        let inputs = Array.init calls (fun _ -> mk ()) in
        let t0 = Pb_trace.now_ns () in
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
        (Pb_trace.now_ns () -. t0) /. fi calls)
    |> median
  in
  let mul_ns =
    per_call ~reps:7 ~calls:2000 (fun () -> (rand (), rand ()))
      (fun (a, b) -> Bigint.mul_mod a b n)
  in
  let pow_us =
    per_call ~reps:7 ~calls:20 (fun () -> (rand (), rand ()))
      (fun (b, e) -> Bigint.pow_mod b e n)
    /. 1e3
  in
  let multi_us =
    per_call ~reps:7 ~calls:10
      (fun () -> List.init 3 (fun _ -> (rand (), rand ())))
      (fun pairs -> Bigint.pow_mod_multi pairs n)
    /. 1e3
  in
  (mul_ns, pow_us, multi_us)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then sprintf "%.0f" v
  else sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    metrics
    |> List.map (fun (name, unit_, v) ->
           sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
    |> String.concat ", "
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Counter deltas summed over the counted-prefix batches only, so the
   set-ups interleaved with them do not count. *)
let counted : (string, int) Hashtbl.t = Hashtbl.create 64

let counter_values () =
  ("mul_count", Bigint.mul_count ())
  :: ("pow_mod_count", Bigint.pow_mod_count ())
  :: Obs.snapshot_counters ()

let add_deltas before after =
  List.iter
    (fun (name, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt name before) in
      Hashtbl.replace counted name
        (d + Option.value ~default:0 (Hashtbl.find_opt counted name)))
    after

let d name = fi (Option.value ~default:0 (Hashtbl.find_opt counted name))

(* an untraced run lasts until party_cpu_ms_p95 has ten samples above it *)
let min_seat_samples = 200

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and trace_dir = ref "" in
  let specs =
    [ ("--workload", Arg.Set_string workload_name, "<name>  s1-m4 | 2phase-m8-loss | s2-churn");
      ("--seed", Arg.Set_int seed, "<n>  input seed");
      ("--seconds", Arg.Set_float seconds, "<s>  wall budget for the batches");
      ("--trace", Arg.Set_int trace, "<0|1>  end-to-end (0) or per-layer (1) metrics");
      ("--trace-dir", Arg.Set_string trace_dir, "<dir>  write the traced spans there");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hsbench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  let tracing = !trace = 1 in
  let seed = !seed in
  let wl = workload ~seed !workload_name in

  (* Set-up runs from cold caches before batch 0 and again every
     [setup_every] batches (it rebuilds the same fixture world), so its
     repeats, and the membership operations they replay, sample the
     host at moments seconds apart.  Its time does not count against
     the budget, and the run lasts until every repeat has run. *)
  let setups = ref [] and factors = ref [] and setup_wall_ns = ref 0.0 in
  let setup () =
    Bigint.reset_caches ();
    Pb_trace.on := tracing;
    let t0 = Pb_trace.mark () in
    wl.setup ();
    setup_wall_ns := !setup_wall_ns +. (Pb_trace.now_ns () -. t0.Pb_trace.m_t);
    let factor = Pb_trace.factor t0 in
    setups := (Pb_trace.elapsed_ns t0 /. factor /. 1e9) :: !setups;
    factors := factor :: !factors;
    end_replay ();
    Pb_trace.on := false;
    absorb ~churn:wl.churn ~timed:false ~factor (Pb_trace.take ());
    Gc.full_major ()
  in

  let pre = new_tally () and traced = new_tally () in
  let plain = ref [] in  (* one tally per untraced timed batch *)
  let heap_mb = ref [] in  (* per batch: peak major heap *)
  let run_batch b tallies =
    wl.prepare b;
    (* each batch starts from a collected heap, so its peak is its own
       and not an accident of where the previous batch left the major
       cycle *)
    Gc.full_major ();
    Pb_layers.heap_max := 0;
    let t0 = Pb_trace.mark () in
    let res = wl.batch b in
    let wall_ns = Pb_trace.elapsed_ns t0 in
    Pb_layers.sample_heap ();
    heap_mb :=
      (fi !Pb_layers.heap_max *. fi (Sys.word_size / 8) /. 1048576.0) :: !heap_mb;
    let factor = Pb_trace.factor t0 in
    factors := factor :: !factors;
    end_replay ();
    List.iter (fun t -> account wl t res ~wall_ns ~factor) tallies;
    factor
  in
  let run_plain b extra =
    let t = new_tally () in
    ignore (run_batch b (t :: extra));
    plain := t :: !plain
  in
  Prof.reset ();
  let peaks = ref (0, 0, 0) and caches = ref (0, 0) in
  let start = Pb_trace.now_ns () in
  let elapsed () = (Pb_trace.now_ns () -. start -. !setup_wall_ns) /. 1e9 in
  let seat_samples () =
    List.fold_left (fun a t -> a + List.length t.seat_cpu_ms) 0 !plain
  in
  let b = ref 0 in
  while
    !b < wl.prefix
    || elapsed () < !seconds
    || List.length !setups < wl.setup_reps
    || (tracing && (traced.batches = 0 || !plain = []))
    || ((not tracing) && seat_samples () < min_seat_samples)
  do
    if !b mod wl.setup_every = 0 && List.length !setups < wl.setup_reps then
      setup ();
    (* peaks describe the batches, not the set-up's warm-up burst *)
    if !b = 0 then Pb_layers.(inbox_max := 0; retx_max := 0; live_max := 0);
    if !b < wl.prefix then begin
      (* counted prefix; with tracing it carries the profiler and is not
         timed *)
      let before = counter_values () in
      if tracing then begin
        Prof.enable ();
        ignore (run_batch !b [ pre ]);
        Prof.disable ()
      end
      else run_plain !b [ pre ];
      add_deltas before (counter_values ());
      if !b = wl.prefix - 1 then begin
        peaks := Pb_layers.(!inbox_max, !retx_max, !live_max);
        caches := (Bigint.fixed_base_cache_size (), Bigint.mont_cache_size ())
      end
    end
    else begin
      let on = tracing && (!b - wl.prefix) mod 2 = 1 in
      Pb_trace.on := on;
      if on then begin
        let factor = run_batch !b [ traced ] in
        Pb_trace.on := false;
        absorb ~churn:wl.churn ~timed:true ~factor (Pb_trace.take ())
      end
      else run_plain !b []
    end;
    incr b
  done;
  let prof = Prof.snapshot () in
  let setup_s = !setups in

  (* ---- results ---------------------------------------------------- *)
  let m = fi wl.m in
  let n_pre = fi pre.attempted in
  let per_hs v = ratio v n_pre in
  let sum f ts = List.fold_left (fun a t -> a + f t) 0 ts in
  let sumf f ts = List.fold_left (fun a t -> a +. f t) 0.0 ts in
  (* every batch run lands in one [plain] tally or in [traced], the
     traced-mode prefix in [pre] alone *)
  let runs = (traced :: !plain) @ if tracing then [ pre ] else [] in
  let sessions = sum (fun t -> t.attempted) runs in
  let attempted = sessions + ops.op_count in
  let failed = sum (fun t -> t.failed) runs + ops.op_failed in
  let correct = failed = 0 in
  let p50 l = median l and p95 l = quantile 0.95 l in
  Printf.printf
    "workload %s seed %d: %d batches (%d counted), %d sessions, %d membership ops, %d failed checks\n"
    !workload_name seed !b wl.prefix sessions ops.op_count failed;
  if not tracing then begin
    let seat_cpu = List.concat_map (fun t -> t.seat_cpu_ms) !plain in
    Printf.printf
      "timed batches %d; party_cpu samples %d (p95 needs >= 200); set-up runs %d; \
       peak heap p50 over %d batches; \
       distinct admits %d, removes %d, updates %d; host contention x%.2f \
       (probe p5 %.0f us over %d probes)\n"
      (List.length !plain) (List.length seat_cpu) (List.length setup_s)
      (List.length !heap_mb)
      (List.length (latencies "admit" ~median))
      (List.length (latencies "remove" ~median))
      (List.length (latencies "update" ~median))
      (median !factors)
      (quantile 0.05 (List.map snd !Pb_trace.samples) /. 1e3)
      !Pb_trace.probes;
    print_result ~correct ~attempted ~failed
      [ ("setup_s", "s", median setup_s);
        (* complete fraction of the counted prefix times the median engine
           run's session rate *)
        ( "handshakes_per_s", "1/s",
          ratio (fi pre.full) n_pre
          *. median (List.concat_map (fun t -> t.rates) !plain) );
        ("party_cpu_ms_p50", "ms", p50 seat_cpu);
        ("party_cpu_ms_p95", "ms", p95 seat_cpu);
        ("session_complete_frac", "ratio", ratio (fi pre.full) n_pre);
        ("wire_bytes_per_party", "bytes", ratio (d "net.bytes") (n_pre *. m));
        ("peak_heap_mb", "MB", median !heap_mb);
        ("admit_ms_p50", "ms", ms (p50 (latencies "admit" ~median)));
        ("revoke_ms_p50", "ms", ms (p50 (latencies "remove" ~median)));
        ("member_update_ms_p50", "ms", ms (p50 (latencies "update" ~median)));
        ("rekey_bytes_p50", "bytes", p50 ops.rekey_bytes);
      ]
  end
  else begin
    let l = layers in
    let n_tr = fi traced.attempted in
    let sched = traced.run_ns -. l.engine_top in
    let unattributed = traced.wall_ns -. traced.run_ns -. l.member_top in
    let per_tr v = ratio v n_tr in
    let wall_tr = per_tr traced.wall_ns in
    let n_plain = fi (sum (fun t -> t.attempted) !plain) in
    let wall_plain = ratio (sumf (fun t -> t.wall_ns) !plain) n_plain in
    (* overhead over the engine runs, where the driver, hook and DGKA
       spans sit *)
    let run_plain = ratio (sumf (fun t -> t.run_ns) !plain) n_plain in
    let mul_ns, pow_us, multi_us =
      let k = median !factors in
      let mul_ns, pow_us, multi_us = kernels ~seed in
      (mul_ns /. k, pow_us /. k, multi_us /. k)
    in
    let inbox_max, retx_max, live_max = !peaks in
    let row name v =
      Printf.printf "  %-14s %10.3f ms/hs %6.1f%%\n" name (ms (per_tr v))
        (100.0 *. ratio v traced.wall_ns)
    in
    Printf.printf "attribution, traced batches (%d sessions):\n" traced.attempted;
    row "gsig" l.gsig;
    row "dgka" l.dgka;
    row "cgkd" l.cgkd;
    row "gcd-self" l.gcd;
    row "engine-sched" sched;
    row "unattributed" unattributed;
    Printf.printf "  %-14s %10.3f ms/hs (untraced %.3f ms/hs over %.0f sessions)\n"
      "traced total" (ms wall_tr) (ms wall_plain) n_plain;
    if !trace_dir <> "" then
      Pb_trace.write_chrome
        (Filename.concat !trace_dir
           (sprintf "%s-seed%d.trace.json" !workload_name seed))
        (List.concat (List.rev l.spans));
    let words =
      List.fold_left (fun a op -> a + Prof.total_words prof op) 0 Prof.all_ops
    in
    print_result ~correct ~attempted ~failed
      [ ("bigint.mul_per_hs", "count", per_hs (d "mul_count"));
        ("bigint.pow_mod_per_hs", "count", per_hs (d "pow_mod_count"));
        ("bigint.limb_words_per_hs", "count", per_hs (fi words));
        ("bigint.mul_mod_ns", "ns", mul_ns);
        ("bigint.pow_mod_us", "us", pow_us);
        ("bigint.pow_mod_multi_us", "us", multi_us);
        ("bigint.fb_cache_entries", "count", fi (fst !caches));
        ("bigint.mont_cache_entries", "count", fi (snd !caches));
        ("gsig.sign_ms_p50", "ms", p50 l.sign);
        ("gsig.verify_ms_p50", "ms", p50 l.verify);
        ("gsig.verify_ms_p50_first", "ms", p50 l.verify_first);
        ("gsig.verify_ms_p50_last", "ms", p50 l.verify_last);
        ("gsig.verify_per_hs", "count", per_hs (fi pre.verifies));
        ("gsig.busy_frac", "ratio", ratio l.gsig traced.wall_ns);
        ("gsig.crl_len_first", "count", median !crl_first);
        ("gsig.crl_len", "count", median !crl_last);
        ("gsig.join_ms_p50", "ms", p50 l.gsig_join);
        ("dgka.ms_per_hs", "ms", ms (per_tr l.dgka));
        ("dgka.msgs_per_hs", "count", per_hs (fi pre.dgka_msgs));
        ("cgkd.join_ms_p50", "ms", p50 l.cgkd_join);
        ("cgkd.leave_ms_p50", "ms", p50 l.cgkd_leave);
        ("cgkd.rekey_us_p50", "us", p50 l.cgkd_rekey);
        ("gcd.self_ms_per_hs", "ms", ms (per_tr l.gcd));
        ("gcd.retransmissions_per_hs", "count", per_hs (d "gcd.retransmissions"));
        ("gcd.rejected_per_hs", "count", per_hs (d "gcd.rejected_msgs"));
        ("gcd.retx_buffer_bytes_max", "bytes", fi retx_max);
        ("gcd.seats_complete", "count", fi pre.seats_complete);
        ("gcd.seats_partial", "count", fi pre.seats_partial);
        ("gcd.seats_aborted", "count", fi pre.seats_aborted);
        ("session_fail_frac", "ratio", 1.0 -. ratio (fi pre.full) n_pre);
        ("net.messages_per_hs", "count", per_hs (d "net.messages"));
        ("net.deliveries_per_hs", "count", per_hs (d "net.deliveries"));
        ("net.dropped_per_hs", "count", per_hs (d "net.dropped"));
        ("sim.events_per_hs", "count", per_hs (fi pre.sim_events));
        ("engine.sched_ms_per_hs", "ms", ms (per_tr sched));
        ("engine.sched_frac", "ratio", ratio sched traced.wall_ns);
        ("engine.live_max", "count", fi live_max);
        ("engine.inbox_depth_max", "count", fi inbox_max);
        ("engine.shed", "count", d "engine.shed");
        ("engine.rejected", "count", d "engine.rejected");
        ("engine.flow_latency_sim_p95", "sim-s", p95 pre.lat_sim);
        ("trace.unattributed_frac", "ratio", ratio unattributed traced.wall_ns);
        ("trace.overhead_frac", "ratio", ratio (per_tr traced.run_ns) run_plain -. 1.0);
      ]
  end
