(* Burst-arrival handshake workload over the concurrent-session engine:
   the driver behind bench e15 and the `shs_demo swarm` subcommand.

   Sessions arrive as a Poisson process (exponential inter-arrival gaps
   drawn from a dedicated DRBG stream) and are submitted to one
   {!Shs_engine}; each session seats [m] same-group members chosen by
   rotation over a small shared roster.  Every per-session random
   stream — seat DRBGs, fault plan, adversary plan — is derived from
   the session's sid alone, so a run replays byte-identically and a
   session's outcome does not depend on which other sessions exist
   (the isolation property test_engine checks).

   Fault injection and the mutation adversary take {e scope} predicates
   over sids: targeted sessions get a lossy channel and/or a Byzantine
   last seat (the Fuzz plan), untargeted sessions run clean — the
   Byzantine-sweep isolation gate demands that every untargeted session
   still fully completes. *)

type config = {
  sessions : int;  (** total arrivals *)
  m : int;  (** seats per session *)
  mean_gap : float;  (** mean Poisson inter-arrival gap (sim-s) *)
  world_seed : int;
  fault_seed : int;
  attack_seed : int;
  drop : float;  (** per-copy drop probability for fault-scoped sessions *)
  drop_every : int;  (** 0 = none; else target sids with [sid mod k = 0] *)
  byz_every : int;  (** 0 = none; else Byzantine seat on [sid mod k = 0] *)
  high_water : int;
  inbox_capacity : int;
  service_time : float;
  deadline : float;
  roster : int;  (** members enrolled in the shared world *)
  cadence : float;  (** telemetry scrape interval (sim-s) *)
}

let default =
  { sessions = 1000;
    m = 4;
    mean_gap = 0.05;
    world_seed = 1000;
    fault_seed = 11;
    attack_seed = 101;
    drop = 0.05;
    drop_every = 0;
    byz_every = 0;
    high_water = 4096;
    inbox_capacity = 64;
    service_time = 0.01;
    deadline = 240.0;
    roster = 8;
    cadence = 5.0;
  }

type summary = {
  submitted : int;
  admitted : int;
  rejected : int;
  completed : int;  (** disposition [Completed] *)
  shed : int;
  poisoned : int;
  full_complete : int;  (** sessions where every seat terminated Complete *)
  targeted : int;  (** admitted sessions under a fault or attack scope *)
  untargeted : int;
  untargeted_full : int;  (** untargeted sessions that fully completed *)
  duration : float;  (** sim time at drain *)
  throughput : float;  (** completed sessions per sim-second *)
  lat_p50 : float;  (** session flow latency: admission to reap, sim-s *)
  lat_p95 : float;
  lat_p99 : float;
  recorder : Obs_series.t;
  reports : Shs_engine.report list;  (** reaping order (oldest first) *)
}

let isolation_ok s = s.untargeted_full = s.untargeted

let world ~seed ~roster () =
  let rng_of seed = Drbg.bytes_fn (Drbg.of_int_seed seed) in
  let ga = Scheme1.default_authority ~rng:(rng_of seed) () in
  let members =
    Array.init roster (fun i ->
        match
          Scheme1.admit ga
            ~uid:(Printf.sprintf "w%d" i)
            ~member_rng:(rng_of ((seed * 100) + i))
        with
        | Some v -> v
        | None -> failwith "Swarm.world: admit failed")
  in
  (* everyone replays everyone else's admission broadcast, so the whole
     roster is current when the bursts start *)
  Array.iteri
    (fun i (_, upd) ->
      Array.iteri
        (fun j (m, _) -> if j < i then ignore (Scheme1.update m upd))
        members)
    members;
  (ga, Array.map fst members)

let u01 rng =
  let b = rng 4 in
  let byte i = Char.code b.[i] in
  float_of_int
    ((byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3)
  /. 4294967296.0

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* per-(sid, seat) randomness: independent streams, not splits of a
   shared parent, so a seat's draws cannot depend on submission order *)
let seat_rng ~world_seed ~sid ~seat =
  Drbg.bytes_fn
    (Drbg.create
       ~personalization:(Printf.sprintf "shs-swarm/%d/%d" sid seat)
       ~seed:(string_of_int world_seed) ())

let run ?world:prebuilt ?fault_scope ?attack_scope cfg =
  if cfg.sessions < 1 then invalid_arg "Swarm.run: need at least one session";
  if cfg.m < 2 || cfg.m > cfg.roster then
    invalid_arg "Swarm.run: need 2 <= m <= roster";
  if not (cfg.mean_gap > 0.0) then invalid_arg "Swarm.run: mean_gap <= 0";
  let every k sid = k > 0 && sid mod k = 0 in
  let fault_scope =
    match fault_scope with Some f -> f | None -> every cfg.drop_every
  in
  let attack_scope =
    match attack_scope with Some f -> f | None -> every cfg.byz_every
  in
  let ga, members =
    match prebuilt with
    | Some w -> w
    | None -> world ~seed:cfg.world_seed ~roster:cfg.roster ()
  in
  let fmt = Scheme1.default_format ga in
  let engine =
    Shs_engine.create
      ~config:
        { Shs_engine.high_water = cfg.high_water;
          inbox_capacity = cfg.inbox_capacity;
          service_time = cfg.service_time;
          deadline = cfg.deadline;
          watchdog = Some Gcd_types.default_watchdog;
        }
      ()
  in
  let sim = Shs_engine.sim engine in

  (* ---- telemetry ------------------------------------------------- *)
  let recorder = Obs_series.create ~cadence:cfg.cadence in
  let lat_win = Obs_series.window ~capacity:256 in
  Obs_series.gauge_level recorder ~unit_:"sessions" ~name:"live sessions"
    (Obs.gauge "gcd.sessions.live");
  Array.iteri
    (fun i g ->
      Obs_series.gauge_level recorder ~unit_:"seats"
        ~name:(Printf.sprintf "seats in phase%d" i)
        g)
    (Array.init 4 (fun i -> Obs.gauge (Printf.sprintf "gcd.live.phase%d" i)));
  Obs_series.gauge_level recorder ~unit_:"events" ~name:"sim queue depth"
    (Obs.gauge "sim.queue_depth");
  Obs_series.gauge_level recorder ~unit_:"copies" ~name:"in-flight copies"
    (Obs.gauge "net.in_flight");
  Obs_series.gauge_level recorder ~unit_:"msgs" ~name:"inbox depth"
    (Obs.gauge "engine.inbox_depth");
  Obs_series.gauge_level recorder ~unit_:"bytes" ~name:"retx buffer bytes"
    (Obs.gauge "gcd.retx_buffer_bytes");
  Obs_series.counter_rate recorder ~unit_:"sessions/interval"
    ~name:"admitted rate" (Obs.counter "engine.admitted");
  Obs_series.counter_rate recorder ~unit_:"sessions/interval"
    ~name:"reaped rate" (Obs.counter "engine.reaped");
  Obs_series.counter_rate recorder ~unit_:"sessions/interval" ~name:"shed rate"
    (Obs.counter "engine.shed");
  Obs_series.counter_rate recorder ~unit_:"sessions/interval"
    ~name:"rejected rate" (Obs.counter "engine.rejected");
  Obs_series.quantile_series recorder ~unit_:"sim-s" ~name:"flow latency p50"
    ~q:0.5 lat_win;
  Obs_series.quantile_series recorder ~unit_:"sim-s" ~name:"flow latency p95"
    ~q:0.95 lat_win;
  (* new reports are folded into the latency window at scrape time *)
  let seen = ref 0 in
  let ingest () =
    let reports = Shs_engine.reports engine in
    let fresh = List.filteri (fun i _ -> i >= !seen) reports in
    List.iter
      (fun (r : Shs_engine.report) ->
        if r.Shs_engine.r_disposition = Shs_engine.Completed then
          Obs_series.observe lat_win
            (r.Shs_engine.r_finished -. r.Shs_engine.r_admitted))
      fresh;
    seen := List.length reports
  in
  Sim.every sim ~interval:cfg.cadence (fun ~now ->
      ingest ();
      Obs_series.sample recorder ~now);

  (* ---- Poisson arrivals ------------------------------------------ *)
  let arrivals =
    Drbg.bytes_fn
      (Drbg.create ~personalization:"shs-swarm-arrivals"
         ~seed:(string_of_int cfg.world_seed) ())
  in
  let t = ref 0.0 in
  for k = 0 to cfg.sessions - 1 do
    let gap = -.cfg.mean_gap *. log (1.0 -. u01 arrivals) in
    t := !t +. gap;
    Sim.schedule sim ~delay:!t (fun () ->
        (* the engine assigns sids in arrival order, so this arrival's
           sid is [k]: scopes and stream derivations agree by design *)
        let sid = k in
        let faults =
          if fault_scope sid then
            Some
              (Faults.create ~drop:cfg.drop
                 ~seed:((cfg.fault_seed * 1_000_003) + sid)
                 ())
          else None
        in
        let adversary, watchdog =
          if attack_scope sid then
            ( Some
                (Adversary.tap
                   (Fuzz.byzantine_adversary ~byz:(cfg.m - 1)
                      ~seed:((cfg.attack_seed * 1_000_003) + sid))),
              (* graced deadlines defeat the Byzantine
                 timeout-desynchronization race (see Gcd_types) *)
              Some Gcd_types.byzantine_watchdog )
          else (None, None)
        in
        ignore
          (Shs_engine.submit engine ?faults ?adversary ?watchdog (fun () ->
               Scheme1.engine_driver ~fmt
                 (Array.init cfg.m (fun seat ->
                      { Scheme1.p_role =
                          Scheme1.Member_of
                            members.((sid + seat) mod cfg.roster);
                        p_rng = seat_rng ~world_seed:cfg.world_seed ~sid ~seat;
                      })))))
  done;
  Shs_engine.run engine;
  ingest ();

  (* ---- summary ---------------------------------------------------- *)
  let reports = Shs_engine.reports engine in
  let completed = ref 0 and shed = ref 0 and poisoned = ref 0 in
  let full = ref 0 and targeted = ref 0 in
  let untargeted = ref 0 and untargeted_full = ref 0 in
  let latencies = ref [] in
  List.iter
    (fun (r : Shs_engine.report) ->
      let fully =
        r.Shs_engine.r_disposition = Shs_engine.Completed
        && Array.for_all
             (function
               | Some (o : Gcd_types.outcome) ->
                 o.Gcd_types.termination = Gcd_types.Complete
               | None -> false)
             r.Shs_engine.r_outcomes
      in
      (match r.Shs_engine.r_disposition with
       | Shs_engine.Completed ->
         incr completed;
         latencies :=
           (r.Shs_engine.r_finished -. r.Shs_engine.r_admitted) :: !latencies
       (* every swarm session arms a watchdog, so none can stall; a
          stall would count with the sessions the engine had to end *)
       | Shs_engine.Shed | Shs_engine.Stalled -> incr shed
       | Shs_engine.Poisoned -> incr poisoned);
      if fully then incr full;
      if fault_scope r.Shs_engine.r_sid || attack_scope r.Shs_engine.r_sid then
        incr targeted
      else begin
        incr untargeted;
        if fully then incr untargeted_full
      end)
    reports;
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  (* measure to the last reap, not [Sim.now]: the scheduler still drains
     the stale per-session deadline no-ops after the real work ends, and
     throughput should not be quantized by the deadline *)
  let duration =
    List.fold_left
      (fun acc (r : Shs_engine.report) -> Float.max acc r.Shs_engine.r_finished)
      0.0 reports
  in
  { submitted = cfg.sessions;
    admitted = List.length reports;
    rejected = Shs_engine.rejected engine;
    completed = !completed;
    shed = !shed;
    poisoned = !poisoned;
    full_complete = !full;
    targeted = !targeted;
    untargeted = !untargeted;
    untargeted_full = !untargeted_full;
    duration;
    throughput =
      (if duration > 0.0 then float_of_int !completed /. duration else 0.0);
    lat_p50 = percentile sorted 0.5;
    lat_p95 = percentile sorted 0.95;
    lat_p99 = percentile sorted 0.99;
    recorder;
    reports;
  }

(* Deterministic rendering: sim-time quantities only (never wall time),
   fixed float formatting — `shs_demo swarm` output is byte-identical
   across identically-seeded runs and ci.sh `cmp`s it. *)
let to_text s =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "arrivals    %d submitted, %d admitted, %d rejected (overload)\n"
       s.submitted s.admitted s.rejected);
  Buffer.add_string b
    (Printf.sprintf "dispositions %d completed, %d shed, %d poisoned\n"
       s.completed s.shed s.poisoned);
  Buffer.add_string b
    (Printf.sprintf
       "outcomes    %d fully complete; targeted %d, untargeted %d (full %d)\n"
       s.full_complete s.targeted s.untargeted s.untargeted_full);
  Buffer.add_string b
    (Printf.sprintf "isolation   %s\n"
       (if s.untargeted = 0 then "n/a"
        else if isolation_ok s then "100% of untargeted sessions complete"
        else
          Printf.sprintf "VIOLATED: %d/%d untargeted sessions complete"
            s.untargeted_full s.untargeted));
  Buffer.add_string b
    (Printf.sprintf "duration    %.6f sim-s, throughput %.6f sessions/sim-s\n"
       s.duration s.throughput);
  Buffer.add_string b
    (Printf.sprintf "flow latency p50 %.6f / p95 %.6f / p99 %.6f sim-s\n"
       s.lat_p50 s.lat_p95 s.lat_p99);
  Buffer.contents b
