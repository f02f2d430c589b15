(* Concurrent-session engine: N independent GCD session state machines
   multiplexed over one deterministic scheduler.  It is the one session
   driver: [Gcd.run_session] runs a single session as a one-session
   engine.  Each admitted session keeps its own per-session network
   engine (receivers, fault plan, adversary tap, accounting) but all of
   them share the engine's [Sim], so deliveries, watchdog timers and
   inbox drains from every session interleave on one virtual clock —
   and, because every random draw comes from per-session seeded DRBGs
   consumed in a per-session order, a whole 1000-session run replays
   byte-identically and each session's outcome is invariant to the
   presence of unrelated sessions.

   Robustness properties, each observable on its own counter:

   - {e admission control} ([engine.admitted] / [engine.rejected]):
     arrivals past the [high_water] mark are refused with the typed
     [Shs_error.Overloaded] rejection.  A refused session emits no
     protocol bytes at all, which is exactly what a §7 abort looks like
     from outside — overload does not leak.
   - {e backpressure} ([engine.backpressure_dropped], gauge
     [engine.inbox_depth]): deliveries land in bounded per-seat inboxes
     serviced one message per [service_time]; a full inbox sheds the
     message like channel loss, which the watchdog already repairs.
     With [service_time = 0] a seat handles each delivery on arrival
     and the inboxes stay empty.
   - {e load shedding} ([engine.shed]): a session still live past
     [deadline] is force-progressed seat by seat to the §7
     indistinguishable abort, then reaped — never leaked.  An infinite
     deadline schedules no shedding at all.
   - {e poisoned-session isolation} ([engine.poisoned]): an exception
     escaping any seat's state machine (a crashed or Byzantine
     implementation, not just Byzantine bytes) poisons only its own
     session: the session is force-aborted and reaped, every other
     session keeps running untouched.
   - {e reaping} ([engine.reaped]): every terminal session — completed,
     shed or poisoned — leaves the session table, clears its inboxes
     and retransmission buffers, and returns its gauge population.
     Copies still in flight to a reaped session reach its terminal
     seats, which count them stale; their answers are dropped. *)

let admitted_counter =
  Obs.counter ~help:"sessions accepted by admission control" "engine.admitted"
let rejected_counter =
  Obs.counter ~help:"sessions refused at the high-water mark" "engine.rejected"
let shed_counter =
  Obs.counter ~help:"sessions force-aborted past their deadline" "engine.shed"
let reaped_counter =
  Obs.counter ~help:"terminal sessions removed from the session table"
    "engine.reaped"
let poisoned_counter =
  Obs.counter ~help:"sessions isolated after an escaped exception"
    "engine.poisoned"
let backpressure_counter =
  Obs.counter ~help:"deliveries shed by full session inboxes"
    "engine.backpressure_dropped"
let inbox_gauge =
  Obs.gauge ~help:"messages queued in session inboxes" "engine.inbox_depth"
let retransmissions_counter =
  Obs.counter ~help:"handshake messages retransmitted by the watchdog"
    "gcd.retransmissions"

(* the live population: sessions admitted and not yet reaped, and where
   their seats sit in the protocol.  A seat registers at phase 0 on
   admission, [emit] moves it to the driver's [dr_phase] after every
   call, and reaping deregisters it from whatever phase it ended in *)
let live_sessions_gauge =
  Obs.gauge ~help:"handshake sessions currently running" "gcd.sessions.live"
let phase_gauges =
  Array.init 4 (fun i ->
      Obs.gauge
        ~help:(Printf.sprintf "live handshake parties currently in phase %d" i)
        (Printf.sprintf "gcd.live.phase%d" i))

type config = {
  high_water : int;  (** live-session cap; arrivals beyond are rejected *)
  inbox_capacity : int;  (** per-seat inbox bound *)
  service_time : float;  (** sim-time to service one inbox message *)
  deadline : float;  (** sim-time budget per session before shedding *)
  watchdog : Gcd_types.watchdog option;  (** default per-seat watchdog *)
}

let default_config =
  { high_water = 4096;
    inbox_capacity = 64;
    service_time = 0.01;
    deadline = 240.0;
    watchdog = Some Gcd_types.default_watchdog;
  }

type disposition = Completed | Shed | Poisoned | Stalled

let string_of_disposition = function
  | Completed -> "completed"
  | Shed -> "shed"
  | Poisoned -> "poisoned"
  | Stalled -> "stalled"

type report = {
  r_sid : int;
  r_admitted : float;
  r_finished : float;
  r_disposition : disposition;
  r_outcomes : Gcd_types.outcome option array;
  r_error : exn option;  (** the escaped exception, for [Poisoned] *)
}

type session = {
  s_sid : int;
  s_n : int;
  s_net : Engine.t;
  s_driver : Gcd_types.driver;
  s_gauge : int array;  (* per seat, the phase gauge it is counted on *)
  s_retx : Retx.t array;
  s_inbox : (int * string) Queue.t array;
  s_draining : bool array;
  s_admitted : float;
  mutable s_finished : bool;
  mutable s_error : exn option;
}

type submit_result = Admitted of int | Rejected

type t = {
  sim : Sim.t;
  config : config;
  table : (int, session) Hashtbl.t;  (* live sessions by sid *)
  mutable live : int;
  mutable next_sid : int;
  mutable reports : report list;  (* newest first *)
  mutable n_rejected : int;
}

let create ?(config = default_config) () =
  if config.high_water < 1 then invalid_arg "Shs_engine: high_water < 1";
  if config.inbox_capacity < 1 then invalid_arg "Shs_engine: inbox_capacity < 1";
  if not (config.service_time >= 0.0) then
    invalid_arg "Shs_engine: negative service_time";
  if not (config.deadline > 0.0) then invalid_arg "Shs_engine: deadline <= 0";
  let sim = Sim.create () in
  if Obs.events_enabled () then Obs.set_event_clock (fun () -> Sim.now sim);
  { sim;
    config;
    table = Hashtbl.create 32;
    live = 0;
    next_sid = 0;
    reports = [];
    n_rejected = 0;
  }

let sim t = t.sim
let live t = t.live
let rejected t = t.n_rejected
let reports t = List.rev t.reports

let network t sid = Option.map (fun s -> s.s_net) (Hashtbl.find_opt t.table sid)

let seat_outcome s i =
  match s.s_driver.Gcd_types.dr_outcome i with
  | o -> o
  | exception _ -> None

(* Reap: gauges drained, inboxes and retransmission buffers cleared,
   session out of the table — terminal sessions hold no memory, and
   the receivers hand straggler deliveries straight to the terminal
   seats, which count them stale. *)
let finalize t s ~disposition =
  if not s.s_finished then begin
    s.s_finished <- true;
    Obs.gauge_sub live_sessions_gauge 1;
    for i = 0 to s.s_n - 1 do
      Obs.gauge_sub phase_gauges.(s.s_gauge.(i)) 1;
      Obs.gauge_sub inbox_gauge (Queue.length s.s_inbox.(i));
      Queue.clear s.s_inbox.(i);
      Retx.clear s.s_retx.(i)
    done;
    Hashtbl.remove t.table s.s_sid;
    t.live <- t.live - 1;
    Obs.incr reaped_counter;
    t.reports <-
      { r_sid = s.s_sid;
        r_admitted = s.s_admitted;
        r_finished = Sim.now t.sim;
        r_disposition = disposition;
        r_outcomes = Array.init s.s_n (seat_outcome s);
        r_error = s.s_error;
      }
      :: t.reports
  end

let send s i msgs =
  List.iter
    (fun (dst, payload) ->
      match dst with
      | None -> Engine.broadcast s.s_net ~src:i payload
      | Some dst -> Engine.send s.s_net ~src:i ~dst payload)
    msgs

(* Every driver call that can move a seat ends here, so this is where
   the seat moves between the phase gauges.  Everything a live seat
   says is recorded for retransmission (the state machines ignore exact
   duplicates, so replay is always safe); a terminal seat's buffer is
   cleared, and its linger answers are not kept.  See {!Retx} for the
   bounds. *)
let emit s i msgs =
  if not s.s_finished then begin
    let phase =
      match s.s_driver.Gcd_types.dr_phase i with ph -> ph | exception _ -> 3
    in
    if phase <> s.s_gauge.(i) then begin
      Obs.gauge_sub phase_gauges.(s.s_gauge.(i)) 1;
      Obs.gauge_add phase_gauges.(phase) 1;
      s.s_gauge.(i) <- phase
    end;
    if seat_outcome s i = None then Retx.record s.s_retx.(i) ~phase msgs
    else Retx.clear s.s_retx.(i);
    send s i msgs
  end

(* Force every seat to a terminal outcome (§7 indistinguishable abort on
   whatever never arrived).  The forced-abort messages are still
   transmitted: on the wire a shed session is indistinguishable from an
   ordinary aborting one.  A seat that raises while being forced is
   abandoned where it stands — the session is being reaped anyway. *)
let force_all s =
  for i = 0 to s.s_n - 1 do
    (try
       (* each force advances at least one phase, so four rounds always
          reach a terminal state *)
       for _ = 1 to 4 do
         if s.s_driver.Gcd_types.dr_outcome i = None then
           emit s i (s.s_driver.Gcd_types.dr_force i)
       done
     with _ -> ())
  done

let poison t s exn =
  if not s.s_finished then begin
    s.s_error <- Some exn;
    Obs.incr poisoned_counter;
    if Obs.events_enabled () then
      Obs.instant "engine.poisoned"
        ~args:[ ("sid", string_of_int s.s_sid) ];
    force_all s;
    finalize t s ~disposition:Poisoned
  end

(* Every entry into a session's state machines goes through here: an
   escaped exception is that session's problem alone. *)
let guard t s f = try f () with exn -> poison t s exn

let check_done t s =
  if not s.s_finished then begin
    let all_terminal = ref true in
    for i = 0 to s.s_n - 1 do
      if seat_outcome s i = None then all_terminal := false
    done;
    if !all_terminal then finalize t s ~disposition:Completed
  end

let handle t s i ~src ~payload =
  guard t s (fun () ->
      emit s i (s.s_driver.Gcd_types.dr_receive i ~src ~payload);
      check_done t s)

let rec drain t s i =
  if s.s_finished then s.s_draining.(i) <- false
  else
    match Queue.take_opt s.s_inbox.(i) with
    | None -> s.s_draining.(i) <- false
    | Some (src, payload) ->
      Obs.gauge_sub inbox_gauge 1;
      handle t s i ~src ~payload;
      if (not s.s_finished) && not (Queue.is_empty s.s_inbox.(i)) then
        Sim.schedule t.sim ~delay:t.config.service_time (fun () -> drain t s i)
      else s.s_draining.(i) <- false

let install_receiver t s i =
  Engine.set_receiver s.s_net i (fun ~src ~payload ->
      if s.s_finished then begin
        (* straggler into a reaped session: a terminal seat counts it
           stale and whatever it answers is dropped; a seat abandoned
           mid-force is not entered again *)
        if seat_outcome s i <> None then
          try ignore (s.s_driver.Gcd_types.dr_receive i ~src ~payload)
          with _ -> ()
      end
      else if t.config.service_time = 0.0 then handle t s i ~src ~payload
      else if Queue.length s.s_inbox.(i) >= t.config.inbox_capacity then
        (* inbox full: backpressure sheds the message exactly like
           channel loss; the watchdog's retransmissions repair it *)
        Obs.incr backpressure_counter
      else begin
        Queue.push (src, payload) s.s_inbox.(i);
        Obs.gauge_add inbox_gauge 1;
        if not s.s_draining.(i) then begin
          s.s_draining.(i) <- true;
          Sim.schedule t.sim ~delay:t.config.service_time (fun () ->
              drain t s i)
        end
      end)

(* Resend by local evidence: a peer's evidence is the highest phase
   stamp of anything seat [i] has received from it, so a peer with
   evidence above [q] has left phase [q] and no longer waits for [i]'s
   phase-[q] frames.  Frames stamped below every peer's evidence are
   dropped; each remaining frame stamped [q] goes only to the peers
   whose evidence is at most [q]: to nobody if there is none, point to
   point to one, as one broadcast to two or more — so a resend never
   costs more than replaying the buffer.  A finished peer that receives
   a frame stamped below its final phase answers it once (the linger in
   [Gcd.receive]), which repairs a lost copy of its last broadcast.  A
   crash-stopped seat sends nothing, so it resends, counts and traces
   nothing; its ladder still forces it to its outcome. *)
let resend s i =
  if not (Engine.crashed s.s_net i) then begin
    let ev =
      Array.init s.s_n (fun j ->
          if j = i then max_int else s.s_driver.Gcd_types.dr_peer_phase i j)
    in
    Retx.evict_stale s.s_retx.(i) ~min_peer_phase:(Array.fold_left min max_int ev);
    let lagging q = List.filter (fun j -> ev.(j) <= q) (List.init s.s_n Fun.id) in
    let frames =
      List.filter_map
        (fun (q, dst, payload) ->
          match dst with
          | Some j -> if ev.(j) <= q then Some (dst, payload) else None
          | None ->
            (match lagging q with
             | [] -> None
             | [ j ] -> Some (Some j, payload)
             | _ :: _ :: _ -> Some (None, payload)))
        (Retx.frames s.s_retx.(i))
    in
    Obs.add retransmissions_counter (List.length frames);
    if Obs.events_enabled () then
      Obs.instant "gcd.retransmit"
        ~args:
          [ ("party", string_of_int i);
            ("msgs", string_of_int (List.length frames)) ];
    send s i frames
  end

let on_track i =
  if Obs.events_enabled () then Obs.set_track ("party-" ^ string_of_int i)

(* The session watchdog, per seat on the shared clock.  While the seat's
   phase marker advances, the timer just re-arms; a stalled phase is
   retransmitted [max_retransmits + phase_grace * phase] times with
   exponential backoff, then forced forward.  Every seat therefore
   reaches a terminal outcome (complete / partial / aborted) within a
   bounded number of timer events — no session can hang. *)
let arm_watchdog t s (wd : Gcd_types.watchdog) i =
  let rec arm ~phase ~attempt ~delay =
    Sim.schedule t.sim ~delay (fun () ->
        on_track i;
        if not s.s_finished then
          guard t s (fun () ->
              if s.s_driver.Gcd_types.dr_outcome i = None then begin
                let now_phase = s.s_driver.Gcd_types.dr_phase i in
                if now_phase > phase then
                  arm ~phase:now_phase ~attempt:0
                    ~delay:wd.Gcd_types.retransmit_after
                else if
                  attempt
                  < wd.Gcd_types.max_retransmits
                    + (wd.Gcd_types.phase_grace * phase)
                then begin
                  resend s i;
                  arm ~phase ~attempt:(attempt + 1)
                    ~delay:(delay *. wd.Gcd_types.backoff)
                end
                else begin
                  emit s i (s.s_driver.Gcd_types.dr_force i);
                  check_done t s;
                  if
                    (not s.s_finished)
                    && s.s_driver.Gcd_types.dr_outcome i = None
                  then
                    arm ~phase:(s.s_driver.Gcd_types.dr_phase i) ~attempt:0
                      ~delay:wd.Gcd_types.retransmit_after
                end
              end))
  in
  arm ~phase:0 ~attempt:0 ~delay:wd.Gcd_types.retransmit_after

let submit t ?faults ?adversary ?latency ?watchdog make_driver =
  let watchdog =
    match watchdog with Some _ -> watchdog | None -> t.config.watchdog
  in
  (* a bad policy is refused before admission, so it leaves no sid,
     counter, gauge or network behind *)
  (match watchdog with
   | Some wd
     when not
            (wd.Gcd_types.retransmit_after > 0.0
            && wd.Gcd_types.backoff >= 1.0
            && wd.Gcd_types.phase_grace >= 0) ->
     invalid_arg "Shs_engine.submit: bad watchdog policy"
   | _ -> ());
  (* every arrival consumes a sid, admitted or not, so sids equal
     arrival order and stay stable under admission decisions — workload
     generators key per-session DRBG derivations off them *)
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  if t.live >= t.config.high_water then begin
    t.n_rejected <- t.n_rejected + 1;
    Obs.incr rejected_counter;
    (* typed Overloaded rejection; no driver is even constructed, so a
       refused arrival emits no bytes — outwardly a §7 abort *)
    Shs_error.reject ~layer:"engine" Shs_error.Overloaded
      ~args:[ ("sid", string_of_int sid) ];
    Rejected
  end
  else begin
    let driver = make_driver () in
    let n = driver.Gcd_types.dr_n in
    let net = Engine.create ~sim:t.sim ?faults ?adversary ?latency ~n () in
    let s =
      { s_sid = sid;
        s_n = n;
        s_net = net;
        s_driver = driver;
        s_gauge = Array.make n 0;
        s_retx = Array.init n (fun _ -> Retx.create ());
        s_inbox = Array.init n (fun _ -> Queue.create ());
        s_draining = Array.make n false;
        s_admitted = Sim.now t.sim;
        s_finished = false;
        s_error = None;
      }
    in
    Hashtbl.replace t.table sid s;
    t.live <- t.live + 1;
    Obs.incr admitted_counter;
    Obs.gauge_add live_sessions_gauge 1;
    Obs.gauge_add phase_gauges.(0) n;
    for i = 0 to n - 1 do install_receiver t s i done;
    Engine.start net;
    Option.iter (fun wd -> for i = 0 to n - 1 do arm_watchdog t s wd i done)
      watchdog;
    (* the deadline is the hard stop the watchdog budget lives under:
       whatever is still live then is shed, never leaked *)
    if t.config.deadline < Float.infinity then
      Sim.schedule t.sim ~delay:t.config.deadline (fun () ->
          if not s.s_finished then begin
            Obs.incr shed_counter;
            if Obs.events_enabled () then
              Obs.instant "engine.shed" ~args:[ ("sid", string_of_int sid) ];
            force_all s;
            finalize t s ~disposition:Shed
          end);
    for i = 0 to n - 1 do
      on_track i;
      guard t s (fun () -> emit s i (driver.Gcd_types.dr_start i))
    done;
    check_done t s;
    Admitted sid
  end

(* At quiescence a session still live can never advance again: without
   a watchdog or a deadline nothing is left to wake it.  It is reaped
   as it stands. *)
let run t =
  Sim.run t.sim;
  let stalled = Hashtbl.fold (fun _ s acc -> s :: acc) t.table [] in
  List.iter
    (fun s -> finalize t s ~disposition:Stalled)
    (List.sort (fun a b -> compare a.s_sid b.s_sid) stalled)
