(* global metrics, alongside the per-engine/per-party stats below: the
   E2 bench reads the stats arrays, the observability layer reads these *)
let msgs_counter = Obs.counter ~help:"messages sent (all engines)" "net.messages"
let bytes_counter = Obs.counter ~help:"payload bytes sent (all engines)" "net.bytes"
let deliveries_counter = Obs.counter ~help:"messages delivered (all engines)" "net.deliveries"
let dropped_counter = Obs.counter ~help:"messages dropped by fault injection" "net.dropped"
let duplicated_counter = Obs.counter ~help:"messages duplicated by fault injection" "net.duplicated"

let in_flight_gauge =
  Obs.gauge ~help:"message copies scheduled but not yet delivered or dropped"
    "net.in_flight"

type decision = Deliver | Drop | Replace of string

type adversary = src:int -> dst:int -> payload:string -> decision

type stats = {
  messages_sent : int array;
  bytes_sent : int array;
  deliveries : int;
  dropped : int;
  duplicated : int;
}

type t = {
  sim : Sim.t;
  n : int;
  receivers : (src:int -> payload:string -> unit) option array;
  latency : src:int -> dst:int -> float;
  adversary : adversary option;
  faults : Faults.t option;
  msgs : int array;
  bytes : int array;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable started : bool;
}

let create ?sim ?(latency = fun ~src:_ ~dst:_ -> 1.0) ?adversary ?faults ~n () =
  if n <= 0 then invalid_arg "Engine.create: need at least one party";
  { sim = (match sim with Some s -> s | None -> Sim.create ());
    n;
    receivers = Array.make n None;
    latency;
    adversary;
    faults;
    msgs = Array.make n 0;
    bytes = Array.make n 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    started = false;
  }

let n_parties t = t.n
let sim t = t.sim

let set_receiver t i cb =
  if i < 0 || i >= t.n then invalid_arg "Engine.set_receiver: bad index";
  t.receivers.(i) <- Some cb

let crashed t i =
  match t.faults with
  | Some f -> Faults.crashed f ~party:i ~now:(Sim.now t.sim)
  | None -> false

let link_args ~src ~dst =
  [ ("src", string_of_int src); ("dst", string_of_int dst) ]

let drop_one t ~src ~dst =
  t.dropped <- t.dropped + 1;
  Obs.incr dropped_counter;
  if Obs.events_enabled () then
    Obs.instant "net.drop" ~args:(link_args ~src ~dst)

let deliver t ~src ~dst payload =
  let payload =
    match t.adversary with
    | None -> Some payload
    | Some tap ->
      (match tap ~src ~dst ~payload with
       | Deliver -> Some payload
       | Drop -> None
       | Replace p -> Some p)
  in
  match payload with
  | None -> ()
  | Some payload ->
    let lat = t.latency ~src ~dst in
    (* validate here, not deep inside Sim.schedule, so the error names
       the offending link *)
    if not (lat >= 0.0) then
      invalid_arg
        (Printf.sprintf "Engine: latency function returned %g on link %d->%d"
           lat src dst);
    let deliver_copy extra =
      (* with events on, each scheduled copy is its own causal edge: a
         flow id is minted at send time and kept in the scheduled
         delivery, so duplicates and retransmissions each draw their own
         edge and the payload stays the sender's bytes *)
      let flow =
        if Obs.events_enabled () then
          Some (Obs.flow_send "net.msg" ~args:(link_args ~src ~dst))
        else None
      in
      Obs.gauge_add in_flight_gauge 1;
      Sim.schedule t.sim ~delay:(lat +. extra) (fun () ->
          (* decrement up front: every arrival path (delivery, crashed
             receiver, missing receiver) takes the copy off the wire *)
          Obs.gauge_sub in_flight_gauge 1;
          if Obs.events_enabled () then
            Obs.set_track ("party-" ^ string_of_int dst);
          match t.faults with
          | Some f when Faults.crashed f ~party:dst ~now:(Sim.now t.sim) ->
            (* the receiver crash-stopped before this copy arrived *)
            drop_one t ~src ~dst
          | _ ->
            (* a match, not Option.iter: a closure here would allocate
               on every delivery *)
            (match flow with
             | Some id -> Obs.flow_recv "net.msg" ~id ~args:(link_args ~src ~dst)
             | None -> ());
            (* deliveries count actual receiver invocations only *)
            match t.receivers.(dst) with
            | Some cb ->
              t.delivered <- t.delivered + 1;
              Obs.incr deliveries_counter;
              cb ~src ~payload
            | None ->
              if t.started then
                failwith
                  (Printf.sprintf
                     "Engine: delivery from %d to party %d, which has no receiver"
                     src dst))
    in
    match t.faults with
    | None -> deliver_copy 0.0
    | Some f ->
      let copies = if Faults.draw_duplicate f then 2 else 1 in
      if copies = 2 then begin
        t.duplicated <- t.duplicated + 1;
        Obs.incr duplicated_counter;
        if Obs.events_enabled () then
          Obs.instant "net.duplicate" ~args:(link_args ~src ~dst)
      end;
      for _ = 1 to copies do
        if Faults.draw_drop f then drop_one t ~src ~dst
        else deliver_copy (Faults.draw_jitter f)
      done

let account t ~src payload =
  t.msgs.(src) <- t.msgs.(src) + 1;
  t.bytes.(src) <- t.bytes.(src) + String.length payload;
  Obs.incr msgs_counter;
  Obs.add bytes_counter (String.length payload)

let broadcast t ~src payload =
  if src < 0 || src >= t.n then invalid_arg "Engine.broadcast: bad source";
  if not (crashed t src) then begin
    account t ~src payload;
    for dst = 0 to t.n - 1 do
      if dst <> src then deliver t ~src ~dst payload
    done
  end

let send t ~src ~dst payload =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Engine.send: bad address";
  if not (crashed t src) then begin
    account t ~src payload;
    deliver t ~src ~dst payload
  end

let start t = t.started <- true

let run t =
  start t;
  Sim.run t.sim

let stats t =
  { messages_sent = Array.copy t.msgs;
    bytes_sent = Array.copy t.bytes;
    deliveries = t.delivered;
    dropped = t.dropped;
    duplicated = t.duplicated;
  }
