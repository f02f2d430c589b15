(* Bounded per-party retransmission buffer.

   The watchdog repairs channel loss by replaying everything a party
   has said — the state machines ignore exact duplicates, so replay is
   always safe.  Unbounded, that history is a memory leak at scale:
   1000 concurrent sessions times m parties times every DGKA flight is
   megabytes of bytes held for the whole session.  This buffer bounds
   it two ways:

   - {e stale-phase eviction}: each frame is stamped with the sender's
     watchdog phase at emission.  Once every peer has provably advanced
     past phase [ph] — by local evidence: the sender has received a
     frame stamped [ph] or later from each of them — frames stamped
     [< ph] can no longer repair anything (a peer in phase 1 has k' and
     will never again consume Phase I traffic), so [evict_stale] drops
     them.
   - {e a hard frame cap}: beyond [cap] frames the oldest are dropped
     regardless of phase.  A resend after a cap eviction repairs less,
     but the forced-progress ladder still terminates every party, so
     the cap trades repair completeness for bounded memory, never
     liveness.

   Total buffered payload bytes are mirrored on the
   [gcd.retx_buffer_bytes] gauge; cap evictions are counted so a
   too-small cap is visible. *)

let bytes_gauge =
  Obs.gauge ~help:"payload bytes held in watchdog retransmission buffers"
    "gcd.retx_buffer_bytes"

let evictions_counter =
  Obs.counter ~help:"retransmission frames evicted by the hard cap"
    "gcd.retx_evicted"

type frame = { f_phase : int; f_dst : int option; f_payload : string }

type t = {
  cap : int;
  mutable frames : frame list;  (* oldest first *)
  mutable count : int;
  mutable bytes : int;
}

let default_cap = 64

let create ?(cap = default_cap) () =
  if cap < 1 then invalid_arg "Retx.create: cap must be positive";
  { cap; frames = []; count = 0; bytes = 0 }

let length t = t.count
let bytes t = t.bytes

let forget t frame =
  t.count <- t.count - 1;
  t.bytes <- t.bytes - String.length frame.f_payload;
  Obs.gauge_sub bytes_gauge (String.length frame.f_payload)

let record t ~phase msgs =
  List.iter
    (fun (dst, payload) ->
      t.frames <- t.frames @ [ { f_phase = phase; f_dst = dst; f_payload = payload } ];
      t.count <- t.count + 1;
      t.bytes <- t.bytes + String.length payload;
      Obs.gauge_add bytes_gauge (String.length payload))
    msgs;
  (* Total eviction loop: if the count/frames invariant ever breaks we
     resync the counters instead of crashing mid-delivery. *)
  let rec evict () =
    if t.count > t.cap then
      match t.frames with
      | [] ->
        t.count <- 0;
        t.bytes <- 0
      | oldest :: rest ->
        t.frames <- rest;
        forget t oldest;
        Obs.incr evictions_counter;
        evict ()
  in
  evict ()

let evict_stale t ~min_peer_phase =
  let keep, drop =
    List.partition (fun f -> f.f_phase >= min_peer_phase) t.frames
  in
  t.frames <- keep;
  List.iter (forget t) drop

let clear t =
  List.iter (forget t) t.frames;
  t.frames <- []

(* oldest first, as (stamp, destination, payload) *)
let frames t = List.map (fun f -> (f.f_phase, f.f_dst, f.f_payload)) t.frames
