(* One wrapped GCD instantiation and the work the workloads run on it:
   membership operations with their latencies, and a burst of handshake
   sessions through one [Shs_engine].  Both schemes share LKH and BD;
   only the group signature differs. *)

(* Membership-operation latencies of the current run.  Set-up repeats
   and churn epochs replay the same operations on the same inputs, so
   each operation reports the median of its replays. *)
type ops = {
  replays : (string * int * int, float list) Hashtbl.t;
      (* (kind, operation, member) -> latency per replay *)
  mutable pending : ((string * int * int) * float * float) list;
      (* this replay: key, latency, end time *)
  mutable seq : int;  (* operation number within the current replay *)
  mutable rekey_bytes : float list;
  mutable op_count : int;
  mutable op_failed : int;
}

let ops =
  { replays = Hashtbl.create 256; pending = []; seq = 0; rekey_bytes = [];
    op_count = 0; op_failed = 0 }

(* off while a workload runs operations it does not report *)
let recording = ref true

let new_replay () =
  ops.seq <- 0;
  ops.pending <- []

let note kind member ns =
  if !recording then
    ops.pending <- ((kind, ops.seq, member), ns, Pb_trace.now_ns ()) :: ops.pending

let note_rekey broadcast =
  if !recording then
    ops.rekey_bytes <- float_of_int (String.length broadcast) :: ops.rekey_bytes

(* close a replay: each latency, divided by the contention factor around
   it, joins its operation's samples *)
let end_replay () =
  List.iter
    (fun (key, ns, t1) ->
      let ns = ns /. Pb_trace.factor_around (t1 -. ns) t1 in
      let seen = Option.value ~default:[] (Hashtbl.find_opt ops.replays key) in
      Hashtbl.replace ops.replays key (ns :: seen))
    ops.pending;
  ops.pending <- []

(* per operation of [kind], the median of its replays *)
let latencies kind ~median =
  Hashtbl.fold
    (fun (k, _, _) samples acc -> if k = kind then median samples :: acc else acc)
    ops.replays []

(* One admitted session, as the engine reported it, with its tallies. *)
type session = {
  tally : Pb_trace.session;
  report : Shs_engine.report option;  (* None: refused at admission *)
  factor : float;  (* host contention during its engine run *)
}

type batch = {
  sessions : session list;
  refused : int;  (* arrivals refused by admission control *)
  run_ns : float;  (* wall time of [Shs_engine.run] *)
  rates : float list;
      (* per engine run: sessions per second of run time, divided by
         that run's contention factor *)
  sim_events : int;
  lat_sim : float list;  (* admission-to-reap latency per session, sim-s *)
}

let drbg ~seed label =
  Drbg.bytes_fn
    (Drbg.create ~personalization:("perfbench/" ^ label)
       ~seed:(string_of_int seed) ())

let u01 rng =
  let b = rng 4 in
  let byte i = Char.code b.[i] in
  float_of_int
    ((byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3)
  /. 4294967296.0

module Make (G : Gsig_intf.S) = struct
  module S =
    Gcd.Make (Pb_layers.Timed_gsig (G)) (Pb_layers.Timed_cgkd (Lkh))
      (Pb_layers.Timed_dgka (Bd))

  let instrument (h : S.hooks) =
    { S.h_sign =
        (fun ~rng mem ~sid ~msg ->
          Pb_layers.note_sign ();
          Pb_trace.span "gsig.sign" (fun () -> h.S.h_sign ~rng mem ~sid ~msg));
      h_verify =
        (fun mem ~sid ~msg sigma ->
          Pb_layers.note_verify ();
          Pb_trace.span "gsig.verify" (fun () -> h.S.h_verify mem ~sid ~msg sigma));
      h_filter = h.S.h_filter;
    }

  (* A group and its current members, oldest first. *)
  type world = { ga : S.authority; mutable members : S.member list }

  let create ~seed =
    { ga =
        S.create_group ~rng:(drbg ~seed "ga") ~capacity:64
          ~modulus:(Lazy.force Params.rsa_512)
          ~dl_group:(Lazy.force Params.schnorr_512);
      members = [];
    }

  let format w =
    S.format_of_public ~dl_group:(Lazy.force Params.schnorr_512)
      (S.group_public w.ga)

  (* every member applies a broadcast; [expect_active] says whether it
     must still be a member afterwards *)
  let apply_all members broadcast ~expect_active =
    List.iteri
      (fun i m ->
        let ok, ns =
          Pb_trace.timed "gcd.update" (fun () -> S.update m broadcast)
        in
        note "update" i ns;
        ops.op_count <- ops.op_count + 1;
        if not (ok && S.member_active m = expect_active m) then
          ops.op_failed <- ops.op_failed + 1)
      members

  let admit w ~uid ~rng =
    let r, ns =
      Pb_trace.timed "gcd.admit" (fun () -> S.admit w.ga ~uid ~member_rng:rng)
    in
    ops.seq <- ops.seq + 1;
    ops.op_count <- ops.op_count + 1;
    match r with
    | None -> failwith ("admission refused: " ^ uid)
    | Some (m, broadcast) ->
      note "admit" 0 ns;
      note_rekey broadcast;
      apply_all w.members broadcast ~expect_active:(fun _ -> true);
      w.members <- w.members @ [ m ];
      m

  (* the revoked member applies the broadcast too, and must find itself
     revoked *)
  let remove w ~uid =
    let r, ns = Pb_trace.timed "gcd.remove" (fun () -> S.remove w.ga ~uid) in
    ops.seq <- ops.seq + 1;
    ops.op_count <- ops.op_count + 1;
    match r with
    | None -> failwith ("revocation refused: " ^ uid)
    | Some broadcast ->
      note "remove" 0 ns;
      note_rekey broadcast;
      apply_all w.members broadcast ~expect_active:(fun m ->
          S.member_uid m <> uid);
      w.members <- List.filter (fun m -> S.member_uid m <> uid) w.members

  (* every current member must hold the controller's epoch key *)
  let keys_agree w =
    let key = Lkh.controller_key w.ga.S.gc in
    List.for_all (fun m -> String.equal (Lkh.group_key m.S.cgkd) key) w.members

  (* A saturated burst: [sessions] arrivals on a seeded Poisson schedule
     in sim time, all submitted to one engine that then drains them as
     fast as the process runs.  Session [k] seats [m] members by rotation
     over [roster]; its seat streams derive from [seed] and
     [first_sid + k] alone, its loss stream from [loss_seed] and
     [first_sid + k]. *)
  let burst ~roster ~fmt ~hooks ~m ~sessions ~two_phase ~drop ~loss_seed ~seed
      ~first_sid =
    let roster = Array.of_list roster in
    let engine = Shs_engine.create () in
    let sim = Shs_engine.sim engine in
    let live () = Shs_engine.live engine in
    let arrivals = drbg ~seed (Printf.sprintf "arrivals/%d" first_sid) in
    let tallies = ref [] in
    let t = ref 0.0 in
    for k = 0 to sessions - 1 do
      t := !t -. (0.05 *. log (1.0 -. u01 arrivals));
      Sim.schedule sim ~delay:!t (fun () ->
          let sid = first_sid + k in
          let faults =
            if drop > 0.0 then
              Some (Faults.create ~drop ~seed:((loss_seed * 1_000_003) + sid) ())
            else None
          in
          ignore
            (Shs_engine.submit engine ?faults (fun () ->
                 let tally = Pb_trace.new_session ~sid ~seats:m in
                 tallies := tally :: !tallies;
                 Pb_trace.current := Some tally;
                 let parts =
                   Array.init m (fun seat ->
                       { S.p_role =
                           S.Member_of roster.((k + seat) mod Array.length roster);
                         p_rng = drbg ~seed (Printf.sprintf "seat/%d/%d" sid seat);
                       })
                 in
                 let d = S.engine_driver ~two_phase ~hooks ~fmt parts in
                 Pb_trace.current := None;
                 Pb_layers.wrap_driver ~live tally d)))
    done;
    let t0 = Pb_trace.mark () in
    Shs_engine.run engine;
    let run_ns = Pb_trace.elapsed_ns t0 in
    let factor = Pb_trace.factor t0 in
    let reports = Shs_engine.reports engine in
    let by_sid = Hashtbl.create 64 in
    List.iter
      (fun (r : Shs_engine.report) ->
        Hashtbl.replace by_sid (first_sid + r.Shs_engine.r_sid) r)
      reports;
    { sessions =
        List.rev_map
          (fun tally ->
            { tally; report = Hashtbl.find_opt by_sid tally.Pb_trace.sid; factor })
          !tallies;
      refused = Shs_engine.rejected engine;
      run_ns;
      rates = [ float_of_int sessions /. (run_ns /. factor /. 1e9) ];
      sim_events = Sim.events_processed sim;
      lat_sim =
        List.map
          (fun (r : Shs_engine.report) ->
            r.Shs_engine.r_finished -. r.Shs_engine.r_admitted)
          reports;
    }
end

module S1 = Make (Acjt)
module S2 = Make (Kty)
