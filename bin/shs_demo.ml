(* shs_demo: command-line driver for the secret-handshake framework.

   Everything runs inside the deterministic network simulation; the CLI
   is a scenario driver, not a daemon.  Subcommands:

     handshake   run an m-party handshake (optionally with outsiders,
                 a cloned member, or a revoked member) and print the
                 per-party outcomes and traffic statistics
     lifecycle   walk a group through joins and revocations, showing
                 epochs and key rotation
     trace       run a handshake and let the authority trace it
     params      display the embedded cryptographic parameter sets

   plus a persistent mode operating on a state directory (--dir):

     init        create a group and store the authority state
     add         admit a member (updates every stored member)
     revoke      revoke a member
     members     list stored members and the group epoch
     run         handshake between stored members, optional --trace *)

let rng_of seed = Drbg.bytes_fn (Drbg.of_int_seed seed)

let setup_logging verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* ------------------------------------------------------------------ *)
(* Group construction helpers                                          *)
(* ------------------------------------------------------------------ *)

let uid_of i = Printf.sprintf "member-%02d" i

type testbed = {
  ga2 : Scheme2.authority;
  members : Scheme2.member array;
}

(* Scheme 2 subsumes Scheme 1's behaviour when run with default hooks, so
   the CLI builds on it and selects hooks per --scheme. *)
let build ~seed ~n =
  let ga2 = Scheme2.default_authority ~rng:(rng_of seed) () in
  let members =
    Array.init n (fun i ->
        let m, upd =
          match Scheme2.admit ga2 ~uid:(uid_of i) ~member_rng:(rng_of (seed + 100 + i)) with
          | Some v -> v
          | None -> failwith "admission failed"
        in
        (m, upd))
  in
  Array.iteri
    (fun i (_, upd) ->
      Array.iteri (fun j (m, _) -> if j < i then assert (Scheme2.update m upd)) members)
    members;
  { ga2; members = Array.map fst members }

(* ------------------------------------------------------------------ *)
(* handshake                                                           *)
(* ------------------------------------------------------------------ *)

let run_handshake scheme m outsiders clone revoke_last seed verbose metrics
    prometheus prom_out drop duplicate jitter crash net_seed flip forge replay
    attack_seed =
  let metrics = metrics || prometheus in
  if metrics then begin
    Obs.set_sink Obs.Memory;
    (* the event log feeds the retransmission/timeout instant counts in
       the report; the reset below clears the log again but keeps the
       flag, so only the session itself is counted *)
    Obs.set_events true
  end;
  Printf.printf "Building a group of %d members (512-bit parameters)...\n%!" m;
  let tb = build ~seed ~n:m in
  if revoke_last then begin
    let uid = uid_of (m - 1) in
    Printf.printf "Revoking %s...\n%!" uid;
    match Scheme2.remove tb.ga2 ~uid with
    | None -> failwith "revocation failed"
    | Some upd -> Array.iter (fun mm -> ignore (Scheme2.update mm upd)) tb.members
  end;
  let fmt = Scheme2.default_format tb.ga2 in
  let gpub = Scheme2.group_public tb.ga2 in
  let parts =
    Array.concat
      [ Array.map Scheme2.participant_of_member tb.members;
        (if clone then [| Scheme2.participant_of_member tb.members.(m - 1) |] else [||]);
        Array.init outsiders (fun i -> Scheme2.outsider ~rng:(rng_of (seed + 900 + i)));
      ]
  in
  Printf.printf "Running a %d-party handshake (%d members%s%s) under scheme %d...\n%!"
    (Array.length parts) m
    (if clone then " + 1 clone" else "")
    (if outsiders > 0 then Printf.sprintf " + %d outsiders" outsiders else "")
    scheme;
  (* any fault option arms the seeded fault plan plus the session
     watchdog, so lossy runs still terminate for every party *)
  let faulty = drop > 0.0 || duplicate > 0.0 || jitter > 0.0 || crash <> [] in
  let faults =
    if faulty then (
      Printf.printf
        "Fault plan: drop=%.2f duplicate=%.2f jitter=%.2f crashes=[%s] \
         net-seed=%d (watchdog armed)\n%!"
        drop duplicate jitter
        (String.concat "; " (List.map string_of_int crash))
        net_seed;
      Some
        (Faults.create ~drop ~duplicate ~jitter
           ~crashes:(List.map (fun i -> (i, 1.0)) crash)
           ~seed:net_seed ()))
    else None
  in
  (* an active adversary on top: seeded message mutation through the
     engine tap, with replay-pool capture and wholesale forgery *)
  let adversarial = flip > 0.0 || forge > 0.0 || replay > 0.0 in
  let adv_plan =
    if adversarial then begin
      Printf.printf
        "Adversary plan: flip=%.2f forge=%.2f replay=%.2f attack-seed=%d \
         (watchdog armed)\n%!"
        flip forge replay attack_seed;
      Some (Adversary.create ~flip ~forge ~replay ~seed:attack_seed ())
    end
    else None
  in
  let watchdog =
    if faulty || adversarial then Some Gcd_types.byzantine_watchdog else None
  in
  (* group construction also ticks the registry; reset so the report
     covers the handshake session alone *)
  if metrics then begin
    Obs.reset ();
    Prof.reset ();
    Prof.enable ()
  end;
  let t0 = Obs.default_clock () in
  let adversary = Option.map Adversary.tap adv_plan in
  let r =
    if scheme = 2 then
      Scheme2.run_session_sd ?faults ?watchdog ?adversary ~gpub ~fmt parts
    else Scheme2.run_session ?faults ?watchdog ?adversary ~fmt parts
  in
  let dt = (Obs.default_clock () -. t0) /. 1e9 in
  if metrics then Prof.disable ();
  Array.iteri
    (fun i o ->
      match o with
      | None -> Printf.printf "  position %d: no outcome\n" i
      | Some o ->
        Printf.printf "  position %d: accepted=%-5b termination=%-8s partners=[%s]%s\n"
          i o.Gcd_types.accepted
          (Gcd_types.string_of_termination o.Gcd_types.termination)
          (String.concat "; " (List.map string_of_int o.Gcd_types.partners))
          (if verbose then
             match o.Gcd_types.session_key with
             | Some k -> "  key=" ^ String.sub (Sha256.hex k) 0 16 ^ "..."
             | None -> "  (no session key)"
           else ""))
    r.Gcd_types.outcomes;
  let st = r.Gcd_types.stats in
  Printf.printf "Traffic: %d deliveries; per-party messages [%s]; bytes [%s]\n"
    st.Engine.deliveries
    (String.concat "; " (Array.to_list (Array.map string_of_int st.Engine.messages_sent)))
    (String.concat "; " (Array.to_list (Array.map string_of_int st.Engine.bytes_sent)));
  if faulty then
    Printf.printf "Channel: %d dropped, %d duplicated; session sim-time %.2f\n"
      st.Engine.dropped st.Engine.duplicated r.Gcd_types.duration;
  (match adv_plan with
   | None -> ()
   | Some adv ->
     Printf.printf "Adversary: %s\n" (Adversary.describe adv);
     Printf.printf "  examined %d messages, mutated %d [%s]\n"
       (Adversary.examined adv) (Adversary.mutated adv)
       (String.concat "; "
          (List.filter_map
             (fun (k, v) -> if v > 0 then Some (Printf.sprintf "%s %d" k v) else None)
             (Adversary.stats adv)));
     (match Shs_error.snapshot () with
      | [] -> Printf.printf "Per-layer rejections: none\n"
      | rej ->
        Printf.printf "Per-layer rejections:\n";
        List.iter (fun (k, v) -> Printf.printf "  %-36s %6d\n" k v) rej));
  Printf.printf "Wall clock: %.2fs\n" dt;
  if metrics then begin
    print_string (Obs.report ());
    print_string (Prof.report (Prof.snapshot ()))
  end;
  if prometheus then begin
    let text = Obs.to_prometheus () in
    match prom_out with
    | None -> print_string text
    | Some path ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      Printf.printf "Prometheus exposition written to %s\n" path
  end;
  0

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let run_lifecycle n seed =
  let ga = Scheme1.default_authority ~rng:(rng_of seed) () in
  Printf.printf "epoch %d: group created\n" (Scheme1.group_epoch ga);
  let members = ref [] in
  for i = 0 to n - 1 do
    match Scheme1.admit ga ~uid:(uid_of i) ~member_rng:(rng_of (seed + 100 + i)) with
    | None -> failwith "admit"
    | Some (m, upd) ->
      List.iter (fun e -> ignore (Scheme1.update e upd)) !members;
      members := !members @ [ m ];
      Printf.printf "epoch %d: admitted %s (%d members current)\n"
        (Scheme1.group_epoch ga) (uid_of i) (List.length !members)
  done;
  (match Scheme1.remove ga ~uid:(uid_of 0) with
   | None -> failwith "remove"
   | Some upd ->
     List.iter (fun e -> ignore (Scheme1.update e upd)) !members;
     members := List.filter Scheme1.member_active !members;
     Printf.printf "epoch %d: revoked %s (%d members current)\n"
       (Scheme1.group_epoch ga) (uid_of 0) (List.length !members));
  let fmt = Scheme1.default_format ga in
  (match !members with
   | a :: b :: _ ->
     let r =
       Scheme1.run_session ~fmt
         [| Scheme1.participant_of_member a; Scheme1.participant_of_member b |]
     in
     (match r.Gcd_types.outcomes.(0) with
      | Some o ->
        Printf.printf "post-churn 2-party handshake: accepted=%b\n" o.Gcd_types.accepted
      | None -> print_endline "handshake did not complete")
   | _ -> ());
  0

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let run_trace m seed out drop duplicate jitter net_seed =
  let tb = build ~seed ~n:m in
  let fmt = Scheme2.default_format tb.ga2 in
  let faulty = drop > 0.0 || duplicate > 0.0 || jitter > 0.0 in
  let faults =
    if faulty then
      Some (Faults.create ~drop ~duplicate ~jitter ~seed:net_seed ())
    else None
  in
  let watchdog = if faulty then Some Gcd_types.default_watchdog else None in
  (* with -o, record the causal event timeline of the session; events go
     on only now — after the group build — so every event is stamped by
     the sim clock the session runner installs, making the exported
     trace a pure function of (seed, net_seed, fault rates): running
     the same command twice yields byte-identical JSON *)
  if out <> None then Obs.set_events true;
  let r =
    Scheme2.run_session ?faults ?watchdog ~fmt
      (Array.map Scheme2.participant_of_member tb.members)
  in
  (match out with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Obs_json.to_string ~pretty:true (Obs.to_chrome_trace ()));
     output_char oc '\n';
     close_out oc;
     Printf.printf
       "event timeline written to %s (%d events; load in Perfetto or \
        chrome://tracing)\n"
       path
       (List.length (Obs.events ())));
  (match r.Gcd_types.outcomes.(0) with
   | Some o when o.Gcd_types.accepted ->
     Printf.printf "handshake succeeded (sid %s...)\n"
       (String.sub (Sha256.hex o.Gcd_types.sid) 0 16);
     let traced = Scheme2.trace_user tb.ga2 ~sid:o.Gcd_types.sid o.Gcd_types.transcript in
     Array.iteri
       (fun i u ->
         Printf.printf "  position %d opened to: %s\n" i (Option.value ~default:"-" u))
       traced
   | _ -> print_endline "handshake failed; per the protocol the transcript is garbage");
  0

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

let run_profile scheme m seed net_seed drop duplicate jitter out weight =
  Printf.printf "Building a group of %d members (512-bit parameters)...\n%!" m;
  let tb = build ~seed ~n:m in
  let fmt = Scheme2.default_format tb.ga2 in
  let gpub = Scheme2.group_public tb.ga2 in
  let parts = Array.map Scheme2.participant_of_member tb.members in
  let faulty = drop > 0.0 || duplicate > 0.0 || jitter > 0.0 in
  let faults =
    if faulty then
      Some (Faults.create ~drop ~duplicate ~jitter ~seed:net_seed ())
    else None
  in
  let watchdog = if faulty then Some Gcd_types.default_watchdog else None in
  (* the profiler goes on only now, after the group build, so the tree
     covers the handshake session alone; nothing charged reads a wall
     clock, so both output files are pure functions of (seed, net_seed,
     fault rates) — running the same command twice yields byte-identical
     bytes, which bin/ci.sh checks with cmp *)
  Prof.reset ();
  Prof.enable ();
  let r =
    if scheme = 2 then Scheme2.run_session_sd ?faults ?watchdog ~gpub ~fmt parts
    else Scheme2.run_session ?faults ?watchdog ~fmt parts
  in
  Prof.disable ();
  let t = Prof.snapshot () in
  let accepted =
    Array.fold_left
      (fun n o ->
        match o with Some o when o.Gcd_types.accepted -> n + 1 | _ -> n)
      0 r.Gcd_types.outcomes
  in
  Printf.printf "session complete: %d/%d parties accepted\n" accepted m;
  let collapsed_path = out ^ ".collapsed" in
  let speedscope_path = out ^ ".speedscope.json" in
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  write collapsed_path (Prof.to_collapsed ~weight t);
  write speedscope_path
    (Obs_json.to_string ~pretty:true
       (Prof.to_speedscope
          ~name:(Printf.sprintf "shs_demo m=%d scheme=%d seed=%d" m scheme seed)
          t)
    ^ "\n");
  Printf.printf "collapsed stacks written to %s (feed to flamegraph.pl)\n"
    collapsed_path;
  Printf.printf "speedscope profile written to %s (open at speedscope.app)\n"
    speedscope_path;
  print_string (Prof.report t);
  0

(* ------------------------------------------------------------------ *)
(* params                                                              *)
(* ------------------------------------------------------------------ *)

let run_params () =
  let show_schnorr name lz =
    let g = Lazy.force lz in
    Printf.printf "%s: p (%d bits) = %s...\n" name
      (Bigint.num_bits g.Groupgen.p)
      (String.sub (Bigint.to_hex g.Groupgen.p) 0 34)
  in
  let show_rsa name lz =
    let m = Lazy.force lz in
    Printf.printf "%s: n (%d bits) = %s...\n" name
      (Bigint.num_bits m.Groupgen.n)
      (String.sub (Bigint.to_hex m.Groupgen.n) 0 34)
  in
  show_schnorr "schnorr_256 " Params.schnorr_256;
  show_schnorr "schnorr_512 " Params.schnorr_512;
  show_schnorr "schnorr_1024" Params.schnorr_1024;
  show_rsa "rsa_512     " Params.rsa_512;
  show_rsa "rsa_768     " Params.rsa_768;
  show_rsa "rsa_1024    " Params.rsa_1024;
  0

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

(* The deterministic protocol fuzzer from the CLI: every print below is
   a pure function of (--seed, --attack-seeds, --m, --sessions, --drop),
   so two identical invocations emit byte-identical output. *)
let run_fuzz m sessions attack_seeds seed drop =
  Printf.printf "Building a group of %d members (512-bit parameters)...\n%!" m;
  let tb = build ~seed ~n:m in
  let fmt = Scheme2.default_format tb.ga2 in
  let parts = Array.map Scheme2.participant_of_member tb.members in
  let run_session ~adversary ~faults ~watchdog =
    Scheme2.run_session ?faults ~watchdog ~adversary ~fmt parts
  in
  let violations = ref 0 in
  List.iter
    (fun attack_seed ->
      let s = Fuzz.run ~m ~sessions ~attack_seed ~drop ~fault_seed:seed ~run_session () in
      Printf.printf
        "attack seed %d: %d sessions, %d messages mutated; parties %d \
         complete / %d partial / %d aborted%s\n"
        attack_seed s.Fuzz.sessions s.Fuzz.mutated s.Fuzz.complete
        s.Fuzz.partial s.Fuzz.aborted
        (if Fuzz.ok s then "" else "  INVARIANT VIOLATED");
      if not (Fuzz.ok s) then begin
        incr violations;
        if s.Fuzz.missing > 0 then
          Printf.printf "  %d parties without a terminal outcome\n" s.Fuzz.missing;
        List.iter
          (fun (i, e) -> Printf.printf "  session %d: uncaught exception %s\n" i e)
          s.Fuzz.exceptions;
        List.iter
          (fun (i, p) -> Printf.printf "  session %d: honest subset broken: %s\n" i p)
          s.Fuzz.honest_violations
      end)
    attack_seeds;
  (match Shs_error.snapshot () with
   | [] -> ()
   | rej ->
     Printf.printf "per-layer rejections across all sessions:\n";
     List.iter (fun (k, v) -> Printf.printf "  %-36s %6d\n" k v) rej);
  if !violations = 0 then begin
    Printf.printf
      "all invariants held: no uncaught exception, every party terminal, \
       honest subsets completed\n";
    0
  end
  else 1

(* ------------------------------------------------------------------ *)
(* Persistent group management (--dir): init / add / revoke / members / run *)
(* ------------------------------------------------------------------ *)

module Store = struct
  let read_file path =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s
    end
    else None

  let write_file path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc

  let ga_path dir = Filename.concat dir "authority.shs"
  let member_path dir uid = Filename.concat dir (Printf.sprintf "member-%s.shs" uid)
  let meta_path dir = Filename.concat dir "meta"

  (* a per-directory operation counter drives the deterministic DRBG so
     successive CLI invocations never reuse randomness *)
  let next_rng dir =
    let base, count =
      match read_file (meta_path dir) with
      | Some s ->
        (match String.split_on_char ':' (String.trim s) with
         | [ b; c ] ->
           (match (int_of_string_opt b, int_of_string_opt c) with
            | Some b, Some c -> (b, c)
            | _ -> failwith "corrupt meta file")
         | _ -> failwith "corrupt meta file")
      | None -> failwith "state directory not initialized (run: init)"
    in
    write_file (meta_path dir) (Printf.sprintf "%d:%d" base (count + 1));
    rng_of ((base * 1_000_003) + count)

  (* loads go through the typed Persist loaders: a missing file and a
     corrupt one are distinct, named failures *)
  let load_authority dir =
    let path = ga_path dir in
    match Persist.Scheme1_store.load_authority ~rng:(next_rng dir) path with
    | Ok ga -> ga
    | Error (Persist.Io_error _) when not (Sys.file_exists path) ->
      failwith "no authority in state directory (run: init)"
    | Error e -> failwith ("authority state: " ^ Persist.load_error_to_string e)

  let save_authority dir ga =
    write_file (ga_path dir) (Persist.Scheme1_store.export_authority ga)

  let load_member dir uid =
    let path = member_path dir uid in
    match Persist.Scheme1_store.load_member ~rng:(next_rng dir) path with
    | Ok m -> m
    | Error (Persist.Io_error _) when not (Sys.file_exists path) ->
      failwith (Printf.sprintf "no such member: %s" uid)
    | Error e ->
      failwith
        (Printf.sprintf "member %s: %s" uid (Persist.load_error_to_string e))

  let save_member dir m =
    write_file (member_path dir (Scheme1.member_uid m))
      (Persist.Scheme1_store.export_member m)

  let member_uids dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if String.length f > 11
              && String.sub f 0 7 = "member-"
              && Filename.check_suffix f ".shs"
           then Some (String.sub f 7 (String.length f - 11))
           else None)
    |> List.sort compare
end

let run_init dir seed =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  Store.write_file (Store.meta_path dir) (Printf.sprintf "%d:0" seed);
  let ga = Scheme1.default_authority ~rng:(Store.next_rng dir) () in
  Store.save_authority dir ga;
  Printf.printf "initialized group state in %s (scheme 1, 512-bit parameters)\n" dir;
  0

let broadcast_update dir upd =
  List.iter
    (fun uid ->
      let m = Store.load_member dir uid in
      if Scheme1.update m upd then Store.save_member dir m
      else begin
        (* a member that cannot process a removal update has been revoked *)
        Store.save_member dir m;
        Printf.printf "  (member %s could not follow the update)\n" uid
      end)
    (Store.member_uids dir)

let run_add dir uid =
  let ga = Store.load_authority dir in
  if Sys.file_exists (Store.member_path dir uid) then begin
    Printf.eprintf "member %s already exists\n" uid;
    1
  end
  else begin
    match Scheme1.admit ga ~uid ~member_rng:(Store.next_rng dir) with
    | None ->
      Printf.eprintf "admission failed (duplicate uid or group full)\n";
      1
    | Some (m, upd) ->
      broadcast_update dir upd;
      Store.save_member dir m;
      Store.save_authority dir ga;
      Printf.printf "admitted %s (epoch %d)\n" uid (Scheme1.group_epoch ga);
      0
  end

let run_revoke_cmd dir uid =
  let ga = Store.load_authority dir in
  match Scheme1.remove ga ~uid with
  | None ->
    Printf.eprintf "no such active member: %s\n" uid;
    1
  | Some upd ->
    broadcast_update dir upd;
    Store.save_authority dir ga;
    Printf.printf "revoked %s (epoch %d)\n" uid (Scheme1.group_epoch ga);
    0

let run_members dir =
  let ga = Store.load_authority dir in
  List.iter
    (fun uid ->
      let m = Store.load_member dir uid in
      Printf.printf "  %-16s %s\n" uid
        (if Scheme1.member_active m then "active" else "revoked"))
    (Store.member_uids dir);
  Printf.printf "group epoch: %d\n" (Scheme1.group_epoch ga);
  Store.save_authority dir ga;
  0

let run_session_cmd dir uids trace metrics =
  if metrics then Obs.set_sink Obs.Memory;
  let ga = Store.load_authority dir in
  let uids =
    match uids with
    | [] ->
      List.filter
        (fun u -> Scheme1.member_active (Store.load_member dir u))
        (Store.member_uids dir)
    | us -> us
  in
  if List.length uids < 2 then begin
    Printf.eprintf "need at least two participants\n";
    1
  end
  else begin
    let members = List.map (Store.load_member dir) uids in
    let fmt = Scheme1.default_format ga in
    (* state loading ticks the registry too; report the session alone *)
    if metrics then Obs.reset ();
    let r =
      Scheme1.run_session ~fmt
        (Array.of_list (List.map Scheme1.participant_of_member members))
    in
    List.iteri
      (fun i uid ->
        match r.Gcd_types.outcomes.(i) with
        | None -> Printf.printf "  %s: no outcome\n" uid
        | Some o ->
          Printf.printf "  %-16s accepted=%-5b partners=[%s]\n" uid
            o.Gcd_types.accepted
            (String.concat "; " (List.map string_of_int o.Gcd_types.partners)))
      uids;
    (* member protocol state is session-local; only revocation flags can
       change, so re-saving is cheap and keeps files current *)
    List.iter (Store.save_member dir) members;
    Store.save_authority dir ga;
    (if trace then
       match r.Gcd_types.outcomes.(0) with
       | Some o ->
         let traced =
           Scheme1.trace_user ga ~sid:o.Gcd_types.sid o.Gcd_types.transcript
         in
         Printf.printf "authority traces: [%s]\n"
           (String.concat "; "
              (Array.to_list (Array.map (Option.value ~default:"-") traced)))
       | None -> ());
    if metrics then print_string (Obs.report ());
    0
  end

(* ------------------------------------------------------------------ *)
(* dashboard                                                           *)
(* ------------------------------------------------------------------ *)

let run_dashboard scheme capacity tracked events seed cadence out =
  let (module C : Cgkd_intf.S) =
    match scheme with
    | "lkh" -> (module Lkh)
    | "oft" -> (module Oft)
    | "sd" -> (module Sd)
    | "lsd" -> (module Lsd)
    | s -> failwith (Printf.sprintf "unknown scheme %S (try lkh, oft, sd, lsd)" s)
  in
  let initial = max 1 (capacity / 2) in
  let cfg =
    { Churn.default with
      capacity;
      initial;
      tracked = min tracked initial;
      events;
      seed;
      cadence;
    }
  in
  Printf.printf
    "Churning a %s group: capacity %d, %d initial members, %d tracked, \
     %d events, seed %d...\n%!"
    C.name capacity initial cfg.Churn.tracked events seed;
  let s = Churn.run (module C) cfg in
  Printf.printf
    "  joins %d, leaves %d, rekeys %d; %d tracked deliveries (%d failed)\n"
    s.Churn.joins s.Churn.leaves s.Churn.rekeys s.Churn.deliveries
    s.Churn.failures;
  Printf.printf "  final members %d, epoch %d, sim duration %.2f\n"
    s.Churn.final_members s.Churn.final_epoch s.Churn.duration;
  Printf.printf "  rekey latency p50 %.4f, p95 %.4f (sim-s)\n"
    s.Churn.latency_p50 s.Churn.latency_p95;
  let title =
    Printf.sprintf "shs churn dashboard: %s, capacity %d, seed %d" C.name
      capacity seed
  in
  let write path text =
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  write (out ^ ".csv") (Obs_series.to_csv s.Churn.recorder);
  write (out ^ ".html") (Obs_series.to_html ~title s.Churn.recorder);
  0

(* ------------------------------------------------------------------ *)
(* swarm                                                               *)
(* ------------------------------------------------------------------ *)

let run_swarm sessions m mean_gap seed drop drop_every byz_every high_water
    deadline out =
  let cfg =
    { Swarm.default with
      Swarm.sessions;
      m;
      mean_gap;
      world_seed = seed;
      drop;
      drop_every;
      byz_every;
      high_water;
      deadline;
      roster = max Swarm.default.Swarm.roster m;
    }
  in
  Printf.printf
    "Bursting %d sessions (m=%d, mean gap %g sim-s, seed %d) at one engine \
     (high water %d)...\n%!"
    sessions m mean_gap seed high_water;
  let s = Swarm.run cfg in
  print_string (Swarm.to_text s);
  (match out with
   | None -> ()
   | Some prefix ->
     let write path text =
       let oc = open_out_bin path in
       output_string oc text;
       close_out oc;
       Printf.printf "wrote %s\n" path
     in
     let title =
       Printf.sprintf "shs swarm: %d sessions, m=%d, seed %d" sessions m seed
     in
     write (prefix ^ ".csv") (Obs_series.to_csv s.Swarm.recorder);
     write (prefix ^ ".html") (Obs_series.to_html ~title s.Swarm.recorder));
  if Swarm.isolation_ok s then 0
  else begin
    prerr_endline "isolation violated: an untargeted session failed";
    1
  end

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic RNG seed.")

let verbose_flag =
  Arg.(value & flag & info [ "debug" ] ~doc:"Enable protocol debug logging.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect Obs metrics during the session and print the per-phase \
           span/counter report afterwards.")



let handshake_term =
  let scheme_t =
    Arg.(value & opt int 1 & info [ "scheme" ] ~doc:"Instantiation: 1 (ACJT) or 2 (KTY, self-distinction).")
  in
  let m_t = Arg.(value & opt int 3 & info [ "m"; "members" ] ~doc:"Number of genuine members.") in
  let outsiders_t = Arg.(value & opt int 0 & info [ "outsiders" ] ~doc:"Credential-less participants to add.") in
  let clone_t = Arg.(value & flag & info [ "clone" ] ~doc:"Let the last member occupy a second seat.") in
  let revoke_t = Arg.(value & flag & info [ "revoke-last" ] ~doc:"Revoke the last member before the handshake.") in
  let verbose_t = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print session keys.") in
  let drop_t =
    Arg.(value & opt float 0.0
         & info [ "drop" ] ~doc:"Per-link message drop probability in [0,1].")
  in
  let duplicate_t =
    Arg.(value & opt float 0.0
         & info [ "duplicate" ] ~doc:"Message duplication probability in [0,1].")
  in
  let jitter_t =
    Arg.(value & opt float 0.0
         & info [ "jitter" ] ~doc:"Extra random delivery latency bound (reorders messages).")
  in
  let crash_t =
    Arg.(value & opt_all int []
         & info [ "crash" ] ~docv:"POSITION"
             ~doc:"Crash-stop the party at this position (repeatable).")
  in
  let net_seed_t =
    Arg.(value & opt int 7 & info [ "net-seed" ] ~doc:"Seed for the fault plan's DRBG.")
  in
  let flip_t =
    Arg.(value & opt float 0.0
         & info [ "flip" ]
             ~doc:"Adversary: per-message bit-flip probability in [0,1].")
  in
  let forge_t =
    Arg.(value & opt float 0.0
         & info [ "forge" ]
             ~doc:"Adversary: per-message wholesale-forgery probability in [0,1].")
  in
  let replay_t =
    Arg.(value & opt float 0.0
         & info [ "replay" ]
             ~doc:
               "Adversary: per-message probability of substituting a replayed \
                capture in [0,1].")
  in
  let attack_seed_t =
    Arg.(value & opt int 99
         & info [ "attack-seed" ] ~doc:"Seed for the adversary plan's DRBG.")
  in
  let prometheus_t =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Also emit the session's metrics in Prometheus text exposition \
             format (implies $(b,--metrics) collection).")
  in
  let prom_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the Prometheus exposition to $(docv) instead of stdout \
             (only meaningful with $(b,--prometheus)).")
  in
  let run debug scheme m outsiders clone revoke seed verbose metrics prometheus
      prom_out drop duplicate jitter crash net_seed flip forge replay
      attack_seed =
    setup_logging debug;
    if scheme <> 1 && scheme <> 2 then (prerr_endline "scheme must be 1 or 2"; 1)
    else if m < 2 then (prerr_endline "need at least 2 members"; 1)
    else
      try
        run_handshake scheme m outsiders clone revoke seed verbose metrics
          prometheus prom_out drop duplicate jitter crash net_seed flip forge
          replay attack_seed
      with Invalid_argument msg -> prerr_endline msg; 1
  in
  Term.(
    const run $ verbose_flag $ scheme_t $ m_t $ outsiders_t $ clone_t $ revoke_t
    $ seed_t $ verbose_t $ metrics_flag $ prometheus_t $ prom_out_t $ drop_t
    $ duplicate_t $ jitter_t $ crash_t $ net_seed_t $ flip_t $ forge_t
    $ replay_t $ attack_seed_t)

let handshake_cmd =
  Cmd.v
    (Cmd.info "handshake" ~doc:"Run an m-party secret handshake in simulation.")
    handshake_term

let lifecycle_cmd =
  let n_t = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Members to admit.") in
  Cmd.v
    (Cmd.info "lifecycle" ~doc:"Walk a group through joins and a revocation.")
    Term.(const run_lifecycle $ n_t $ seed_t)

let trace_cmd =
  let m_t = Arg.(value & opt int 3 & info [ "m" ] ~doc:"Participants.") in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Also export the session's causal event timeline (per-party \
             phase spans on sim time, send→receive flow edges, \
             drop/retransmission instants) as Chrome trace_event JSON, \
             loadable in Perfetto.  Deterministic: same seeds, same bytes.")
  in
  let drop_t =
    Arg.(value & opt float 0.0
         & info [ "drop" ] ~doc:"Per-link message drop probability in [0,1].")
  in
  let duplicate_t =
    Arg.(value & opt float 0.0
         & info [ "duplicate" ] ~doc:"Message duplication probability in [0,1].")
  in
  let jitter_t =
    Arg.(value & opt float 0.0
         & info [ "jitter" ] ~doc:"Extra random delivery latency bound.")
  in
  let net_seed_t =
    Arg.(value & opt int 7 & info [ "net-seed" ] ~doc:"Seed for the fault plan's DRBG.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a handshake, open the transcript as the authority, and \
          optionally export the event timeline ($(b,-o)).")
    Term.(
      const run_trace $ m_t $ seed_t $ out_t $ drop_t $ duplicate_t $ jitter_t
      $ net_seed_t)

let profile_cmd =
  let m_t = Arg.(value & opt int 3 & info [ "m"; "members" ] ~doc:"Participants.") in
  let scheme_t =
    Arg.(value & opt int 1
         & info [ "scheme" ] ~doc:"Instantiation: 1 (ACJT) or 2 (KTY).")
  in
  let out_t =
    Arg.(value & opt string "shs_profile"
         & info [ "o"; "out" ] ~docv:"PREFIX"
             ~doc:
               "Output prefix: writes $(docv).collapsed (collapsed-stack \
                text) and $(docv).speedscope.json.")
  in
  let weight_t =
    Arg.(
      value
      & opt
          (enum
             [ ("calls", Prof.Calls); ("words", Prof.Words);
               ("alloc", Prof.Alloc) ])
          Prof.Words
      & info [ "weight" ]
          ~doc:
            "Collapsed-stack weight: $(b,calls) (primitive calls), \
             $(b,words) (limb-word work estimates, the default) or \
             $(b,alloc) (minor-heap words).")
  in
  let drop_t =
    Arg.(value & opt float 0.0
         & info [ "drop" ] ~doc:"Per-link message drop probability in [0,1].")
  in
  let duplicate_t =
    Arg.(value & opt float 0.0
         & info [ "duplicate" ] ~doc:"Message duplication probability in [0,1].")
  in
  let jitter_t =
    Arg.(value & opt float 0.0
         & info [ "jitter" ] ~doc:"Extra random delivery latency bound.")
  in
  let net_seed_t =
    Arg.(value & opt int 7 & info [ "net-seed" ] ~doc:"Seed for the fault plan's DRBG.")
  in
  let run debug scheme m seed net_seed drop duplicate jitter out weight =
    setup_logging debug;
    if scheme <> 1 && scheme <> 2 then (prerr_endline "scheme must be 1 or 2"; 1)
    else if m < 2 then (prerr_endline "need at least 2 members"; 1)
    else
      try run_profile scheme m seed net_seed drop duplicate jitter out weight
      with Invalid_argument msg -> prerr_endline msg; 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a handshake under the cost-attribution profiler and export \
          the per-phase/per-equation bigint work as collapsed stacks and \
          speedscope JSON.  Deterministic: same seeds, same bytes.")
    Term.(
      const run $ verbose_flag $ scheme_t $ m_t $ seed_t $ net_seed_t $ drop_t
      $ duplicate_t $ jitter_t $ out_t $ weight_t)

let params_cmd =
  Cmd.v
    (Cmd.info "params" ~doc:"Show the embedded cryptographic parameter sets.")
    Term.(const run_params $ const ())

let fuzz_cmd =
  let m_t = Arg.(value & opt int 4 & info [ "m" ] ~doc:"Seats per session (minimum 3).") in
  let sessions_t =
    Arg.(value & opt int 20
         & info [ "sessions" ] ~doc:"Handshake sessions per attack seed.")
  in
  let attack_seeds_t =
    Arg.(value & opt (list int) [ 101; 202; 303 ]
         & info [ "attack-seeds" ] ~docv:"SEEDS"
             ~doc:"Comma-separated adversary DRBG seeds, one sweep each.")
  in
  let drop_t =
    Arg.(value & opt float 0.15
         & info [ "drop" ]
             ~doc:"Drop probability stacked under unrestricted sessions.")
  in
  let run debug m sessions attack_seeds seed drop =
    setup_logging debug;
    if m < 3 then (prerr_endline "need at least 3 seats (the honest-subset invariant is vacuous below 3)"; 1)
    else if sessions < 1 then (prerr_endline "need at least one session"; 1)
    else if attack_seeds = [] then (prerr_endline "need at least one attack seed"; 1)
    else
      try run_fuzz m sessions attack_seeds seed drop
      with Invalid_argument msg -> prerr_endline msg; 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Drive many handshake sessions through the active message-mutation \
          adversary and check the Byzantine-hardening invariants: no uncaught \
          exception, every party terminal, honest subsets complete.  Output \
          is a pure function of the seeds; exits 1 on any violation.")
    Term.(
      const run $ verbose_flag $ m_t $ sessions_t $ attack_seeds_t $ seed_t
      $ drop_t)

let dir_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir"; "d" ] ~doc:"Persistent state directory.")

let wrap f = try f () with Failure msg -> prerr_endline msg; 1

let init_cmd =
  let run dir seed = wrap (fun () -> run_init dir seed) in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a persistent group in a state directory.")
    Term.(const run $ dir_t $ seed_t)

let add_cmd =
  let uid_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"UID") in
  let run dir uid = wrap (fun () -> run_add dir uid) in
  Cmd.v
    (Cmd.info "add" ~doc:"Admit a member to a persistent group.")
    Term.(const run $ dir_t $ uid_t)

let revoke_cmd =
  let uid_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"UID") in
  let run dir uid = wrap (fun () -> run_revoke_cmd dir uid) in
  Cmd.v
    (Cmd.info "revoke" ~doc:"Revoke a member of a persistent group.")
    Term.(const run $ dir_t $ uid_t)

let members_cmd =
  let run dir = wrap (fun () -> run_members dir) in
  Cmd.v
    (Cmd.info "members" ~doc:"List the members of a persistent group.")
    Term.(const run $ dir_t)

let run_cmd =
  let uids_t = Arg.(value & pos_all string [] & info [] ~docv:"UID") in
  let trace_t = Arg.(value & flag & info [ "trace" ] ~doc:"Open the transcript as the authority afterwards.") in
  let run debug dir trace uids metrics =
    setup_logging debug;
    wrap (fun () -> run_session_cmd dir uids trace metrics)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a secret handshake between stored members (default: all active).")
    Term.(const run $ verbose_flag $ dir_t $ trace_t $ uids_t $ metrics_flag)

let dashboard_cmd =
  let scheme_t =
    Arg.(
      value
      & opt (enum [ ("lkh", "lkh"); ("oft", "oft"); ("sd", "sd"); ("lsd", "lsd") ]) "lkh"
      & info [ "scheme" ]
          ~doc:"CGKD scheme to churn: $(b,lkh), $(b,oft), $(b,sd) or $(b,lsd).")
  in
  let capacity_t =
    Arg.(value & opt int 1024
         & info [ "members"; "capacity" ]
             ~doc:"Tree capacity (power of two); half is populated before \
                   churn begins.")
  in
  let tracked_t =
    Arg.(value & opt int 8
         & info [ "tracked" ]
             ~doc:"Members that apply every rekey broadcast (the latency \
                   sample population).")
  in
  let events_t =
    Arg.(value & opt int 64
         & info [ "events" ] ~doc:"Churn membership events to schedule.")
  in
  let cadence_t =
    Arg.(value & opt float 4.0
         & info [ "cadence" ] ~doc:"Telemetry scrape interval in sim-seconds.")
  in
  let out_t =
    Arg.(value & opt string "shs_dashboard"
         & info [ "o"; "out" ] ~docv:"PREFIX"
             ~doc:"Output prefix: writes $(docv).csv and $(docv).html.")
  in
  let run debug scheme capacity tracked events seed cadence out =
    setup_logging debug;
    if capacity < 2 then (prerr_endline "need capacity of at least 2"; 1)
    else if events < 1 then (prerr_endline "need at least one churn event"; 1)
    else if tracked < 1 then (prerr_endline "need at least one tracked member"; 1)
    else if not (cadence > 0.0) then (prerr_endline "cadence must be positive"; 1)
    else
      try run_dashboard scheme capacity tracked events seed cadence out with
      | Invalid_argument msg | Failure msg -> prerr_endline msg; 1
  in
  Cmd.v
    (Cmd.info "dashboard"
       ~doc:
         "Churn a CGKD group on the deterministic simulator, scraping rekey \
          rate, tree size, queue depth and rekey-latency percentiles on a \
          fixed sim-time cadence, and export the series as CSV plus a \
          self-contained HTML dashboard.  Deterministic: same seeds, same \
          bytes.")
    Term.(
      const run $ verbose_flag $ scheme_t $ capacity_t $ tracked_t $ events_t
      $ seed_t $ cadence_t $ out_t)

let swarm_cmd =
  let sessions_t =
    Arg.(value & opt int 200
         & info [ "sessions" ] ~doc:"Total session arrivals to burst.")
  in
  let m_t =
    Arg.(value & opt int 4 & info [ "m"; "members" ] ~doc:"Seats per session.")
  in
  let gap_t =
    Arg.(value & opt float 0.05
         & info [ "mean-gap" ]
             ~doc:"Mean Poisson inter-arrival gap in sim-seconds.")
  in
  let drop_t =
    Arg.(value & opt float 0.05
         & info [ "drop" ]
             ~doc:"Per-copy drop probability on fault-targeted sessions.")
  in
  let drop_every_t =
    Arg.(value & opt int 0
         & info [ "drop-every" ] ~docv:"K"
             ~doc:"Give every $(docv)th session (sid mod $(docv) = 0) a lossy \
                   channel; 0 disables fault targeting.")
  in
  let byz_every_t =
    Arg.(value & opt int 0
         & info [ "byz-every" ] ~docv:"K"
             ~doc:"Seat a Byzantine mutation adversary on every $(docv)th \
                   session; 0 disables attack targeting.")
  in
  let high_water_t =
    Arg.(value & opt int 4096
         & info [ "high-water" ]
             ~doc:"Admission-control cap on concurrently live sessions.")
  in
  let deadline_t =
    Arg.(value & opt float 240.0
         & info [ "deadline" ]
             ~doc:"Sim-time budget per session before it is shed.")
  in
  let out_t =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"PREFIX"
             ~doc:"Also export telemetry as $(docv).csv and $(docv).html.")
  in
  let run debug sessions m gap seed drop drop_every byz_every high_water
      deadline out =
    setup_logging debug;
    try
      run_swarm sessions m gap seed drop drop_every byz_every high_water
        deadline out
    with Invalid_argument msg | Failure msg -> prerr_endline msg; 1
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Burst hundreds of concurrent handshake sessions at one \
          multi-session engine: Poisson arrivals, bounded inboxes, admission \
          control, deadline shedding and scoped fault/Byzantine targeting.  \
          Prints the deterministic summary (byte-identical across runs of \
          the same seeds); exits nonzero if any untargeted session fails \
          (isolation violation).")
    Term.(
      const run $ verbose_flag $ sessions_t $ m_t $ gap_t $ seed_t $ drop_t
      $ drop_every_t $ byz_every_t $ high_water_t $ deadline_t $ out_t)

let main =
  (* [handshake] doubles as the default command, so
     [shs_demo -- --metrics] works without naming a subcommand *)
  Cmd.group ~default:handshake_term
    (Cmd.info "shs_demo" ~version:"1.0.0"
       ~doc:"Multi-party secret handshakes (GCD framework) demo driver")
    [ handshake_cmd; lifecycle_cmd; trace_cmd; profile_cmd; params_cmd;
      fuzz_cmd; dashboard_cmd; swarm_cmd; init_cmd; add_cmd; revoke_cmd;
      members_cmd; run_cmd ]

let () = exit (Cmd.eval' main)
