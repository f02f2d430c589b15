(* Shared bench fixtures: the pre-admitted member worlds and handshake
   drivers used by several experiments.  Building a world is expensive
   (admissions generate primes), so both are lazy and forced once. *)

let rng_of seed = Drbg.bytes_fn (Drbg.of_int_seed seed)

let max_members = 8

(* seed provenance, stamped into shs-bench/1 output: the member-world
   DRBG seeds below and the fault-plan seeds the chaos experiments
   (E10/E11) sweep over *)
let world_seeds = [ 1000; 2000 ]
let fault_seeds = [ 11; 23; 47 ]

(* attack-plan seeds the Byzantine fuzz experiment (E12) sweeps over;
   reproduce any E12 row with
   [s1_fuzz ~m:4 ~sessions ~attack_seed ()] at the same seed *)
let attack_seeds = [ 101; 202; 303 ]

(* A world is built from fixed seeds, so every build is the same world in
   the same DRBG state: [scheme1_world] and [scheme2_world] are the shared
   copies most experiments advance in turn, and a caller that must not
   move them (E3's timed loop runs a speed-dependent number of
   handshakes) or must not depend on what moved them (E13's profile)
   builds a private one. *)
let build_scheme1_world () =
  let ga = Scheme1.default_authority ~rng:(rng_of 1000) () in
  let members =
    Array.init max_members (fun i ->
        match
          Scheme1.admit ga ~uid:(Printf.sprintf "m%d" i)
            ~member_rng:(rng_of (1100 + i))
        with
        | Some v -> v
        | None -> failwith "admit")
  in
  Array.iteri
    (fun i (_, upd) ->
      Array.iteri
        (fun j (m, _) -> if j < i then ignore (Scheme1.update m upd))
        members)
    members;
  (ga, Array.map fst members)

let build_scheme2_world () =
  let ga = Scheme2.default_authority ~rng:(rng_of 2000) () in
  let members =
    Array.init max_members (fun i ->
        match
          Scheme2.admit ga ~uid:(Printf.sprintf "m%d" i)
            ~member_rng:(rng_of (2100 + i))
        with
        | Some v -> v
        | None -> failwith "admit")
  in
  Array.iteri
    (fun i (_, upd) ->
      Array.iteri
        (fun j (m, _) -> if j < i then ignore (Scheme2.update m upd))
        members)
    members;
  (ga, Array.map fst members)

let scheme1_world = lazy (build_scheme1_world ())
let scheme2_world = lazy (build_scheme2_world ())

let s1_handshake ?(world = scheme1_world) m =
  let ga, members = Lazy.force world in
  let fmt = Scheme1.default_format ga in
  let parts =
    Array.init m (fun i -> Scheme1.participant_of_member members.(i))
  in
  Scheme1.run_session ~fmt parts

let s2_handshake ?(world = scheme2_world) m =
  let ga, members = Lazy.force world in
  let fmt = Scheme2.default_format ga in
  let gpub = Scheme2.group_public ga in
  let parts =
    Array.init m (fun i -> Scheme2.participant_of_member members.(i))
  in
  Scheme2.run_session_sd ~gpub ~fmt parts

(* A handshake over a faulty channel: per-link drops, occasional
   duplication and reordering jitter, with the session watchdog armed so
   every party reaches a terminal outcome.  Deterministic in [seed]. *)
let s1_chaos_handshake ?(duplicate = 0.05) ?(jitter = 0.3) ~m ~seed ~drop () =
  let ga, members = Lazy.force scheme1_world in
  let fmt = Scheme1.default_format ga in
  let parts =
    Array.init m (fun i -> Scheme1.participant_of_member members.(i))
  in
  let faults = Faults.create ~drop ~duplicate ~jitter ~seed () in
  Scheme1.run_session ~faults ~watchdog:Gcd_types.default_watchdog ~fmt parts

(* Many handshakes through the seeded message-mutation adversary
   (alternating unrestricted and Byzantine-seat plans, see {!Fuzz});
   deterministic in [attack_seed]. *)
let s1_fuzz ~m ~sessions ~attack_seed ?(drop = 0.15) () =
  let ga, members = Lazy.force scheme1_world in
  let fmt = Scheme1.default_format ga in
  let parts =
    Array.init m (fun i -> Scheme1.participant_of_member members.(i))
  in
  Fuzz.run ~m ~sessions ~attack_seed ~drop ~fault_seed:11
    ~run_session:(fun ~adversary ~faults ~watchdog ->
      Scheme1.run_session ?faults ~watchdog ~adversary ~fmt parts)
    ()

let assert_accepted (r : Gcd_types.session_result) =
  Array.iter
    (function
      | Some o when o.Gcd_types.accepted -> ()
      | _ -> failwith "bench handshake did not accept")
    r.Gcd_types.outcomes
