(* Seeded, deterministic fault plan for the network engine.

   All randomness comes from one HMAC-DRBG owned by the plan, and the
   engine draws from it in send order — which the Sim makes
   deterministic — so a (seed, plan, protocol) triple always produces
   the same drops, duplicates and jitters.  A plan is stateful: reuse
   across engines continues the same stream; create a fresh plan (same
   seed) to replay a run. *)

type t = {
  drop : src:int -> dst:int -> float;
  duplicate : float;
  jitter : float;
  crashes : (int * float) list;
  drbg : Drbg.t;
}

let valid_prob p = p >= 0.0 && p <= 1.0

let bad_prob what p =
  invalid_arg (Printf.sprintf "Faults.create: %s probability %g not in [0,1]" what p)

let check_prob what p = if not (valid_prob p) then bad_prob what p

let create ?(drop = 0.0) ?drop_link ?(duplicate = 0.0) ?(jitter = 0.0)
    ?(crashes = []) ~seed () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  if not (jitter >= 0.0) then
    invalid_arg (Printf.sprintf "Faults.create: jitter %g must be >= 0" jitter);
  List.iter
    (fun (party, at) ->
      if party < 0 then invalid_arg "Faults.create: negative crash party";
      if not (at >= 0.0) then
        invalid_arg
          (Printf.sprintf "Faults.create: crash time %g for party %d must be >= 0"
             at party))
    crashes;
  let drop =
    match drop_link with
    | Some f -> f
    | None -> fun ~src:_ ~dst:_ -> drop
  in
  { drop;
    duplicate;
    jitter;
    crashes;
    drbg = Drbg.create ~personalization:"shs-fault-plan" ~seed:(string_of_int seed) ();
  }

let crashed t ~party ~now =
  List.exists (fun (p, at) -> p = party && now >= at) t.crashes

(* Uniform draw in [0,1) from 53 fresh DRBG bits. *)
let uniform t =
  let b = Drbg.generate t.drbg 7 in
  let bits = ref 0 in
  for i = 0 to 6 do
    bits := (!bits lsl 8) lor Char.code b.[i]
  done;
  float_of_int (!bits lsr 3) /. 9007199254740992.0 (* 2^53 *)

let draw_drop t ~src ~dst =
  let p = t.drop ~src ~dst in
  (* the label is formatted only for an invalid probability, not per draw *)
  if not (valid_prob p) then bad_prob (Printf.sprintf "link %d->%d drop" src dst) p;
  p > 0.0 && uniform t < p

let draw_duplicate t = t.duplicate > 0.0 && uniform t < t.duplicate

let draw_jitter t = if t.jitter = 0.0 then 0.0 else t.jitter *. uniform t

let describe t =
  Printf.sprintf "duplicate=%g jitter=%g crashes=[%s]" t.duplicate t.jitter
    (String.concat "; "
       (List.map (fun (p, at) -> Printf.sprintf "%d@%g" p at) t.crashes))
