(* Seeded, deterministic fault plan for the network engine.

   All randomness comes from one HMAC-DRBG owned by the plan, and the
   engine draws from it in send order — which the Sim makes
   deterministic — so a (seed, plan, protocol) triple always produces
   the same drops, duplicates and jitters.  A plan is stateful: reuse
   across engines continues the same stream; create a fresh plan (same
   seed) to replay a run.

   The stream is read 64 uniforms at a time: one 448-byte DRBG request
   (14 HMAC blocks, well under SP 800-90A's 2^19-bit cap per request)
   fills a pool, and uniform k of a pool is bytes 7k..7k+6 read
   big-endian and shifted right 3, 53 bits.  The pool refills only
   when a 65th uniform is asked for, so a plan that draws nothing
   generates nothing. *)

type t = {
  drop : float;
  duplicate : float;
  jitter : float;
  crashes : (int * float) list;
  drbg : Drbg.t;
  mutable pool : string;
  mutable next : int;  (* index of the next uniform in [pool] *)
}

let pool_draws = 64
let draw_bytes = 7

let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg
      (Printf.sprintf "Faults.create: %s probability %g not in [0,1]" what p)

let create ?(drop = 0.0) ?(duplicate = 0.0) ?(jitter = 0.0) ?(crashes = [])
    ~seed () =
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
  { drop;
    duplicate;
    jitter;
    crashes;
    drbg = Drbg.create ~personalization:"shs-fault-plan" ~seed:(string_of_int seed) ();
    pool = "";
    next = pool_draws;
  }

let crashed t ~party ~now =
  List.exists (fun (p, at) -> p = party && now >= at) t.crashes

(* Uniform draw in [0,1) from the next 53 bits of the pool. *)
let uniform t =
  if t.next = pool_draws then begin
    t.pool <- Drbg.generate t.drbg (pool_draws * draw_bytes);
    t.next <- 0
  end;
  let base = draw_bytes * t.next in
  t.next <- t.next + 1;
  let bits = ref 0 in
  for i = base to base + draw_bytes - 1 do
    bits := (!bits lsl 8) lor Char.code t.pool.[i]
  done;
  float_of_int (!bits lsr 3) /. 9007199254740992.0 (* 2^53 *)

let draw_drop t = t.drop > 0.0 && uniform t < t.drop

let draw_duplicate t = t.duplicate > 0.0 && uniform t < t.duplicate

let draw_jitter t = if t.jitter = 0.0 then 0.0 else t.jitter *. uniform t
