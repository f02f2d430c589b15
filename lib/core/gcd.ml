(** The GCD secret-handshake compiler (paper §7).

    [Make (G) (C) (D)] turns a group signature scheme, a centralized group
    key distribution scheme and a distributed group key agreement scheme
    into a multi-party secret handshake scheme:

    - {b CreateGroup}: the group authority (GA) runs GSIG.Setup and
      CGKD.Setup and mints an IND-CCA2 tracing key pair (pkT, skT).
    - {b AdmitMember / RemoveUser / Update}: membership events drive both
      CGKD and GSIG; the GSIG state-update is encrypted under the {e new}
      CGKD epoch key and shipped in the same broadcast, so only current
      members can stay in sync (§3's argument for keeping both revocation
      components is directly executable here).
    - {b Handshake}: Phase I runs DGKA to agree on k-star; each party forms
      k' = k* ⊕ k; Phase II publishes MAC(k', sid, i); Phase III — when
      every tag verifies — publishes (θ_i = SENC(k', σ_i),
      δ_i = ENC(pkT, k')) with σ_i a group signature binding δ_i and the
      session id; otherwise uniformly random pairs of identical format.
      The §7 extension (partially-successful handshakes) falls out of the
      tag matrix: each party learns exactly the subset Δ that shares its
      group and completes the handshake with it.
    - {b TraceUser}: the GA decrypts each δ_i to k'_i, opens θ_i, and runs
      GSIG.Open — recovering the participant set of a successful
      transcript.

    Phase III behaviour is parameterized by {e hooks} so the
    self-distinction instantiation (Example Scheme 2) can substitute
    common-base signatures and a distinctness check without duplicating
    the protocol; see {!Scheme2}. *)

module Make (G : Gsig_intf.S) (C : Cgkd_intf.S) (D : Dgka_intf.S) = struct
  let name = Printf.sprintf "gcd(%s,%s,%s)" G.name C.name D.name

  (* one log source per instantiation; silent unless the application
     installs a reporter (the CLI's --verbose does) *)
  let log = Logs.Src.create name ~doc:"GCD secret-handshake framework"

  module Log = (val Logs.src_log log : Logs.LOG)

  (* metrics: span names are shared across instantiations so the trace
     tree aggregates by protocol phase, not by scheme *)
  let sessions_counter = Obs.counter ~help:"handshake sessions run" "gcd.sessions"

  (* live levels for the telemetry recorder: how many sessions are in
     flight, and where their parties sit in the protocol.  A single
     [run_session] drives one session at a time today; the concurrent
     engine these gauges anticipate will hold many *)
  let live_sessions_gauge =
    Obs.gauge ~help:"handshake sessions currently running" "gcd.sessions.live"
  let phase_gauges =
    Array.init 4 (fun i ->
        Obs.gauge
          ~help:(Printf.sprintf "live handshake parties currently in phase %d" i)
          (Printf.sprintf "gcd.live.phase%d" i))
  let retransmissions_counter =
    Obs.counter ~help:"handshake messages retransmitted by the watchdog"
      "gcd.retransmissions"
  let timeouts_counter =
    Obs.counter ~help:"handshake phase timeouts forced by the watchdog"
      "gcd.timeouts"

  (* ---------------------------------------------------------------- *)
  (* Group authority and members                                       *)
  (* ---------------------------------------------------------------- *)

  type authority = {
    mutable gm : G.manager;
    mutable gc : C.controller;
    trace_sk : Dhies.secret_key;
    trace_pk : Dhies.public_key;
    dl_group : Groupgen.schnorr_group;  (* system-wide DGKA/PKE parameters *)
    ga_rng : int -> string;
  }

  type member = {
    uid : string;  (* known to the member and the GA only *)
    mutable gsig : G.member;
    mutable cgkd : C.member;
    gpub : G.public;
    m_trace_pk : Dhies.public_key;
    m_dl_group : Groupgen.schnorr_group;
    m_rng : int -> string;
    mutable active : bool;
  }

  let create_group ~rng ~modulus ~dl_group ~capacity =
    let gm = G.setup ~rng ~modulus in
    let gc = C.setup ~rng ~capacity in
    let trace_pk, trace_sk = Dhies.key_gen ~rng ~group:dl_group in
    { gm; gc; trace_sk; trace_pk; dl_group; ga_rng = rng }

  (* AdmitMember: GSIG join (three flights) + CGKD join; the GSIG update
     is sealed under the fresh CGKD key. *)
  let admit ga ~uid ~member_rng =
    Obs.span "gcd.admit" @@ fun () ->
    let pub = G.public ga.gm in
    let req, offer = G.join_begin ~rng:member_rng pub in
    match G.join_issue ~rng:ga.ga_rng ga.gm ~uid ~offer with
    | None -> None
    | Some (gm, cert, gsig_update) ->
      (match G.join_complete req ~cert with
       | None -> None
       | Some gsig_member ->
         (match C.join ga.gc ~uid with
          | None -> None
          | Some (gc, cgkd_member, cgkd_rekey) ->
            ga.gm <- gm;
            ga.gc <- gc;
            let envelope =
              Secretbox.seal ~key:(C.controller_key gc) ~rng:ga.ga_rng gsig_update
            in
            let broadcast =
              Wire.encode ~tag:"gcd-admit" [ cgkd_rekey; envelope ]
            in
            let m =
              { uid;
                gsig = gsig_member;
                cgkd = cgkd_member;
                gpub = pub;
                m_trace_pk = ga.trace_pk;
                m_dl_group = ga.dl_group;
                m_rng = member_rng;
                active = true;
              }
            in
            Log.debug (fun f ->
                f "admitted %S (epoch %d)" uid (C.controller_epoch gc));
            Some (m, broadcast)))

  let remove ga ~uid =
    Obs.span "gcd.remove" @@ fun () ->
    match C.leave ga.gc ~uid with
    | None -> None
    | Some (gc, cgkd_rekey) ->
      (match G.revoke ~rng:ga.ga_rng ga.gm ~uid with
       | None -> None
       | Some (gm, gsig_update) ->
         ga.gm <- gm;
         ga.gc <- gc;
         let envelope =
           Secretbox.seal ~key:(C.controller_key gc) ~rng:ga.ga_rng gsig_update
         in
         Log.debug (fun f -> f "removed %S (epoch %d)" uid (C.controller_epoch gc));
         Some (Wire.encode ~tag:"gcd-remove" [ cgkd_rekey; envelope ]))

  (* GCD.Update: first recover the new CGKD epoch key, then decrypt and
     apply the GSIG update.  A member that cannot rekey after a remove
     has been revoked. *)
  let update m broadcast =
    let apply ~revocation cgkd_rekey envelope =
      match C.rekey m.cgkd cgkd_rekey with
      | None ->
        if revocation then begin
          m.active <- false;
          true
        end
        else false
      | Some cgkd ->
        (match Secretbox.open_ ~key:(C.group_key cgkd) envelope with
         | None -> false
         | Some gsig_update ->
           (match G.apply_update m.gsig gsig_update with
            | None -> false
            | Some gsig ->
              m.cgkd <- cgkd;
              m.gsig <- gsig;
              if not (G.member_valid gsig) then m.active <- false;
              true))
    in
    match Wire.decode broadcast with
    | Some ("gcd-admit", [ cgkd_rekey; envelope ]) ->
      apply ~revocation:false cgkd_rekey envelope
    | Some ("gcd-remove", [ cgkd_rekey; envelope ]) ->
      apply ~revocation:true cgkd_rekey envelope
    | _ -> false

  let member_uid m = m.uid
  let member_active m = m.active
  let group_public ga = G.public ga.gm
  let group_epoch ga = C.controller_epoch ga.gc

  (* ---------------------------------------------------------------- *)
  (* Handshake wire format                                             *)
  (* ---------------------------------------------------------------- *)

  let key_len = 32

  let format_of_public ~dl_group gpub =
    { Gcd_types.delta_len = Dhies.ciphertext_len ~group:dl_group ~plaintext_len:key_len;
      theta_len = Secretbox.box_len ~plaintext_len:(G.signature_len gpub);
      dl_group;
    }

  let format_of_member m = format_of_public ~dl_group:m.m_dl_group m.gpub

  let mac_phase2 ~tag_key ~sid i =
    Hmac.mac_prepared tag_key [ "shs-phase2"; sid; string_of_int i ]

  let phase3_msg ~sid ~delta = Sha256.digest_list [ "shs-phase3"; sid; delta ]

  (* ---------------------------------------------------------------- *)
  (* Phase III hooks (self-distinction plugs in here)                  *)
  (* ---------------------------------------------------------------- *)

  type hooks = {
    h_sign : rng:(int -> string) -> G.member -> sid:string -> msg:string -> string;
    h_verify : G.member -> sid:string -> msg:string -> string -> bool;
    h_filter : sid:string -> gpub:G.public -> (int * string) list -> int list;
    (* given the verified (index, signature) pairs — own included —
       return the indices that survive scheme-specific cross-checks *)
  }

  let default_hooks =
    { h_sign = (fun ~rng mem ~sid:_ ~msg -> G.sign ~rng mem ~msg);
      h_verify = (fun mem ~sid:_ ~msg sigma -> G.verify mem ~msg sigma);
      h_filter = (fun ~sid:_ ~gpub:_ verified -> List.map fst verified);
    }

  (* ---------------------------------------------------------------- *)
  (* Handshake party state machine                                     *)
  (* ---------------------------------------------------------------- *)

  type role =
    | Member_of of member
    | Outsider  (* knows the system-wide parameters but no group *)

  type party = {
    role : role;
    self : int;
    n : int;
    rng : int -> string;
    fmt : Gcd_types.format;
    hooks : hooks;
    allow_partial : bool;
    two_phase : bool;
    (* the §7 remark: "if traceability is not required, a handshake may
       only involve Phase I and Phase II" — partners are then decided by
       the tag matrix alone (no group signatures, no traceability) *)
    dgka : D.instance;
    mutable kprime : string option;  (* k' = k* ⊕ k; outsiders improvise *)
    mutable tag_key : Hmac.key option;
    (* k' prepared once: it serves the party's own tag and its m - 1
       checks *)
    mutable sid : string option;
    macs : string option array;
    mutable sent_p3 : bool;
    p3 : (string * string) option array;
    mutable outcome : Gcd_types.outcome option;
    mutable obs_phase : int;  (* phase currently registered on the gauges *)
  }

  let make_party ~role ~self ~n ~fmt ~hooks ~allow_partial ~two_phase ~rng =
    { role;
      self;
      n;
      rng;
      fmt;
      hooks;
      allow_partial;
      two_phase;
      dgka = D.create ~rng ~group:fmt.dl_group ~self ~n;
      kprime = None;
      tag_key = None;
      sid = None;
      macs = Array.make n None;
      sent_p3 = false;
      p3 = Array.make n None;
      outcome = None;
      obs_phase = 0;
    }

  (* Watchdog phase marker: strictly increases as the party progresses,
     so a stalled marker means the current phase lost a message. *)
  let phase_of p =
    if p.outcome <> None then 3
    else if p.sent_p3 then 2
    else if p.kprime <> None then 1
    else 0

  (* move the party between the live-phase gauges after a transition;
     [run_session] registers parties at phase 0 and deregisters whatever
     phase they ended in at teardown *)
  let track_phase p =
    let ph = phase_of p in
    if ph <> p.obs_phase then begin
      Obs.gauge_sub phase_gauges.(p.obs_phase) 1;
      Obs.gauge_add phase_gauges.(ph) 1;
      p.obs_phase <- ph
    end

  let xor_bytes a b =
    assert (String.length a = String.length b);
    String.init (String.length a) (fun i ->
        Char.chr (Char.code a.[i] lxor Char.code b.[i]))

  let is_genuine p =
    match p.role with
    | Member_of m -> m.active
    | Outsider -> false

  (* Terminal-state classification: a full-circle handshake is Complete;
     a §7 maximal-subset handshake (some proper subset, self included,
     sharing a key) is Partial; everything else — outsiders, revoked
     members, timed-out random-values continuations — is Aborted. *)
  let classify ~accepted ~partners =
    if accepted then Gcd_types.Complete
    else if List.length partners >= 2 then Gcd_types.Partial
    else Gcd_types.Aborted

  (* Phase I complete: derive k' and publish the Phase II tag. *)
  let emit_phase2 p ~key ~sid =
    Obs.span "gcd.handshake.phase2" @@ fun () ->
    let kprime =
      match p.role with
      | Member_of m when m.active -> xor_bytes key (C.group_key m.cgkd)
      | Member_of _ | Outsider ->
        (* no valid group key: improvise one — resistance to impersonation
           says the resulting tag convinces nobody *)
        p.rng key_len
    in
    let tag_key = Hmac.prepare kprime in
    p.kprime <- Some kprime;
    p.tag_key <- Some tag_key;
    p.sid <- Some sid;
    Log.debug (fun f -> f "party %d: phase I complete, emitting tag" p.self);
    let mac = mac_phase2 ~tag_key ~sid p.self in
    p.macs.(p.self) <- Some mac;
    track_phase p;
    [ (None, Wire.encode ~tag:"hs2" [ mac ]) ]

  let mac_valid p j =
    match (p.tag_key, p.sid, p.macs.(j)) with
    | Some tag_key, Some sid, Some mac ->
      Hmac.equal_ct mac (mac_phase2 ~tag_key ~sid j)
    | _ -> false

  (* Phase III: real values when this party is a live member and the tag
     matrix allows it, random fakes otherwise. *)
  let emit_phase3 p =
    Obs.span "gcd.handshake.phase3" @@ fun () ->
    match (p.sid, p.kprime) with
    | None, _ | _, None -> [] (* Phase II incomplete: nothing to emit *)
    | Some sid, Some kprime ->
      Log.debug (fun f -> f "party %d: entering phase III" p.self);
      p.sent_p3 <- true;
      track_phase p;
      let all_valid = List.for_all (mac_valid p) (List.init p.n Fun.id) in
      let genuine = is_genuine p in
      let theta, delta =
        if genuine && (all_valid || p.allow_partial) then begin
          match p.role with
          | Member_of m ->
            let delta =
              Dhies.encrypt ~rng:p.rng ~pk:m.m_trace_pk ~pad_to:key_len kprime
            in
            let msg = phase3_msg ~sid ~delta in
            let sigma = p.hooks.h_sign ~rng:p.rng m.gsig ~sid ~msg in
            let theta = Secretbox.seal ~key:kprime ~rng:p.rng sigma in
            (theta, delta)
          | Outsider ->
            (* [genuine] implies a live membership, so this arm cannot run *)
            ((assert false) [@shs.lint_ignore "TOTAL-DECODE"])
        end
        else
          (* Case 2: random pair of exactly the real format *)
          ( p.rng p.fmt.Gcd_types.theta_len,
            Dhies.random_ciphertext ~rng:p.rng ~group:p.fmt.Gcd_types.dl_group
              ~plaintext_len:key_len )
      in
      p.p3.(p.self) <- Some (theta, delta);
      [ (None, Wire.encode ~tag:"hs3" [ theta; delta ]) ]

  let finalize p =
    Obs.span "gcd.handshake.finalize" @@ fun () ->
    match (p.sid, p.kprime) with
    | None, _ | _, None -> () (* Phase II incomplete: nothing to finalize *)
    | Some sid, Some kprime ->
    let verified =
      match p.role with
      | Outsider -> []
      | Member_of m when not m.active -> []
      | Member_of m ->
        List.filter_map
          (fun j ->
            if j = p.self then begin
              (* own signature, for the cross-checks *)
              match p.p3.(j) with
              | Some (theta, _) ->
                Option.map (fun s -> (j, s)) (Secretbox.open_ ~key:kprime theta)
              | None -> None
            end
            else if not (mac_valid p j) then None
            else
              match p.p3.(j) with
              | None -> None
              | Some (theta, delta) ->
                (match Secretbox.open_ ~key:kprime theta with
                 | None -> None
                 | Some sigma ->
                   let msg = phase3_msg ~sid ~delta in
                   if p.hooks.h_verify m.gsig ~sid ~msg sigma then
                     Some (j, sigma)
                   else None))
          (List.init p.n Fun.id)
    in
    let partners =
      match p.role with
      | Outsider -> []
      | Member_of m ->
        List.sort compare (p.hooks.h_filter ~sid ~gpub:m.gpub verified)
    in
    let accepted = is_genuine p && List.length partners = p.n in
    let session_key =
      if List.length partners >= 2 && List.mem p.self partners then
        Some
          (Hkdf.derive ~ikm:kprime
             ~info:
               ("shs-session" ^ sid
               ^ String.concat "," (List.map string_of_int partners))
             ~len:key_len ())
      else None
    in
    Log.debug (fun f ->
        f "party %d: finalized, accepted=%b, %d partners" p.self accepted
          (List.length partners));
    p.outcome <-
      Some
        { Gcd_types.accepted;
          partners;
          session_key;
          termination = classify ~accepted ~partners;
          sid;
          (* positions whose Phase III message never arrived (timeout /
             crash) have no bytes to trace *)
          transcript = Array.map (Option.value ~default:("", "")) p.p3;
        };
    track_phase p

  (* Phase II-only termination: the tag matrix is the whole outcome. *)
  let finalize_two_phase p =
    Obs.span "gcd.handshake.finalize" @@ fun () ->
    match (p.sid, p.kprime) with
    | None, _ | _, None -> () (* Phase II incomplete: nothing to finalize *)
    | Some sid, Some kprime ->
    let partners =
      if not (is_genuine p) then []
      else
        List.filter (mac_valid p) (List.init p.n Fun.id)
    in
    let accepted = is_genuine p && List.length partners = p.n in
    let session_key =
      if List.length partners >= 2 && List.mem p.self partners then
        Some
          (Hkdf.derive ~ikm:kprime
             ~info:
               ("shs-session2p" ^ sid
               ^ String.concat "," (List.map string_of_int partners))
             ~len:key_len ())
      else None
    in
    p.outcome <-
      Some
        { Gcd_types.accepted;
          partners;
          session_key;
          termination = classify ~accepted ~partners;
          sid;
          transcript = [||];  (* nothing traceable: that is the point *)
        };
    track_phase p

  let all_present arr = Array.for_all Option.is_some arr

  let after_dgka_progress p =
    match (p.kprime, D.result p.dgka, D.aborted p.dgka) with
    | None, Some o, _ -> emit_phase2 p ~key:o.D.key ~sid:o.D.sid
    | None, None, true ->
      (* aborted Phase I: continue with random values so the outside view
         stays simulatable *)
      emit_phase2 p ~key:(p.rng key_len) ~sid:(Sha256.digest (p.rng 32))
    | _ -> []

  let start p =
    let msgs = Obs.span "gcd.handshake.dgka" (fun () -> D.start p.dgka) in
    msgs @ after_dgka_progress p

  let receive p ~src payload =
    if p.outcome <> None then begin
      (* terminal: whatever straggles in now — watchdog retransmissions
         that crossed the finish line, duplicates, adversarial replays —
         is stale.  Counted, never acted on; the wire behavior (silence)
         is identical to the pre-hardening code. *)
      Shs_error.reject ~layer:"gcd" Shs_error.Stale
        ~args:[ ("party", string_of_int p.self); ("src", string_of_int src) ];
      []
    end
    else
      match Wire.decode_strict payload with
      | Error e ->
        (* Never forward undecodable bytes to the DGKA: one flipped bit
           would permanently poison Phase I even though a watchdog
           retransmission could still repair it.  Dropping is
           indistinguishable from channel loss. *)
        Shs_error.decode_error ~layer:"gcd" e;
        []
      | Ok ("hs2", [ mac ]) ->
        if src < 0 || src >= p.n || src = p.self then begin
          Shs_error.reject ~layer:"gcd" Shs_error.Forged
            ~args:[ ("src", string_of_int src) ];
          []
        end
        else begin
          match p.macs.(src) with
          | Some old when not (Hmac.equal_ct old mac) ->
            (* equivocation: a second, different tag for a filled seat;
               first value wins, as for any unordered broadcast *)
            Shs_error.reject ~layer:"gcd" Shs_error.Replayed
              ~args:[ ("src", string_of_int src) ];
            []
          | Some _ -> [] (* exact duplicate: channel noise, not an attack *)
          | None ->
            p.macs.(src) <- Some mac;
            if all_present p.macs && p.kprime <> None && not p.sent_p3 then begin
              if p.two_phase then (finalize_two_phase p; [])
              else emit_phase3 p
            end
            else []
        end
      | Ok ("hs2", _) ->
        Shs_error.reject ~layer:"gcd" Shs_error.Malformed
          ~args:[ ("tag", "hs2") ];
        []
      | Ok ("hs3", [ theta; delta ]) ->
        if src < 0 || src >= p.n || src = p.self then begin
          Shs_error.reject ~layer:"gcd" Shs_error.Forged
            ~args:[ ("src", string_of_int src) ];
          []
        end
        else begin
          match p.p3.(src) with
          | Some (t0, d0)
            when not (Hmac.equal_ct t0 theta && Hmac.equal_ct d0 delta) ->
            Shs_error.reject ~layer:"gcd" Shs_error.Replayed
              ~args:[ ("src", string_of_int src) ];
            []
          | Some _ -> []
          | None ->
            p.p3.(src) <- Some (theta, delta);
            if all_present p.p3 && p.sent_p3 then finalize p;
            []
        end
      | Ok ("hs3", _) ->
        Shs_error.reject ~layer:"gcd" Shs_error.Malformed
          ~args:[ ("tag", "hs3") ];
        []
      | Ok _ ->
        (* everything else belongs to the DGKA sub-protocol *)
        let out = Obs.span "gcd.handshake.dgka" (fun () -> D.receive p.dgka ~src payload) in
        let extra = after_dgka_progress p in
        (* late Phase II/III triggers: all peers' tags may already be in *)
        let extra2 =
          if p.kprime <> None && all_present p.macs && not p.sent_p3
             && p.outcome = None
          then
            if p.two_phase then (finalize_two_phase p; [])
            else emit_phase3 p
          else []
        in
        if p.sent_p3 && all_present p.p3 && p.outcome = None then finalize p;
        out @ extra @ extra2

  let outcome p = p.outcome

  (* A phase timed out: force the party one phase forward, continuing
     with random values where the protocol data never arrived (§7's
     indistinguishable abort).  Progresses by at least one phase per
     call, so repeated application always terminates the party. *)
  let force_progress p =
    Obs.incr timeouts_counter;
    if Obs.events_enabled () then
      Obs.instant "gcd.timeout"
        ~args:
          [ ("party", string_of_int p.self);
            ("phase", string_of_int (phase_of p)) ];
    if p.outcome <> None then []
    else if p.kprime = None then begin
      (* Phase I timed out: abort the DGKA and improvise k' and sid *)
      Log.debug (fun f -> f "party %d: phase I timeout, continuing randomly" p.self);
      emit_phase2 p ~key:(p.rng key_len) ~sid:(Sha256.digest (p.rng 32))
    end
    else if not p.sent_p3 then begin
      (* Phase II timed out: missing tags stay unverified; with
         [allow_partial] the tag matrix decides the partner subset *)
      Log.debug (fun f -> f "party %d: phase II timeout" p.self);
      if p.two_phase then (finalize_two_phase p; []) else emit_phase3 p
    end
    else begin
      (* Phase III timed out: finalize over the (θ, δ) pairs that made it *)
      Log.debug (fun f -> f "party %d: phase III timeout" p.self);
      finalize p;
      []
    end

  (* ---------------------------------------------------------------- *)
  (* Session runner over the simulated network                         *)
  (* ---------------------------------------------------------------- *)

  type participant = {
    p_role : role;
    p_rng : int -> string;
  }

  let participant_of_member m = { p_role = Member_of m; p_rng = m.m_rng }
  let outsider ~rng = { p_role = Outsider; p_rng = rng }

  let run_session ?faults ?watchdog ?adversary ?latency ?(allow_partial = true)
      ?(two_phase = false) ?(hooks = default_hooks) ~fmt participants =
    let n = Array.length participants in
    if n < 2 then invalid_arg "Gcd.run_session: need at least two parties";
    Obs.incr sessions_counter;
    let net = Engine.create ?adversary ?latency ?faults ~n () in
    (* event timelines run on sim time, one trace id per session; the
       engine stamps both into every message envelope *)
    if Obs.events_enabled () then begin
      Obs.set_event_clock (fun () -> Sim.now (Engine.sim net));
      ignore (Obs.new_trace ())
    end;
    Obs.span "gcd.handshake" @@ fun () ->
    let parties =
      Array.mapi
        (fun self pt ->
          make_party ~role:pt.p_role ~self ~n ~fmt ~hooks ~allow_partial
            ~two_phase ~rng:pt.p_rng)
        participants
    in
    (* register on the live gauges; the finally arm deregisters whatever
       phase each party ended in, so a raising session (the fuzzer
       injects raising adversaries) cannot leak gauge population *)
    Obs.gauge_add live_sessions_gauge 1;
    Array.iter (fun p -> Obs.gauge_add phase_gauges.(p.obs_phase) 1) parties;
    (* per-party send history, for watchdog retransmission: the protocol
       state machines ignore exact duplicates, so replaying everything a
       party ever said is safe and repairs any earlier loss.  Bounded
       (stale-phase eviction + hard cap, see {!Retx}) so concurrent
       sessions never hold unbounded byte buffers. *)
    let history = Array.init n (fun _ -> Retx.create ()) in
    Fun.protect
      ~finally:(fun () ->
        Obs.gauge_sub live_sessions_gauge 1;
        Array.iter Retx.clear history;
        Array.iter
          (fun p -> Obs.gauge_sub phase_gauges.(p.obs_phase) 1)
          parties)
    @@ fun () ->
    let emit self msgs =
      Retx.record history.(self) ~phase:(phase_of parties.(self)) msgs;
      if parties.(self).outcome <> None then Retx.clear history.(self);
      List.iter
        (fun (dst, payload) ->
          match dst with
          | None -> Engine.broadcast net ~src:self payload
          | Some dst -> Engine.send net ~src:self ~dst payload)
        msgs
    in
    Array.iteri
      (fun self party ->
        Engine.set_receiver net self (fun ~src ~payload ->
            emit self (receive party ~src payload)))
      parties;
    (* Session watchdog: per-party timers on the Sim clock.  While the
       party's phase marker advances, the timer just re-arms; a stalled
       phase is retransmitted [max_retransmits] times with exponential
       backoff, then forced forward.  Each party therefore reaches a
       terminal outcome (complete / partial / aborted) within a bounded
       number of timer events — no session can hang. *)
    (match watchdog with
     | None -> ()
     | Some wd ->
       if
         not
           (wd.Gcd_types.retransmit_after > 0.0
           && wd.Gcd_types.backoff >= 1.0
           && wd.Gcd_types.phase_grace >= 0)
       then invalid_arg "Gcd.run_session: bad watchdog policy";
       let sim = Engine.sim net in
       let resend self =
         (* frames below every peer's current phase can repair nothing
            anymore: drop them before replaying what remains *)
         let min_peer_phase = ref 3 in
         Array.iteri
           (fun j p ->
             if j <> self then min_peer_phase := min !min_peer_phase (phase_of p))
           parties;
         Retx.evict_stale history.(self) ~min_peer_phase:!min_peer_phase;
         let frames = Retx.frames history.(self) in
         Obs.add retransmissions_counter (List.length frames);
         if Obs.events_enabled () then
           Obs.instant "gcd.retransmit"
             ~args:
               [ ("party", string_of_int self);
                 ("msgs", string_of_int (List.length frames)) ];
         List.iter
           (fun (dst, payload) ->
             match dst with
             | None -> Engine.broadcast net ~src:self payload
             | Some dst -> Engine.send net ~src:self ~dst payload)
           frames
       in
       let rec arm self ~phase ~attempt ~delay =
         Sim.schedule sim ~delay (fun () ->
             if Obs.events_enabled () then
               Obs.set_track ("party-" ^ string_of_int self);
             let p = parties.(self) in
             if p.outcome = None then begin
               let now_phase = phase_of p in
               if now_phase > phase then
                 (* progress since the last tick: fresh timer for the new
                    phase *)
                 arm self ~phase:now_phase ~attempt:0
                   ~delay:wd.Gcd_types.retransmit_after
               else if
                 attempt
                 < wd.Gcd_types.max_retransmits
                   + (wd.Gcd_types.phase_grace * phase)
               then begin
                 resend self;
                 arm self ~phase ~attempt:(attempt + 1)
                   ~delay:(delay *. wd.Gcd_types.backoff)
               end
               else begin
                 emit self (force_progress p);
                 if p.outcome = None then
                   arm self ~phase:(phase_of p) ~attempt:0
                     ~delay:wd.Gcd_types.retransmit_after
               end
             end)
       in
       Array.iteri
         (fun self _ ->
           arm self ~phase:0 ~attempt:0 ~delay:wd.Gcd_types.retransmit_after)
         parties);
    Array.iteri
      (fun self party ->
        if Obs.events_enabled () then
          Obs.set_track ("party-" ^ string_of_int self);
        emit self (start party))
      parties;
    Engine.run net;
    { Gcd_types.outcomes = Array.map outcome parties;
      stats = Engine.stats net;
      duration = Sim.now (Engine.sim net);
    }

  (* A scheme-erased handle for the concurrent-session scheduler
     ({!Shs_engine}): the engine drives seats by index, so the abstract
     [party] type never leaves the functor.  Parties are created here —
     callers that must not pay the DGKA setup cost for sessions that may
     be refused admission should defer the call (the scheduler takes a
     [unit -> driver] thunk for exactly that reason). *)
  let engine_driver ?(allow_partial = true) ?(two_phase = false)
      ?(hooks = default_hooks) ~fmt participants =
    let n = Array.length participants in
    if n < 2 then invalid_arg "Gcd.engine_driver: need at least two parties";
    let parties =
      Array.mapi
        (fun self pt ->
          make_party ~role:pt.p_role ~self ~n ~fmt ~hooks ~allow_partial
            ~two_phase ~rng:pt.p_rng)
        participants
    in
    { Gcd_types.dr_n = n;
      dr_start = (fun self -> start parties.(self));
      dr_receive = (fun self ~src ~payload -> receive parties.(self) ~src payload);
      dr_force = (fun self -> force_progress parties.(self));
      dr_outcome = (fun self -> outcome parties.(self));
      dr_phase = (fun self -> phase_of parties.(self));
      dr_obs_phase = (fun self -> parties.(self).obs_phase);
    }

  (* ---------------------------------------------------------------- *)
  (* GCD.TraceUser                                                     *)
  (* ---------------------------------------------------------------- *)

  (* Recover the participants of a handshake transcript: for each (θ, δ),
     decrypt δ with skT to k', open θ with k', and GSIG.Open the
     signature.  Positions that yield no identity are reported as [None]
     (fakes from failed or foreign-group participants). *)
  let trace_user ga ~sid transcript =
    Obs.span "gcd.trace" @@ fun () ->
    Array.map
      (fun (theta, delta) ->
        match Dhies.decrypt ~sk:ga.trace_sk delta with
        | None -> None
        | Some kprime ->
          if String.length kprime <> key_len then None
          else
            (match Secretbox.open_ ~key:kprime theta with
             | None -> None
             | Some sigma ->
               let msg = phase3_msg ~sid ~delta in
               G.open_ ga.gm ~msg sigma))
      transcript
end
