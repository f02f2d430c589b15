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

  let timeouts_counter =
    Obs.counter ~help:"handshake phase timeouts forced by the watchdog"
      "gcd.timeouts"
  let linger_counter =
    Obs.counter ~help:"final-phase answers sent by terminal seats to a lagging peer"
      "gcd.linger_answers"

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
    mutable gave_up : int;
    (* the last phase the watchdog stopped waiting in (-1: none); that
       phase goes on with whatever data arrived *)
    evidence : int array;
    (* per peer, the highest phase stamp of a well-formed frame received
       from it (-1: nothing yet); the watchdog's resend reads it *)
    answered : bool array;  (* peers a terminal seat has answered *)
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
      gave_up = -1;
      evidence = Array.make n (-1);
      answered = Array.make n false;
    }

  (* A seat's progress: strictly increases as the party progresses, so
     a stalled marker means the current phase lost a message.  The
     watchdog and the live-phase gauges both read it. *)
  let phase_of p =
    if p.outcome <> None then 3
    else if p.sent_p3 then 2
    else if p.kprime <> None then 1
    else 0

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

  (* The outcome.  Three-phase partners are the seats whose tag and
     signed pair verify, after the hooks' cross-checks; two-phase
     partners (the §7 remark) are decided by the tag matrix alone. *)
  let finalize p =
    Obs.span "gcd.handshake.finalize" @@ fun () ->
    match (p.sid, p.kprime) with
    | None, _ | _, None -> () (* Phase II incomplete: nothing to finalize *)
    | Some sid, Some kprime ->
    let verified =
      match p.role with
      | Outsider -> []
      | Member_of m when p.two_phase || not m.active -> []
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
      | Member_of _ when p.two_phase ->
        if is_genuine p then List.filter (mac_valid p) (List.init p.n Fun.id)
        else []
      | Member_of m ->
        List.sort compare (p.hooks.h_filter ~sid ~gpub:m.gpub verified)
    in
    let accepted = is_genuine p && List.length partners = p.n in
    let session_key =
      if List.length partners >= 2 && List.mem p.self partners then
        Some
          (Hkdf.derive ~ikm:kprime
             ~info:
               ((if p.two_phase then "shs-session2p" else "shs-session") ^ sid
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
          transcript =
            (if p.two_phase then [||]  (* nothing traceable: that is the point *)
             else
               (* positions whose Phase III message never arrived
                  (timeout / crash) have no bytes to trace *)
               Array.map (Option.value ~default:("", "")) p.p3);
        }

  let all_present arr = Array.for_all Option.is_some arr

  (* The one progress rule: move the seat as far as the data it holds
     allows.  Phase II starts once k* is agreed, Phase III once every
     tag is in (two-phase mode finalizes there), the outcome once every
     (θ, δ) pair is in.  A phase the watchdog gave up on goes on with
     whatever arrived; an aborted or abandoned Phase I goes on with a
     random k' and sid, so the outside view stays simulatable (§7). *)
  let rec advance p =
    let step =
      if p.outcome <> None then None
      else if p.kprime = None then begin
        match D.result p.dgka with
        | Some o -> Some (emit_phase2 p ~key:o.D.key ~sid:o.D.sid)
        | None when D.aborted p.dgka || p.gave_up >= 0 ->
          Some (emit_phase2 p ~key:(p.rng key_len) ~sid:(Sha256.digest (p.rng 32)))
        | None -> None
      end
      else if not p.sent_p3 then
        if not (all_present p.macs || p.gave_up >= 1) then None
        else if p.two_phase then (finalize p; Some [])
        else Some (emit_phase3 p)
      else if all_present p.p3 || p.gave_up >= 2 then (finalize p; Some [])
      else None
    in
    match step with
    | None -> []
    | Some out -> out @ advance p

  let start p =
    let msgs = Obs.span "gcd.handshake.dgka" (fun () -> D.start p.dgka) in
    msgs @ advance p

  (* Phase stamp of a decoded frame: DGKA traffic is 0, the Phase II
     tag 1 and the Phase III pair 2; a tag frame of the wrong shape has
     none. *)
  let stamp_of_frame = function
    | "hs2", [ _ ] -> Some 1
    | "hs3", [ _; _ ] -> Some 2
    | ("hs2" | "hs3"), _ -> None
    | _ -> Some 0

  let is_peer p src = src >= 0 && src < p.n && src <> p.self

  let note_evidence p ~src frame =
    match stamp_of_frame frame with
    | Some q when is_peer p src && q > p.evidence.(src) -> p.evidence.(src) <- q
    | _ -> ()

  (* the stamp of a seat's last broadcast: its tag in two-phase mode,
     its (θ, δ) pair otherwise *)
  let final_phase p = if p.two_phase then 1 else 2

  (* the seat's own frames stamped above [q], re-encoded from what it
     kept: its tag, then its (θ, δ) pair *)
  let own_frames_above p q =
    let hs2 =
      match p.macs.(p.self) with
      | Some mac when q < 1 -> [ Wire.encode ~tag:"hs2" [ mac ] ]
      | _ -> []
    in
    let hs3 =
      match p.p3.(p.self) with
      | Some (theta, delta) when q < 2 -> [ Wire.encode ~tag:"hs3" [ theta; delta ] ]
      | _ -> []
    in
    hs2 @ hs3

  (* Terminal: whatever straggles in now (retransmissions that crossed
     the finish line, duplicates, adversarial replays) is stale and
     counted.  A frame from a peer stamped below this seat's final phase
     says the peer is still retransmitting an earlier phase, so it may
     lack this seat's last broadcast, whose copy the channel can have
     lost.  Like TCP's TIME-WAIT (RFC 9293), the seat answers it once
     per peer, point to point, with its own frames stamped above the
     trigger.  The answer reads the trigger and the seat's own frames,
     never its outcome, so Complete, Partial and Aborted seats answer
     alike (§7); the once-per-peer bound keeps a replayer from using a
     finished seat as an amplifier. *)
  let linger p ~src payload =
    Shs_error.reject ~layer:"gcd" Shs_error.Stale
      ~args:[ ("party", string_of_int p.self); ("src", string_of_int src) ];
    if is_peer p src && not p.answered.(src) then
      match Wire.decode_strict payload with
      | Error _ -> []
      | Ok frame ->
        (match stamp_of_frame frame with
         | Some q when q < final_phase p ->
           p.answered.(src) <- true;
           Obs.incr linger_counter;
           if Obs.events_enabled () then
             Obs.instant "gcd.linger"
               ~args:
                 [ ("party", string_of_int p.self);
                   ("peer", string_of_int src) ];
           List.map (fun msg -> (Some src, msg)) (own_frames_above p q)
         | Some _ | None -> [])
    else []

  (* A peer's tag or pair slot is filled once.  A frame from no peer is
     forged; a second, different value for a filled slot is
     equivocation, and the first value wins, as for any unordered
     broadcast; an exact duplicate is channel noise, not an attack. *)
  let fill_once p slots ~src ~same v =
    if not (is_peer p src) then
      Shs_error.reject ~layer:"gcd" Shs_error.Forged
        ~args:[ ("src", string_of_int src) ]
    else
      match slots.(src) with
      | None -> slots.(src) <- Some v
      | Some old when not (same old v) ->
        Shs_error.reject ~layer:"gcd" Shs_error.Replayed
          ~args:[ ("src", string_of_int src) ]
      | Some _ -> ()

  let receive p ~src payload =
    if p.outcome <> None then linger p ~src payload
    else
      let out =
        match Wire.decode_strict payload with
        | Error e ->
          (* Never forward undecodable bytes to the DGKA: one flipped bit
             would permanently poison Phase I even though a watchdog
             retransmission could still repair it.  Dropping is
             indistinguishable from channel loss. *)
          Shs_error.decode_error ~layer:"gcd" e;
          []
        | Ok frame ->
          note_evidence p ~src frame;
          (match frame with
           | "hs2", [ mac ] ->
             fill_once p p.macs ~src ~same:Hmac.equal_ct mac;
             []
           | "hs3", [ theta; delta ] ->
             fill_once p p.p3 ~src
               ~same:(fun (t0, d0) (t1, d1) ->
                 Hmac.equal_ct t0 t1 && Hmac.equal_ct d0 d1)
               (theta, delta);
             []
           | (("hs2" | "hs3") as tag), _ ->
             Shs_error.reject ~layer:"gcd" Shs_error.Malformed
               ~args:[ ("tag", tag) ];
             []
           | _ ->
             (* everything else belongs to the DGKA sub-protocol *)
             Obs.span "gcd.handshake.dgka" (fun () ->
                 D.receive p.dgka ~src payload))
      in
      out @ advance p

  let outcome p = p.outcome

  (* A phase timed out: stop waiting for its data and advance, with
     random values where the protocol data never arrived (§7's
     indistinguishable abort).  Each call moves the party at least one
     phase forward, so repeated application always terminates it. *)
  let force_progress p =
    Obs.incr timeouts_counter;
    if Obs.events_enabled () then
      Obs.instant "gcd.timeout"
        ~args:
          [ ("party", string_of_int p.self);
            ("phase", string_of_int (phase_of p)) ];
    Log.debug (fun f -> f "party %d: phase %d timeout" p.self (phase_of p));
    p.gave_up <- phase_of p;
    advance p

  (* ---------------------------------------------------------------- *)
  (* Session runner over the simulated network                         *)
  (* ---------------------------------------------------------------- *)

  type participant = {
    p_role : role;
    p_rng : int -> string;
  }

  let participant_of_member m = { p_role = Member_of m; p_rng = m.m_rng }
  let outsider ~rng = { p_role = Outsider; p_rng = rng }

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
      dr_peer_phase = (fun self peer -> parties.(self).evidence.(peer));
    }

  (* One session is a one-session {!Shs_engine}: each delivery is
     handled on arrival (service time 0) and nothing is ever shed
     (infinite deadline), so the engine's watchdog ladder is the whole
     driver.  A seat that raises poisons the session; its exception is
     re-raised here once the scheduler has drained. *)
  let run_session ?faults ?watchdog ?adversary ?latency ?allow_partial
      ?two_phase ?hooks ~fmt participants =
    if Array.length participants < 2 then
      invalid_arg "Gcd.run_session: need at least two parties";
    Obs.incr sessions_counter;
    let engine =
      Shs_engine.create
        ~config:
          { Shs_engine.default_config with
            Shs_engine.service_time = 0.0;
            deadline = Float.infinity;
            watchdog;
          }
        ()
    in
    Obs.span "gcd.handshake" @@ fun () ->
    let net =
      match
        Shs_engine.submit engine ?faults ?adversary ?latency (fun () ->
            engine_driver ?allow_partial ?two_phase ?hooks ~fmt participants)
      with
      | Shs_engine.Admitted sid -> Shs_engine.network engine sid
      | Shs_engine.Rejected -> None
    in
    Shs_engine.run engine;
    match (Shs_engine.reports engine, net) with
    | [ { Shs_engine.r_error = Some exn; _ } ], _ -> raise exn
    | [ r ], Some net ->
      { Gcd_types.outcomes = r.Shs_engine.r_outcomes;
        stats = Engine.stats net;
        duration = r.Shs_engine.r_finished -. r.Shs_engine.r_admitted;
      }
    | _ -> failwith "Gcd.run_session: the session left no report"

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
