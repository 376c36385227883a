(* Wall-clock throughput of the multicore replica engine, with the
   Proposition 4 oracle that makes the numbers trustworthy.

   The engine ([Parallel_engine]) runs one replica per domain under a
   real OS schedule, so no two runs deliver messages in the same order.
   Under strong update consistency that must not matter: the state
   reached depends only on the timestamp total order of the update
   multiset (Prop. 4), and every core hands that order out as its
   [certificate] fold. [Oracle] turns the theorem into four clauses over
   the replicas of a quiesced run:

   1. their certificates agree ([Protocol.Certificate.agree]);
   2. every ω answer equals the query on replica 0's certificate folded
      through [apply];
   3. a replica rebuilt by the core's restore path answers the same;
   4. the certificate holds exactly the updates the clients issued.

   Log agreement is no clause of its own: with unique timestamps and no
   entry fabricated, 1 and 4 leave every replica holding exactly the
   issued entries (DESIGN §4f). Any mismatch is a bug in the engine (or
   a domain-safety bug in the cores), never schedule noise — which is
   exactly why the CI smoke can gate on it while throughput numbers
   remain hardware-dependent. [Make] is the one measure over any core:
   the engine run, the oracle, the sequential [Runner] for commutative
   specs, and the flight-recorder replay. [Bench] and [Sharded] are its
   two instantiations, the one core and the sharded space. *)

let dummy_ctx ~pid ~n : _ Protocol.ctx =
  {
    Protocol.pid;
    n;
    now = (fun () -> 0.0);
    send = (fun ~dst:_ _ -> ());
    broadcast = (fun _ -> ());
    broadcast_batch = (fun _ -> ());
    set_timer = (fun ~delay:_ _ -> ());
    count_replay = (fun _ -> ());
    obs = None;
  }

type oracle = {
  certificates_agree : bool;
  omega_matches_fold : bool;
  restore_matches_fold : bool;
  updates_conserved : bool;
  state_repr : string;
}

let clauses o =
  [
    ("certificates agree", o.certificates_agree);
    ("omega = ts-fold", o.omega_matches_fold);
    ("restore = ts-fold", o.restore_matches_fold);
    ("updates conserved", o.updates_conserved);
  ]

let holds o = List.for_all snd (clauses o)

(* [pp x] on one line: under a margin no rendering reaches, no break
   hint breaks. *)
let one_line pp x =
  let b = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_geometry ppf ~max_indent:(1 lsl 29) ~margin:((1 lsl 29) + 1);
  Format.fprintf ppf "%a@?" pp x;
  Buffer.contents b

module Oracle (P : Protocol.PROTOCOL) = struct
  module Cert = Protocol.Certificate (P)
  module Run = Uqadt.Run (P)

  let answer r q =
    let out = ref None in
    P.query r q ~on_result:(fun o -> out := Some o);
    !out

  (* A protocol that keeps no certificate folds nothing, so clauses 2
     and 4 fail as soon as one update was issued. *)
  let check ~restore ~final_read ~issued ~outputs replicas =
    let r0 = replicas.(0) in
    let updates =
      Option.value ~default:[] (P.certificate r0 (fun _ u acc -> u :: acc) [])
    in
    let folded = Run.final_state updates in
    let expected = P.eval folded final_read in
    let matches o = P.equal_output o expected in
    {
      certificates_agree = Cert.agree (Array.to_list replicas);
      omega_matches_fold =
        outputs <> [] && List.for_all (fun (_, o) -> matches o) outputs;
      restore_matches_fold =
        (match Option.bind (restore r0) (fun r -> answer r final_read) with
        | Some o -> matches o
        | None -> false);
      updates_conserved = List.length updates = issued;
      state_repr = one_line P.pp_state folded;
    }
end

(* Wall-clock time series from a merged recorder stream: per-pid
   cumulative counters snapshotted on a fixed cadence of the recorded
   wall clock. Spec-agnostic — only event kinds matter — so it lives
   outside the functor. The stream is walked in merge order; the tick
   clock is the running max of the wall stamps (domains share one
   clock, but the Lamport merge is not exactly wall-sorted). *)
let series_of_events ?(interval = 0.01) ?sink events =
  let reg = Obs.Registry.create () in
  let sampler = Obs.Series.sampler ~registry:reg ~interval () in
  (match sink with None -> () | Some s -> Obs.Series.set_sink sampler s);
  let counter pid name =
    Obs.Registry.counter reg ~labels:[ ("pid", string_of_int pid) ] name
  in
  let now = ref 0.0 in
  List.iter
    (fun ev ->
      now := Float.max !now (Obs.Recorder.event_wall ev);
      (match (ev : Obs.Recorder.event) with
      | Invoke_update { pid; _ } ->
        Obs.Registry.inc (counter pid "ops");
        Obs.Registry.inc (counter pid "updates")
      | Invoke_query { pid; _ } -> Obs.Registry.inc (counter pid "ops")
      | Send { pid; count; _ } ->
        Obs.Registry.inc (counter pid "frames_sent");
        Obs.Registry.inc ~by:count (counter pid "messages_sent")
      | Deliver { pid; count; _ } ->
        Obs.Registry.inc ~by:count (counter pid "messages_received")
      | Stall { pid; _ } -> Obs.Registry.inc (counter pid "mailbox_stalls"));
      Obs.Series.maybe_tick sampler ~now:!now)
    events;
  (* Force a closing sample so short runs still chart. *)
  if events <> [] then Obs.Series.tick sampler ~now:!now;
  Obs.Series.store sampler

(* One script per domain, each drawn from its own [Prng.fork] child of a
   root seeded by the caller: the whole workload is a pure function of
   its arguments, and no two domains walk correlated streams. *)
let per_domain ~seed ~domains script =
  let root = Prng.create seed in
  Array.init domains (fun _ -> script (Prng.fork root))

module type MEASURE = sig
  module P : Protocol.PROTOCOL
  module E : module type of Parallel_engine.Make (P)
  module Mon : module type of Obs.Monitor.Make (P)

  type recording = {
    events : Obs.Recorder.event list;
    journal : Obs.Journal.t;
    fingerprint : string;
    replay : (string, string) result;
    monitor : Mon.t option;
  }

  type verdict = {
    run : E.result;
    latency : Stats.summary option;
    issued : int;
    oracle : oracle;
    runner_matches : bool option;
    journal_replay : bool option;
    recording : recording option;
  }

  val ok : verdict -> bool

  val measure :
    ?mailbox_capacity:int ->
    ?batch_every:int ->
    ?flush_window:int ->
    ?obs:Obs.t ->
    ?recorder:Obs.Recorder.t ->
    ?monitor:Obs.Monitor.criterion list ->
    ?journal_header:(string * Obs.Json.t) list ->
    domains:int ->
    final_read:P.query ->
    scripts:(P.update, P.query) Protocol.invocation list array ->
    unit ->
    verdict

  val history_of_events :
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
    query_outputs:P.output list array ->
    omega_outputs:(int * P.output) list ->
    Obs.Recorder.event list ->
    (P.update, P.query, P.output) History.t

  val journal_of_events :
    ?header:(string * Obs.Json.t) list ->
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
    query_outputs:P.output list array ->
    omega_outputs:(int * P.output) list ->
    Obs.Recorder.event list ->
    Obs.Journal.t

  val replay_journal :
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
    Obs.Journal.t ->
    (string, string) result

  val feed_monitor :
    criteria:Obs.Monitor.criterion list ->
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
    query_outputs:P.output list array ->
    omega_outputs:(int * P.output) list ->
    Obs.Recorder.event list ->
    Mon.t
end

(* The one measure. The cores differ in two things only, which [R]
   supplies: how a fresh replica is rebuilt from a converged one
   (clause 3), and how many certificate entries an update issues
   (clause 4). *)
module Make
    (P : Protocol.PROTOCOL)
    (R : sig
      val restore : into:P.t -> P.t -> bool
      val entries : P.update -> int
    end) =
struct
  module E = Parallel_engine.Make (P)
  module O = Oracle (P)
  module Seq = Runner.Make (P)
  module Mon = Obs.Monitor.Make (P)

  type recording = {
    events : Obs.Recorder.event list;  (* merged (lamport, pid, seq) *)
    journal : Obs.Journal.t;  (* rebuilt from the stream, sealed *)
    fingerprint : string;  (* recorded history's fingerprint *)
    replay : (string, string) result;
        (* [Ok fp]: the sequential core, fed the recorded per-replica
           delivery order, reproduced the footer fingerprint *)
    monitor : Mon.t option;  (* when criteria were requested *)
  }

  type verdict = {
    run : E.result;
    latency : Stats.summary option;
    issued : int;  (* certificate entries the scripts issue *)
    oracle : oracle;
    runner_matches : bool option;  (* [None] for non-commutative specs *)
    journal_replay : bool option;  (* [None] when no recorder was attached *)
    recording : recording option;
  }

  let ok v =
    holds v.oracle && v.runner_matches <> Some false
    && v.journal_replay <> Some false

  (* ------------------- recorded-stream resolution -------------------
     The recorder stores no payloads: an [Invoke_update] record says "my
     domain issued its next script entry", nothing more. Because the
     scripts are pure functions of the seed and the merge preserves every
     domain's program order, walking the merged stream with one script
     cursor per domain re-associates every record with its typed update,
     query, and output. A misalignment means the stream and the scripts
     disagree — that is a corrupt recording, reported loudly. *)

  let stream_error fmt = Printf.ksprintf failwith fmt

  (* Walk the merged stream, resolving invocations to typed values.
     [on_update] and [on_query] receive the event's index in the merged
     stream — which is also its journal event index. *)
  let walk_stream ~scripts ~(final_read : P.query) ~query_outputs
      ~omega_outputs ~on_update ~on_query ~on_other events =
    let cursors = Array.map (fun s -> ref s) scripts in
    let out_cursors = Array.map (fun o -> ref o) query_outputs in
    let next_inv pid =
      match !(cursors.(pid)) with
      | [] -> stream_error "recorded stream: domain %d invoked past its script" pid
      | inv :: rest ->
        cursors.(pid) := rest;
        inv
    in
    let next_out pid =
      match !(out_cursors.(pid)) with
      | [] ->
        stream_error "recorded stream: domain %d has no recorded query output"
          pid
      | o :: rest ->
        out_cursors.(pid) := rest;
        o
    in
    List.iteri
      (fun index ev ->
        match (ev : Obs.Recorder.event) with
        | Invoke_update { pid; wall; _ } -> (
          match next_inv pid with
          | Protocol.Invoke_update u -> on_update ~pid ~index ~wall u
          | Protocol.Invoke_query _ ->
            stream_error
              "recorded stream: domain %d recorded an update where its \
               script has a query"
              pid)
        | Invoke_query { pid; wall; omega = false; _ } -> (
          match next_inv pid with
          | Protocol.Invoke_query q ->
            on_query ~pid ~index ~wall ~omega:false q (next_out pid)
          | Protocol.Invoke_update _ ->
            stream_error
              "recorded stream: domain %d recorded a query where its \
               script has an update"
              pid)
        | Invoke_query { pid; wall; omega = true; _ } -> (
          match List.assoc_opt pid omega_outputs with
          | Some o -> on_query ~pid ~index ~wall ~omega:true final_read o
          | None ->
            stream_error "recorded stream: domain %d has no recorded ω answer"
              pid)
        | Send _ | Deliver _ | Stall _ -> on_other ~index ev)
      events;
    Array.iteri
      (fun pid c ->
        if !c <> [] then
          stream_error
            "recorded stream: domain %d stopped %d invocation(s) short of \
             its script"
            pid (List.length !c))
      cursors

  (* The recorded history: one line per domain, in program order, ω
     read last — exactly what [History.make] wants. *)
  let history_of_events ~scripts ~final_read ~query_outputs ~omega_outputs
      events =
    let lines = Array.make (Array.length scripts) [] in
    walk_stream ~scripts ~final_read ~query_outputs ~omega_outputs events
      ~on_update:(fun ~pid ~index:_ ~wall:_ u ->
        lines.(pid) <- History.U u :: lines.(pid))
      ~on_query:(fun ~pid ~index:_ ~wall:_ ~omega q o ->
        lines.(pid) <-
          (if omega then History.Qw (q, o) else History.Q (q, o))
          :: lines.(pid))
      ~on_other:(fun ~index:_ _ -> ());
    History.make (Array.to_list (Array.map List.rev lines))

  let history_fingerprint h =
    History.fingerprint P.pp_update P.pp_query P.pp_output h

  (* Rebuild a standard journal from the merged stream. Frame arrival
     times are patched from the matching deliver record (per-(src,dst)
     FIFO — the mailbox preserves per-producer order); a frame still in
     flight when the stream ends keeps its send time. *)
  let journal_of_events ?(header = []) ~scripts ~final_read ~query_outputs
      ~omega_outputs events =
    let arr = Array.of_list events in
    let arrival = Array.map Obs.Recorder.event_wall arr in
    let pending = Hashtbl.create 64 in
    Array.iteri
      (fun i ev ->
        match (ev : Obs.Recorder.event) with
        | Send { pid; dst; _ } ->
          let key = (pid, dst) in
          let q =
            match Hashtbl.find_opt pending key with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.add pending key q;
              q
          in
          Queue.push i q
        | Deliver { pid; src; wall; _ } -> (
          match Hashtbl.find_opt pending (src, pid) with
          | Some q when not (Queue.is_empty q) ->
            arrival.(Queue.pop q) <- wall
          | _ ->
            stream_error
              "recorded stream: deliver %d->%d without a matching send" src
              pid)
        | _ -> ())
      arr;
    let journal = Obs.Journal.create ~header () in
    walk_stream ~scripts ~final_read ~query_outputs ~omega_outputs events
      ~on_update:(fun ~pid ~index:_ ~wall u ->
        Obs.Journal.record journal
          (Obs.Journal.Update
             {
               pid;
               time = wall;
               span = None;
               label = Format.asprintf "%a" P.pp_update u;
             }))
      ~on_query:(fun ~pid ~index:_ ~wall ~omega q o ->
        Obs.Journal.record journal
          (Obs.Journal.Query
             {
               pid;
               invoked = wall;
               completed = wall;
               span = None;
               label = Format.asprintf "%a" P.pp_query q;
               output = Format.asprintf "%a" P.pp_output o;
               omega;
             }))
      ~on_other:(fun ~index ev ->
        match (ev : Obs.Recorder.event) with
        | Send { pid; dst; count; bytes; wall; _ } ->
          Obs.Journal.record journal
            (Obs.Journal.Frame
               {
                 src = pid;
                 dst;
                 count;
                 bytes;
                 sent = wall;
                 arrival = arrival.(index);
                 spans = List.init count (fun _ -> None);
               })
        | Deliver { pid; src; count; wall; _ } ->
          Obs.Journal.record journal
            (Obs.Journal.Deliver { src; dst = pid; count; time = wall })
        | Stall { pid; dst; wall; _ } ->
          Obs.Journal.record journal
            (Obs.Journal.Stall { pid; dst; time = wall })
        | Invoke_update _ | Invoke_query _ -> assert false);
    let fp =
      history_fingerprint
        (history_of_events ~scripts ~final_read ~query_outputs ~omega_outputs
           events)
    in
    Obs.Journal.seal journal ~fingerprint:fp;
    journal

  (* ------------------------- replay bridge --------------------------
     Re-execute a recorded journal on the sequential core: one [P]
     replica per domain whose sends are captured into per-(src,dst) FIFO
     queues, so a [Deliver] journal event pops exactly the messages the
     recorded frame carried. The per-replica event order reproduces each
     replica's timestamp evolution, hence its outputs, hence the history
     fingerprint — Proposition 4 made executable. *)

  let replay_journal ~scripts ~(final_read : P.query) journal =
    let n = Array.length scripts in
    let queues = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ())) in
    let capture_ctx pid : _ Protocol.ctx =
      {
        Protocol.pid;
        n;
        now = (fun () -> 0.0);
        send = (fun ~dst msg -> Queue.push msg queues.(pid).(dst));
        broadcast =
          (fun msg ->
            for dst = 0 to n - 1 do
              if dst <> pid then Queue.push msg queues.(pid).(dst)
            done);
        broadcast_batch =
          (fun msgs ->
            for dst = 0 to n - 1 do
              if dst <> pid then
                List.iter (fun m -> Queue.push m queues.(pid).(dst)) msgs
            done);
        set_timer = (fun ~delay:_ _ -> ());
        count_replay = (fun _ -> ());
        obs = None;
      }
    in
    let replicas = Array.init n (fun pid -> P.create (capture_ctx pid)) in
    let cursors = Array.map (fun s -> ref s) scripts in
    let lines = Array.make n [] in
    let next_inv pid =
      match !(cursors.(pid)) with
      | [] -> stream_error "replay: domain %d invoked past its script" pid
      | inv :: rest ->
        cursors.(pid) := rest;
        inv
    in
    try
      List.iter
        (fun ev ->
          match (ev : Obs.Journal.event) with
          | Update { pid; _ } -> (
            match next_inv pid with
            | Protocol.Invoke_update u ->
              P.update replicas.(pid) u ~on_done:ignore;
              lines.(pid) <- History.U u :: lines.(pid)
            | Protocol.Invoke_query _ ->
              stream_error "replay: update event where script has a query")
          | Query { pid; omega = false; _ } -> (
            match next_inv pid with
            | Protocol.Invoke_query q -> (
              match O.answer replicas.(pid) q with
              | Some o -> lines.(pid) <- History.Q (q, o) :: lines.(pid)
              | None -> stream_error "replay: query returned no output")
            | Protocol.Invoke_update _ ->
              stream_error "replay: query event where script has an update")
          | Query { pid; omega = true; _ } -> (
            match O.answer replicas.(pid) final_read with
            | Some o -> lines.(pid) <- History.Qw (final_read, o) :: lines.(pid)
            | None -> stream_error "replay: ω read returned no output")
          | Deliver { src; dst; count; _ } ->
            (* Pop the recorded frame's messages as one envelope and
               deliver them through the same batch entry point the
               parallel engine used, so the replay leg exercises the
               coalesced path it is certifying. *)
            let msgs = ref [] in
            for _ = 1 to count do
              if Queue.is_empty queues.(src).(dst) then
                stream_error
                  "replay: deliver %d->%d exceeds the captured sends" src dst;
              msgs := Queue.pop queues.(src).(dst) :: !msgs
            done;
            P.receive_batch replicas.(dst) ~src (List.rev !msgs)
          | Frame _ | Stall _ -> ()
          | Drop _ | Crash _ | Join _ | Leave _ | Partition _ | Probe _
          | Rebalance _ | Shard _ | Alert _ ->
            stream_error "replay: journal carries sequential-engine events")
        (Obs.Journal.events journal);
      let h = History.make (Array.to_list (Array.map List.rev lines)) in
      let fp = history_fingerprint h in
      match Obs.Journal.fingerprint journal with
      | Some recorded when recorded = fp -> Ok fp
      | Some recorded ->
        Error
          (Printf.sprintf "fingerprint mismatch: recorded %s, replayed %s"
             recorded fp)
      | None -> Error "journal has no fingerprint (unsealed recording)"
    with Failure msg -> Error msg

  (* Feed the merged stream through the online monitors — the same
     resolution walk the journal builder uses, so a violation's [index]
     is the journal event index. *)
  let feed_monitor ~criteria ~scripts ~final_read ~query_outputs
      ~omega_outputs events =
    let mon = Mon.create ~n:(Array.length scripts) ~criteria in
    walk_stream ~scripts ~final_read ~query_outputs ~omega_outputs events
      ~on_update:(fun ~pid ~index ~wall:_ u ->
        Mon.on_update mon ~pid ~index ~span:None u)
      ~on_query:(fun ~pid ~index ~wall:_ ~omega q o ->
        Mon.on_query mon ~pid ~index ~span:None ~omega q o)
      ~on_other:(fun ~index:_ _ -> ());
    mon

  let issued scripts =
    Array.fold_left
      (List.fold_left (fun acc -> function
         | Protocol.Invoke_update u -> acc + R.entries u
         | Protocol.Invoke_query _ -> acc))
      0 scripts

  let measure ?(mailbox_capacity = 1024) ?(batch_every = 1) ?(flush_window = 0)
      ?obs ?recorder ?monitor ?journal_header ~domains ~final_read ~scripts () =
    let cfg =
      {
        E.domains;
        mailbox_capacity;
        batch_every;
        flush_window;
        final_read = Some final_read;
        obs;
        recorder;
      }
    in
    let run = E.run cfg ~workload:scripts in
    let restore r =
      let fresh = P.create (dummy_ctx ~pid:0 ~n:domains) in
      if R.restore ~into:fresh r then Some fresh else None
    in
    let issued = issued scripts in
    let oracle =
      O.check ~restore ~final_read ~issued ~outputs:run.E.outputs
        run.E.replicas
    in
    (* Sound only under commutativity: the virtual-time runner assigns
       different timestamps, and order-independence is what erases that
       difference. *)
    let runner_matches =
      if not P.commutative then None
      else begin
        let sc =
          {
            (Seq.default_config ~n:domains ~seed:0) with
            Seq.final_read = Some final_read;
          }
        in
        let sr = Seq.run sc ~workload:scripts in
        Some
          (match sr.Seq.final_outputs with
          | (_, o) :: _ ->
            sr.Seq.converged
            && List.for_all (fun (_, e) -> P.equal_output o e) run.E.outputs
          | [] -> false)
      end
    in
    let recording =
      match recorder with
      | None -> None
      | Some r ->
        let events = Obs.Recorder.events r in
        let query_outputs = run.E.query_outputs in
        let omega_outputs = run.E.outputs in
        let journal =
          journal_of_events ?header:journal_header ~scripts ~final_read
            ~query_outputs ~omega_outputs events
        in
        let fingerprint = Option.get (Obs.Journal.fingerprint journal) in
        let replay = replay_journal ~scripts ~final_read journal in
        let monitor =
          Option.map
            (fun criteria ->
              feed_monitor ~criteria ~scripts ~final_read ~query_outputs
                ~omega_outputs events)
            monitor
        in
        Some { events; journal; fingerprint; replay; monitor }
    in
    {
      run;
      latency = E.latency_summary run;
      issued;
      oracle;
      runner_matches;
      journal_replay =
        Option.map
          (fun r -> match r.replay with Ok _ -> true | Error _ -> false)
          recording;
      recording;
    }
end

module Bench (A : Uqadt.S) = struct
  module G = Generic.Make (A)

  (* The sequential core restores the converged log through the exact
     persistence-restore path the crash-recovery tests exercise. *)
  include
    Make
      (G)
      (struct
        let restore ~into r =
          G.restore_log into (G.local_log r);
          true

        let entries _ = 1
      end)

  let uniform_scripts ~seed ~domains ~ops ~query_ratio =
    per_domain ~seed ~domains (fun g ->
        (* explicit loop: the draw order is part of the determinism
           contract, and [List.init]'s evaluation order is not *)
        let acc = ref [] in
        for _ = 1 to ops do
          let inv =
            if query_ratio > 0.0 && Prng.float g 1.0 < query_ratio then
              Protocol.Invoke_query (A.random_query g)
            else Protocol.Invoke_update (A.random_update g)
          in
          acc := inv :: !acc
        done;
        List.rev !acc)
end

(* The set space under the same oracle: one Lamport clock per shard,
   and every shard's entries in the one certificate, merged in
   timestamp order. A client batch of width w issues w certificate
   entries, and the whole-space snapshot/absorb pair that churn
   catch-up rides is the restore path. *)
module Sharded = struct
  module S = Space.Make (Set_spec) (Update_codec.For_set)

  include
    Make
      (S)
      (struct
        let restore ~into r =
          match S.snapshot r with Some frame -> S.absorb into frame | None -> false

        let entries = List.length
      end)

  let zipf_scripts ~seed ~domains ~ops ~keys ~skew ~fanout ~query_ratio =
    per_domain ~seed ~domains (fun rng ->
        (Workload.For_space.zipf_scripts ~rng ~n:1 ~ops_per_process:ops ~keys
           ~skew ~fanout ~query_ratio ~update:Set_spec.random_update
           ~query:Set_spec.random_query
           ~read:(fun k q -> S.K.Read (k, q))).(0))
end

(* The Zipf-skewed or-set workload the sequential experiments use,
   cut per domain: hot keys are shared across every domain, so late
   arrivals really do land mid-log and the engine's convergence is
   tested under genuine contention. *)
let set_zipf_scripts ~seed ~domains ~ops ~skew ~delete_ratio =
  per_domain ~seed ~domains (fun rng ->
      (Workload.For_set.conflict ~rng ~n:1 ~ops_per_process:ops ~domain:512
         ~skew ~delete_ratio).(0))
