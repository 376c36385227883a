(* Growable columns for what a run records, created at the size the
   scripts call for and doubling if that is passed. The float column is
   unboxed and its accessors are inlined, so appending or setting a
   time boxes nothing. *)
module Floats = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create capacity = { data = Float.Array.create capacity; len = 0 }

  let grow c =
    let data = Float.Array.create (max 1 (2 * c.len)) in
    Float.Array.blit c.data 0 data 0 c.len;
    c.data <- data

  let[@inline] push c x =
    if c.len = Float.Array.length c.data then grow c;
    Float.Array.unsafe_set c.data c.len x;
    c.len <- c.len + 1

  let[@inline] set c i x = Float.Array.set c.data i x
end

module Column = struct
  type 'a t = { mutable data : 'a array; mutable len : int; capacity : int }

  (* The array is made at the first push, which supplies its filler. *)
  let create capacity = { data = [||]; len = 0; capacity }

  let push c x =
    if c.len = Array.length c.data then begin
      let size = if c.len = 0 then max 1 c.capacity else 2 * c.len in
      let data = Array.make size x in
      Array.blit c.data 0 data 0 c.len;
      c.data <- data
    end;
    Array.unsafe_set c.data c.len x;
    c.len <- c.len + 1

  let get c i = c.data.(i)
end

module Make (P : Protocol.PROTOCOL) = struct
  module Mon = Obs.Monitor.Make (P)
  module Cert = Protocol.Certificate (P)

  type action = (P.update, P.query) Protocol.invocation

  type config = {
    seed : int;
    n : int;
    delay : Network.delay_model;
    fifo : bool;
    partitions : Network.partition list;
    crashes : (float * int) list;
    churn : Network.churn_event list;
    think : Network.delay_model;
    final_read : P.query option;
    deadline : float;
    trace : bool;
    batch_window : float option;
    envelope : int;
    obs : Obs.t option;
    probe_interval : float option;
    fingerprint : (P.t -> string) option;
    monitor : Mon.t option;
    sampler : Obs.Series.sampler option;
  }

  let default_config ~n ~seed =
    {
      seed;
      n;
      delay = Network.Uniform { lo = 1.0; hi = 10.0 };
      fifo = false;
      partitions = [];
      crashes = [];
      churn = [];
      think = Network.Exponential { mean = 5.0 };
      final_read = None;
      deadline = 1e7;
      trace = false;
      batch_window = None;
      envelope = 0;
      obs = None;
      probe_interval = None;
      fingerprint = None;
      monitor = None;
      sampler = None;
    }

  let config_of_spec ?(trace = false) ~final_read (ob : Run_spec.observers)
      (s : Run_spec.sequential) =
    let base = default_config ~n:s.n ~seed:s.seed in
    {
      base with
      delay = Network.Exponential { mean = s.mean_delay };
      fifo = s.fifo;
      partitions = s.partitions;
      crashes = s.crashes;
      churn = s.churn;
      final_read;
      deadline =
        (match s.soak with
        | Some { duration = Some d; _ } -> d
        | _ -> base.deadline);
      trace;
      batch_window = s.batch_window;
      obs = ob.obs;
      probe_interval = s.probe_interval;
      monitor =
        (if s.monitors = [] then None
         else Some (Mon.create ~n:s.n ~criteria:s.monitors));
      sampler = ob.sampler;
    }

  (* Per-replica registry handles for the operation-level series the
     runner itself records. *)
  type runner_obs = {
    upd : Obs.Registry.counter array;
    qry : Obs.Registry.counter array;
    comp : Obs.Registry.counter array;
    rep : Obs.Registry.counter array;
    lat : Obs.Registry.hist array;
  }

  type result = {
    history : (P.update, P.query, P.output) History.t;
    metrics : Metrics.t;
    op_latencies : Float.Array.t;
    final_outputs : (int * P.output) list;
    converged : bool;
    certificates : (int * (int * P.update) list) list Lazy.t;
    certificates_agree : bool;
    log_lengths : (int * int) list;
    metadata_bytes : (int * int) list;
    sim_duration : float;
    trace : Trace.t option;
    intervals : Check_lin.intervals;
  }

  let run config ~workload =
    let n = config.n in
    if Array.length workload <> n then
      invalid_arg "Runner.run: workload width must match config.n";
    let engine = Engine.create () in
    let metrics = Metrics.create () in
    let trace = if config.trace then Some (Trace.create ()) else None in
    let root_rng = Prng.create config.seed in
    let net_rng = Prng.split root_rng in
    let think_rngs = Array.init n (fun _ -> Prng.split root_rng) in
    let replicas = Array.make n None in
    let record_delivery =
      Option.map
        (fun tr ~sent ~received ~src ~dst msg ->
          Trace.record_delivery tr ~sent ~received ~src ~dst (P.describe_message msg))
        trace
    in
    (* Filled in below, once the probe has everything it closes over;
       the network's deliver callback fires only when the engine runs,
       well after assignment. *)
    let probe_after_delivery = ref (fun () -> ()) in
    let network =
      Network.create ~engine ~rng:net_rng ~metrics ~n ~fifo:config.fifo
        ~partitions:config.partitions ~envelope:config.envelope ?record_delivery
        ?obs:config.obs ~delay:config.delay ~wire_size:P.message_wire_size
        ~deliver:(fun ~dst ~src msg ->
          (match replicas.(dst) with
          | Some r -> P.receive r ~src msg
          | None -> ());
          !probe_after_delivery ())
        ()
    in
    let crashed = Array.make n false in
    (* Churn bookkeeping. A pid whose first churn event is a [Join]
       starts the run absent: no replica, script parked until it joins.
       [offline] mirrors the network's detach state for the driver and
       probe; [ever_offline] marks replicas that may have missed frames
       and therefore need the quiescence catch-up pass. *)
    let offline = Array.make n false in
    let ever_offline = Array.make n false in
    let parked : action list option array = Array.make n None in
    let churn_sorted =
      List.stable_sort
        (fun (a : Network.churn_event) b -> Float.compare a.time b.time)
        config.churn
    in
    let starts_absent =
      Array.init n (fun pid ->
          match
            List.find_opt
              (fun (ce : Network.churn_event) -> ce.Network.pid = pid)
              churn_sorted
          with
          | Some { action = Network.Join; _ } -> true
          | _ -> false)
    in
    Array.iteri
      (fun pid absent ->
        if absent then begin
          offline.(pid) <- true;
          ever_offline.(pid) <- true;
          Network.detach network pid
        end)
      starts_absent;
    (* Journal plumbing: event indices are journal positions when a
       journal is attached (so monitor violations cite replayable
       indices) and a plain operation counter otherwise. *)
    let journal = Option.bind config.obs (fun o -> o.Obs.journal) in
    let observing = journal <> None || config.monitor <> None in
    let mon_seq = ref 0 in
    let next_index () =
      match journal with
      | Some j -> Obs.Journal.length j
      | None ->
        let i = !mon_seq in
        incr mon_seq;
        i
    in
    let jrecord f =
      match journal with Some j -> Obs.Journal.record j (f ()) | None -> ()
    in
    List.iter
      (fun (p : Network.partition) ->
        jrecord (fun () ->
            Obs.Journal.Partition
              {
                from_time = p.Network.from_time;
                to_time = p.Network.to_time;
                group = p.Network.group;
              }))
      config.partitions;
    let pid_labels pid = [ ("pid", string_of_int pid) ] in
    let runner_obs =
      Option.map
        (fun o ->
          let per name =
            Array.init n (fun pid ->
                Obs.Registry.counter o.Obs.registry ~labels:(pid_labels pid)
                  name)
          in
          {
            upd = per "updates_invoked";
            qry = per "queries_invoked";
            comp = per "ops_completed";
            rep = per "replay_steps";
            lat =
              Array.init n (fun pid ->
                  Obs.Registry.hist o.Obs.registry ~labels:(pid_labels pid)
                    "op_latency");
          })
        config.obs
    in
    (* Convergence-lag probe: piggybacks on existing engine activations
       (deliveries and invocations) rather than scheduling its own
       events, so enabling it cannot perturb the simulation schedule;
       [interval] only rate-limits the sampling in simulated time. *)
    let probe =
      match (config.obs, config.probe_interval) with
      | Some o, Some interval ->
        let last = ref Float.neg_infinity in
        (* [f] of every live replica, the highest pid's first. *)
        let live f =
          let acc = ref [] in
          for pid = n - 1 downto 0 do
            if not crashed.(pid) && not offline.(pid) then
              match replicas.(pid) with
              | Some r -> acc := f r :: !acc
              | None -> ()
          done;
          !acc
        in
        Some
          (fun ~force () ->
            let now = Engine.now engine in
            if force || now -. !last >= interval then begin
              last := now;
              (* A caller's fingerprint may query the replica, so it
                 is called once per live replica; without one the
                 certificates are folded against each other, not
                 rendered. *)
              let distinct =
                match config.fingerprint with
                | Some fingerprint ->
                  List.length (List.sort_uniq String.compare (live fingerprint))
                | None -> Cert.classes (live Fun.id)
              in
              Obs.record_divergence o ~time:now ~distinct;
              jrecord (fun () -> Obs.Journal.Probe { time = now; distinct });
              Option.iter
                (fun m -> Mon.on_probe m ~time:now ~distinct)
                config.monitor
            end)
      | _ -> None
    in
    (* Time-series sampler: same piggyback discipline as the probe —
       it rides existing activations and schedules nothing, so enabling
       it cannot perturb the schedule. The runner contributes the
       resource series the sampler cannot see from the registry alone:
       per-replica log length, checkpoint counts (via the profile), and
       the engine's pending-event queue depth as the mailbox proxy. *)
    (match config.sampler with
    | None -> ()
    | Some s ->
      Obs.Series.add_probe s (fun () ->
          let readings = ref [] in
          readings :=
            ("queue_depth", [], float_of_int (Engine.pending engine))
            :: !readings;
          for pid = n - 1 downto 0 do
            (match replicas.(pid) with
            | Some r when (not crashed.(pid)) && not offline.(pid) ->
              readings :=
                ("log_len", pid_labels pid, float_of_int (P.log_length r))
                :: !readings
            | _ -> ());
            Option.iter
              (fun o ->
                let rep = Obs.replica o pid in
                let taken = rep.Obs.profile.Obs.Profile.checkpoints_taken in
                if taken > 0 then
                  readings :=
                    ("checkpoints", pid_labels pid, float_of_int taken)
                    :: !readings)
              config.obs
          done;
          !readings));
    let maybe_sample () =
      match config.sampler with
      | None -> ()
      | Some s -> Obs.Series.maybe_tick s ~now:(Engine.now engine)
    in
    let maybe_probe () =
      (match probe with Some p -> p ~force:false () | None -> ());
      maybe_sample ()
    in
    probe_after_delivery := maybe_probe;
    (* What the run records, in per-process columns: each event's label
       (its history label, built when the event is recorded) and its
       start and finish times, unboxed; an update's finish stays +∞
       until it completes, and a query is recorded only once answered.
       [omega_at] is the index of a process's ω read, if any. Latencies
       go to one column, in completion order. *)
    let events = Array.map (fun script -> List.length script + 1) workload in
    let labels : (P.update, P.query, P.output) Uqadt.operation Column.t array =
      Array.map Column.create events
    in
    let starts = Array.map Floats.create events in
    let finishes = Array.map Floats.create events in
    let omega_at = Array.make n (-1) in
    let latencies = Floats.create (Array.fold_left ( + ) 0 events) in
    (* Per-process broadcast buffers for window batching: the first
       broadcast of a window schedules a flush [batch_window] later;
       everything buffered until then leaves as one frame per
       destination. Flushes are engine events, so they drain inside the
       main [Engine.run] and respect crashes (a crashed source's buffer
       is dropped by the network like any of its sends). *)
    (* Buffered messages carry the span that was ambient when the
       protocol handed them over — by flush time the batching window has
       long outlived it. *)
    let batch_bufs = Array.init n (fun _ -> Queue.create ()) in
    let flush_batch pid =
      let q = batch_bufs.(pid) in
      if not (Queue.is_empty q) then begin
        let msgs = List.of_seq (Queue.to_seq q) in
        Queue.clear q;
        Network.broadcast_stamped_batch network ~src:pid msgs
      end
    in
    let make_replica pid =
      let ctx =
        {
          Protocol.pid;
          n;
          now = (fun () -> Engine.now engine);
          send = (fun ~dst msg -> Network.send network ~src:pid ~dst msg);
          broadcast =
            (match config.batch_window with
            | None -> fun msg -> Network.broadcast network ~src:pid msg
            | Some window ->
              fun msg ->
                if Queue.is_empty batch_bufs.(pid) then
                  Engine.schedule engine ~delay:window (fun () -> flush_batch pid);
                Queue.add (msg, Network.ambient network) batch_bufs.(pid));
          broadcast_batch =
            (fun msgs -> Network.broadcast_batch network ~src:pid msgs);
          set_timer = (fun ~delay thunk -> Engine.schedule engine ~delay thunk);
          count_replay =
            (fun k ->
              metrics.Metrics.replay_steps <- metrics.Metrics.replay_steps + k;
              match runner_obs with
              | Some ro -> Obs.Registry.inc ~by:k ro.rep.(pid)
              | None -> ());
          obs = Option.map (fun o -> Obs.replica o pid) config.obs;
        }
      in
      P.create ctx
    in
    for pid = 0 to n - 1 do
      if not starts_absent.(pid) then replicas.(pid) <- Some (make_replica pid)
    done;
    let replica pid =
      match replicas.(pid) with
      | Some r -> r
      | None -> invalid_arg "Runner: replica not initialised"
    in
    (* Journal an invocation or a completed query and feed the monitor;
       called only when [observing], so an unobserved run builds none
       of these events. *)
    let observe_update pid u ~started span =
      let index = next_index () in
      jrecord (fun () ->
          Obs.Journal.Update
            { pid; time = started; span; label = Format.asprintf "%a" P.pp_update u });
      match config.monitor with
      | Some m -> Mon.on_update m ~pid ~index ~span u
      | None -> ()
    in
    let observe_query pid q output ~started ~span ~omega =
      let index = next_index () in
      jrecord (fun () ->
          Obs.Journal.Query
            {
              pid;
              invoked = started;
              completed = Engine.now engine;
              span;
              label = Format.asprintf "%a" P.pp_query q;
              output = Format.asprintf "%a" P.pp_output output;
              omega;
            });
      match config.monitor with
      | Some m -> Mon.on_query m ~pid ~index ~span ~omega q output
      | None -> ()
    in
    (* "Issue this pid's next operation" is a typed engine event
       carrying the pid; the script it issues waits in [next_script].
       A pid has at most one such event pending: the next is scheduled
       only when its operation completes or its parked script resumes. *)
    let issue_kind = Engine.kind engine in
    let next_script : action list array = Array.make n [] in
    let schedule_issue pid script =
      next_script.(pid) <- script;
      let gap = Network.draw_delay think_rngs.(pid) config.think in
      Engine.post engine ~delay:gap issue_kind pid
    in
    (* Each process has at most one operation outstanding, so its
       state lives in per-process slots: [current] is its script from
       the operation in flight on, [op_start] that operation's start,
       [update_at] the index of its update's event, [query_span] its
       read's span. The protocol's completion callbacks are built once
       per process, below, and read these slots. *)
    let current : action list array = Array.make n [] in
    let op_start = Float.Array.make n 0.0 in
    let update_at = Array.make n (-1) in
    let query_span : Obs.Span.id option array = Array.make n None in
    (* Record an event of [pid]'s operation in flight. *)
    let record pid label ~finish =
      Column.push labels.(pid) label;
      Floats.push starts.(pid) (Float.Array.get op_start pid);
      Floats.push finishes.(pid) finish
    in
    let complete pid =
      if not crashed.(pid) then begin
        metrics.Metrics.ops_completed <- metrics.Metrics.ops_completed + 1;
        let elapsed = Engine.now engine -. Float.Array.get op_start pid in
        Floats.push latencies elapsed;
        (match runner_obs with
        | Some ro ->
          Obs.Registry.inc ro.comp.(pid);
          Obs.Registry.observe ro.lat.(pid) elapsed
        | None -> ());
        (match config.sampler with
        | Some s ->
          Obs.Series.observe_latency s ~key:pid elapsed;
          Obs.Series.maybe_tick s ~now:(Engine.now engine)
        | None -> ());
        schedule_issue pid (match current.(pid) with _ :: rest -> rest | [] -> [])
      end
    in
    let on_done =
      Array.init n (fun pid () ->
          Floats.set finishes.(pid) update_at.(pid) (Engine.now engine);
          complete pid)
    in
    let on_result =
      Array.init n (fun pid output ->
          if not crashed.(pid) then begin
            let q =
              match current.(pid) with
              | Protocol.Invoke_query q :: _ -> q
              | _ -> invalid_arg "Runner: a query answered with none in flight"
            in
            let now = Engine.now engine in
            record pid (Uqadt.Query (q, output)) ~finish:now;
            (match trace with
            | Some tr ->
              Trace.record_op tr ~time:now ~pid
                (Format.asprintf "%a/%a" P.pp_query q P.pp_output output)
            | None -> ());
            if observing then
              observe_query pid q output ~started:(Float.Array.get op_start pid)
                ~span:query_span.(pid) ~omega:false;
            complete pid
          end)
    in
    (* Each process runs its script sequentially. An offline process
       parks its remaining script instead of issuing: its client pauses
       with it and resumes (with a fresh think gap) when it rejoins.
       Observers are matched on, not wrapped in closures: telemetry
       off, an invocation builds no observer closure. *)
    let invoke_update pid u =
      let started = Engine.now engine in
      metrics.Metrics.updates_invoked <- metrics.Metrics.updates_invoked + 1;
      (match runner_obs with Some ro -> Obs.Registry.inc ro.upd.(pid) | None -> ());
      Float.Array.set op_start pid started;
      update_at.(pid) <- labels.(pid).Column.len;
      record pid (Uqadt.Update u) ~finish:Float.infinity;
      (match trace with
      | Some tr -> Trace.record_op tr ~time:started ~pid (Format.asprintf "%a" P.pp_update u)
      | None -> ());
      (* Journal the invocation (and feed the monitor) before the
         protocol runs, so the frames its broadcast produces land after
         their cause in the journal. *)
      match config.obs with
      | None ->
        if observing then observe_update pid u ~started None;
        P.update (replica pid) u ~on_done:on_done.(pid)
      | Some o ->
        (* Open the update's span and leave it ambient while the
           protocol processes the invocation, so broadcasts it emits
           are stamped; the origin applies its own update synchronously
           (Section VII.B), recorded on return. *)
        let span =
          Obs.Span.fresh o.Obs.spans ~pid ~time:started
            ~label:(Format.asprintf "%a" P.pp_update u)
        in
        if observing then observe_update pid u ~started (Some span);
        Obs.Span.set_active o.Obs.spans (Some span);
        P.update (replica pid) u ~on_done:on_done.(pid);
        Obs.Span.record_apply o.Obs.spans ~span:(Some span) ~pid ~time:(Engine.now engine);
        Obs.Span.set_active o.Obs.spans None;
        maybe_probe ()
    in
    let invoke_query pid q =
      let started = Engine.now engine in
      metrics.Metrics.queries_invoked <- metrics.Metrics.queries_invoked + 1;
      (match runner_obs with Some ro -> Obs.Registry.inc ro.qry.(pid) | None -> ());
      Float.Array.set op_start pid started;
      match config.obs with
      | None -> P.query (replica pid) q ~on_result:on_result.(pid)
      | Some o ->
        (* Queries get a local span (they never propagate, so it is
           excluded from visibility metrics) purely so the journal and
           monitor can cite a causal id for the read. *)
        let qspan =
          Some
            (Obs.Span.fresh ~local:true o.Obs.spans ~pid ~time:started
               ~label:(Format.asprintf "%a" P.pp_query q))
        in
        query_span.(pid) <- qspan;
        Obs.Span.set_active o.Obs.spans qspan;
        P.query (replica pid) q ~on_result:on_result.(pid);
        Obs.Span.set_active o.Obs.spans None
    in
    let issue pid script =
      if crashed.(pid) then ()
      else if offline.(pid) then parked.(pid) <- Some script
      else begin
        current.(pid) <- script;
        match script with
        | [] -> ()
        | Protocol.Invoke_update u :: _ -> invoke_update pid u
        | Protocol.Invoke_query q :: _ -> invoke_query pid q
      end
    in
    Engine.set_handler engine issue_kind (fun pid -> issue pid next_script.(pid));
    Array.iteri schedule_issue workload;
    List.iter
      (fun (time, pid) ->
        Engine.schedule_at engine ~time (fun () ->
            crashed.(pid) <- true;
            Option.iter (fun tr -> Trace.record_crash tr ~time ~pid) trace;
            jrecord (fun () -> Obs.Journal.Crash { pid; time });
            Network.crash network pid))
      config.crashes;
    (* Catch-up donor for an attaching replica: the first present peer
       not separated from it by a partition at [at]. *)
    let find_donor pid ~at =
      let rec seek d =
        if d >= n then None
        else if
          d <> pid && (not crashed.(d)) && (not offline.(d))
          && replicas.(d) <> None
          && not (Network.separated_at network ~src:d ~dst:pid ~at)
        then Some d
        else seek (d + 1)
      in
      seek 0
    in
    let apply_churn (ce : Network.churn_event) =
      let pid = ce.Network.pid in
      let time = ce.Network.time in
      if not crashed.(pid) then
        match ce.Network.action with
        | Network.Leave ->
          if not offline.(pid) then begin
            offline.(pid) <- true;
            ever_offline.(pid) <- true;
            Network.detach network pid;
            jrecord (fun () -> Obs.Journal.Leave { pid; time })
          end
        | Network.Join | Network.Rejoin ->
          if offline.(pid) then begin
            let rejoin = replicas.(pid) <> None in
            if not rejoin then replicas.(pid) <- Some (make_replica pid);
            offline.(pid) <- false;
            Network.attach network pid;
            let r =
              match replicas.(pid) with Some r -> r | None -> assert false
            in
            (* Repair the gap from a reachable peer's snapshot; when no
               peer is reachable (all crashed, offline or partitioned
               away) the joiner starts from whatever it has and the
               quiescence catch-up pass finishes the job. *)
            let bytes =
              match find_donor pid ~at:time with
              | None -> 0
              | Some d -> (
                let donor =
                  match replicas.(d) with Some r -> r | None -> assert false
                in
                match P.snapshot donor with
                | None -> 0
                | Some s ->
                  if P.absorb r s then begin
                    metrics.Metrics.snapshots_absorbed <-
                      metrics.Metrics.snapshots_absorbed + 1;
                    metrics.Metrics.catchup_bytes <-
                      metrics.Metrics.catchup_bytes + String.length s;
                    String.length s
                  end
                  else 0)
            in
            jrecord (fun () -> Obs.Journal.Join { pid; time; rejoin; bytes });
            match parked.(pid) with
            | None -> ()
            | Some script ->
              parked.(pid) <- None;
              schedule_issue pid script
          end
    in
    List.iter
      (fun (ce : Network.churn_event) ->
        Engine.schedule_at engine ~time:ce.Network.time (fun () ->
            apply_churn ce))
      churn_sorted;
    Engine.run ~until:config.deadline engine;
    (* Churn-aware quiescence: replicas that spent time detached (and
       peers that missed their frames to them) may still lag — dropped
       frames are never retransmitted by Algorithm 1. Present replicas
       reach the union of their updates in one gather-scatter pass, the
       partition-heal merge of the partitionable variant: the first
       present replica (the hub) absorbs every other one's snapshot,
       then each of them absorbs the hub's. Every [absorb] merges by
       timestamp union and max-merges the clock, so this lands on the
       logs and clocks an all-pairs exchange to a fixpoint would reach,
       with p snapshots and 2(p − 1) absorbs instead of p(p − 1) of
       each per round. Protocols without a snapshot codec fall through
       unchanged and must converge through the message flow alone.
       Inert when the run had no churn. *)
    if Array.exists Fun.id ever_offline then begin
      let present =
        List.filter_map
          (fun pid ->
            match replicas.(pid) with
            | Some r when (not crashed.(pid)) && not offline.(pid) -> Some r
            | _ -> None)
          (List.init n Fun.id)
      in
      let absorb r s = ignore (P.absorb r s : bool) in
      match present with
      | [] -> ()
      | hub :: others ->
        List.iter (fun d -> Option.iter (absorb hub) (P.snapshot d)) others;
        Option.iter (fun s -> List.iter (fun r -> absorb r s) others) (P.snapshot hub)
    end;
    (* One forced probe at quiescence: this is the sample that should
       show the divergence gauge back at 1 once partitions healed. *)
    (match probe with Some p -> p ~force:true () | None -> ());
    (* And one forced sampler tick, so every series carries a point at
       the run's true end even when the cadence last fired earlier. *)
    Option.iter
      (fun s -> Obs.Series.tick s ~now:(Engine.now engine))
      config.sampler;
    (* Quiescence: issue the ω final reads on live processes — crashed
       replicas are gone for good and replicas still detached by churn
       at the end of the run are outside the system (the paper's ω reads
       belong to correct, participating processes). *)
    let present pid =
      (not crashed.(pid)) && (not offline.(pid)) && replicas.(pid) <> None
    in
    let final_outputs = ref [] in
    (match config.final_read with
    | None -> ()
    | Some q ->
      for pid = 0 to n - 1 do
        if present pid then begin
          metrics.Metrics.queries_invoked <- metrics.Metrics.queries_invoked + 1;
          (match runner_obs with Some ro -> Obs.Registry.inc ro.qry.(pid) | None -> ());
          let started = Engine.now engine in
          let qspan =
            Option.map
              (fun o ->
                Obs.Span.fresh ~local:true o.Obs.spans ~pid ~time:started
                  ~label:(Format.asprintf "%aω" P.pp_query q))
              config.obs
          in
          let on_result output =
            let now = Engine.now engine in
            omega_at.(pid) <- labels.(pid).Column.len;
            Column.push labels.(pid) (Uqadt.Query (q, output));
            Floats.push starts.(pid) now;
            Floats.push finishes.(pid) now;
            Option.iter
              (fun tr ->
                Trace.record_op tr ~time:now ~pid
                  (Format.asprintf "%a/%aω" P.pp_query q P.pp_output output))
              trace;
            if observing then observe_query pid q output ~started ~span:qspan ~omega:true;
            final_outputs := (pid, output) :: !final_outputs
          in
          match config.obs with
          | None -> P.query (replica pid) q ~on_result
          | Some o ->
            Obs.Span.set_active o.Obs.spans qspan;
            P.query (replica pid) q ~on_result;
            Obs.Span.set_active o.Obs.spans None
        end
      done;
      Engine.run ~until:config.deadline engine);
    let invoked =
      metrics.Metrics.updates_invoked + metrics.Metrics.queries_invoked
    in
    metrics.Metrics.ops_incomplete <-
      invoked - metrics.Metrics.ops_completed - List.length !final_outputs;
    let final_outputs = List.rev !final_outputs in
    let converged =
      match final_outputs with
      | [] -> true
      | (_, o0) :: rest -> List.for_all (fun (_, o) -> P.equal_output o0 o) rest
    in
    let live = List.filter present (List.init n Fun.id) in
    let certificates =
      lazy
        (List.filter_map
           (fun pid -> Option.map (fun c -> (pid, c)) (Cert.to_list (replica pid)))
           live)
    in
    let certificates_agree = Cert.agree (List.map replica live) in
    (* The result's history and columns, built once, process by
       process: event ids number each process's events in program
       order, so each process's times are copied as one run. *)
    let lengths = Array.map (fun c -> c.Column.len) labels in
    Array.iteri
      (fun pid at ->
        if at >= 0 && at <> lengths.(pid) - 1 then
          invalid_arg "Runner.run: ω event is not last in its process")
      omega_at;
    let history =
      History.init lengths
        (fun pid k -> Column.get labels.(pid) k)
        (fun pid -> omega_at.(pid) >= 0)
    in
    let column per_pid =
      let all = Float.Array.create (History.size history) in
      let id = ref 0 in
      for pid = 0 to n - 1 do
        Float.Array.blit per_pid.(pid).Floats.data 0 all !id lengths.(pid);
        id := !id + lengths.(pid)
      done;
      all
    in
    let intervals = { Check_lin.starts = column starts; finishes = column finishes } in
    let op_latencies = Float.Array.sub latencies.Floats.data 0 latencies.Floats.len in
    Option.iter
      (fun o ->
        Obs.finalize o ~live;
        Metrics.to_registry metrics o.Obs.registry)
      config.obs;
    Option.iter
      (fun j ->
        Obs.Journal.seal j
          ~fingerprint:
            (History.fingerprint P.pp_update P.pp_query P.pp_output history))
      journal;
    {
      history;
      metrics;
      op_latencies;
      final_outputs;
      converged;
      certificates;
      certificates_agree;
      log_lengths = List.map (fun pid -> (pid, P.log_length (replica pid))) live;
      metadata_bytes = List.map (fun pid -> (pid, P.metadata_bytes (replica pid))) live;
      sim_duration = Engine.now engine;
      trace;
      intervals;
    }
end
