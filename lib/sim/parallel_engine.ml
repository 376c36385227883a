(* Domain-per-replica execution of a replica protocol.

   The discrete-event [Runner] interleaves every replica on one core
   under a deterministic virtual clock; this engine runs the same
   protocol cores truly concurrently, one OCaml 5 domain per replica,
   connected by bounded MPSC mailboxes ([Mpsc]). Nothing about the
   protocol changes: each domain owns its replica and is the only
   mutator of it, messages travel as immutable frames, and the byte
   accounting per frame (the sum of its messages' wire sizes, batches
   counted when a frame carries more than one message) matches the
   sequential [Network] at its default zero envelope exactly.

   Why this is sound to check: under strong update consistency the
   state a replica reaches depends only on the timestamp total order of
   the updates it has received, never on their arrival order (Prop. 4).
   So however the OS schedules the domains, once every mailbox is
   drained all replicas must hold the same timestamp-sorted log, and
   that log replayed sequentially must equal a sequential fold of the
   same update multiset. The engine enforces the first property
   (convergence of outputs and certificates) itself; the analysis layer
   pins the second against the sequential cores.

   Domain-safety inventory (the audit the multicore port forced):
   - [Prng]: each domain's client draws from its own [Prng.fork]ed
     stream; generators are never shared across domains.
   - [Oplog]/protocol state: strictly domain-private; published to the
     coordinating domain only through [Domain.join].
   - Op-log configuration: an immutable [Generic.config] value fixed
     when the core's functor is applied, so replicas created inside
     their domains read no shared knob.
   - [Space.configure]'s shard map: a process-wide ref read at
     [create] time — written only before [run] starts, on the main
     domain, and the spawn itself is a synchronisation point.
   - [Obs]: [Obs.replica] mutates a shared list, so each domain builds
     a detached handle with [Obs.make_replica] and writes its metrics
     into a private [Registry.shard]; the coordinating domain adopts
     the handles and merges the shards after the joins. No shared
     telemetry state is touched while the domains run.
   - [Recorder]: handles are per-domain by construction; the frame
     carries the sender's Lamport stamp so the receiver can order the
     delivery after the send.
   - Mailboxes: lock-free rings ([Mpsc]); no domain ever blocks on one.
     A push into a full mailbox drains the pusher's own mailbox while
     it retries, so every domain always makes progress on its own
     queue.
   - Failure: the first exception any domain raises is recorded, with
     its pid, in one atomic cell by compare-and-set. Recording it
     closes every mailbox, so a peer's next push raises [Mpsc.Closed],
     and the start barrier and the quiescence loop give up on it; the
     coordinating domain re-raises it as [Domain_failed] after the
     joins. *)

exception Domain_failed of { pid : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Domain_failed { pid; exn } ->
      Some
        (Printf.sprintf "Parallel_engine.Domain_failed: domain %d raised %s" pid
           (Printexc.to_string exn))
    | _ -> None)

type domain_report = {
  pid : int;
  ops : int;  (* invocations completed (updates + queries) *)
  updates : int;
  queries : int;
  frames_sent : int;
  messages_sent : int;
  bytes_sent : int;
  batches_sent : int;
  messages_received : int;
  mailbox_stalls : int;  (* pushes that found a peer's mailbox full *)
  mailbox_max_depth : int;  (* deepest this replica's own mailbox got *)
  replay_steps : int;
  latencies : float array;  (* seconds per invocation, in issue order *)
}

module Make (P : Protocol.PROTOCOL) = struct
  module Cert = Protocol.Certificate (P)

  type frame = { src : int; msgs : P.message list; lam : int }
  (* [lam] is the sender's Lamport stamp for the frame (0 when no
     recorder is attached); immutable, so sharing it across the
     mailbox is safe. *)

  (* What a free mailbox slot holds. *)
  let no_frame = { src = -1; msgs = []; lam = 0 }

  (* A frame's bytes: a top-level loop, since a [List.fold_left]
     closure over [P] would be allocated per frame. *)
  let rec wire_bytes acc = function
    | [] -> acc
    | m :: rest -> wire_bytes (acc + P.message_wire_size m) rest

  type config = {
    domains : int;
    mailbox_capacity : int;
    batch_every : int;
        (* per-destination coalescing threshold: a destination's buffer
           is flushed as one frame once it holds k messages; 1 =
           unbatched, every message its own frame *)
    flush_window : int;
        (* force a flush of every buffer after this many invocations,
           bounding how long a coalesced message may wait for its
           buffer to fill; 0 = no window (threshold + boundary flushes
           only) *)
    final_read : P.query option;  (* the ω read every replica answers *)
    obs : Obs.t option;
    recorder : Obs.Recorder.t option;
  }

  let default_config ~domains =
    {
      domains;
      mailbox_capacity = 1024;
      batch_every = 1;
      flush_window = 0;
      final_read = None;
      obs = None;
      recorder = None;
    }

  type result = {
    reports : domain_report array;
    replicas : P.t array;
    outputs : (int * P.output) list;  (* ω answers, when [final_read] *)
    query_outputs : P.output list array;
        (* per-domain non-ω query answers in issue order; captured only
           when a recorder is attached (empty lists otherwise) *)
    outputs_agree : bool;
    certificates_agree : bool;
    log_lengths : int array;
    wall_seconds : float;  (* max domain end - min domain start *)
    ops_total : int;
    updates_total : int;
    throughput : float;  (* aggregate invocations per wall second *)
  }

  (* Mutable per-domain accumulator; strictly domain-private until the
     join, then folded into the immutable report. *)
  type local = {
    mutable l_updates : int;
    mutable l_queries : int;
    mutable l_frames : int;
    mutable l_messages : int;
    mutable l_bytes : int;
    mutable l_batches : int;
    mutable l_received : int;
    mutable l_stalls : int;
    mutable l_depth : int;
    mutable l_replay : int;
  }

  let run config ~(workload : (P.update, P.query) Protocol.invocation list array)
      =
    let n = config.domains in
    if n <= 0 then invalid_arg "Parallel_engine.run: domains must be positive";
    if Array.length workload <> n then
      invalid_arg "Parallel_engine.run: one workload script per domain";
    if config.batch_every <= 0 then
      invalid_arg "Parallel_engine.run: batch_every must be positive";
    if config.flush_window < 0 then
      invalid_arg "Parallel_engine.run: flush_window must be non-negative";
    let mailboxes =
      Array.init n (fun _ -> Mpsc.create config.mailbox_capacity no_frame)
    in
    (* In-flight frame count: bumped before a frame is pushed, dropped
       after its messages have been processed. Zero (together with all
       clients done) therefore means: no frame is queued anywhere and
       none is being processed whose handler could still send. *)
    let outstanding = Atomic.make 0 in
    (* Domains currently holding coalesced-but-undelivered messages.
       A domain increments this before its first buffered message
       becomes visible and decrements only after the flushed frames
       have been counted into [outstanding], so the quiescence
       predicate [clients done ∧ outstanding = 0 ∧ buffered = 0] never
       observes a message in neither census. *)
    let buffered = Atomic.make 0 in
    let clients_running = Atomic.make n in
    let quiesced = Atomic.make false in
    let started = Atomic.make 0 in
    let failure = Atomic.make None in
    let fail pid exn =
      if Atomic.compare_and_set failure None (Some (pid, exn)) then
        Array.iter Mpsc.close mailboxes
    in
    (* A domain that sees a peer's failure unwinds with the exception a
       push into a closed mailbox raises; [fail] drops it, since the
       failure it answers is already recorded. *)
    let give_up_if_failed () =
      match Atomic.get failure with None -> () | Some _ -> raise Mpsc.Closed
    in
    (* Telemetry shards: one private registry (and one detached replica
       handle, built in-domain) per domain, so no shared Obs state is
       touched until the merge after the joins. *)
    let shards =
      match config.obs with
      | None -> [||]
      | Some o -> Array.init n (fun _ -> Obs.Registry.shard o.Obs.registry)
    in
    let obs_handles = Array.make n None in
    (match config.recorder with
    | None -> ()
    | Some r ->
      (* Fail fast on an under-sized recorder, before any spawn. *)
      ignore (Obs.Recorder.handle r (n - 1)));
    let reports = Array.make n None in
    let replicas = Array.make n None in
    let outputs = Array.make n None in
    let q_outputs = Array.make n [] in
    let spans = Array.make n (0.0, 0.0) in
    let t0 = Unix.gettimeofday () in
    (match config.recorder with
    | None -> ()
    | Some r ->
      (* Run-relative wall clock; a clock injected at [create] (a
         test's deterministic counter) wins. The spawn below is the
         synchronisation point that publishes it. *)
      Obs.Recorder.install_clock r (fun () -> Unix.gettimeofday () -. t0));
    let body pid () =
      let l =
        {
          l_updates = 0;
          l_queries = 0;
          l_frames = 0;
          l_messages = 0;
          l_bytes = 0;
          l_batches = 0;
          l_received = 0;
          l_stalls = 0;
          l_depth = 0;
          l_replay = 0;
        }
      in
      let mybox = mailboxes.(pid) in
      let rh =
        match config.recorder with
        | None -> None
        | Some r -> Some (Obs.Recorder.handle r pid)
      in
      let replica = ref None in
      (* Spin-then-park pacing for the two busy-wait loops (stalled
         pushes, quiescence idling): a cheap [cpu_relax] burst first,
         then exponentially growing sleeps, reset whenever the loop
         makes progress — so transient contention costs nanoseconds
         while sustained backpressure degrades to a polite poll
         instead of a fixed-cadence sleep storm. *)
      let stall_bk = Mpsc.Backoff.create ~park:Unix.sleepf in
      let idle_bk = Mpsc.Backoff.create ~park:Unix.sleepf in
      (* Built once per domain, not per [drain]: [drain] runs before
         every invocation, and a closure made there would be allocated
         as often. *)
      let handle { src; msgs; lam } =
        (match rh with
        | None -> ()
        | Some h ->
          Obs.Recorder.deliver h ~src ~count:(List.length msgs) ~frame_lamport:lam);
        (match !replica with
        | Some r -> P.receive_batch r ~src msgs
        | None -> assert false);
        l.l_received <- l.l_received + List.length msgs;
        Atomic.decr outstanding
      in
      let draining = ref false in
      let drain () =
        if not !draining then begin
          draining := true;
          let d = Mpsc.length mybox in
          if d > l.l_depth then l.l_depth <- d;
          (* Batch dequeue: every [pop_run] takes the whole ready run in
             one synchronisation; loop until the mailbox is momentarily
             dry so frames that arrived while we processed are taken
             too. *)
          while Mpsc.pop_run mybox handle > 0 do
            ()
          done;
          draining := false
        end
      in
      let deliver ~dst msgs =
        let count = List.length msgs in
        let bytes = wire_bytes 0 msgs in
        l.l_frames <- l.l_frames + 1;
        l.l_messages <- l.l_messages + count;
        l.l_bytes <- l.l_bytes + bytes;
        if count > 1 then l.l_batches <- l.l_batches + 1;
        let lam =
          match rh with
          | None -> 0
          | Some h -> Obs.Recorder.send h ~dst ~count ~bytes
        in
        let frame = { src = pid; msgs; lam } in
        Atomic.incr outstanding;
        if not (Mpsc.try_push mailboxes.(dst) frame) then begin
          (* One stall event per stalled frame, however many retries the
             slow path spins through (the retry count stays a metric). *)
          (match rh with None -> () | Some h -> Obs.Recorder.stall h ~dst);
          Mpsc.Backoff.reset stall_bk;
          let pushed = ref false in
          while not !pushed do
            l.l_stalls <- l.l_stalls + 1;
            (* Drain our own mailbox while the peer's is full: every
               domain always makes progress on its own queue, so no
               cycle of full mailboxes can deadlock. *)
            drain ();
            Mpsc.Backoff.once stall_bk;
            pushed := Mpsc.try_push mailboxes.(dst) frame
          done
        end
      in
      (* Sender-side coalescing: one buffer per destination (newest
         first), flushed as a single frame when it reaches
         [batch_every] messages, when the flush window expires, and at
         the script/quiescence boundaries. [buffered_total] is the
         domain-private census across all buffers backing the shared
         [buffered] advertisement. *)
      let buffers = Array.make n [] in
      let buffer_counts = Array.make n 0 in
      let buffered_total = ref 0 in
      let enqueue dst msg =
        if !buffered_total = 0 then Atomic.incr buffered;
        buffers.(dst) <- msg :: buffers.(dst);
        buffer_counts.(dst) <- buffer_counts.(dst) + 1;
        incr buffered_total
      in
      (* A loop built once per domain: [List.iter (enqueue dst)] would
         allocate its partial application per destination. *)
      let rec enqueue_all dst = function
        | [] -> ()
        | msg :: rest ->
          enqueue dst msg;
          enqueue_all dst rest
      in
      let flush_dst dst =
        match buffers.(dst) with
        | [] -> ()
        | msgs ->
          buffers.(dst) <- [];
          let c = buffer_counts.(dst) in
          buffer_counts.(dst) <- 0;
          (* [deliver] bumps [outstanding] before the push, and only
             then do we retire the buffered census — so no observer can
             see the frame in neither count. A one-message buffer is
             its own frame's list; only a longer one needs reversing. *)
          deliver ~dst (if c = 1 then msgs else List.rev msgs);
          buffered_total := !buffered_total - c;
          if !buffered_total = 0 then Atomic.decr buffered
      in
      let flush_all () =
        if !buffered_total > 0 then
          for dst = 0 to n - 1 do
            flush_dst dst
          done
      in
      (* Detached handle, built in-domain: no shared Obs state touched. *)
      let obs_handle =
        match config.obs with
        | None -> None
        | Some _ -> Some (Obs.make_replica pid)
      in
      let ctx =
        {
          Protocol.pid;
          n;
          now = (fun () -> Unix.gettimeofday () -. t0);
          (* Every send path goes through the per-destination buffers,
             so one peer's messages keep their issue order relative to
             each other regardless of which entry point produced them.
             At the default threshold of 1 each message (or each
             [broadcast_batch] envelope) flushes immediately, matching
             the unbatched per-frame accounting exactly. *)
          send =
            (fun ~dst msg ->
              enqueue dst msg;
              if buffer_counts.(dst) >= config.batch_every then flush_dst dst);
          broadcast =
            (fun msg ->
              for dst = 0 to n - 1 do
                if dst <> pid then begin
                  enqueue dst msg;
                  if buffer_counts.(dst) >= config.batch_every then
                    flush_dst dst
                end
              done);
          broadcast_batch =
            (fun msgs ->
              if msgs <> [] then
                for dst = 0 to n - 1 do
                  if dst <> pid then begin
                    enqueue_all dst msgs;
                    if buffer_counts.(dst) >= config.batch_every then
                      flush_dst dst
                  end
                done);
          (* No protocol core uses timers; the wall clock is real here,
             so a virtual-time timer has no meaning. *)
          set_timer = (fun ~delay:_ _ -> ());
          count_replay = (fun k -> l.l_replay <- l.l_replay + k);
          obs = obs_handle;
        }
      in
      let r = P.create ctx in
      replica := Some r;
      (* Start barrier: nobody issues until every replica exists, so no
         frame can arrive at a mailbox whose owner isn't ready. A replica
         whose [create] raised never arrives, so the wait gives up once
         a failure is recorded. *)
      Atomic.incr started;
      while Atomic.get started < n do
        give_up_if_failed ();
        Domain.cpu_relax ()
      done;
      let t_begin = Unix.gettimeofday () in
      let script = workload.(pid) in
      let lats = Array.make (List.length script) 0.0 in
      let qout = ref [] in
      List.iteri
        (fun i inv ->
          drain ();
          (* Nanosecond monotonic stamps: at multicore rates one
             invocation costs well under a microsecond, which
             [Unix.gettimeofday]'s resolution floors to exactly 0.0 —
             degenerating every latency percentile. *)
          let s = Monotonic_clock.now () in
          (match inv with
          | Protocol.Invoke_update u ->
            l.l_updates <- l.l_updates + 1;
            (* Record the invocation before the sends it causes, so the
               per-domain stream preserves program order. *)
            (match rh with None -> () | Some h -> Obs.Recorder.invoke_update h);
            P.update r u ~on_done:ignore
          | Protocol.Invoke_query q ->
            l.l_queries <- l.l_queries + 1;
            (match rh with
            | None ->
              P.query r q ~on_result:ignore
            | Some h ->
              Obs.Recorder.invoke_query h ~omega:false;
              P.query r q ~on_result:(fun o -> qout := o :: !qout)));
          lats.(i) <-
            Int64.to_float (Int64.sub (Monotonic_clock.now ()) s) *. 1e-9;
          if config.flush_window > 0 && (i + 1) mod config.flush_window = 0
          then flush_all ())
        script;
      flush_all ();
      Atomic.decr clients_running;
      (* Quiescence: drain (and flush what the drains' receive handlers
         may have coalesced) until every client is done, no frame is in
         flight anywhere, and no domain holds buffered messages. The
         first domain to observe that state sets [quiesced]; by then
         every queue is provably empty. A failed peer never lets the
         census reach zero, so the loop gives up once a failure is
         recorded. *)
      Mpsc.Backoff.reset idle_bk;
      while not (Atomic.get quiesced) do
        give_up_if_failed ();
        let before = l.l_received in
        drain ();
        flush_all ();
        if
          Atomic.get clients_running = 0
          && Atomic.get outstanding = 0
          && Atomic.get buffered = 0
        then Atomic.set quiesced true
        else begin
          if l.l_received <> before then Mpsc.Backoff.reset idle_bk;
          Mpsc.Backoff.once idle_bk
        end
      done;
      drain ();
      (match config.final_read with
      | None -> ()
      | Some q ->
        l.l_queries <- l.l_queries + 1;
        (match rh with
        | None -> ()
        | Some h -> Obs.Recorder.invoke_query h ~omega:true);
        P.query r q ~on_result:(fun o -> outputs.(pid) <- Some o));
      let t_end = Unix.gettimeofday () in
      spans.(pid) <- (t_begin, t_end);
      replicas.(pid) <- Some r;
      q_outputs.(pid) <- List.rev !qout;
      obs_handles.(pid) <- obs_handle;
      (* Domain metrics into this domain's private shard; merged into
         the run registry by the coordinating domain after the joins. *)
      (match config.obs with
      | None -> ()
      | Some _ ->
        let labels = [ ("pid", string_of_int pid) ] in
        let reg = shards.(pid) in
        Obs.Registry.inc ~by:(l.l_updates + l.l_queries)
          (Obs.Registry.counter reg ~labels "domain_ops");
        Obs.Registry.inc ~by:l.l_updates
          (Obs.Registry.counter reg ~labels "domain_updates");
        Obs.Registry.inc ~by:l.l_bytes
          (Obs.Registry.counter reg ~labels "domain_bytes_sent");
        Obs.Registry.inc ~by:l.l_frames
          (Obs.Registry.counter reg ~labels "domain_frames_sent");
        Obs.Registry.inc ~by:l.l_stalls
          (Obs.Registry.counter reg ~labels "mailbox_stalls");
        Obs.Registry.set
          (Obs.Registry.gauge reg ~labels "mailbox_depth")
          (float_of_int l.l_depth));
      reports.(pid) <-
        Some
          {
            pid;
            ops = l.l_updates + l.l_queries;
            updates = l.l_updates;
            queries = l.l_queries;
            frames_sent = l.l_frames;
            messages_sent = l.l_messages;
            bytes_sent = l.l_bytes;
            batches_sent = l.l_batches;
            messages_received = l.l_received;
            mailbox_stalls = l.l_stalls;
            mailbox_max_depth = l.l_depth;
            replay_steps = l.l_replay;
            latencies = lats;
          }
    in
    let handles =
      Array.init n (fun pid ->
          Domain.spawn (fun () -> try body pid () with exn -> fail pid exn))
    in
    Array.iter Domain.join handles;
    (match Atomic.get failure with
    | None -> ()
    | Some (pid, exn) -> raise (Domain_failed { pid; exn }));
    let reports = Array.map Option.get reports in
    let replicas = Array.map Option.get replicas in
    let outputs =
      Array.to_list outputs
      |> List.mapi (fun pid o -> Option.map (fun o -> (pid, o)) o)
      |> List.filter_map Fun.id
    in
    let outputs_agree =
      match outputs with
      | [] -> true
      | (_, first) :: rest ->
        List.for_all (fun (_, o) -> P.equal_output first o) rest
    in
    let certificates_agree = Cert.agree (Array.to_list replicas) in
    let starts = Array.map fst spans and ends = Array.map snd spans in
    let wall =
      Array.fold_left Float.max neg_infinity ends
      -. Array.fold_left Float.min infinity starts
    in
    let ops_total = Array.fold_left (fun acc r -> acc + r.ops) 0 reports in
    let updates_total =
      Array.fold_left (fun acc r -> acc + r.updates) 0 reports
    in
    (match config.obs with
    | None -> ()
    | Some o ->
      (* Fold the per-domain telemetry back in, post-join: adopt the
         detached replica handles, merge the registry shards. *)
      Array.iter
        (function Some h -> Obs.adopt o h | None -> ())
        obs_handles;
      Array.iter (fun s -> Obs.Registry.merge ~into:o.Obs.registry s) shards);
    {
      reports;
      replicas;
      outputs;
      query_outputs = q_outputs;
      outputs_agree;
      certificates_agree;
      log_lengths = Array.map (fun r -> P.log_length r) replicas;
      wall_seconds = wall;
      ops_total;
      updates_total;
      throughput =
        (if wall > 0.0 then float_of_int ops_total /. wall else 0.0);
    }

  (* Latency distribution across every domain's invocations. *)
  let latency_summary result =
    let all =
      Array.to_list result.reports
      |> List.concat_map (fun r -> Array.to_list r.latencies)
    in
    match all with [] -> None | l -> Some (Stats.summarize l)
end
