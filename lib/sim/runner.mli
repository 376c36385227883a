(** Drives one protocol over one workload through the simulator and
    extracts everything the experiments need: the distributed history
    (for the consistency checkers), metric counters, per-operation
    latencies, the final converged (or not) reads, and the replicas'
    linearization certificates.

    Each simulated process is sequential: it issues its next operation a
    think-time after the previous one completed, crashes at its
    scheduled time if any, and — once every live process has exhausted
    its script and the network has quiesced — issues one final read,
    recorded as an ω query, so that the extracted history can be judged
    for EC/UC exactly as the paper's figures are. *)

module Make (P : Protocol.PROTOCOL) : sig
  module Mon : module type of Obs.Monitor.Make (P)
  (** Online consistency monitor over this protocol's spec; create one
      with [Mon.create] and pass it as [config.monitor] to have the
      runner feed it every invocation as it completes. *)

  type action = (P.update, P.query) Protocol.invocation

  type config = {
    seed : int;
    n : int;
    delay : Network.delay_model;
    fifo : bool;
    partitions : Network.partition list;
    crashes : (float * int) list;  (** (time, pid) *)
    churn : Network.churn_event list;
        (** dynamic membership schedule. A pid whose {e first} event is
            [Join] starts the run absent (no replica, its script parked
            until it joins); [Leave] detaches a replica — frames to and
            from it drop, its script parks — and [Rejoin]/[Join] brings
            it back, catching up from a present peer's {!Persist}
            snapshot when the protocol supports one. Replicas still
            detached at the end of the run take no ω read and are
            excluded from the convergence verdict. Quiescence is
            churn-aware: after the engine drains, present replicas
            repair frames lost to detached windows in one
            gather-scatter snapshot pass (the first present replica
            absorbs every other one, then each of them absorbs it),
            reaching the union of their updates and the maximum of
            their clocks. *)
    think : Network.delay_model;  (** gap between consecutive local ops *)
    final_read : P.query option;
    deadline : float;  (** hard stop for the whole simulation *)
    trace : bool;  (** record an execution trace (see {!Trace}) *)
    batch_window : float option;
        (** when set, a process's broadcasts are buffered and flushed as
            one {!Network.broadcast_batch} frame per destination this
            many time units after the window opens — back-to-back
            updates amortise the per-frame envelope. [None] (the
            default) sends every broadcast immediately, exactly as the
            seed runner did. *)
    envelope : int;
        (** per-frame wire overhead passed to {!Network.create};
            default [0], which keeps byte accounting identical to the
            seed. *)
    obs : Obs.t option;
        (** telemetry bundle. [None] (the default) disables all
            instrumentation and keeps the run bit-identical to the
            seed: same history, same metrics, same wire bytes. *)
    probe_interval : float option;
        (** minimum simulated time between convergence probes. A probe
            is offered after every update invocation and every
            delivered message (queries offer none) and is taken when
            this much time has passed since the last one, so [Some 0.0]
            takes every one. A probe counts the distinct states among
            the live replicas (see [fingerprint]) and appends the count
            to {!Obs.divergence_series}; one forced sample at quiescence
            ends the series. Probes schedule no engine events and draw
            no randomness. Requires [obs]. *)
    fingerprint : (P.t -> string) option;
        (** replica state fingerprint for the probe, called once per
            live replica per sample; replicas with equal fingerprints
            count as one state. [None] (the default) counts the classes
            of {!Protocol.Certificate.classes} instead: equal
            certificates, or equal log lengths if the protocol keeps
            none. A fingerprint may query the replica
            (its answer to a read, say): the query ticks the replica's
            clock, so later timestamps can differ from an unprobed run,
            but it schedules nothing, so the schedule is not
            perturbed. *)
    monitor : Mon.t option;
        (** online consistency monitor, fed every update invocation and
            completed query (with its journal event index and span id)
            as the run progresses. [None] by default. *)
    sampler : Obs.Series.sampler option;
        (** streaming time-series sampler for soak runs. Like the
            probe, it piggybacks on deliveries and operation
            completions — it schedules no engine events — taking a
            sample whenever its simulated-time cadence says one is due,
            plus one forced tick at quiescence. The runner feeds it
            per-replica [log_len{pid}] and [checkpoints{pid}] (profile)
            gauges, the engine [queue_depth], and every completed
            operation's latency (keyed by pid) for the sliding-window
            [latency_p50]/[latency_p99] series. [None] (the default)
            samples nothing and keeps the run bit-identical to the
            seed. *)
  }

  val default_config : n:int -> seed:int -> config
  (** Uniform delays in [1, 10], think times exponential(5), no faults,
      final read for none (set it per ADT), deadline 1e7, no batching,
      zero envelope, no telemetry. *)

  val config_of_spec :
    ?trace:bool ->
    final_read:P.query option ->
    Run_spec.observers ->
    Run_spec.sequential ->
    config
  (** The run a spec describes, on {!default_config}'s think times:
      exponential delays of the spec's mean, its channels, faults,
      batch window and probe interval, the soak horizon as the
      deadline, the observers' telemetry bundle and sampler, and a
      monitor for the spec's criteria (none when it names none).
      [trace] (default [false]) records a space-time trace. *)

  type result = {
    history : (P.update, P.query, P.output) History.t;
    metrics : Metrics.t;
    op_latencies : Float.Array.t;
        (** every completed operation's latency, unboxed, in completion
            order; the ω reads take none *)
    final_outputs : (int * P.output) list;  (** completed final reads *)
    converged : bool;  (** all completed final reads are equal *)
    certificates : (int * (int * P.update) list) list Lazy.t;
        (** each live replica's certificate that the protocol keeps, in
            timestamp order ({!Protocol.Certificate.to_list}), built
            only when forced. Until it is forced or dropped it keeps the
            live replicas reachable, so a caller that holds many results
            should force it or let it go. Force it before comparing
            results structurally: [compare] raises on an unforced
            lazy value. *)
    certificates_agree : bool;
        (** {!Protocol.Certificate.agree} over the live replicas,
            checked by folding, without building the lists *)
    log_lengths : (int * int) list;
    metadata_bytes : (int * int) list;
    sim_duration : float;
    trace : Trace.t option;  (** present iff [config.trace] *)
    intervals : Check_lin.intervals;
        (** per history event (indexed by event id): invocation and
            response times, in two unboxed columns. An update that never
            completed (a stalled quorum operation) has an infinite
            response time. Feed these to {!Check_lin} to decide
            linearizability of the run. *)
  }

  val run : config -> workload:action list array -> result
  (** [workload.(p)] is process p's script. Raises [Invalid_argument] if
      the workload width differs from [config.n].

      When [config.obs] carries a {!Obs.Journal}, the run records every
      invocation, wire frame, delivery, drop, crash, partition window,
      and probe sample into it in simulated-time order, and seals it
      with the extracted history's {!History.fingerprint}. Journaling
      only observes — the schedule, history, metrics, and wire bytes
      are bit-identical with and without it.

      Allocation with [obs], [monitor], [sampler] and [trace] off: a
      process has at most one operation outstanding, so its state sits
      in per-process slots and its completion callbacks are built once
      per run. Issuing the next operation is a typed {!Engine} event
      carrying the pid: an operation allocates its think-time draw, the
      clock's box when its issue event runs, and its history label.
      Start and finish times go to unboxed per-process columns sized
      from the scripts, latencies to one column in completion order;
      at the end, [history] is built from them through
      {!History.init}, and [intervals] and [op_latencies] are copies
      of the columns, which box nothing. The protocol's own work and
      its frames (see {!Network.create}) come on top. At the end of the
      run the live replicas' certificates are folded once, for
      [certificates_agree]; the lists are built only if
      [certificates] is forced. *)
end
