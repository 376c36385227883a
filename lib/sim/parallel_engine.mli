(** Domain-per-replica execution: the replica protocols of the
    sequential {!Runner}, run truly concurrently on OCaml 5 domains
    connected by bounded MPSC mailboxes ({!Mpsc}).

    Each domain owns one replica plus a closed-loop client playing a
    pre-generated invocation script; sends coalesce in per-destination
    buffers flushed as one frame per [batch_every] messages (threshold
    1 = unbatched), with the same per-frame byte accounting as the
    sequential {!Network} at its default zero envelope (the sum of the
    messages' wire sizes, [batches_sent] when a frame carries more than
    one message).
    Deliveries drain each mailbox a run at a time ({!Mpsc.pop_run})
    into the protocol's [receive_batch], and both busy-wait loops pace
    themselves with spin-then-park backoff ({!Mpsc.Backoff}). At the
    end of the scripts the engine drains every mailbox to quiescence,
    has every replica answer an optional ω read, and reports
    convergence (outputs and update certificates) together with
    wall-clock throughput and per-invocation latencies (nanosecond
    monotonic stamps, reported in seconds).

    Proposition 4 is what makes the result checkable: under strong
    update consistency the final state depends only on the timestamp
    total order of the update multiset, never on the real-time delivery
    interleaving the domains happened to produce — see
    {!Throughput} in the analysis layer for the sequential
    differential built on that.

    The engine is measurement infrastructure: it is {e not}
    deterministic (the OS schedule is real) — but with a
    {!Obs.Recorder} attached it is {e replayable}: each domain records
    its invocations, sends, deliveries, and stalls into a private
    buffer, and the analysis layer merges the streams, rebuilds the
    journal, and re-executes the recorded per-replica delivery order on
    the sequential core ({!Throughput}). Telemetry stays behind the
    repo-wide contract: every hook is an option defaulting to [None]
    ([obs = None], [recorder = None]), obs-off runs are bit-identical
    to seed, and each domain writes only its own registry shard and
    detached replica handle — merged and adopted on the coordinating
    domain after the joins, so no shared Obs state is touched while the
    domains run. *)

type domain_report = {
  pid : int;
  ops : int;  (** invocations completed (updates + queries) *)
  updates : int;
  queries : int;
  frames_sent : int;
  messages_sent : int;
  bytes_sent : int;
  batches_sent : int;
  messages_received : int;
  mailbox_stalls : int;
      (** pushes that found the destination mailbox full (each stall
          drains the sender's own mailbox, so stalls cannot deadlock) *)
  mailbox_max_depth : int;  (** deepest this replica's own mailbox got *)
  replay_steps : int;
  latencies : float array;  (** seconds per invocation, in issue order *)
}

module Make (P : Protocol.PROTOCOL) : sig
  type frame = { src : int; msgs : P.message list; lam : int }
  (** [lam] is the sender's Lamport stamp recorded for the frame, [0]
      when no recorder is attached. *)

  type config = {
    domains : int;
    mailbox_capacity : int;
    batch_every : int;
        (** per-destination coalescing threshold: each peer's buffer is
            flushed as one frame once it holds this many messages; 1 =
            one frame per message, matching the unbatched sequential
            runner exactly *)
    flush_window : int;
        (** force-flush every buffer after this many local invocations,
            bounding how long a coalesced message can wait for its
            buffer to fill; 0 = no window, flushes happen only on the
            size threshold and at script/quiescence boundaries *)
    final_read : P.query option;  (** ω read every replica answers *)
    obs : Obs.t option;
    recorder : Obs.Recorder.t option;
        (** flight recorder; must have been created with at least
            [domains] handles. [None] (the default) records nothing and
            keeps the hot path free of recorder branches' work *)
  }

  val default_config : domains:int -> config
  (** capacity 1024, unbatched, no flush window, no ω read,
      [obs = None], [recorder = None]. *)

  type result = {
    reports : domain_report array;
    replicas : P.t array;
        (** the replicas after quiescence, for log inspection — only
            the coordinating domain may touch them once [run] returns *)
    outputs : (int * P.output) list;  (** ω answers, when [final_read] *)
    query_outputs : P.output list array;
        (** per-domain non-ω query answers in issue order, captured only
            when a recorder is attached (empty lists otherwise) — what
            the replay bridge compares recorded outputs against *)
    outputs_agree : bool;
    certificates_agree : bool;
        (** {!Protocol.Certificate.agree} over every replica: origins
            and updates compared entry by entry with [P.equal_update],
            not with structural [=], and no certificate list built *)
    log_lengths : int array;
    wall_seconds : float;  (** max domain end − min domain start *)
    ops_total : int;
    updates_total : int;
    throughput : float;  (** aggregate invocations per wall second *)
  }

  val run :
    config -> workload:(P.update, P.query) Protocol.invocation list array -> result
  (** Spawn [config.domains] domains, play one script per domain, drain
      to quiescence, join, and aggregate. The [workload] array must
      have exactly [domains] entries; scripts are read-only inside the
      domains. @raise Invalid_argument on a malformed config. *)

  val latency_summary : result -> Stats.summary option
  (** Distribution over every domain's per-invocation latencies;
      [None] when no invocations ran. *)
end
