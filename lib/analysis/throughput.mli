(** Wall-clock throughput runs of the multicore engine
    ({!Parallel_engine}), checked by Proposition 4.

    Whatever delivery order the OS schedule produced, a
    strong-update-consistent run must end in the state its timestamp
    order folds to. {!Oracle} checks that over the replicas it is
    handed, in the four clauses of {!oracle}, for {!Bench} and
    {!Sharded} alike. {!Bench} adds its own legs: for commutative specs,
    a sequential {!Runner} of the same scripts (at seed 0) reaching the
    engine's ω answers; and with a flight recorder ({!Obs.Recorder})
    attached, the recorded delivery order replaying on the sequential
    core to the recorded fingerprint ({!Bench.replay_journal}).
    {!Bench.ok} and {!Sharded.ok} are the conjunctions; CI gates on
    them. *)

val dummy_ctx : pid:int -> n:int -> 'msg Protocol.ctx
(** A context that drops every message — for replicas used as
    sequential replay oracles. *)

type row = {
  spec : string;
  domains : int;
  ops_per_domain : int;
  total_ops : int;
  updates : int;
  wall_s : float;
  ops_per_sec : float;
  p50_us : float;
  p99_us : float;
  mailbox_max_depth : int;
  mailbox_stalls : int;
  ok : bool;  (** the differential verdict, never a throughput bound *)
}
(** One run's summary, as [ucsim bench] prints it. *)

type oracle = {
  certificates_agree : bool;  (** 1: {!Protocol.Certificate.agree} *)
  omega_matches_fold : bool;  (** 2: every ω answer = the fold's *)
  restore_matches_fold : bool;  (** 3: the rebuilt replica's answer = the fold's *)
  updates_conserved : bool;  (** 4: certificate length = updates issued *)
  state_repr : string;
      (** the fold of replica 0's certificate, rendered on one line *)
}
(** The oracle's verdict on one quiesced run. *)

val clauses : oracle -> (string * bool) list
(** The four clauses in order, named as [ucsim bench] prints them. *)

(** Proposition 4's oracle over any protocol that keeps a certificate.
    Log agreement is not a clause: timestamps are unique and no replica
    fabricates an entry, so clauses 1 and 4 leave every replica holding
    exactly the issued entries. *)
module Oracle (P : Protocol.PROTOCOL) : sig
  val check :
    restore:(P.t -> P.t option) ->
    final_read:P.query ->
    issued:int ->
    outputs:(int * P.output) list ->
    P.t array ->
    oracle
  (** [check ~restore ~final_read ~issued ~outputs replicas] reads only
      [replicas] (at least one) and [outputs], their ω answers to
      [final_read]. The fold is replica 0's certificate through
      [P.apply]; clause 3 queries [restore] of replica 0 ([None]: the
      restore failed); [issued] counts updates in certificate entries. *)
end

val series_of_events :
  ?interval:float ->
  ?sink:(Obs.Series.point -> unit) ->
  Obs.Recorder.event list ->
  Obs.Series.t
(** Wall-clock time series from a merged recorder stream: per-pid
    cumulative counters ([ops], [updates], [frames_sent],
    [messages_sent], [messages_received], [mailbox_stalls]) snapshotted
    every [interval] recorded-wall-clock seconds (default 10ms), with a
    forced closing sample. [sink] streams every point at full
    resolution (the [--series-out] JSONL writer); the returned store
    holds the decimating rings, of {!Obs.Series.sampler}'s default
    capacity. Spec-agnostic: only event kinds are read. *)

module Bench (A : Uqadt.S) : sig
  module G : Generic.S with type update = A.update and type query = A.query
                        and type output = A.output and type state = A.state
  module E : module type of Parallel_engine.Make (G)
  module Mon : module type of Obs.Monitor.Make (A)

  type recording = {
    events : Obs.Recorder.event list;
        (** the merged [(lamport, pid, seq)]-sorted stream *)
    journal : Obs.Journal.t;
        (** rebuilt from the stream and sealed with the recorded
            history's fingerprint — what [--journal-out] writes and
            [ucsim replay] re-executes *)
    fingerprint : string;
    replay : (string, string) result;
        (** [Ok fp]: {!replay_journal} reproduced the footer
            fingerprint; [Error reason] otherwise *)
    monitor : Mon.t option;  (** when [?monitor] criteria were given *)
  }

  type verdict = {
    run : E.result;
    latency : Stats.summary option;
    oracle : oracle;
    runner_matches : bool option;  (** [None] for non-commutative specs *)
    journal_replay : bool option;
        (** [None] when no recorder was attached *)
    recording : recording option;
  }

  val ok : verdict -> bool

  val uniform_scripts :
    seed:int ->
    domains:int ->
    ops:int ->
    query_ratio:float ->
    (A.update, A.query) Protocol.invocation list array
  (** One {!Prng.fork}ed client stream per domain off [seed]; each
      script mixes [A.random_update] with [A.random_query] at
      [query_ratio]. A pure function of its arguments. *)

  val measure :
    ?mailbox_capacity:int ->
    ?batch_every:int ->
    ?flush_window:int ->
    ?obs:Obs.t ->
    ?recorder:Obs.Recorder.t ->
    ?monitor:Obs.Monitor.criterion list ->
    ?journal_header:(string * Obs.Json.t) list ->
    domains:int ->
    final_read:A.query ->
    scripts:(A.update, A.query) Protocol.invocation list array ->
    unit ->
    verdict
  (** Run the engine on the scripts with an ω [final_read] everywhere,
      then the {!Oracle}, restoring a fresh sequential-core replica
      from replica 0's log ([Generic.restore_log], the crash-recovery
      path), and for commutative specs the sequential {!Runner}. With
      [?recorder] the run is also recorded: the merged stream becomes a
      sealed journal (header fields from [?journal_header]), the replay
      bridge verdict lands in [journal_replay], and [?monitor] criteria
      are checked online over the same stream. *)

  val history_of_events :
    scripts:(A.update, A.query) Protocol.invocation list array ->
    final_read:A.query ->
    query_outputs:A.output list array ->
    omega_outputs:(int * A.output) list ->
    Obs.Recorder.event list ->
    (A.update, A.query, A.output) History.t
  (** Resolve a merged recorder stream against the (regenerated)
      scripts and the run's recorded outputs into a {!History}: one
      line per domain in program order, ω read last. The recorder
      stores no payloads — the scripts being pure functions of the
      seed is what makes this total.
      @raise Failure when the stream and the scripts disagree (a
      corrupt or mismatched recording). *)

  val journal_of_events :
    ?header:(string * Obs.Json.t) list ->
    scripts:(A.update, A.query) Protocol.invocation list array ->
    final_read:A.query ->
    query_outputs:A.output list array ->
    omega_outputs:(int * A.output) list ->
    Obs.Recorder.event list ->
    Obs.Journal.t
  (** The merged stream as a standard journal, in merge order:
      invocations become [Update]/[Query] events, sends become [Frame]s
      (arrival patched from the matching deliver via per-(src,dst)
      FIFO), delivers and stalls keep their kind. Sealed with the
      {!history_of_events} fingerprint. @raise Failure as above. *)

  val replay_journal :
    scripts:(A.update, A.query) Protocol.invocation list array ->
    final_read:A.query ->
    Obs.Journal.t ->
    (string, string) result
  (** Re-execute a recorded journal on the {e sequential} core: one
      replica per domain whose sends are captured into per-(src,dst)
      FIFO queues, each [Deliver] event popping exactly the messages
      the recorded frame carried. Reproducing every replica's event
      order reproduces its timestamp evolution, hence its outputs
      (Proposition 4); [Ok fp] iff the replayed history fingerprint
      equals the journal footer. *)

  val feed_monitor :
    criteria:Obs.Monitor.criterion list ->
    scripts:(A.update, A.query) Protocol.invocation list array ->
    final_read:A.query ->
    query_outputs:A.output list array ->
    omega_outputs:(int * A.output) list ->
    Obs.Recorder.event list ->
    Mon.t
  (** Feed the merged stream through the online monitors; violation
      indices are journal event indices (the walk is the same one
      {!journal_of_events} uses). *)

  val row : ops_per_domain:int -> verdict -> row
end

type shard_row = {
  shard_spec : string;
  shards : int;
  shard_domains : int;
  keys : int;
  skew : float;
  fanout : int;
  shard_total_ops : int;
  keyed_updates : int;  (** keyed sub-updates issued (Σ batch widths) *)
  shard_wall_s : float;
  shard_ops_per_sec : float;
  shard_log_max : int;  (** longest per-shard log — skew made visible *)
  shard_log_min : int;
  shard_ok : bool;  (** the oracle's verdict *)
}
(** One sharded run's summary, as [ucsim bench --shards] prints it. *)

(** The {!Oracle} over the sharded {!Space}: each shard stamps its
    keys' updates with its own Lamport clock, and the certificate
    merges every shard's entries in timestamp order, so the four
    clauses read as they do for one core. The restore path is the
    whole-space snapshot/absorb pair (churn catch-up), and the issued
    count is the keyed sub-updates (Σ batch widths). *)
module Sharded
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) : sig
  module S : module type of Space.Make (A) (C)
  module E : module type of Parallel_engine.Make (S)

  type verdict = {
    run : E.result;
    latency : Stats.summary option;
    shards : int;
    keyed_total : int;
    oracle : oracle;
    shard_lengths : (int * int) list;  (** replica 0, by shard id *)
  }

  val ok : verdict -> bool

  val zipf_scripts :
    seed:int ->
    domains:int ->
    ops:int ->
    keys:int ->
    skew:float ->
    fanout:int ->
    query_ratio:float ->
    (S.update, S.query) Protocol.invocation list array
  (** One {!Prng.fork}ed stream per domain, each cut by
      {!Workload.For_space.zipf_scripts}: multi-key update batches
      (width uniform in [1..fanout]) over a Zipf-skewed key space, plus
      keyed reads at [query_ratio]. Key 0 is the hottest. *)

  val measure :
    ?mailbox_capacity:int ->
    ?batch_every:int ->
    ?flush_window:int ->
    ?obs:Obs.t ->
    shards:int ->
    domains:int ->
    scripts:(S.update, S.query) Protocol.invocation list array ->
    unit ->
    verdict
  (** Build a static [shards]-shard map (no rebalancing policy — the
      ring never changes during the parallel run), run the engine with
      an ω sweep everywhere, then the {!Oracle}. *)

  val row : keys:int -> skew:float -> fanout:int -> verdict -> shard_row
end

val set_zipf_scripts :
  seed:int ->
  domains:int ->
  ops:int ->
  skew:float ->
  delete_ratio:float ->
  (Set_spec.update, Set_spec.query) Protocol.invocation list array
(** {!Workload.For_set.conflict} over 512 elements, one {!Prng.fork}ed
    stream per domain: hot keys collide across domains, so convergence
    is exercised under real contention. *)
