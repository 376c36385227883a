(** Wall-clock throughput runs of the multicore engine
    ({!Parallel_engine}), checked by Proposition 4.

    Whatever delivery order the OS schedule produced, a
    strong-update-consistent run must end in the state its timestamp
    order folds to. {!Oracle} checks that over the replicas it is
    handed, in the four clauses of {!oracle}. {!Make} is the one
    measure over any core: the engine run, the oracle, for commutative
    specs a sequential {!Runner} of the same scripts (at seed 0)
    reaching the engine's ω answers, and with a flight recorder
    ({!Obs.Recorder}) attached, the recorded delivery order replaying on
    the sequential core to the recorded fingerprint
    ({!MEASURE.replay_journal}). {!Bench} instantiates it on the one
    core and {!Sharded} on the sharded space; {!MEASURE.ok} is the
    conjunction CI gates on. *)

val dummy_ctx : pid:int -> n:int -> 'msg Protocol.ctx
(** A context that drops every message — for replicas used as
    sequential replay oracles. *)

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

(** What {!Make} builds over a core [P]. Each instantiation substitutes
    its core for [P], so one signature serves the one core, the space,
    and the command line that runs either. *)
module type MEASURE = sig
  module P : Protocol.PROTOCOL
  module E : module type of Parallel_engine.Make (P)
  module Mon : module type of Obs.Monitor.Make (P)

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
    issued : int;
        (** certificate entries the scripts issue: their updates, or
            the space's keyed sub-updates (Σ batch widths) *)
    oracle : oracle;
    runner_matches : bool option;  (** [None] for non-commutative specs *)
    journal_replay : bool option;
        (** [None] when no recorder was attached *)
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
  (** Run the engine on the scripts with an ω [final_read] everywhere,
      then the {!Oracle}, restoring a fresh replica from replica 0 by
      the core's restore path, and for commutative specs the
      sequential {!Runner}. With [?recorder] the run is also recorded:
      the merged stream becomes a sealed journal (header fields from
      [?journal_header]), the replay bridge verdict lands in
      [journal_replay], and [?monitor] criteria are checked online over
      the same stream. *)

  val history_of_events :
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
    query_outputs:P.output list array ->
    omega_outputs:(int * P.output) list ->
    Obs.Recorder.event list ->
    (P.update, P.query, P.output) History.t
  (** Resolve a merged recorder stream against the (regenerated)
      scripts and the run's recorded outputs into a {!History}: one
      line per domain in program order, ω read last. The recorder
      stores no payloads — the scripts being pure functions of the
      seed is what makes this total.
      @raise Failure when the stream and the scripts disagree (a
      corrupt or mismatched recording). *)

  val journal_of_events :
    ?header:(string * Obs.Json.t) list ->
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
    query_outputs:P.output list array ->
    omega_outputs:(int * P.output) list ->
    Obs.Recorder.event list ->
    Obs.Journal.t
  (** The merged stream as a standard journal, in merge order:
      invocations become [Update]/[Query] events, sends become [Frame]s
      (arrival patched from the matching deliver via per-(src,dst)
      FIFO), delivers and stalls keep their kind. Sealed with the
      {!history_of_events} fingerprint. @raise Failure as above. *)

  val replay_journal :
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
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
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
    query_outputs:P.output list array ->
    omega_outputs:(int * P.output) list ->
    Obs.Recorder.event list ->
    Mon.t
  (** Feed the merged stream through the online monitors; violation
      indices are journal event indices (the walk is the same one
      {!journal_of_events} uses). *)
end

(** The one measure over core [P]. [R.restore ~into r] rebuilds the
    fresh replica [into] from the converged replica [r] ([false]: the
    restore failed), and [R.entries u] counts the certificate entries
    update [u] issues. *)
module Make
    (P : Protocol.PROTOCOL)
    (R : sig
      val restore : into:P.t -> P.t -> bool
      val entries : P.update -> int
    end) : MEASURE with module P := P

(** The measure on the one core: {!Generic.Make}, restored by
    [restore_log] of [local_log] (the crash-recovery path), one
    certificate entry per update. *)
module Bench (A : Uqadt.S) : sig
  module G : Generic.S with type update = A.update and type query = A.query
                        and type output = A.output and type state = A.state

  include MEASURE with module P := G

  val uniform_scripts :
    seed:int ->
    domains:int ->
    ops:int ->
    query_ratio:float ->
    (A.update, A.query) Protocol.invocation list array
  (** One {!Prng.fork}ed client stream per domain off [seed]; each
      script mixes [A.random_update] with [A.random_query] at
      [query_ratio]. A pure function of its arguments. *)
end

(** The measure on the sharded {!Space} of the set: each shard stamps
    its keys' updates with its own Lamport clock, and the certificate
    merges every shard's entries in timestamp order, so the four
    clauses read as they do for one core. The restore path is the
    whole-space snapshot/absorb pair (churn catch-up), and an update
    batch issues one entry per keyed sub-update. The replicas read the
    shard map set by [S.configure]: configure one (a static ring, no
    policy) before {!MEASURE.measure} or {!MEASURE.replay_journal}. *)
module Sharded : sig
  module S : module type of Space.Make (Set_spec) (Update_codec.For_set)

  include MEASURE with module P := S

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
