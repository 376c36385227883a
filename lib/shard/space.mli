(** The sharded object space: a {!Protocol.PROTOCOL} whose replicas run
    one Algorithm 1 core {e per shard} — per-shard {!Oplog}s, per-shard
    Lamport clocks — behind a shared consistent-hash {!Ring}.

    Routing is by key through the {e current} ring on every operation
    and every delivery, so in-flight frames stay correct across ring
    changes. A multi-key update fans its keyed sub-updates out to their
    shards and flushes all resulting frames as {e one} envelope through
    [ctx.broadcast_batch], so a cross-shard batch costs one frame per
    destination.

    Timestamps stay unique run-wide — the invariant {!Oplog.insert}'s
    idempotence rests on — because each shard core stamps with the
    encoded identity [shard * n + pid]: no two cores anywhere share a
    (clock, pid) source, so log entries can migrate between shards
    without ever colliding.

    {b Rebalancing.} The shared map counts update routings per shard
    (the op-rate gauges); a policy timer splits the hottest shard —
    {!Ring.split}, disturbing no other shard — and bumps the map epoch.
    Each replica migrates lazily at its next event: entries whose key
    no longer routes to their shard are re-homed through the same
    snapshot frames and timestamp-union merge ({!Persist.Catchup}) that
    churn Join/Rejoin catch-up rides, so a migration is just a replica
    absorbing a snapshot of itself. With no policy the ring is static
    and replicas never share mutable state beyond the (atomic-free,
    monotone) op counters — safe for the parallel engine.

    {b Key logs.} Beside its shard cores a replica keeps one {!Oplog}
    per key, holding the very entries the shard logs hold (the same
    records, so a second log costs a slot per entry). An update files
    the entry its shard core just stamped, which sits at the shard
    tail; a delivery ([receive], [receive_batch]) builds each message's
    entry once ({!Generic.S.entry_of_message}) and lands it in the
    shard core ({!Generic.S.receive_entry}) and in its key's log; an
    [absorb] that landed anything rebuilds the key logs from the shard
    logs; a migration moves entries between shards, never between
    keys, and leaves the key logs alone. A keyed read [Read (k, q)]
    ticks the Lamport clock of the shard [k] routes to, exactly as a
    query of that shard core would, then replays [k]'s log alone,
    with that log's own checkpoints and query cache at
    {!Generic.default}'s interval; [Sweep] ticks every live shard and
    replays every key log. The shard logs themselves are never
    replayed. The replay steps a query reports through
    [ctx.count_replay] are key-log folds. Key logs share the
    replica's op-log profile, so with telemetry on every delivered
    entry counts as two inserts.

    {b Certificate.} [certificate] is a k-way merge of the per-shard
    logs, each already timestamp-sorted, read in place through
    {!Generic.S.log_entry}: O(entries x shards), and only the output
    allocated — 9 words an entry (the [(origin, [ku])] pair, the
    singleton batch, the cons). A timestamp tie, which unique shard
    identities rule out, would go to the lower shard.

    {b Catch-up.} [snapshot] writes every shard's "UCS" frame into one
    "UCX" frame; [absorb] is all-or-nothing: it checks every shard
    frame in full, in place (a shard id the ring has allocated, the
    header, the log walk and checksum, no entry at or below the shard
    core's watermark) before merging any, so a refused frame leaves
    every shard, its clock, and the set of shards as they were. *)

module Make
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) : sig
  module K : module type of Keyed.Batch (A)
  (** The client-facing spec: histories, monitors, fingerprints. *)

  type policy = {
    interval : float;  (** simulated time between hot-shard checks *)
    hot_factor : float;
        (** split when the hottest shard's window ops exceed
            [hot_factor] x the per-shard mean *)
    max_shards : int;  (** never grow the ring past this *)
  }

  type map
  (** The shared shard map: ring, epoch, op-rate gauges, policy. One
      per run, shared by every replica. *)

  val create_map :
    ?vnodes:int -> ?policy:policy -> ?obs:Obs.t -> shards:int -> unit -> map
  (** [obs] enables the per-shard registry rows
      ([shard_ops{shard=i}], [shard_log_entries{shard=i}],
      [shard_splits{shard=i}], [shard_moved_entries]) and journals
      [Rebalance]/[Shard] events when a journal is attached. *)

  val configure : map -> unit
  (** Set the map {!create} consults; call once per run, before
      building replicas. Process-wide: [create] receives only the
      {!Protocol.ctx}, which has no slot for a map. *)

  val ring : map -> Ring.t

  val epoch : map -> int
  (** Bumped by every ring change; replicas migrate when behind. *)

  val rebalances : map -> int

  val moved_entries : map -> int
  (** Log entries re-homed by migrations, across all replicas. *)

  val shard_ops : map -> (int * int) list
  (** Cumulative updates routed to each shard, sorted by shard id. *)

  val series_probe : map -> Obs.Series.probe
  (** Sampler probe emitting [shard_ops{shard=i}] (cumulative) and
      [shard_op_rate{shard=i}] (delta since the previous tick) for
      every shard on the ring. The delta baseline lives in the probe
      closure — create one probe per sampler. *)

  val trigger_split : map -> now:float -> hot:int -> int
  (** Manual hot-shard split (tests and experiments): split [hot], bump
      the epoch, journal the [Rebalance] event, return the fresh shard
      id. Replicas migrate lazily at their next event. *)

  include
    Protocol.PROTOCOL
      with type state = K.state
       and type update = K.update
       and type query = K.query
       and type output = K.output

  val shard_log_lengths : t -> (int * int) list
  (** Per-shard log lengths of this replica, sorted by shard id
      (created shards only). *)

  val shard_logs : t -> (int * (Timestamp.t * int * (int * A.update)) list) list
  (** Per-shard inner logs (timestamp, encoded origin, keyed update) —
      the per-shard Proposition 4 differential compares these across
      replicas. *)

  val shard_clocks : t -> (int * int) list
  (** Per-shard Lamport clocks of this replica, sorted by shard id
      (created shards only). *)

  val force_migrate : t -> unit
  (** Migrate now if the map epoch moved (normally lazy). *)
end
