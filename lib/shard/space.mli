(** The sharded object space: a {!Protocol.PROTOCOL} whose replicas
    keep one {!Oplog} per key, the one copy of every entry, and per
    shard a Lamport clock and an entry count, behind a shared
    consistent-hash {!Ring}.

    Routing is by key through the {e current} ring on every operation
    and every delivery, so in-flight frames stay correct across ring
    changes. An update ticks the clock of the shard each keyed
    sub-update routes to, stamps the entry, files it under its key, and
    builds its message, one flat 5-word record (shard, clock, pid,
    keyed update). A single-key update hands its message to
    [ctx.broadcast]; a batch's messages, built in the batch's order in
    the same pass, leave as {e one} envelope through [ctx.broadcast_batch], so a
    cross-shard batch costs one frame per destination. Onto key logs
    with room, a w-key update allocates 5w words, and 3w more for an
    envelope's list. A delivery merges the routed shard's clock with
    the entry's and files the entry under its key, counting it in that
    shard unless the key's log held it already.

    Timestamps stay unique run-wide — the invariant {!Oplog.insert}'s
    idempotence rests on — because each shard stamps with the encoded
    identity [shard * n + pid]: no two shards anywhere share a
    (clock, pid) source.

    {b Rebalancing.} The shared map counts update routings per shard
    (the op-rate gauges); a policy timer splits the hottest shard —
    {!Ring.split}, disturbing no other shard — and bumps the map epoch.
    Each replica migrates lazily at its next event, and a migration
    moves no entry: a key whose route changed has its entries counted
    in its new shard instead of its old one, and the new shard's clock
    passes the key's last entry, so the next stamp there sorts after
    every entry of the keys it took over. With no policy the ring is
    static and replicas share no mutable state but the op counters
    ([shard_ops], the registry rows and the policy window). These are
    incremented without atomics, so on the parallel engine concurrent
    domains lose increments and the counts come out low; the replicas'
    logs, clocks and answers are unaffected.

    {b Reads.} A keyed read [Read (k, q)] ticks the clock of the shard
    [k] routes to, then replays [k]'s log alone, with that log's own
    checkpoints and query cache at {!Generic.default}'s interval.
    [Sweep] ticks every live shard, sorts the key ids in an int array
    and replays every key log from the highest key down, prepending
    each state that differs from [A.initial]: {!K.eval}'s answer on the
    keyed fold, built with no keyed map. The replay steps a query
    reports through [ctx.count_replay] are key-log folds. Key logs
    share the replica's op-log profile.

    {b Certificate.} [certificate] folds the key logs' merge from the
    top ({!Oplog.fold_down_merged}): O(entries x log keys), allocating
    3 words an entry (the singleton batch it hands [f]) and O(keys)
    words of arrays. {!Protocol.Certificate.to_list} on top costs 9
    words an entry (the [(pid mod n, [ku])] pair and the cons besides);
    {!Protocol.Certificate.agree} stays at 3.

    {b Catch-up.} [snapshot] migrates first, then writes every live
    shard's "UCS" frame ({!Persist.replica_frame}: the shard's clock and
    the "UCL" frame of its keys' entries in timestamp order) into one
    "UCX" frame, so every entry of a frame it writes routes to the shard
    the frame names. [absorb] is all-or-nothing: it checks every shard
    frame in full, in place (a shard id the ring has allocated, the
    header, the log walk and checksum, no entry at or below the key
    logs' watermark, which stays 0) before merging any, so a refused
    frame leaves every key log, every shard clock, and the set of
    shards as they were. It then lands each entry as a delivery does —
    under its key, in the shard its key routes to, whatever shard the
    frame names — and raises the named shard's clock to the frame's. *)

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
    ?policy:policy -> ?obs:Obs.t -> shards:int -> unit -> map
  (** [obs] enables the per-shard registry rows
      ([shard_ops{shard=i}], [shard_log_entries{shard=i}],
      [shard_splits{shard=i}], [shard_moved_entries]) and journals
      [Rebalance]/[Shard] events when a journal is attached.
      [shard_ops] counts the updates of replicas whose context carries a
      telemetry handle. *)

  val configure : map -> unit
  (** Set the map {!create} consults; call once per run, before
      building replicas. Process-wide: [create] receives only the
      {!Protocol.ctx}, which has no slot for a map. *)

  val ring : map -> Ring.t

  val rebalances : map -> int

  val moved_entries : map -> int
  (** Entries of the keys re-homed by migrations, across all replicas. *)

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
  (** Per-shard entry counts of this replica, sorted by shard id
      (created shards only). *)

  val shard_logs : t -> (int * (Timestamp.t * int * (int * A.update)) list) list
  (** Per-shard logs (timestamp, encoded pid, keyed update), sorted
      by shard id: the entries of the keys homed in each shard, merged
      in timestamp order. The per-shard Proposition 4 differential
      compares these across replicas. *)

  val shard_clocks : t -> (int * int) list
  (** Per-shard Lamport clocks of this replica, sorted by shard id
      (created shards only). *)

  val force_migrate : t -> unit
  (** Migrate now if the map epoch moved (normally lazy). *)
end
