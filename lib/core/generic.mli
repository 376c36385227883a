(** Algorithm 1: the generic strong-update-consistent universal
    construction, on the shared {!Oplog} substrate.

    Every update is timestamped with (Lamport clock, pid) — a total
    order that contains the happened-before relation — and reliably
    broadcast; each replica keeps the set of timestamped updates it has
    received, sorted; a query replays the sorted log from the initial
    state and evaluates on the result (lines 12–19 of the paper).
    Wait-free: both operations complete locally, whatever the network
    does. Proposition 4: all histories this produces are SUC.

    Since the oplog refactor this replica is no longer naive: insertion
    is a binary-search locate plus blit, and queries replay from
    {!Oplog} interval checkpoints (Section VII.C's "effective
    implementation"). How much state a replica caches is a {!config}
    value fixed when the functor is applied ({!Configured}): {!Make}
    takes {!default}, and {!memo} is the fixed-interval variant without
    the query cache that the C2/A1 experiment narrative is written
    against. The seed cons-list implementation survives as
    {!Generic_ref} for differential testing and as the paper-faithful
    naive baseline. *)

(** What every Algorithm 1-shaped replica exposes beyond
    {!Protocol.PROTOCOL}: the log/clock view {!Persist} serialises and
    the model checker's snapshot layer restores. Implemented by both
    the oplog core ({!Make}) and the seed list core
    ({!Generic_ref.Make}), so persistence, snapshotting and the
    differential tests are written once against this signature. *)
module type S = sig
  include Protocol.PROTOCOL

  val message_update : message -> update
  (** The update payload a broadcast message carries, without its
      timestamp — for observers (like the model checker's
      commutativity-aware state keys) to which timestamps are
      unobservable. *)

  val local_log : t -> (Timestamp.t * int * update) list
  (** The replica's timestamp-sorted update log (timestamp, origin pid,
      update) — exposed for the experiments, the model checker and
      {!Persist}. *)

  val encode_log :
    t -> encode_update:(Codec.Writer.t -> update -> unit) -> string
  (** The log serialised in the {!Oplog} "UCL" frame — byte-for-byte
      [Oplog.encode_list (local_log t)], but cores backed by the array
      substrate encode straight off the backing array into an
      exactly pre-sized buffer ({!Oplog.encode}), skipping the
      {!local_log} list materialisation. The {!Persist} snapshot hot
      path. *)

  val restore_log : t -> (Timestamp.t * int * update) list -> unit
  (** Crash recovery: replace the replica's log with a decoded snapshot
      (see {!Persist}) and advance its Lamport clock past every restored
      timestamp, so operations issued after recovery still sort after
      everything the replica had acknowledged before the crash. *)

  val clock_value : t -> int
  (** The replica's current Lamport clock. Together with {!local_log}
      this is the replica's complete protocol state — the log alone is
      not enough for exact state reconstruction, because queries tick
      the clock without leaving a log entry. *)

  val advance_clock : t -> int -> unit
  (** Merge an externally recorded clock value (max semantics). Used by
      {!Persist} to make a restored replica's clock {e exactly} match
      the snapshotted one when restoring into a fresh replica. *)
end

(** The op-log configuration of one instance: Section VII.C's cached
    intermediate states, as a value. *)
type config = {
  name : string;  (** the instance's [protocol_name] *)
  checkpoint_interval : int;
      (** entries between replay checkpoints; [0] (or less) disables
          checkpointing — pure full replay over the array core *)
  query_cache : bool;
      (** memoise the fold at the end of every replay, so a query after
          a run of appends folds only the new suffix ({!Oplog.create}) *)
}

val default : config
(** [{ name = "universal"; checkpoint_interval = 32; query_cache = true }]. *)

val memo : config
(** [{ name = "universal-memo"; checkpoint_interval = 32; query_cache =
    false }]: a query replays from the last checkpoint below the log's
    end (O(interval) amortised instead of O(log length)), and a late
    arrival at position [k] invalidates just the checkpoints above
    [k]. Answers are those of {!default} (same total order); only
    [replay_steps] differ — which is exactly experiment C2/A1. *)

module type CONFIG = sig
  val config : config
end

module Configured (C : CONFIG) (A : Uqadt.S) :
  S
    with type state = A.state
     and type update = A.update
     and type query = A.query
     and type output = A.output
(** Algorithm 1 on [A] with the op-log configuration [C.config]. Each
    application is its own protocol, so two configurations can run side
    by side in one process (or one domain each). *)

module Make (A : Uqadt.S) :
  S
    with type state = A.state
     and type update = A.update
     and type query = A.query
     and type output = A.output
(** [Configured] at {!default}. *)
