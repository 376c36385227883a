(** Algorithm 1: the generic strong-update-consistent universal
    construction, on the shared {!Oplog} substrate.

    Every update is timestamped with (Lamport clock, pid) — a total
    order that contains the happened-before relation — and reliably
    broadcast; each replica keeps the set of timestamped updates it has
    received, sorted; a query replays the sorted log from the initial
    state and evaluates on the result (lines 12–19 of the paper).
    Wait-free: both operations complete locally, whatever the network
    does. Proposition 4: all histories this produces are SUC.

    Insertion is a binary-search locate plus blit. How a replica bounds
    its replay is a {!config} value fixed when the functor is applied
    ({!Configured}): Section VII.C's cached intermediate states
    ({!default}, {!memo}) or its garbage collection of stable messages
    ({!gc}). The seed cons-list implementation survives as
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
  (** The replica's timestamp-sorted update log (timestamp, issuing
      pid, update), the op-log core's pid being the timestamp's —
      exposed for the experiments, the model checker and {!Persist}. *)

  val encode_log :
    t -> encode_update:(Codec.Writer.t -> update -> unit) -> string
  (** The log serialised in the {!Oplog} "UCL" frame — byte-for-byte
      [Oplog.encode_list (local_log t)], but cores backed by the array
      substrate encode straight off the log's columns into an
      exactly pre-sized buffer ({!Oplog.encode}), skipping the
      {!local_log} list materialisation. The {!Persist} snapshot hot
      path. *)

  val restore_log : t -> (Timestamp.t * int * update) list -> unit
  (** Crash recovery: replace the replica's log with a decoded snapshot
      (see {!Persist}) and advance its Lamport clock past every restored
      timestamp, so operations issued after recovery still sort after
      everything the replica had acknowledged before the crash. *)

  val merge_frame :
    t -> decode_update:(Codec.Reader.t -> update) -> Codec.Reader.t -> bool
  (** Churn catch-up: merge the {!Oplog} "UCL" log frame on the reader
      (which must end where the frame does) into the live log by
      timestamp union, and advance the Lamport clock past every
      timestamp in it. Entries may come in any order; one whose
      timestamp is already logged is the same update and is skipped,
      as is a repeat within the frame. The log is not rebuilt: the
      array core streams the frame through {!Oplog.merge_frame}, which
      copies only what the log lacks into column scratch and lands it
      with one batch merge, so its checkpoints and query cache below the
      lowest fresh entry survive; the list core decodes the frame with
      {!Oplog.decode_list} and merges its list. [false], with log and
      clock unchanged, if the core refuses an entry: the array core
      refuses one at or below its stability watermark.
      @raise Codec.Decode_error, with log and clock unchanged, on a
      malformed frame. *)

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

(** How a replica bounds its replay: Section VII.C's two ways. *)
type replay =
  | Checkpoints of {
      interval : int;  (** entries between checkpoints; [0] (or less): none *)
      query_cache : bool;
          (** keep the last folds of every replay near the log's tail, so
              a query refolds only from where a late entry landed
              ({!Oplog.create}) *)
    }  (** cached intermediate states; the log keeps every update *)
  | Stable_prefix
      (** garbage collection of stable messages, on FIFO channels: once
          every process has been heard from at clock [c] or above, the
          prefix at or below [c] is final, so each update and receive
          folds it into a base state ({!Oplog.compact}) from which a
          query replays the rest. After 8 receives without a send a
          replica broadcasts a clock-only heartbeat; a crash freezes
          the bound (experiment C3). An update at or below the bound
          raises [Invalid_argument] and leaves the log unchanged. The
          replica keeps no certificate and no catch-up, takes an
          envelope one message at a time, and its log views cover the
          live suffix only; [message_update] raises on a heartbeat. *)

(** A core's configuration: its [protocol_name], and how it replays. *)
type config = { name : string; replay : replay }

val default : config
(** [{ name = "universal"; replay = Checkpoints { interval = 32;
    query_cache = true } }]. *)

val memo : config
(** Interval 32 without the query cache, named ["universal-memo"]: a
    query replays from the last checkpoint below the log's end, and a
    late arrival at position [k] drops just the checkpoints above [k].
    Its answers are {!default}'s; only [replay_steps] differ
    (experiments C2 and A1). *)

val gc : config
(** [Stable_prefix], named ["universal-gc"] (experiment C3). *)

val create_log : config -> ('u, 's) Oplog.t
(** An empty log that replays as the configuration says. *)

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
