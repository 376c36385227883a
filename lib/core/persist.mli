(** Durable snapshots of a replica's update log.

    Section VII.C argues the full-log space cost is acceptable because
    the log is an asset — "banks keep track of all the operations made
    on an account for years"; "in database systems, it is usual to
    record all the events in log files". This module makes that
    concrete: a replica's timestamp-sorted log serialises to a
    self-describing binary frame (magic, version, entry count, entries,
    additive checksum) and restores into a fresh replica after a crash,
    which then rejoins with its Lamport clock advanced past everything
    it had acknowledged — so recovery never reuses a timestamp.

    The frame bytes are produced by {!Oplog.encode_list} — the shared
    substrate's single codec path — and are unchanged from the seed
    format, so snapshots written before the oplog refactor still
    restore. {!Over} works over {e any} replica exposing the
    {!LOG_VIEW} log/clock API (the oplog-core {!Generic.Make} and the
    seed list-core {!Generic_ref.Make} alike); {!Make} is the
    {!Generic.Make} instantiation every existing call site uses.

    Framing errors, version mismatches and checksum failures raise
    {!Codec.Decode_error}: a corrupted log must never silently
    mis-linearize. *)

(** The slice of {!Generic.S} persistence needs: the compatibility
    list view of the log plus exact clock access. *)
module type LOG_VIEW = sig
  type t

  type update

  val local_log : t -> (Timestamp.t * int * update) list

  val encode_log :
    t -> encode_update:(Codec.Writer.t -> update -> unit) -> string

  val restore_log : t -> (Timestamp.t * int * update) list -> unit

  val clock_value : t -> int

  val advance_clock : t -> int -> unit
end

(** {2 The replica frame}

    A "UCS" frame is a replica's exact protocol state: magic "UCS", a
    version byte, the Lamport clock as a varint, then the {!Oplog} "UCL"
    log frame as a length-prefixed byte string. It is written and parsed
    here alone: {!Over} and {!Catchup} frame one replica's log with it,
    and the sharded space one shard's. *)

val replica_frame : clock:int -> string -> string
(** [replica_frame ~clock log] is the "UCS" frame of a replica whose
    Lamport clock is [clock] and whose "UCL" log frame is [log]. *)

val open_replica : Codec.Reader.t -> int * Codec.Reader.t
(** Parse a "UCS" header in place off the reader, which must end where
    the frame does: the clock, and a reader over the embedded log frame
    (not yet walked).
    @raise Codec.Decode_error on a bad header or trailing bytes. *)

module Over (G : LOG_VIEW) (C : Update_codec.S with type update = G.update) : sig
  val encode_log : (Timestamp.t * int * G.update) list -> string

  val decode_log : string -> (Timestamp.t * int * G.update) list
  (** @raise Codec.Decode_error on any malformation. *)

  val snapshot : G.t -> string
  (** Serialise a live replica's log. *)

  val restore : G.t -> string -> unit
  (** Load a snapshot into a (typically fresh) replica. *)

  val snapshot_replica : G.t -> string
  (** Exact protocol state: the log frame of {!snapshot} plus the
      replica's Lamport clock. {!snapshot}/{!restore} only guarantee the
      restored clock dominates every logged timestamp — enough for crash
      recovery, not for replay: queries tick the clock without logging,
      so a log-only restore can hand out lower timestamps than the
      snapshotted replica would have. The model checker's checkpointed
      replay ({!Explore}) needs bit-exact restoration. *)

  val decode_replica : string -> int * (Timestamp.t * int * G.update) list
  (** Parse a {!snapshot_replica} frame into (clock, log) without
      touching any replica. It parses with the same header reader
      ({!open_replica}) and log walker as {!Catchup.absorb}, so it
      accepts exactly the frames an absorb can merge.
      @raise Codec.Decode_error on any malformation, and nothing else,
      whatever the bytes. *)

  val restore_replica : G.t -> string -> unit
  (** Load a {!snapshot_replica} frame into a {e fresh} replica, making
      its state (log and clock) exactly equal to the snapshotted one.
      @raise Codec.Decode_error on any malformation. *)
end

(** An Algorithm 1-shaped replica with real churn catch-up: [include]s
    [G] and replaces the {!Protocol.PROTOCOL} [snapshot]/[absorb] stubs
    with implementations over the "UCS" replica frame. [absorb] merges
    logs by timestamp union (local entries survive — a rejoiner keeps
    its crash-time log) and max-merges the Lamport clock, so it is
    idempotent, commutative, and never hands out a stale timestamp
    after catching up. The merge streams the frame into the live log,
    through {!Generic.S.merge_frame}: the "UCS" header is parsed in
    place and the embedded log frame is walked where it lies, with no
    decoded copy of the log, so on the array core an absorb builds an
    entry only for each update the replica lacks, its checkpoints and
    query cache below the lowest fresh entry survive, and an absorb
    that adds nothing changes nothing. [absorb] returns [false],
    leaving the replica untouched, on a frame that does not decode
    (hostile bytes included: it never raises) or whose entries the
    core refuses. *)
module Catchup
    (G : Generic.S)
    (C : Update_codec.S with type update = G.update) : sig
  include
    Generic.S
      with type t = G.t
       and type state = G.state
       and type update = G.update
       and type query = G.query
       and type output = G.output
       and type message = G.message
end

module Make (A : Uqadt.S) (C : Update_codec.S with type update = A.update) : sig
  val encode_log : (Timestamp.t * int * A.update) list -> string

  val decode_log : string -> (Timestamp.t * int * A.update) list
  (** @raise Codec.Decode_error on any malformation. *)

  val snapshot : Generic.Make(A).t -> string
  (** Serialise a live replica's log. *)

  val restore : Generic.Make(A).t -> string -> unit
  (** Load a snapshot into a (typically fresh) replica. *)

  val snapshot_replica : Generic.Make(A).t -> string
  (** See {!Over.snapshot_replica}. *)

  val restore_replica : Generic.Make(A).t -> string -> unit
  (** See {!Over.restore_replica}.
      @raise Codec.Decode_error on any malformation. *)
end
