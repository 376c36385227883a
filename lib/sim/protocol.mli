(** Interface between a replicated-object protocol and the simulator.

    A protocol instance lives on one process. The runner hands it a
    {!ctx} with its communication capabilities at creation. Operations
    are asynchronous: wait-free protocols (Algorithm 1, Algorithm 2, the
    CRDTs) complete them in the same activation; quorum protocols (the
    ABD baseline) complete them from a later message receipt — the gap
    between the two is exactly experiment C4. *)

type ('u, 'q) invocation = Invoke_update of 'u | Invoke_query of 'q
(** One scripted operation of a workload; shared across protocols so
    workload generators are protocol-independent. *)

type 'msg ctx = {
  pid : int;
  n : int;
  now : unit -> float;
  send : dst:int -> 'msg -> unit;
  broadcast : 'msg -> unit;
      (** to every process except self: a sender receives its own
          message instantaneously (Section VII.B), which protocols model
          by applying their own updates synchronously *)
  broadcast_batch : 'msg list -> unit;
      (** semantically [List.iter broadcast], but the transport may pack
          the messages into one wire frame per destination — amortising
          the per-message envelope overhead — and delivers the batch
          back-to-back in order. Observable only in the message/byte
          metrics, never in protocol outcomes. *)
  set_timer : delay:float -> (unit -> unit) -> unit;
  count_replay : int -> unit;
      (** report update applications done while answering a query (C2) *)
  obs : Obs.replica option;
      (** telemetry handle for this replica; [None] (the default
          everywhere telemetry is off) keeps the protocol on the exact
          seed code path. Protocol cores attach the handle's profile to
          their op-log so replay costs surface per replica. *)
}

module type PROTOCOL = sig
  (** The object's abstract data type (its sequential specification),
      re-exported flat so instances can be constrained with plain
      [with type] equalities. *)
  include Uqadt.S

  type t
  (** One replica's protocol state. *)

  type message

  val protocol_name : string

  val create : message ctx -> t

  val update : t -> update -> on_done:(unit -> unit) -> unit
  (** Perform an update; [on_done] when it is locally complete. *)

  val query : t -> query -> on_result:(output -> unit) -> unit

  val receive : t -> src:int -> message -> unit

  val receive_batch : t -> src:int -> message list -> unit
  (** Deliver a coalesced envelope from one peer, observably equivalent
      to [List.iter (receive t ~src)] in list order. Protocols with a
      batch-aware core (one clock merge, one log merge pass) override
      the default per-message iteration. *)

  val message_wire_size : message -> int

  val describe_message : message -> string
  (** Short human-readable rendering, used by execution traces. *)

  val log_length : t -> int
  (** Retained update-log entries (C3: GC ablation). *)

  val metadata_bytes : t -> int
  (** Approximate footprint of the replica's protocol metadata. *)

  val certificate : t -> (int * update) list option
  (** The replica's current linearization of the updates it knows, as
      [(origin pid, update)] pairs, if the protocol maintains one.
      At quiescence all correct replicas of an update-consistent
      protocol must return the {e same} list, and executing it must
      explain their final reads — the checkable core of Proposition 4
      at scales where the generic SUC search is intractable. *)

  val snapshot : t -> string option
  (** Serialized replica state for churn catch-up: a joiner or rejoiner
      absorbs a live peer's snapshot to repair the frames it missed
      while detached. [None] when the protocol carries no persistence
      codec — such replicas transfer nothing and converge through the
      normal message flow alone. *)

  val absorb : t -> string -> bool
  (** Merge a peer's {!snapshot} into this replica by timestamp union —
      local state survives (a rejoiner keeps its crash-time log), so
      absorbing is idempotent and commutative, as Proposition 4
      requires. Returns [false] when the protocol does not support
      snapshots or the payload fails to decode. *)
end

(** The {!PROTOCOL} catch-up pair for a protocol without a persistence
    codec: [snapshot] is [None] and [absorb] refuses every payload.
    [include] it in the protocol's structure. *)
module No_catchup : sig
  val snapshot : 't -> string option

  val absorb : 't -> string -> bool
end
