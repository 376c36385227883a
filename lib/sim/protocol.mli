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
      batch-aware core (one clock merge, one log merge pass) define
      their own; the others include {!Receive_each}. *)

  val message_wire_size : message -> int

  val describe_message : message -> string
  (** Short human-readable rendering, used by execution traces. *)

  val log_length : t -> int
  (** Retained update-log entries (C3: GC ablation). *)

  val metadata_bytes : t -> int
  (** Approximate footprint of the replica's protocol metadata. *)

  val certificate : t -> (int -> update -> 'a -> 'a) -> 'a -> 'a option
  (** [certificate r f init] folds [f origin update] over the replica's
      current linearization of the updates it knows, {e latest entry
      first}, if the protocol maintains one; [None] when it keeps no
      certificate. Prepending therefore builds the sequence in
      timestamp order ({!Certificate.to_list}). At quiescence all
      correct replicas of an update-consistent protocol must fold the
      {e same} sequence, and executing it must explain their final
      reads — the checkable core of Proposition 4 at scales where the
      generic SUC search is intractable. The fold itself allocates
      nothing per entry beyond what [f] does, unless the protocol says
      otherwise. *)

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

(** Proposition 4's witness read through {!PROTOCOL.certificate}'s
    fold. *)
module Certificate (P : PROTOCOL) : sig
  val to_list : P.t -> (int * P.update) list option
  (** The certificate in timestamp order, as [(origin pid, update)]
      pairs: the fold prepending, a pair and a cons (6 words) per entry
      on top of what the fold allocates. *)

  val agree : P.t list -> bool
  (** Whether every replica that keeps a certificate keeps the same
      one: the same length and, entry by entry, equal origins and
      [P.equal_update] updates. Replicas whose fold is [None] are
      skipped. The first certificate is copied, in fold order, into an
      origin array and an update array sized by that replica's
      {!PROTOCOL.log_length} (grown by doubling if it is short); every
      other replica is then folded against them with an int index as
      the accumulator. So beyond the two arrays and a few words per
      replica, the check allocates only what the folds do — nothing
      per entry on the array cores. *)

  val classes : P.t list -> int
  (** The number of classes the replicas fall into under {!agree}'s
      comparison: replicas that keep a certificate share a class when
      their certificates agree; replicas that keep none share a class
      when their {!PROTOCOL.log_length}s are equal. Each class keeps
      one copy, as {!agree} does, and a replica is folded once against
      each class it is compared with. *)
end

(** The {!PROTOCOL} catch-up pair for a protocol without a persistence
    codec: [snapshot] is [None] and [absorb] refuses every payload.
    [include] it in the protocol's structure. *)
module No_catchup : sig
  val snapshot : 't -> string option

  val absorb : 't -> string -> bool
end

(** {!PROTOCOL.receive_batch} for a protocol without a batch-aware core:
    the envelope's messages delivered one by one through [receive], in
    list order. [include] it in the protocol's structure, after
    [receive]. *)
module Receive_each (R : sig
  type t

  type message

  val receive : t -> src:int -> message -> unit
end) : sig
  val receive_batch : R.t -> src:int -> R.message list -> unit
end
