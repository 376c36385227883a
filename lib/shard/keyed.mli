(** The object space as a UQ-ADT: a keyspace of independent instances
    of a base ADT [A], each key holding its own [A.state].

    Two views of the same space:

    {ul
    {- {!One} — updates touch a single key ([key * A.update]); the
       query returns the whole keyed state. This is the {e per-shard}
       spec: each shard's {!Generic} core logs exactly the keyed
       updates routed to it, and migration moves [One] log entries
       between shards.}
    {- {!Batch} — an update is a multi-key batch (applied left to
       right), a query reads one key or sweeps the whole space. This is
       the {e client-facing} spec of the sharded protocol: histories,
       monitors and fingerprints are expressed in it.}}

    Updates on distinct keys always commute, so both views are
    commutative iff [A] is. *)

module One (A : Uqadt.S) : sig
  include
    Uqadt.S
      with type state = A.state Support.Int_map.t
       and type update = int * A.update
       and type query = unit
       and type output = A.state Support.Int_map.t

  val key_domain : int
  (** Support of {!random_update} keys: 16. *)
end

module Batch (A : Uqadt.S) : sig
  type read = Read of int * A.query | Sweep

  type answer = Out of A.output | States of (int * A.state) list

  include
    Uqadt.S
      with type state = A.state Support.Int_map.t
       and type update = (int * A.update) list
       and type query = read
       and type output = answer

  val key_domain : int
  (** Support of {!random_update} / {!random_query} keys: 16. *)

  val eval_key : state -> int -> A.query -> A.output
  (** [A.eval] on the key's state ([A.initial] when absent). *)
end

(** Wire codecs for the keyed update types, built on a base codec for
    [A.update]: varint key(s) followed by the base frame. *)

module One_codec
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) :
  Update_codec.S with type update = int * A.update

module Batch_codec
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) :
  Update_codec.S with type update = (int * A.update) list
