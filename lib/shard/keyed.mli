(** The object space as a UQ-ADT: a keyspace of independent instances
    of a base ADT [A], each key holding its own [A.state].

    {!Batch} is the client-facing spec of the sharded protocol
    ({!Space}): an update is a multi-key batch (applied left to right),
    a query reads one key or sweeps the whole space. Histories,
    monitors and fingerprints are expressed in it.

    Updates on distinct keys always commute, so the space is
    commutative iff [A] is, and one key's updates, in timestamp order,
    answer every read of that key: {!Space} keeps one log per key and
    replays only the key a read names. *)

module Batch (A : Uqadt.S) : sig
  type read = Read of int * A.query | Sweep

  type answer = Out of A.output | States of (int * A.state) list

  include
    Uqadt.S
      with type state = A.state Support.Int_map.t
       and type update = (int * A.update) list
       and type query = read
       and type output = answer
  (** [random_update] and [random_query] draw their keys from
      [0 .. 15]. *)
end

(** The wire codec of one keyed update, built on a base codec for
    [A.update]: the varint key followed by the base frame. The sharded
    space's log entries and snapshot frames carry these. *)
module One_codec
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) :
  Update_codec.S with type update = int * A.update
