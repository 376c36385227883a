(** The CRDT fast path of Section VII.C: "If all the update operations
    commute in the sequential specification, all linearizations would
    lead to the same state so a naive implementation, that applies the
    updates on a replica as soon as the notification is received,
    achieves update consistency."

    No timestamps, no log, no replay: an update is applied locally,
    broadcast, and applied at each receiver on arrival. Only sound when
    [A.commutative] — the functor refuses other types at replica
    creation, and the negative test (a set spec that falsely claims to
    commute, diverging under this protocol) is part of the suite. *)

module Make (A : Uqadt.S) :
  Protocol.PROTOCOL
    with type state = A.state
     and type update = A.update
     and type query = A.query
     and type output = A.output
