(** The naive FIFO apply-on-receive replica: an update is applied
    locally, broadcast, and applied at each receiver in arrival order.

    Run over FIFO channels this is pipelined consistent (Definition 7 —
    each process sees all updates in an order extending every sender's
    program order and its own), and it is wait-free and cheap, but for
    non-commutative types different replicas apply concurrent updates in
    different orders and {e never} reconcile: Proposition 1's
    impossibility made executable. The [prop1] experiment runs Figure
    2's program on it and watches PC hold while EC fails. *)

module Make (A : Uqadt.S) : sig
  include
    Protocol.PROTOCOL
      with type state = A.state
       and type update = A.update
       and type query = A.query
       and type output = A.output
end
