(** State-machine replication over stable total-order broadcast: the
    classic way to get {e sequential consistency} for an arbitrary
    object, included as the second strong-consistency baseline (next to
    {!Abd}) that the paper's introduction trades away.

    Updates are timestamped exactly as in Algorithm 1, but a replica
    {e applies} an update only once it is stable — no process can still
    send anything that would sort before it — which requires having
    heard a strictly larger clock from every other process. Update
    invocations block until the update is applied (so a process's
    operations take effect in the agreed order at the moment they
    return), and queries answer from the stable prefix immediately.

    Two consequences measured in the experiments:

    - update latency is at least one round trip (the echo of the
      update's own broadcast), growing with the network delay (C4);
    - a single crashed process stops the stability frontier: updates
      block forever — the availability loss of Section I, in contrast
      with Algorithm 1 where the same log is applied optimistically and
      re-ordered a posteriori.

    Requires FIFO channels for the same reason as {!Generic.gc}. *)

module Make (A : Uqadt.S) : sig
  include
    Protocol.PROTOCOL
      with type state = A.state
       and type update = A.update
       and type query = A.query
       and type output = A.output
end
