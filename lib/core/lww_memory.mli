(** Algorithm 2: the update-consistent shared memory.

    Updates are ordered exactly as in Algorithm 1, but because an
    overwritten register value can never be read again, a replica keeps
    only the newest (timestamp, value) per register: last-writer-wins,
    with the Lamport pair as the arbitration order. Reads and writes are
    O(1) (amortised, via the balanced map) and the state grows with the
    number of registers, not the number of operations — the paper's
    closing complexity claim, measured in experiment C2/C3. *)

include
  Protocol.PROTOCOL
    with type state = Memory_spec.state
     and type update = Memory_spec.update
     and type query = Memory_spec.query
     and type output = Memory_spec.output
