(** The seed cons-list implementation of Algorithm 1, preserved
    verbatim as the reference core.

    This is the deliberately naive replica the paper's lines 12–19
    describe — a sorted list inserted by O(n) scan, a full O(n) fold
    per query — that {!Generic} was before it moved onto the shared
    {!Oplog} substrate. It is kept for three jobs:

    {ul
    {- the differential test suite runs it against the oplog-core
       {!Generic} on random schedules and demands identical query
       outputs and certificates;}
    {- the C2 experiment and the warm-query test keep a
       paper-faithful "naive full replay" row to measure the
       optimisations against;}
    {- [ucsim --log-core list] A/Bs the two cores from the CLI.}}

    Its [protocol_name] is ["universal-list"]; behaviourally it is
    observably identical to {!Generic} (same total order, same
    answers), differing only in [replay_steps] and wall-clock cost. *)

module Make (A : Uqadt.S) :
  Generic.S
    with type state = A.state
     and type update = A.update
     and type query = A.query
     and type output = A.output
