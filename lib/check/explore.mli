(** Small-scope model checker: Proposition 4, executed.

    The paper proves Algorithm 1 strong update consistent over {e
    every} asynchronous execution; this module enumerates every
    execution of a wait-free protocol on a small configuration — all
    interleavings of operation invocations and message deliveries, with
    messages reorderable arbitrarily (non-FIFO, unbounded-delay
    network) — extracts each distributed history, and runs the
    {!Criteria} checkers on it.

    With every option off, [explore] is an exhaustive DFS over
    schedules, in a fixed order, that rebuilds every replica from
    scratch along every path (quadratic replay, practical only up to
    ~15-event schedules), with one history check per complete execution
    and a [limit] capping enumeration. The engine keeps one mutable world per explored branch
    and adds four independently switchable scaling mechanisms:

    {ol
    {- {b Checkpointed replay}. Along the DFS path the engine snapshots
       protocol state every [checkpoint_every] events through a
       caller-supplied {!type:snapshotter} (for Algorithm 1 replicas,
       {!Persist.Make.snapshot_replica} — the {!Codec} log frame plus
       the exact Lamport clock). Backtracking restores the nearest
       checkpoint and replays only the events since it, so extending a
       schedule costs O(interval) protocol steps instead of O(depth²).
       Without a snapshotter the engine rebuilds from the initial
       state.}
    {- {b Partial-order reduction} ([por]). A sleep-set pass (Godefroid)
       skips re-interleaving independent transitions. Two transitions
       are treated as independent iff they commute in every state and
       neither disables the other; the relation used is: invocations at
       distinct replicas; an invocation and a delivery to a distinct
       replica; deliveries to distinct replicas; and — only when the
       caller's [deliveries_commute] oracle says so — deliveries to the
       {e same} replica. The oracle is how spec-level knowledge enters:
       for log-inserting protocols (Algorithm 1 and its variants) any
       two deliveries commute (a timestamp-sorted insert plus a max
       clock merge is order-insensitive), and for apply-on-receive
       protocols it is exactly [A.commutative] — the {!Commutative}
       fast-path condition. Crash events are conservatively dependent
       with everything. Soundness: the per-process step sequences
       extracted as the history are invariant under swapping adjacent
       independent transitions, and sleep sets explore at least one
       representative of every Mazurkiewicz trace of complete
       executions, so the {e set} of reachable histories — and hence
       every per-criterion verdict and {!report.distinct_failures}
       count — is preserved exactly.}
    {- {b State fingerprinting} ([dedup]). Exploration states are hashed
       ({!Fingerprint}) over replica states × in-flight messages ×
       script positions × crash flags × the history recorded so far
       (the last component is what makes cutting a converging schedule
       sound: equal keys imply equal pasts {e and} equal futures, so
       the pruned subtree contributes no history not already checked).
       Replica states enter the key through [state_key] (or the
       snapshotter's [save]); a timestamp-blind key such as
       {!Snapshot.For_generic.commutative_key} additionally collapses
       states that differ only in unobservable timestamps — sound only
       for commutative specs. Combined with sleep sets, a state is
       skipped only if it was previously explored with a sleep set
       {e included} in the current one (the classical side condition
       for mixing sleep sets with state matching).}
    {- {b Parallel exploration} ([domains]). First-level branches fan
       out over OCaml 5 domains, each with its own world, visited table
       and counters; fragments are merged deterministically in branch
       order, so the report is independent of [domains] (as long as
       [limit] is not hit).}} *)

type 'replica snapshotter = {
  save : 'replica -> string;
  load : 'replica -> string -> unit;
      (** [load] must reconstruct the saved state exactly when applied
          to a {e freshly created} replica. *)
}

(** Exploration effort counters. *)
type stats = {
  states_explored : int;  (** DFS nodes visited (not pruned) *)
  states_pruned_por : int;  (** transitions skipped by sleep sets *)
  states_deduped : int;  (** subtrees cut by fingerprint matching *)
  checkpoint_restores : int;  (** snapshot loads during backtracking *)
  protocol_steps : int;
      (** scheduled events executed against live replicas, including
          catch-up replay — the replay-work metric the bench scenario
          compares across engine configurations *)
}

(** The checker for one protocol. It is restricted to wait-free
    protocols: every operation must complete within its own activation
    (an operation still pending when its turn passes raises
    [Invalid_argument]).

    [max_crashes] (default 0) additionally explores crash events: at
    every point of every schedule, up to that many processes may halt
    (never all of them). A crashed process invokes nothing further and
    drops deliveries; messages it had already sent remain in flight —
    exactly the paper's failure semantics. Proposition 4's claim is
    crash-insensitive, so the UC/EC verdicts must stay clean.

    Every live process issues [final_read] as its ω query at the end of
    each execution — crashed processes are mute, matching the wait-free
    fault model. Default criteria: [[UC; EC]] (the fast decidable ones —
    add [SUC] for the full Proposition 4 statement on very small
    scripts). *)
module Make (P : Protocol.PROTOCOL) : sig
  type report = {
    executions : int;
    exhaustive : bool;
    failures : (Criteria.t * int) list;
        (** per requested criterion, the number of {e explored}
            executions whose history violated it (reduction and
            deduplication lower this — compare
            {!field:distinct_failures} across configurations) *)
    distinct_failures : (Criteria.t * int) list;
        (** per requested criterion, the number of {e distinct}
            violating histories. Invariant under [por], [dedup] and
            [domains]: a reduced run must report the same distinct
            counts as the exhaustive one. *)
    first_failures : (Criteria.t * string) list;
        (** the first violating history found {e per criterion} (only
            criteria with at least one violation appear), so a
            violation of a later-listed criterion is never masked by an
            earlier one *)
    stats : stats;
  }

  val explore :
    ?limit:int ->
    ?criteria:Criteria.t list ->
    ?max_crashes:int ->
    ?por:bool ->
    ?dedup:bool ->
    ?checkpoint_every:int ->
    ?snapshot:P.t snapshotter ->
    ?state_key:(P.t -> string) ->
    ?message_key:(P.message -> string) ->
    ?deliveries_commute:(P.message -> P.message -> bool) ->
    ?domains:int ->
    scripts:(P.update, P.query) Protocol.invocation list array ->
    final_read:P.query ->
    unit ->
    report
  (** Defaults: [limit = 200_000] complete executions, [criteria =
      [UC; EC]], [max_crashes = 0], every engine feature off,
      [checkpoint_every = 4], [domains = 1] — the exhaustive
      enumeration.

      [dedup] requires a replica key: pass [state_key] or [snapshot]
      (whose [save] is then used), else [Invalid_argument] is raised.
      [message_key] (default [P.describe_message]) renders in-flight
      messages inside the fingerprint; a coarser renderer (e.g.
      {!Snapshot.For_generic.commutative_message_key}, which drops the
      unobservable timestamp) merges more states and must obey the same
      observational-equivalence obligation as [state_key].
      [deliveries_commute] widens the independence relation used by
      [por]; it must only return [true] when delivering the two
      messages to the same replica in either order provably yields the
      same replica state.

      Crash semantics, the wait-freedom guard and the final ω read are
      as {!Make} describes them. With [domains > 1] the report is
      identical to the sequential one unless [limit] cuts enumeration
      short (the cut point is then scheduling-dependent). *)
end
