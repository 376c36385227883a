(** Linearizability (Herlihy & Wing) — atomicity, the paper's reference
    point for "strong" consistency (Section I cites the Attiya–Welch
    separation between it and sequential consistency).

    A timed history is linearizable iff some linearization in [L(O)]
    additionally respects the {e real-time} order: if operation [a]
    responded before operation [b] was invoked, [a] precedes [b].
    Real-time constraints come from the runner's recorded intervals, so
    this checker applies to executions, not to bare histories (the
    paper's criteria never need wall-clock — that is exactly what makes
    them cheaper).

    Used to validate the ABD baseline (its runs must be linearizable)
    and to exhibit the converse: wait-free update-consistent objects
    answer stale reads, so their runs generally are not. *)

type intervals = { starts : Float.Array.t; finishes : Float.Array.t }
(** Two unboxed columns indexed by event id: [starts] holds each
    event's invocation time and [finishes] its response time, infinite
    for an operation that never completed (it then constrains nothing
    after it, the standard treatment of pending operations that are
    deemed to take effect). *)

module Make (A : Uqadt.S) : sig
  type history = (A.update, A.query, A.output) History.t

  val witness :
    history -> intervals:intervals -> (A.update, A.query, A.output) History.event list option
  (** A linearization of [history] that respects the real-time order of
      [intervals]. Raises [Invalid_argument] unless both columns hold
      one time per event. *)

  val holds : history -> intervals:intervals -> bool
end
