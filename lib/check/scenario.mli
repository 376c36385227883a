(** Property-driven scenario engine.

    A {e scenario} is a {!Run_spec.sequential} — seed, delays,
    FIFO-ness, partitions, crashes, churn, batching, probes, soak
    sampler — plus the typed per-process scripts it runs and the final
    read. It can be generated (QCheck), executed (through {!Runner},
    configured by {!Runner.Make.config_of_spec} exactly as [ucsim run]
    and [ucsim replay] configure it, with the online {!Obs.Monitor}s
    attached and a journal recording), and {e shrunk}: when a run is
    flagged by a monitor, {!Make.shrink} greedily re-runs structurally
    smaller candidates — every re-run deterministic, since everything
    is seeded — until no smaller scenario still violates the same
    criterion. The result is a smallest violating journal, replayable
    with [ucsim replay] and emitted by [ucsim shrink]. *)

module Make (P : Protocol.PROTOCOL) : sig
  module R : module type of Runner.Make (P)

  type t = {
    spec : Run_spec.sequential;
        (** everything but the scripts; its own [scripts] and
            [monitors] are not read *)
    scripts : R.action list array;  (** width must equal [spec.n] *)
    final_read : P.query option;
  }

  type outcome = {
    violation : Obs.Monitor.violation option;
        (** first monitor violation, with its journal event index *)
    journal : Obs.Journal.t;  (** sealed, replayable *)
    events : int;
    converged : bool;
  }

  val size : t -> int
  (** Structural size (total ops + faults + churn + processes) — the
      measure the shrinker strictly decreases. *)

  val pp : Format.formatter -> t -> unit

  val run : ?criteria:Obs.Monitor.criterion list -> t -> outcome
  (** Execute deterministically with the monitors attached (all three
      criteria by default) and a journal recording. The journal's
      header is the spec's, with [criteria] as its monitors. *)

  type shrunk = {
    scenario : t;
    outcome : outcome;
    runs : int;  (** re-executions the minimization spent *)
  }

  val shrink :
    ?max_runs:int -> ?criteria:Obs.Monitor.criterion list -> t -> shrunk option
  (** [None] when the scenario's run is not flagged by any of the
      [criteria] monitors (all three by default).
      Otherwise greedy descent to a local minimum that still trips the
      {e same criterion} as the original violation: drop whole scripts,
      then churn/crash/partition entries of the spec, then empty
      processes (the spec's n shrinks, its fault pids are remapped),
      then script halves, then single ops — restarting from the first
      candidate that reproduces, within [max_runs] (default 400)
      re-executions. Deterministic end to end. *)

  val gen : ?n_max:int -> ?ops_max:int -> unit -> t QCheck2.Gen.t
  (** Scenario generator for property tests: {!Run_spec.default} with
      a generated seed, n, delay and FIFO-ness, scripts from the
      object's own [random_update]/[random_query], minority crash schedules,
      single-pid partition windows, leave/rejoin churn. All structure
      derives from small integer primitives, so QCheck's integrated
      shrinking reduces it; follow with {!shrink} for semantic
      minimization. *)
end
