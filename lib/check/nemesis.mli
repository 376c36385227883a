(** Randomized fault campaigns (a Jepsen-style nemesis for the
    simulator).

    Where {!Explore} is exhaustive on tiny scripts, a campaign runs
    {e many} medium-sized simulations, each with faults drawn from the
    run's seed — up to [max_crashes] crashes at random times (always
    leaving at least one survivor: the wait-free fault model of Section
    VII.A) and, with some probability, a partition that isolates a
    random group for a random window and then heals (the network stays
    reliable, as the paper assumes).

    For each run it asserts the two properties every update-consistent
    wait-free protocol must keep under this fault model:

    - {b convergence}: the final reads of the surviving processes agree
      (the partition healed and every surviving process's messages were
      delivered);
    - {b wait-freedom}: no operation of a surviving process stalls.

    Certificate disagreement is tracked as a third, stronger signal for
    log-based protocols. *)

module Make (P : Protocol.PROTOCOL) : sig
  type campaign = {
    runs : int;
    processes : int;
    ops_per_process : int;
    max_crashes : int;
        (** requested crash budget; the {e effective} cap is
            [min max_crashes (processes - 1)] — one survivor always
            remains — and is reported as [verdict.crash_cap] *)
    crash_probability : float;  (** chance a given run has any crash *)
    partition_probability : float;
    fifo : bool;
    base_seed : int;
  }

  val default_campaign : campaign
  (** 50 runs, 4 processes, 30 ops each, up to 2 crashes per crashing
      run (runs crash with p=0.5; with 4 processes the [processes - 1]
      clamp never bites, so the budget really is 2), partitions with
      p=0.5, no FIFO, base seed 1000. *)

  type verdict = {
    runs : int;
    crashes_injected : int;
    partitions_injected : int;
    crash_cap : int;
        (** the effective per-run crash budget,
            [min max_crashes (processes - 1)] *)
    capped_runs : int;
        (** crashing runs whose budget was silently clamped below the
            requested [max_crashes]; [0] whenever the request already
            fit *)
    convergence_failures : int;
    stalled_operations : int;
    certificate_disagreements : int;
    failing_seeds : int list;
  }

  val run :
    campaign ->
    workload:(Prng.t -> n:int -> ops:int -> (P.update, P.query) Protocol.invocation list array) ->
    final_read:P.query ->
    verdict

  val clean : verdict -> bool
  (** No convergence failures, no stalls, no certificate splits. *)
end
