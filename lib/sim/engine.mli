(** Discrete-event simulation core.

    The engine is a clock plus a priority queue of timestamped thunks.
    Determinism: ties are broken by insertion sequence number, and all
    randomness in the layers above comes from {!Prng} streams derived
    from the run's root seed, so a run is a pure function of its seed —
    the property that makes the adversarial-schedule experiments
    reproducible.

    Allocation: scheduling an event allocates its queue entry (and the
    caller's thunk); {!run} and {!step} allocate nothing of their own
    per event, so an event costs what its thunk allocates. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the thunk [delay] time units from now. [delay] must be finite
    and non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past execute "now". *)

val pending : t -> int

val run : ?until:float -> t -> unit
(** Execute events in time order until the queue is empty or the clock
    would pass [until]. *)

val step : t -> bool
(** Execute the single next event; [false] if the queue was empty. *)
