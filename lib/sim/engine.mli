(** Discrete-event simulation core.

    The engine is a clock plus a queue of timed events (a {!Heap} keyed
    by time and insertion order). Determinism: ties are broken by
    insertion order, and all randomness in the layers above comes from
    {!Prng} streams derived from the run's root seed, so a run is a pure
    function of its seed — the property that makes the
    adversarial-schedule experiments reproducible.

    An event is a thunk or a typed event. A typed event is a {!kind}
    plus one [int] (a network frame-pool slot, a process id): the layer
    that registered the kind runs it through its handler, so the hot
    paths — frame deliveries, a process issuing its next operation —
    build no closure and no queue record per event. Crashes, churn,
    batch flushes and protocol timers stay thunks.

    Allocation: scheduling a thunk stores the caller's closure and the
    box of its time in a reused slot ({!schedule} boxes [now + delay],
    {!schedule_at} keeps the caller's box), and running it allocates
    nothing of the engine's: that box becomes the clock. A typed event
    allocates nothing when it is scheduled and one box when it runs —
    the clock's new value (2 words). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time. Allocates nothing. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the thunk [delay] time units from now. [delay] must be finite
    and non-negative. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past execute "now". *)

type kind
(** A kind of typed event. *)

val kind : t -> kind
(** A new kind of typed event on this engine. Set its handler with
    {!set_handler} before one of its events runs. *)

val set_handler : t -> kind -> (int -> unit) -> unit
(** [set_handler t k f]: an event of kind [k] carrying [i] runs [f i]. *)

val post : t -> delay:float -> kind -> int -> unit
(** {!schedule} for a typed event carrying the int; [delay] is checked
    the same way. The int must be non-negative. *)

val post_at : t -> time:float -> kind -> int -> unit
(** {!schedule_at} for a typed event carrying the int. *)

val pending : t -> int
(** Events scheduled and not yet run, of both sorts. *)

val run : ?until:float -> t -> unit
(** Execute events in time order until the queue is empty or the clock
    would pass [until]. *)

val step : t -> bool
(** Execute the single next event; [false] if the queue was empty. *)

val at_return : t -> (unit -> unit) -> unit
(** [at_return t f] runs [f] whenever {!run} returns, and whenever
    {!step} runs an event, also when an event raised: a layer that
    keeps a running total in an unboxed cell (the network's
    delivery-latency sum) publishes it to a boxed field there, once,
    instead of per event. Hooks run in the order they were added. *)
