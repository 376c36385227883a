(** Mutable binary min-heap of timed items: the pending-event queue of
    the discrete-event simulator.

    Each entry is an [int] item keyed by its time and by its insertion
    rank, so entries with equal times leave in the order they came in.
    Keys and items live in three unboxed columns (a [Float.Array.t] of
    times and two [int array]s), so a push, a pop and a sift move no
    pointer and allocate nothing; the columns double when full.
    Amortised O(log n) push and pop, O(1) inspection of the minimum. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> time:float -> int -> unit
(** [push h ~time item] inserts [item] at [time]. Allocates nothing
    beyond an occasional doubling of the columns. *)

val push_after : t -> now:float -> delay:float -> int -> unit
(** [push h ~time:(now +. delay) item], with the sum computed inside
    the heap so that no box is made for it. *)

val min_item : t -> int
(** The item with the smallest key.
    @raise Invalid_argument on an empty heap. *)

val min_time : t -> float
(** Its time, boxed afresh on each call (2 words).
    @raise Invalid_argument on an empty heap. *)

val min_later_than : t -> float -> bool
(** [min_later_than h bound] is [min_time h > bound] without boxing.
    @raise Invalid_argument on an empty heap. *)

val remove_min : t -> unit
(** Drop the entry with the smallest key.
    @raise Invalid_argument on an empty heap. *)

val clear : t -> unit
