(** Mutable binary min-heap.

    Used as the pending-event queue of the discrete-event simulator: the
    engine repeatedly pops the event with the smallest (time, tie-break)
    key. Amortised O(log n) insert and pop, O(1) peek. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val top_exn : 'a t -> 'a
(** {!peek} without the option: allocates nothing, for loops that test
    {!is_empty} first.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** {!pop} without the option: allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order (heap untouched). *)
