(** Bounded multi-producer single-consumer queue for inter-domain
    mailboxes: a lock-free Vyukov-style array ring whose per-slot
    sequence numbers (each an [Atomic.t]) carry both the full/empty
    state and the release/acquire edges the payload hand-off needs.

    Nothing here blocks. A producer that finds the ring full gets
    [false] back and decides for itself what to do meanwhile — the
    engine drains its own mailbox and retries, paced by {!Backoff} —
    and the consumer takes whatever is ready and returns.

    There must be at most one consumer ({!pop_run}/{!length} caller);
    producers may be any number of domains. *)

type 'a t

exception Closed
(** Raised by {!try_push} on a closed queue. *)

val create : int -> 'a -> 'a t
(** [create cap empty] is a queue holding at most [cap] (positive)
    elements. A slot holds its element itself, so a push and a pop
    allocate nothing (save for [float] elements, which the slot array
    stores flat and boxes as they are popped). A free slot holds the
    placeholder [empty], which is never handed to a consumer; the
    engine passes a frame with no messages.
    @raise Invalid_argument on a non-positive capacity. *)

val length : 'a t -> int
(** Elements pushed and not yet consumed, as the consumer sees them.
    Single consumer only. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue without blocking; [false] when full. @raise Closed if the
    queue is closed. *)

val pop_run : 'a t -> ('a -> unit) -> int
(** Drain the run of elements that are ready right now, calling [f] on
    each in FIFO order, and return how many were consumed ([0] when
    empty). Each slot is released as it is consumed, so producers
    refill the ring behind the drain, and gets the placeholder back
    before [f] runs, so the ring keeps no consumed element reachable.
    Single consumer only. *)

val close : 'a t -> unit
(** Mark the queue closed: further pushes raise {!Closed}, and what is
    already queued can still be drained. *)

(** Spin-then-park backoff for retry loops around the ring: 64
    [Domain.cpu_relax] spins, then parks through [park] whose pause
    doubles from 1 µs up to 200 µs. {!reset} on progress, so the next
    stall starts cheap again. *)
module Backoff : sig
  type t

  val create : park:(float -> unit) -> t
  (** [park] receives each pause in seconds ([Unix.sleepf] in the
      engine). *)

  val once : t -> unit
  (** Wait one step: spin while the burst lasts, park afterwards. *)

  val reset : t -> unit
  (** Declare progress: the next {!once} starts a fresh spin burst. *)
end
