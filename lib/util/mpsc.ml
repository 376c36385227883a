(* Bounded multi-producer single-consumer mailbox: a Vyukov-style array
   ring. Every slot carries a sequence number in an [Atomic.t];
   producers claim a slot by CAS on the tail ticket, publish the value,
   then release the slot by bumping its sequence; the single consumer
   reads its head ticket without any synchronisation of its own and
   releases slots by setting the sequence one lap ahead. The slot
   sequences are the only happens-before edges a transfer needs (the
   OCaml memory model makes an [Atomic.set] after the plain payload
   write a release, and the consumer's [Atomic.get] before the payload
   read an acquire). Neither side ever waits on the other.

   A slot holds its value unboxed: a free slot holds the placeholder
   given at [create], which [pop_run] writes back as it consumes, so a
   push allocates nothing and the ring keeps no consumed value
   reachable. *)

type 'a t = {
  buf : 'a array;
  empty : 'a;
  seq : int Atomic.t array;
  cap : int;
  tail : int Atomic.t;  (* next producer ticket *)
  mutable head : int;  (* next consumer ticket; single consumer *)
  closed : bool Atomic.t;
}

exception Closed

let create cap empty =
  if cap <= 0 then invalid_arg "Mpsc.create: capacity must be positive";
  {
    buf = Array.make cap empty;
    empty;
    seq = Array.init cap Atomic.make;
    cap;
    tail = Atomic.make 0;
    head = 0;
    closed = Atomic.make false;
  }

(* The consumer's own head is exact, and the tail never runs behind
   it, so this is never negative. *)
let length t = Atomic.get t.tail - t.head

let rec try_push t v =
  if Atomic.get t.closed then raise Closed;
  let ticket = Atomic.get t.tail in
  let slot = ticket mod t.cap in
  let s = Atomic.get t.seq.(slot) in
  if s = ticket then
    if Atomic.compare_and_set t.tail ticket (ticket + 1) then begin
      t.buf.(slot) <- v;
      Atomic.set t.seq.(slot) (ticket + 1);
      true
    end
    else try_push t v (* lost the ticket race; retry *)
  else if s < ticket then false (* slot still holds the previous lap: full *)
  else try_push t v (* another producer advanced the tail under us *)

(* Batch dequeue: consume the whole run of ready slots in one pass.
   Each slot's sequence is released individually — producers claim
   slots by per-slot sequence, so releasing early lets them refill
   behind the consumer. *)
let pop_run t f =
  let n = ref 0 in
  let running = ref true in
  while !running do
    let ticket = t.head in
    let slot = ticket mod t.cap in
    if Atomic.get t.seq.(slot) = ticket + 1 then begin
      let v = t.buf.(slot) in
      t.buf.(slot) <- t.empty;
      Atomic.set t.seq.(slot) (ticket + t.cap);
      t.head <- ticket + 1;
      incr n;
      f v
    end
    else running := false
  done;
  !n

let close t = Atomic.set t.closed true

(* Spin-then-park backoff for callers that must retry a ring operation
   while staying responsive to other duties (the engine's delivery loop
   drains its own mailbox between retries). A bounded burst of
   [Domain.cpu_relax] spins covers the common case of a consumer a few
   instructions away; past that [park] is invoked with an exponentially
   growing pause, capped, and reset on progress — so a transient stall
   costs nanoseconds while a genuinely full mailbox degrades to a
   polite poll. *)
module Backoff = struct
  let spin_limit = 64
  let park_min = 1e-6
  let park_max = 2e-4

  type t = { park : float -> unit; mutable spins : int; mutable pause : float }

  let create ~park = { park; spins = 0; pause = park_min }

  let reset b =
    b.spins <- 0;
    b.pause <- park_min

  let once b =
    if b.spins < spin_limit then begin
      b.spins <- b.spins + 1;
      Domain.cpu_relax ()
    end
    else begin
      b.park b.pause;
      b.pause <- Float.min park_max (b.pause *. 2.0)
    end
end
