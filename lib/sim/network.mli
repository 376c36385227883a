(** Simulated asynchronous message-passing network.

    The paper's system model (Section VII.A): a complete, reliable
    network between sequential crash-prone processes; no bound on
    transfer delays. Delay models draw each message's latency from a
    seeded distribution; [fifo] optionally enforces per-channel FIFO
    order (pipelined consistency needs it, Algorithm 1 does not);
    partitions hold cross-group traffic back until they heal (messages
    are never lost — reliability — only arbitrarily delayed); messages
    to or from crashed processes are dropped, which is harmless since a
    crashed process by definition sends and observes nothing further. *)

type delay_model =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Pareto of { scale : float; shape : float }
      (** heavy tail: the "very late messages" of Section VII.C *)

val draw_delay : Prng.t -> delay_model -> float

type partition = {
  from_time : float;
  to_time : float;
  group : int list;  (** processes isolated from the rest in the window *)
}

(** Dynamic membership. A [Leave] detaches a replica from the wire
    (frames to and from it are dropped, like a crash) without losing
    its state; a [Rejoin] re-attaches it, after which the runner
    repairs the gap by catch-up from a live peer's {!Persist} snapshot.
    A [Join] brings up a replica that was absent from the start (its
    pid must still be within [n]; it holds no state until it joins). *)
type churn_action = Join | Leave | Rejoin

type churn_event = { time : float; pid : int; action : churn_action }

val churn_action_name : churn_action -> string

val churn_action_of_name : string -> churn_action option

type 'msg t

val create :
  engine:Engine.t ->
  rng:Prng.t ->
  metrics:Metrics.t ->
  n:int ->
  ?fifo:bool ->
  ?partitions:partition list ->
  ?envelope:int ->
  ?record_delivery:
    (sent:float -> received:float -> src:int -> dst:int -> 'msg -> unit) ->
  ?obs:Obs.t ->
  delay:delay_model ->
  wire_size:('msg -> int) ->
  deliver:(dst:int -> src:int -> 'msg -> unit) ->
  unit ->
  'msg t
(** [deliver] is invoked at the (simulated) arrival time of each message
    not addressed to or sent by a then-crashed process. [envelope]
    (default [0]) is the per-frame wire overhead in bytes charged to
    [bytes_sent] once per frame — a batch of [k] messages to one
    destination pays it once instead of [k] times, which is the whole
    point of {!send_batch}/{!broadcast_batch}. With the default [0]
    every byte count is identical to the unbatched accounting.

    When [obs] is given, the network additionally (a) mirrors the flat
    counters into per-replica registry series ([messages_sent{pid=src}],
    [delivery_latency{pid=dst}], …), (b) stamps every outgoing message
    with the ambient {!Obs.Span.active} span, at no cost in wire bytes,
    (c) brackets each delivery in its message's span, so spans follow
    updates across replicas without touching message types, and (d)
    when [obs.journal] is attached, records every wire frame, delivery,
    and drop into it. With [obs] absent all of this is compiled away
    behind a [None] check and the run is bit-identical to the seed.

    Allocation with [obs] absent: a frame allocates its stamped
    message list (a pair and a cons per message, built once per
    broadcast and shared by every destination's frame), its delay draw
    (see {!Prng}) and the box of its arrival time handed to the
    {!Engine}. It takes a slot of the network's frame pool — columns
    of sources, destinations, counts, send and arrival times and
    message lists, reused once the frame is delivered or dropped — and
    its delivery is a typed engine event carrying that slot, so no
    closure, queue record or journal event is built. The delivery
    itself allocates the clock's box and nothing else beyond what
    [deliver] and [record_delivery] do: the latency sum is added in an
    unboxed cell (same additions, same order, same bits) and published
    to [metrics.delivery_latency_sum] whenever {!Engine.run} returns.
    A singleton {!send} and its delivery cost 10 words on a constant
    delay model. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit

val broadcast : 'msg t -> src:int -> 'msg -> unit
(** One message to every process {e other than} the sender — the paper
    treats a sender's own copy as received instantaneously, so protocols
    apply their own updates synchronously instead. Counts [n-1]
    messages. *)

val send_batch : 'msg t -> src:int -> dst:int -> 'msg list -> unit
(** One wire frame carrying the messages in order: one delay draw, one
    envelope charge, one delivery event delivering them back-to-back
    (all-or-nothing if the destination crashes first). [[]] is a
    no-op. Frames with at least two messages count in
    [Metrics.batches_sent]. *)

val broadcast_batch : 'msg t -> src:int -> 'msg list -> unit
(** {!send_batch} to every process other than the sender. *)

val broadcast_stamped_batch :
  'msg t -> src:int -> ('msg * Obs.Span.id option) list -> unit
(** {!broadcast_batch}, but with the span stamp of each message
    supplied by the caller instead of read from the ambient context —
    for buffered batching, where the frame flushes long after the spans
    that produced its messages were active. Spans are ignored when the
    network has no [obs]. *)

val ambient : 'msg t -> Obs.Span.id option
(** The span currently stamped onto outgoing messages ([None] when
    telemetry is off or no span is active). *)

val crash : 'msg t -> int -> unit
(** Mark a process crashed: it no longer sends or receives. *)

val detach : 'msg t -> int -> unit
(** Take a process offline (churn leave): frames to and from it are
    dropped until {!attach}. Unlike {!crash} this is reversible, and
    unlike a partition it loses frames rather than delaying them —
    the gap must be repaired by catch-up on rejoin. *)

val attach : 'msg t -> int -> unit
(** Bring an offline process back onto the wire. *)

val separated_at : 'msg t -> src:int -> dst:int -> at:float -> bool
(** Whether a partition separates [src] from [dst] at time [at].
    Catch-up transfers check this so a joiner cannot sync state across
    a partition it could not have communicated through. *)

val alive : 'msg t -> int list
