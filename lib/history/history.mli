(** Distributed histories (Definition 2 of the paper).

    A history is a countable set of events labelled by operations and
    partially ordered by the program order [7→]. This implementation is
    process-structured: the program order is the disjoint union of one
    total order per sequential process, which covers every history in the
    paper and everything a run of the simulator can produce.

    Infinite histories are encoded finitely with an {e ω flag}: an event
    marked ω is a query repeated infinitely often (the [R/∅^ω] notation
    of Figures 1 and 2). The consistency checkers interpret "all but
    finitely many events" as "every ω event" — the standard finite
    encoding of eventual properties. *)

type ('u, 'q, 'o) step =
  | U of 'u  (** an update event *)
  | Q of 'q * 'o  (** a query event, executed once *)
  | Qw of 'q * 'o  (** a query event repeated infinitely (ω) *)

type ('u, 'q, 'o) event = private {
  id : int;  (** global index in [events] *)
  pid : int;  (** issuing process *)
  seq : int;  (** rank within the process *)
  label : ('u, 'q, 'o) Uqadt.operation;
  omega : bool;
}

type ('u, 'q, 'o) t = private {
  events : ('u, 'q, 'o) event array;
  procs : int array array;  (** [procs.(p)] = event ids of process p, in order *)
}

val init :
  int array ->
  (int -> int -> ('u, 'q, 'o) Uqadt.operation) ->
  (int -> bool) ->
  ('u, 'q, 'o) t
(** [init lengths label omega] is the history in which process [p] has
    [lengths.(p)] events, its [k]-th labelled [label p k], and its last
    event is ω iff [omega p]. [label] is called once per event, process
    by process in program order; [omega] only for processes with
    events. The one construction path ({!make} goes through it): it
    allocates the history's own blocks — one event record per event,
    the event array and one id array per process — and nothing per
    event besides what [label] returns.
    @raise Invalid_argument if a length is negative. *)

val make : ('u, 'q, 'o) step list list -> ('u, 'q, 'o) t
(** [make per_process] builds a history from one operation list per
    process, through {!init}.
    @raise Invalid_argument if an ω step is followed by further steps of
    the same process (an ω event is by construction the last event of its
    process). *)

val events : ('u, 'q, 'o) t -> ('u, 'q, 'o) event list

val event : ('u, 'q, 'o) t -> int -> ('u, 'q, 'o) event

val size : ('u, 'q, 'o) t -> int

val process_count : ('u, 'q, 'o) t -> int

val process_events : ('u, 'q, 'o) t -> int -> ('u, 'q, 'o) event list

val steps_of_process : ('u, 'q, 'o) t -> int -> ('u, 'q, 'o) step list
(** The inverse of {!make} for one process: rebuild its step list (e.g.
    to edit a history or permute its processes). *)

val updates : ('u, 'q, 'o) t -> ('u, 'q, 'o) event list
(** The update events [U_H], in id order. *)

val queries : ('u, 'q, 'o) t -> ('u, 'q, 'o) event list
(** The query events [Q_H], in id order. *)

val omega_queries : ('u, 'q, 'o) t -> ('u, 'q, 'o) event list

val update_of : ('u, 'q, 'o) event -> 'u option

val query_of : ('u, 'q, 'o) event -> ('q * 'o) option

val po : ('u, 'q, 'o) t -> int -> int -> bool
(** [po h a b] iff event [a] precedes event [b] in the program order
    (strictly). *)

val po_dag : ('u, 'q, 'o) t -> Dag.t
(** The program order as a DAG on event ids (successor edges only; take
    the transitive closure for the full relation). *)

val update_index : ('u, 'q, 'o) t -> int array * int array
(** [(update_ids, rank)] where [update_ids] lists the event ids of the
    updates in id order and [rank.(event_id)] is the update's position in
    that list ([-1] for queries). Checkers index their bitsets by update
    rank. *)

val update_dag : ('u, 'q, 'o) t -> Dag.t
(** Program order restricted to updates, on update ranks. *)

val fingerprint :
  (Format.formatter -> 'u -> unit) ->
  (Format.formatter -> 'q -> unit) ->
  (Format.formatter -> 'o -> unit) ->
  ('u, 'q, 'o) t ->
  string
(** FNV-1a hash (16 hex digits) of the per-process event lines,
    rendered with the given printers. Two histories fingerprint equal
    iff every process issued the same operations with the same outputs
    in the same order — the replay-determinism check of
    [ucsim replay]. *)

val pp :
  (Format.formatter -> 'u -> unit) ->
  (Format.formatter -> 'q -> unit) ->
  (Format.formatter -> 'o -> unit) ->
  Format.formatter ->
  ('u, 'q, 'o) t ->
  unit
(** One line per process, events separated by arrows, ω marked with a
    superscript — the layout of the paper's figures. *)
