(** Directed graphs over integer nodes [0..n-1].

    Histories carry their program order as a DAG; the checkers need
    topological orders, reachability (transitive closure) and linear-
    extension enumeration (the linearizations of Definition 3). *)

type t

val create : int -> t
(** [create n] is the edgeless graph on nodes [0..n-1]. *)

val size : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g a b] adds a → b. Duplicate edges are ignored. *)

val succs : t -> int -> int list
(** Successors, in insertion order. *)

val is_acyclic : t -> bool

val topo_order : t -> int list option
(** Some topological order, or [None] if the graph has a cycle. *)

val reachable : t -> Bitset.t array
(** [reachable g] maps each node to the bitset of nodes reachable from it
    (excluding itself unless on a cycle). O(V·E/63). *)

val linear_extensions : t -> ?limit:int -> (int array -> bool) -> bool
(** [linear_extensions g f] enumerates linear extensions of the DAG,
    calling [f] on each (the array is reused — copy it to keep it). Stops
    and returns [true] as soon as [f] returns [true]; returns [false] when
    the enumeration is exhausted (or [limit] extensions were visited)
    without [f] accepting. *)

val count_linear_extensions : t -> limit:int -> int
(** Number of linear extensions, counting at most [limit]. *)
