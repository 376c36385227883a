(** Consistent-hash ring: the shard map of the sharded object space.

    Keys and shards hash onto a 62-bit circle; a key belongs to the
    shard owning the first point clockwise of the key's hash. Each
    shard plants 64 points, so ownership is balanced to within a
    small factor of ideal and — the property rebalancing leans on —
    membership changes disturb only the keys adjacent to the points
    that appeared or vanished:

    {ul
    {- {!add}: a key either keeps its shard or moves to the new one,
       never between two old shards;}
    {- {!remove}: only keys of the removed shard move;}
    {- {!split}: the new shard's points bisect the hot shard's arcs, so
       only the hot shard sheds keys (roughly half of them).}}

    The ring is immutable and deterministic: same construction sequence,
    same routing, on every platform. No randomness, no wall clock. *)

type t

val create : shards:int -> unit -> t
(** [create ~shards ()] builds a ring over shard ids [0 .. shards-1]
    with 64 points each.
    @raise Invalid_argument if [shards < 1]. *)

val shards : t -> int
(** Number of shards currently on the ring. *)

val shard_ids : t -> int list
(** Sorted; ids of removed shards are never reused. *)

val max_id : t -> int
(** Largest shard id ever allocated (so callers can size arrays as
    [max_id + 1] whatever the removal history). *)

val route : t -> int -> int
(** [route t key] is the shard owning [key]. Total over all ints. *)

val add : t -> t * int
(** Grow the ring by one shard (standard vnode placement); returns the
    new ring and the fresh shard id. Keys either stay put or move to
    the new shard. *)

val remove : t -> int -> t
(** Drop a shard's points; its keys redistribute to the survivors,
    everyone else's keys stay put.
    @raise Invalid_argument on an unknown id or the last shard. *)

val split : t -> hot:int -> t * int
(** Targeted relief: plant the fresh shard's points at the midpoints of
    [hot]'s arcs, so every key that moves comes from [hot] (about half
    of its span) and no other shard is disturbed.
    @raise Invalid_argument on an unknown [hot]. *)

val owned_share : t -> keys:int -> (int * int) list
(** Diagnostic: how many of the keys [0 .. keys-1] each shard owns,
    as a sorted [(shard, count)] list. *)

val pp : Format.formatter -> t -> unit
