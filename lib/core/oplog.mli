(** The shared operation-log substrate every replica protocol sits on.

    Algorithm 1's replica state is "the set of timestamped updates
    received so far, sorted by timestamp". The seed implementations
    each kept a private copy of that machinery — {!Generic} a sorted
    cons-list with O(n) scan insertion, its snapshot-cache variant an
    array with linear insert-position search plus its own checkpoint
    cache, {!Gc} another sorted list plus a stability bound, {!Undo} a
    reversed list. This module is the single substrate they now share:

    {ul
    {- {b Storage}: a growable array of [(timestamp, origin, payload)]
       entries kept sorted by timestamp ascending. Timestamps are
       (Lamport clock, pid) pairs and therefore {e strictly} totally
       ordered — no two entries ever compare equal.}
    {- {b Insertion}: binary-search locate (O(log n)) plus one
       [Array.blit] to open the slot, instead of the seed's O(n)
       cons-scan. Fresh updates land at the end (locate terminates
       immediately); late arrivals land mid-log and shift the suffix.}
    {- {b Checkpoints}: the Section VII.C memoised-replay cache,
       generalising the seed's fixed snapshot interval. {!replay} records the
       folded state every [checkpoint_interval] entries and starts the
       next replay from the deepest checkpoint still valid; an insert
       at position [pos] invalidates exactly the checkpoints strictly
       above [pos].}
    {- {b Stability watermark}: the GC hook. {!compact} folds the
       prefix at or below a clock bound into a caller-held snapshot
       state and remembers the bound; {!insert} refuses timestamps at
       or below the watermark (they would mutate a discarded prefix).}
    {- {b Codec}: the one wire path for persistence. {!encode_list} /
       {!decode_list} produce byte-for-byte the frame the seed
       {!Persist} wrote (magic "UCL", version, varint count, entries,
       additive checksum), so snapshots taken before this refactor
       still restore.}}

    Invariants maintained:
    {ul
    {- entries are strictly increasing by {!Timestamp.compare};}
    {- every checkpoint [(k, s)] satisfies [0 < k <= length] and [s] is
       the fold of the first [k] entries over the [apply] passed to
       {!replay};}
    {- every stored timestamp has [clock > watermark].}} *)

type 'u entry = { ts : Timestamp.t; origin : int; payload : 'u }
(** One log record: the update payload as received, the pid that issued
    it, and the (Lamport clock, pid) timestamp ordering it. *)

type ('u, 's) t
(** A log of ['u] payloads whose checkpoints hold ['s] states. *)

val create : ?checkpoint_interval:int -> ?query_cache:bool -> unit -> ('u, 's) t
(** An empty log. [checkpoint_interval] (default [0] = checkpoints off)
    is how many entries {!replay} folds between recorded states.
    [query_cache] (default [false]) additionally memoises the full fold
    at the end of every {!replay}, so a query issued after a run of
    appends folds only the suffix that arrived since the previous
    query; an insert landing below the cached prefix invalidates it,
    exactly like a checkpoint. Only enable it when every {!replay} on
    this log uses the same [apply]/[initial] (the checkpoint
    assumption).
    @raise Invalid_argument if the interval is negative. *)

val set_profile : ('u, 's) t -> Obs.Profile.t option -> unit
(** Attach (or detach, with [None] — the initial state) a telemetry
    profile. With one attached, {!insert} counts appends vs mid-log
    shifts, {!replay} counts passes/steps and checkpoint hit/miss/take,
    and {!compact} counts folded entries — all plain field bumps, no
    registry lookups on the hot path. *)

val checkpoint_interval : ('u, 's) t -> int

val length : ('u, 's) t -> int

val get : ('u, 's) t -> int -> 'u entry
(** [get t i] is the [i]-th entry in timestamp order.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val locate : ('u, 's) t -> Timestamp.t -> int
(** The position at which an entry with this timestamp belongs: the
    index of the first entry whose timestamp is greater. O(log n)
    binary search. Timestamps are unique, so this is unambiguous. *)

val insert : ('u, 's) t -> 'u entry -> int
(** Insert in timestamp order and return the position the entry landed
    at; checkpoints above that position are invalidated. Idempotent on
    a duplicate timestamp: timestamps are unique run-wide, so an equal
    timestamp is the same update delivered again (churn catch-up makes
    delivery at-least-once) and the log is left unchanged.
    @raise Invalid_argument if the timestamp's clock is at or below the
    stability {!watermark}. *)

val insert_batch : ('u, 's) t -> 'u entry list -> int
(** Insert a whole envelope of entries and return how many were fresh.
    Semantically identical to folding {!insert} over the list in order
    — duplicate timestamps (within the batch or against the log) are
    skipped, checkpoints above the lowest fresh landing position are
    invalidated — but costs one stable sort of the batch plus a single
    back-to-front merge pass over the backing array (every resident
    entry moves at most once), instead of k binary searches each
    paying a suffix memmove.
    @raise Invalid_argument if any timestamp's clock is at or below
    the stability {!watermark}; the log is then left unchanged (the
    batch is validated before the merge). *)

val iter : ('u entry -> unit) -> ('u, 's) t -> unit

val fold : ('a -> 'u entry -> 'a) -> 'a -> ('u, 's) t -> 'a

val to_list : ('u, 's) t -> (Timestamp.t * int * 'u) list
(** The log in timestamp order, in the triple shape the seed
    [local_log] API exposed — the compatibility view {!Persist} and the
    experiments consume. *)

val load : ('u, 's) t -> (Timestamp.t * int * 'u) list -> unit
(** Replace the contents with the given entries (sorted here, so any
    order is accepted), dropping all checkpoints and resetting the
    watermark. Crash-recovery path: the checkpoint interval is kept. *)

val replay :
  ('u, 's) t -> apply:('s -> 'u -> 's) -> initial:'s -> 's * int
(** Fold the log left-to-right, starting from the deepest valid
    checkpoint (or [initial] if none), recording a new checkpoint every
    [checkpoint_interval] entries on the way. Returns the final state
    and the number of [apply] steps actually performed — the
    [replay_steps] observable of experiment C2. With checkpoints off
    this is a plain full fold. *)

val checkpoints_live : ('u, 's) t -> int
(** Currently valid checkpoints (diagnostics). *)

val watermark : ('u, 's) t -> int
(** The stability bound: every entry with clock at or below this has
    been folded out by {!compact} (initially [0]). *)

val compact : ('u, 's) t -> upto_clock:int -> apply:('s -> 'u -> 's) -> 's -> 's * int
(** [compact t ~upto_clock ~apply snapshot] folds every entry whose
    clock is at or below [upto_clock] into [snapshot], removes them
    from the log, advances the watermark to [upto_clock] (even when no
    entry qualified), drops all checkpoints (their bases shifted), and
    returns the new snapshot state with the number of entries folded.
    No-op returning [(snapshot, 0)] if [upto_clock] is at or below the
    current watermark. *)

val footprint : ('u, 's) t -> payload_wire_size:('u -> int) -> int
(** Wire bytes the retained entries would occupy: per entry the
    timestamp, a varint origin, and the payload — the [metadata_bytes]
    accounting every protocol previously duplicated. *)

(** {2 Codec}

    The persistence wire format, unchanged from the seed {!Persist}:
    magic "UCL", a version byte, a varint entry count, per entry the
    clock/pid/origin varints then the codec-encoded update, and a
    trailing varint additive checksum of everything before it. The
    frame is self-delimiting, so it can be embedded in larger frames. *)

val encode_list :
  encode_update:(Codec.Writer.t -> 'u -> unit) ->
  (Timestamp.t * int * 'u) list ->
  string

val decode_list :
  decode_update:(Codec.Reader.t -> 'u) -> string -> (Timestamp.t * int * 'u) list
(** @raise Codec.Decode_error on bad magic, unsupported version,
    truncation, trailing bytes, or checksum mismatch. *)

val encode :
  ?update_wire_size:('u -> int) ->
  encode_update:(Codec.Writer.t -> 'u -> unit) ->
  ('u, 's) t ->
  string
(** Byte-for-byte the frame [encode_list (to_list t)] produces, but
    encoded straight from the backing array — no intermediate list —
    with the writer pre-sized to the exact frame length when
    [update_wire_size] is given (the {!Wire} accounting the specs
    already expose). The persistence hot path. *)

val decode :
  decode_update:(Codec.Reader.t -> 'u) -> ('u, 's) t -> string -> unit
(** {!load} the decoded entries into an existing log.
    @raise Codec.Decode_error as {!decode_list}. *)
