(** The shared operation-log substrate every replica protocol sits on.

    Algorithm 1's replica state is "the set of timestamped updates
    received so far, sorted by timestamp". The seed implementations
    each kept a private copy of that machinery — Algorithm 1 a sorted
    cons-list with O(n) scan insertion (now {!Generic_ref}), its
    snapshot-cache variant an array with linear insert-position search
    plus its own checkpoint cache, its stability-GC variant another
    sorted list plus a stability bound, {!Undo} a reversed list. This
    module is the single substrate they now share, the variants as
    configurations of {!Generic}:

    {ul
    {- {b Storage}: [(timestamp, payload)] entries kept sorted by
       timestamp ascending, in three parallel columns: the clock and
       the pid unboxed in int arrays, and the payload. The pid is the
       issuing process, the origin a view or a frame names. Timestamps
       are (Lamport clock, pid) pairs and therefore {e strictly} totally
       ordered — no two entries ever compare equal. An entry costs
       three words plus its payload, where a boxed record and its boxed
       timestamp cost eight.}
    {- {b Pages}: the columns are cut into pages of 1,024 entries. The
       log holds page 0 directly and doubles it from 8 entries up to
       one page; every later page is allocated whole into a page table
       that grows by doubling. No column longer than one page is ever
       copied or freed, so growth leaves no large freed blocks behind,
       and a whole page is allocated in the major heap instead of being
       promoted from the minor one.}
    {- {b Insertion}: binary-search locate (O(log n)) plus a move of
       the suffix, one blit per column and page it spans, instead of
       the seed's O(n) cons-scan. Fresh updates land at the end after
       one comparison with the tail, with no search; late arrivals land
       mid-log and shift the suffix. No insertion path builds a record
       per entry: {!insert} takes the fields, and {!insert_batch} and
       {!merge_frame} gather into column scratch.}
    {- {b Checkpoints}: the Section VII.C memoised-replay cache,
       generalising the seed's fixed snapshot interval. {!replay} records the
       folded state every [checkpoint_interval] entries and starts the
       next replay from the deepest checkpoint still valid; an insert
       at position [pos] invalidates exactly the checkpoints strictly
       above [pos]. They are kept deepest first, so the invalidated
       ones are a run at the head: an insert pays O(dropped), and an
       append, which drops nothing, pays one comparison. The optional
       query cache keeps the last folds of the latest replay near the
       tail, where late arrivals land: one, or the last 8 once an
       arrival has landed just below them, so a query refolds only from
       where a late entry landed. The interval checkpoints bound the
       deeper landings and catch-up merges.}
    {- {b Stability watermark}: the hook of {!Generic.gc}. {!compact}
       folds the prefix at or below a clock bound into a caller-held
       snapshot state and remembers the bound; {!insert} refuses
       timestamps at or below the watermark (they would mutate a
       discarded prefix).}
    {- {b Codec}: the one wire path for persistence. {!encode_list} /
       {!encode} produce byte-for-byte the frame the seed {!Persist}
       wrote (magic "UCL", version, varint count, entries, additive
       checksum), so snapshots taken before this refactor still
       restore. One walker parses it: {!decode_list} into a list, and
       {!merge_frame} straight into the live log. It refuses an entry
       whose origin varint is not its pid.}}

    Invariants maintained:
    {ul
    {- entries are strictly increasing by {!Timestamp.compare};}
    {- every checkpoint [(k, s)] satisfies [0 < k <= length] and [s] is
       the fold of the first [k] entries over the [apply] passed to
       {!replay};}
    {- every stored timestamp has [clock > watermark].}} *)

type ('u, 's) t
(** A log of ['u] payloads whose checkpoints hold ['s] states. *)

val create : ?checkpoint_interval:int -> ?query_cache:bool -> unit -> ('u, 's) t
(** An empty log. [checkpoint_interval] (default [0] = checkpoints off)
    is how many entries {!replay} folds between recorded states.
    [query_cache] (default [false]) additionally keeps the folds at
    consecutive positions [lo .. hi] of the latest {!replay}, [hi] its
    tail, and starts each replay from the deeper of [hi] and the head
    checkpoint: a query issued after a run of appends folds only the
    suffix that arrived since the previous query. An entry landing at
    [pos < hi] lowers [hi] to [pos] (the folds at or below it stay
    valid), and one landing below [lo] empties the cache. The cache
    holds one fold until an entry lands below [lo] but fewer than 8
    entries below [hi]; the next replay then allocates an 8-slot ring,
    once, and the log keeps the last 8 folds of every replay from then
    on. Only enable it when every {!replay} on this log uses the same
    [apply]/[initial] (the checkpoint assumption).
    @raise Invalid_argument if the interval is negative. *)

val set_profile : ('u, 's) t -> Obs.Profile.t option -> unit
(** Attach (or detach, with [None] — the initial state) a telemetry
    profile. With one attached, {!insert} counts appends vs mid-log
    shifts and dropped checkpoints, {!replay} counts passes/steps and
    checkpoint hit/miss/take, and {!compact} counts folded entries —
    all plain field bumps, no registry lookups on the hot path. With
    or without one, {!insert}, {!insert_batch} and {!replay} allocate
    no closure. *)

val length : ('u, 's) t -> int

val get : ('u, 's) t -> int -> Timestamp.t * int * 'u
(** [get t i] is the [i]-th entry in timestamp order, as a
    [(timestamp, pid, payload)] triple built for the caller, the pid
    standing as the entry's origin (a view for tests and diagnostics;
    {!clock} and {!payload} read one column).
    @raise Invalid_argument unless [0 <= i < length t]. *)

val clock : ('u, 's) t -> int -> int
(** [clock t i] is the clock of the [i]-th entry's timestamp.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val payload : ('u, 's) t -> int -> 'u
(** [payload t i] is the [i]-th entry's payload.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val locate : ('u, 's) t -> Timestamp.t -> int
(** The position at which an entry with this timestamp belongs: the
    index of the first entry whose timestamp is greater. O(log n)
    binary search. Timestamps are unique, so this is unambiguous. *)

val holds : ('u, 's) t -> clock:int -> pid:int -> bool
(** Whether the log holds the entry stamped [(clock, pid)]: one
    {!locate}. *)

val insert : ('u, 's) t -> clock:int -> pid:int -> 'u -> int
(** [insert t ~clock ~pid payload] inserts the entry that process [pid]
    stamped [(clock, pid)] in timestamp order and returns the position
    it landed at; checkpoints above that position are invalidated, at O(1) per
    checkpoint dropped whatever the number still live. An entry that
    sorts above the tail is appended after one comparison with the
    tail, before any binary search; anything else pays {!locate}. An
    append allocates nothing (beyond a doubling of page 0 or a fresh
    page once the last one is full), however many checkpoints the log
    carries.
    Idempotent on a duplicate timestamp: timestamps are unique
    run-wide, so an equal timestamp is the same update delivered again
    (churn catch-up makes delivery at-least-once) and the log is left
    unchanged.
    @raise Invalid_argument if the timestamp's clock is at or below the
    stability {!watermark}. *)

val insert_batch :
  ('u, 's) t ->
  clock:('m -> int) ->
  pid:('m -> int) ->
  payload:('m -> 'u) ->
  'm list ->
  int
(** [insert_batch t ~clock ~pid ~payload items] inserts a whole
    envelope, reading each item's timestamp [(clock, pid)] and payload
    through the three accessors (so an item need hold no
    {!Timestamp.t}), and returns how many entries were fresh.
    Semantically identical to folding {!insert} over the list in order
    — duplicate timestamps (within the batch or against the log) are
    skipped, checkpoints above the lowest fresh landing position are
    invalidated — but the items are gathered into column scratch (three
    arrays, no record per item) and cost one stable sort plus a single
    back-to-front merge pass over the pages (every resident entry moves
    at most once), instead of k binary searches each paying a suffix
    move. A batch that already ascends strictly by timestamp (a
    sender's envelope, a snapshot frame) skips the sort; any other
    order, duplicates included, takes it.
    @raise Invalid_argument if any timestamp's clock is at or below
    the stability {!watermark}; the log is then left unchanged (the
    batch is validated before the merge). *)

val fold_down : (int -> 'u -> 'a -> 'a) -> ('u, 's) t -> 'a -> 'a
(** [fold_down f t init] folds [f pid payload] over the entries latest
    first (a right fold), allocating nothing beyond what [f] does: the
    shape of {!Protocol.PROTOCOL.certificate}'s fold, whose origin is
    the pid. *)

val fold_down_merged :
  ('a -> int -> int -> 'u -> 'a) -> 'a -> ('u, 's) t array -> 'a
(** [fold_down_merged f init logs] folds [f acc clock pid payload] over
    the entries of all [logs] in one timestamp order,
    latest first: a k-way merge read in place, O(entries x log k). Beyond what [f] allocates it allocates
    O(k) words of arrays, nothing per entry, so a list built by
    prepending comes out in timestamp order at the cost of its cells.
    Entries of distinct logs that share a timestamp come in an
    unspecified order. *)

val to_list : ('u, 's) t -> (Timestamp.t * int * 'u) list
(** The log in timestamp order, in the triple shape the seed
    [local_log] API exposed — the compatibility view {!Persist} and the
    experiments consume, each entry as {!get} builds it. *)

val load : ('u, 's) t -> (Timestamp.t * int * 'u) list -> unit
(** Replace the contents with the given [(timestamp, origin, payload)]
    entries (sorted here, so any order is accepted), dropping all
    checkpoints and resetting the watermark. Crash-recovery path: the
    checkpoint interval is kept.
    @raise Invalid_argument, with the log unchanged, if an entry's
    origin is not its timestamp's pid. *)

val replay :
  ('u, 's) t -> apply:('s -> 'u -> 's) -> initial:'s -> 's * int
(** Fold the log left-to-right, starting from the deepest valid
    checkpoint (or [initial] if none), recording a new checkpoint every
    [checkpoint_interval] entries on the way. Returns the final state
    and the number of [apply] steps actually performed — the
    [replay_steps] observable of experiment C2. With checkpoints off
    this is a plain full fold. With the query cache it starts from the
    cache's deepest fold when that is at least as deep as the head
    checkpoint, and records the last folds on the way. Beyond its
    result pair, it allocates only what [apply] does and one cell per
    checkpoint it records: each fold the query cache keeps is one store
    into its ring, whose slots are allocated once (at the first
    replay, and again once the cache widens). *)

val checkpoints_live : ('u, 's) t -> int
(** Currently valid checkpoints (diagnostics). *)

val checkpoints : ('u, 's) t -> (int * 's) list
(** The valid checkpoints, deepest first, as [(k, fold of the first k
    entries)] pairs (diagnostics and tests). *)

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
    timestamp, a varint origin (the pid again), and the payload — the
    [metadata_bytes] accounting every protocol previously duplicated. *)

(** {2 Codec}

    The persistence wire format, unchanged from the seed {!Persist}:
    magic "UCL", a version byte, a varint entry count, per entry the
    clock/pid/origin varints then the codec-encoded update, and a
    trailing varint additive checksum of everything before it. The
    origin varint is written from the pid, and a decoder refuses an
    entry whose origin is not its pid. The frame is self-delimiting, so
    it can be embedded in larger frames. *)

val encode_list :
  encode_update:(Codec.Writer.t -> 'u -> unit) ->
  (Timestamp.t * int * 'u) list ->
  string
(** The frame of the [(timestamp, origin, update)] entries, in list
    order. Each origin varint is written from the timestamp's pid. *)

val decode_list :
  decode_update:(Codec.Reader.t -> 'u) ->
  Codec.Reader.t ->
  (Timestamp.t * int * 'u) list
(** The entries of the frame on the reader, in frame order. The reader
    must end where the frame does ({!Codec.Reader.nested} reads one
    embedded in a larger frame without copying it).
    @raise Codec.Decode_error on bad magic, unsupported version,
    truncation, an origin other than its entry's pid, trailing bytes,
    or checksum mismatch. *)

val frame_floor : decode_update:(Codec.Reader.t -> 'u) -> Codec.Reader.t -> int
(** Check the frame on the reader as {!decode_list} does, keeping
    nothing but what [decode_update] builds, and return the lowest clock
    among its entries ([max_int] if it has none): {!merge_frame} into a
    log merges the frame iff its floor is above the log's
    {!watermark}.
    @raise Codec.Decode_error as {!decode_list}. *)

val merge_frame :
  ('u, 's) t ->
  decode_update:(Codec.Reader.t -> 'u) ->
  Codec.Reader.t ->
  int option
(** Churn catch-up as a streaming merge: walk the frame on the reader
    (which must end where the frame does) and merge its entries into
    the log by timestamp union, as {!insert_batch} would, without
    building the entry list. Each entry's (clock, pid) is looked up in
    place, only an entry the log lacks is copied into column scratch,
    the checksum is summed over the bytes where they lie, and only then
    do the fresh entries land, in one batch merge (sorted and deduplicated
    first unless the frame ascends, as snapshot frames do), so
    checkpoints and the query cache below the lowest fresh entry
    survive. [Some c], [c] the highest clock in the frame ([0] if it is
    empty), once merged; [None], with the log untouched, if an entry's
    clock is at or below the stability {!watermark}.
    @raise Codec.Decode_error as {!decode_list}, with the log
    untouched. *)

val encode :
  ?update_wire_size:('u -> int) ->
  encode_update:(Codec.Writer.t -> 'u -> unit) ->
  ('u, 's) t ->
  string
(** Byte-for-byte the frame [encode_list (to_list t)] produces, but
    encoded straight from the columns — no intermediate list —
    with the writer pre-sized to the exact frame length when
    [update_wire_size] is given (the {!Wire} accounting the specs
    already expose). The persistence hot path. *)
