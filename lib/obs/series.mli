(** Streaming time-series telemetry for long-horizon (soak) runs.

    The end-of-run registry dump answers "what happened overall"; this
    module answers "how did it evolve" without ever growing: each named
    series is a fixed-capacity {e decimating ring} — when full it drops
    every other retained sample and doubles its acceptance stride, so a
    week-long run occupies exactly the memory of a ten-second one while
    keeping an evenly spaced skeleton of the whole history (plus exact
    min/max/last over every sample ever offered).

    A {!sampler} feeds the rings on a simulated-time cadence: each tick
    snapshots a {!Registry} ({!Registry.sample}), runs caller-installed
    {!probe}s (GC stats, op-log lengths, queue depths, per-shard op
    rates), and summarizes sliding {!Stats.window}s of visibility
    latency into [latency_p50]/[latency_p99] series (per key for
    sharded runs). Every emitted point can also be streamed to a JSONL
    {!writer} — full resolution on disk, constant memory in process.
    Hooks registered with {!on_tick} run after each tick; the alert
    engine ({!Alert}) attaches itself this way. *)

type labels = (string * string) list

val compare_labels : labels -> labels -> int
(** Lexicographic by key, numeric-aware on values ([pid=2] < [pid=10]). *)

val labels_string : labels -> string
(** [{k=v,...}], or [""] for no labels — the rendering used in tables
    and alert messages. *)

(** {2 Rings} *)

type ring

val ring : capacity:int -> ring
(** Raises [Invalid_argument] when [capacity < 2] (decimation must be
    able to free a slot). *)

val ring_push : ring -> time:float -> value:float -> unit
(** O(1) amortized; never allocates after construction. *)

val ring_length : ring -> int
(** Retained points; always [<= capacity]. *)

val ring_stride : ring -> int
(** Current acceptance stride: the ring holds pushes
    [0, stride, 2*stride, ...]. Starts at 1, doubles at each halving. *)

val ring_pushes : ring -> int
(** Samples ever offered, including decimated-away ones. *)

val ring_points : ring -> (float * float) list
(** Retained [(time, value)] points, oldest first. *)

val ring_min : ring -> float
(** Minimum over {e all} pushes, not just retained ones. Meaningless
    before the first push. *)

val ring_max : ring -> float

val ring_last : ring -> float

(** {2 Store} — named series, keyed like registry metrics *)

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity for every series; defaults to 240 points. *)

val push : t -> name:string -> labels:labels -> time:float -> value:float -> unit
(** Find-or-create the [(name, labels)] ring and push into it. *)

val find : t -> string -> labels -> ring option

val find_named : t -> string -> (labels * ring) list
(** Every series with the given name, whatever its labels — how alert
    rules address per-replica series without enumerating pids. Sorted
    by labels. *)

val list : t -> ((string * labels) * ring) list
(** All series, sorted by name then labels. *)

(** {2 Sampler} *)

type point = { time : float; name : string; labels : labels; value : float }

type probe = unit -> (string * labels * float) list
(** Called once per tick; returns [(name, labels, value)] gauge
    readings. Probes must not mutate simulation state. *)

type sampler

val sampler :
  ?capacity:int -> ?registry:Registry.t -> interval:float -> unit -> sampler
(** [capacity] is the per-series ring size (default 240). The sliding
    latency windows hold the latest 256 samples each. [registry], when
    given, is snapshotted on every tick. Raises [Invalid_argument] on a
    non-positive [interval]. *)

val store : sampler -> t

val interval : sampler -> float

val ticks : sampler -> int
(** Ticks taken so far. *)

val add_probe : sampler -> probe -> unit

val on_tick : sampler -> (float -> unit) -> unit
(** The hook runs after each tick's points are pushed, with the tick's
    simulated time. Hooks run in registration order. *)

val set_sink : sampler -> (point -> unit) -> unit
(** Every emitted point is also handed to [sink] (used to stream JSONL
    at full resolution while the in-process rings decimate). *)

val observe_latency : sampler -> ?key:int -> float -> unit
(** Record one visibility-latency sample into the sliding window (and
    the per-[key] window when given — sharded runs key by pid or object
    key so each gets its own windowed p99). *)

val tick : sampler -> now:float -> unit
(** Take a sample unconditionally at simulated time [now]. *)

val maybe_tick : sampler -> now:float -> unit
(** Take a sample iff the cadence says one is due ([now >= next due]);
    then the next becomes due at [now + interval]. Call from existing
    activation points only — the sampler must never schedule engine
    events of its own, so enabling it cannot perturb a schedule. *)

(** {2 JSONL stream}

    Line 1 is a header [{"series":"ucsim","version":1,...meta}]; then
    one object per point [{"t":..,"name":..,"labels":{..},"v":..}]
    (labels omitted when empty), alert lines
    [{"alert":RULE,"t":..,"series":..,"v":..}] interleaved as they
    fire, and a trailing footer [{"points":N,"alerts":K}]. *)

val version : int

type writer

val writer : out_channel -> meta:(string * Json.t) list -> writer
(** Writes the header line immediately. *)

val write_point : writer -> point -> unit

val write_alert :
  writer -> time:float -> rule:string -> series:string -> value:float -> unit

val close_writer : writer -> unit
(** Writes the footer and flushes; does not close the channel. *)

type alert_line = { atime : float; rule : string; aseries : string; avalue : float }

type loaded = {
  meta : (string * Json.t) list;
  points : point list;  (** chronological, full resolution *)
  alerts : alert_line list;
}

val load : string -> loaded
(** Parses a stream written by {!writer}.
    @raise Failure with a one-line message on an unreadable file, a
    non-series stream, or an unsupported version. *)

(** {2 Rendering} *)

val sparkline : ?width:int -> float list -> string
(** Unicode bar glyphs normalized to the sample range, downsampled by
    slice means to at most [width] (default 60) columns. Flat series
    render mid-height. *)

val render : Format.formatter -> loaded -> unit
(** One sparkline + n/min/max/last row per series, then fired alerts. *)
