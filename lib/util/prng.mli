(** Deterministic pseudo-random number generator.

    Simulations must be reproducible from a single integer seed,
    independently of the OCaml standard library version, so this module
    implements the SplitMix64 generator (Steele, Lea & Flood, OOPSLA'14).
    Each generator is an isolated mutable stream; {!split} derives an
    independent stream, which lets every simulated process own its own
    generator while the whole run stays a pure function of the root
    seed.

    Allocation: the generator is a 16-byte buffer, so a draw allocates
    no state. {!int}, {!int_in} and {!bool} allocate nothing; {!float},
    {!uniform}, {!exponential} and {!pareto} allocate only the box of
    the [float] they return (2 words); {!bits64} boxes its [int64]
    result. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator initialised from [seed]. *)

val copy : t -> t
(** [copy g] is a generator that will produce the same stream as [g]. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator seeded from its
    output. The child keeps the parent's additive constant, which is
    fine for the simulator's per-process streams (every child is
    re-seeded by a full mix) and keeps historical seeded runs
    byte-identical; for streams consumed concurrently at scale prefer
    {!fork}. *)

val fork : t -> t
(** [fork g] advances [g] twice and returns a statistically independent
    child stream: the full SplitMix64 [split] of Steele, Lea & Flood
    (OOPSLA'14), drawing both the child's seed and a fresh odd additive
    constant (gamma) so parent and child never walk the same Weyl
    sequence. Deterministic: the same parent state always yields the
    same child. Used for per-domain client streams in the parallel
    engine. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** [uniform g ~lo ~hi] is [lo +. float g (hi -. lo)], bit for bit, in
    one call. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto (heavy-tail) sample; [shape] > 0, [scale] > 0. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choice : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val sample_weighted : t -> (float * 'a) list -> 'a
(** Sample proportionally to the (strictly positive) weights. *)
