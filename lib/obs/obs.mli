(** The telemetry bundle threaded through a simulation.

    One [Obs.t] per run, created by the caller (e.g. [ucsim run --obs])
    and handed to {!Runner} and {!Network}; everything downstream of a
    [None] stays on the seed code path, bit-identical to an
    un-instrumented run. The bundle owns:

    {ul
    {- a metric {!Registry} for per-replica counters and latency
       histograms;}
    {- a {!Span} collector tracing each update from invocation through
       per-replica apply;}
    {- per-replica {!Profile} records that the op-log substrate bumps
       directly;}
    {- the divergence time series fed by the convergence probe.}}

    {!finalize} folds profiles, visibility latencies, and the final
    divergence into the registry once the run ends. *)

module Json = Json
module Registry = Registry
module Span = Span
module Profile = Profile
module Trace_export = Trace_export
module Journal = Journal
module Monitor = Monitor
module Series = Series
module Alert = Alert
module Recorder = Recorder

(** Per-replica handle, passed to protocol replicas via
    [Protocol.ctx.obs]. *)
type replica = { pid : int; profile : Profile.t }

type t = {
  registry : Registry.t;
  spans : Span.t;
  mutable replicas : replica list;  (** use {!replica}, not this *)
  mutable divergence : (float * int) list;
      (** newest first; use {!divergence_series} *)
  mutable journal : Journal.t option;
      (** when set, {!Runner} and {!Network} record every simulation
          event into it; [None] (the default) records nothing *)
}

val create : ?journal:Journal.t -> unit -> t
(** [journal] defaults to [None]. Span stamps are not charged to the
    wire: a run's byte counts are the same with and without telemetry. *)

val replica : t -> int -> replica
(** Find-or-create the handle for [pid]. {b Not domain-safe}: the walk
    over (and consing onto) the shared replica list is a data race if
    two domains call it concurrently — multicore callers must build
    their handles with {!make_replica} inside each domain and hand them
    to {!adopt} after the joins. *)

val make_replica : int -> replica
(** A detached handle (fresh profile), not registered anywhere — the
    multicore engine creates one per domain, inside the domain, so no
    shared state is touched on the hot path. *)

val adopt : t -> replica -> unit
(** Register a detached handle built with {!make_replica}, replacing
    any existing handle for the same pid. Call from the collector,
    after the writing domain has joined. *)

val record_divergence : t -> time:float -> distinct:int -> unit
(** One probe sample: [distinct] state fingerprints among live replicas
    at simulated time [time]. *)

val divergence_series : t -> (float * int) list
(** Probe samples in chronological order. *)

val finalize : t -> live:int list -> unit
(** Fold end-of-run derived metrics into the registry:
    [visibility_latency{pid=origin}] histograms and the
    [updates_invisible] counter from the span collector, [oplog_*{pid}]
    counters from the profiles, [probes_taken] and [divergence_final]
    from the probe series. Call once, after the run completes. *)
