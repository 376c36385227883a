(** One description of a run, and its one codec: the journal header.

    A journal's header line is {!to_header} of the spec that produced
    the run, and the simulator is a deterministic function of it, so
    [ucsim replay] and [ucsim shrink] re-execute exactly what [run],
    [soak] and [bench] executed. Every entry point applies the one
    {!validate}, whether the spec came from flags or from a file.
    A {!sequential} run is the deterministic simulator ({!Runner}); a
    {!parallel} run is the multicore engine, whose scripts replay
    regenerates from the header (they are pure functions of the
    seed). *)

type soak = {
  sample_interval : float;  (** sampler cadence in simulated time *)
  duration : float option;  (** horizon; overrides the runner deadline *)
  rules : Obs.Alert.rule list;
}

type space = {
  shards : int;  (** on a static ring *)
  keys : int;  (** key domain *)
  fanout : int;  (** most keys an update batch touches *)
}
(** The sharded object space a parallel run benches instead of one
    core. *)

type parallel = {
  spec : string;  (** object name, see {!Registry.names} *)
  seed : int;
  domains : int;
  ops : int;  (** per domain *)
  query_ratio : float;
  zipf : float;
      (** skew of the set workload or of the space's keys; on one core,
          0 means uniform scripts *)
  batch : int;
  flush_window : int;
  mailbox : int;
  space : space option;  (** [None]: one core per domain *)
}

type sequential = {
  protocol : string;  (** a name of the [ucsim list] table *)
  seed : int;
  n : int;
  ops : int;  (** per process, for the generated workload *)
  mean_delay : float;  (** exponential message delay *)
  fifo : bool;
  batch_window : float option;
  crashes : (float * int) list;  (** (time, pid) *)
  partitions : Network.partition list;
  churn : Network.churn_event list;
  log_core : [ `List | `Array ];
  checkpoint_interval : int option;
  shards : int;
  keys : int;  (** key domain of the sharded workload *)
  rebalance : float option;  (** hot-shard policy interval *)
  scripts : string list list option;
      (** explicit per-process set scripts ({!print_op}) overriding the
          generated workload: how a shrunk journal replays *)
  monitors : Obs.Monitor.criterion list;
  probe_interval : float option;
  soak : soak option;
}

type t = Sequential of sequential | Parallel of parallel

val default : sequential
(** [ucsim run]'s flag defaults: universal, seed 42, 4 processes of 100
    operations, mean delay 10, no faults, array core, one shard over 64
    keys, no observers. *)

val validate : t -> (t, string) result
(** [Ok] the spec, or [Error "FIELD: reason"] for the first field no run
    can honour: a count or interval out of range, a pid outside
    [0, n), explicit scripts whose number is not [n] or that hold an op
    {!parse_op} rejects, an unknown object name, a sharded parallel run
    of any object but set, a skew on an unsharded parallel run of any
    object but set, which draws none, or a query ratio on the contended
    set workload, which draws no queries. *)

(** A command flag that no run spec carries, with the bound {!validate}
    would hold it to. *)
type flag =
  | At_least of int * int  (** [At_least (lo, v)]: the integer [v] >= [lo] *)
  | Non_negative of float  (** a finite non-negative number *)
  | Positive of float  (** a finite positive number *)
  | Fraction of float  (** a number in [0, 1] *)

val check_flags : (string * flag) list -> (unit, string) result
(** [Ok ()], or [Error "FIELD: reason"] for the first [(FIELD, flag)]
    out of its bound, in {!validate}'s words. *)

val to_header : t -> (string * Obs.Json.t) list
(** The journal header fields, in a fixed order. A sequential run's
    shard fields are written only when they differ from {!default}'s,
    a parallel run's only for the sharded space, and the soak fields
    only for soak runs. *)

val of_header : (string * Obs.Json.t) list -> (t, string) result
(** Inverse of {!to_header}, then {!validate}; [Error] also names a field
    that is missing, of the wrong JSON type, or not an integer where one
    is needed. ["engine":"parallel"] selects {!Parallel}, and its
    [shards] field the sharded space, whose [keys] and [fanout] it then
    requires. A header from before the explicit crash schedule ([crash:
    true], no [crashes]) decodes to one crash of pid [n-1] at t=50. *)

val print_op : (Set_spec.update, Set_spec.query) Protocol.invocation -> string
(** One token per op: ["I(3)"] insert, ["D(3)"] delete, ["R"] read. *)

val parse_op :
  string -> (Set_spec.update, Set_spec.query) Protocol.invocation option
(** Inverse of {!print_op}; [None] on anything else. *)

val set_scripts :
  sequential ->
  (Set_spec.update, Set_spec.query) Protocol.invocation list array option
(** The spec's explicit scripts, parsed.
    @raise Invalid_argument on a spec {!validate} rejects. *)

type observers = {
  obs : Obs.t option;
  sampler : Obs.Series.sampler option;  (** soak runs only *)
  alerts : Obs.Alert.t option;  (** soak runs only *)
}

val observe :
  ?telemetry:bool ->
  ?journal:Obs.Journal.t ->
  ?on_alert:(Obs.Alert.firing -> unit) ->
  sequential ->
  observers
(** The telemetry a run of the spec needs. [obs] is present when
    [telemetry] (default [false]) asks for it, when a [journal] is
    given (its header becomes the spec's), or when the spec probes,
    monitors or soaks. A soak spec also gets a sampler over [obs]'s
    registry with its alert rules attached; each firing is journaled as
    an [Alert] event, then handed to [on_alert]. *)
