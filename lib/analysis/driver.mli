(** The protocol table, and every run a {!Run_spec.t} describes: a
    sequential spec on the {!Runner}, a parallel one on the {!Throughput}
    measure, and the table's set protocols also under the shrinker
    ({!Scenario}), the fault campaign ({!Nemesis}), the client engine
    ({!Clients}) and, four of them, the model checker ({!Explore}). Each
    call returns the report [ucsim] prints; the files a command writes,
    and the host's [gc_*] gauges, stay with the command. *)

module type SET_PROTOCOL =
  Protocol.PROTOCOL
    with type update = Set_spec.update
     and type query = Set_spec.query
     and type output = Set_spec.output

(** The table's set cores that {!Experiments} runs too. *)

module Memo_set : SET_PROTOCOL
module Gc_set : SET_PROTOCOL
module Undo_set : SET_PROTOCOL
module Pipe_set : SET_PROTOCOL

module Space_set = Throughput.Sharded.S
(** The sharded space of the set, in both engines. Its replicas read
    the shard map {!Space_set.configure} last set. *)

(** [ucsim modelcheck]'s engine switches (see {!Explore.Make.explore}). *)
type explore = {
  por : bool;
  dedup : bool;
  domains : int;
  checkpoint : int;  (** snapshot replicas every K events; 0: never *)
  max_crashes : int;
  limit : int;
}

(** The spec fields beyond the common ones that an entry's runs read:
    [log_core] and [checkpoint_interval] (Algorithm 1 built from the
    spec), or [shards], [keys] and [rebalance] (the sharded space). *)
type reads = Common | Log_core | Shards

type entry = {
  name : string;
  doc : string;
  fifo : bool;  (** needs FIFO channels (the stability GC) *)
  reads : reads;
  run :
    ?trace:bool -> ?check:bool -> ?into:Buffer.t ->
    Run_spec.observers -> Run_spec.sequential -> string;
      (** the report of a simulated run: [trace] puts the space-time
          trace first, [check] adds the history's UC and EC verdicts.
          It is rendered into [into] (by default a fresh buffer), so a
          line the caller adds there during the run keeps its place. *)
  set : (Run_spec.sequential -> (module SET_PROTOCOL)) option;
      (** a set protocol, which the engines below also run *)
  explore : (explore -> Run_spec.sequential -> (string, string) result) option;
}

val protocols : entry list
(** Every protocol, in [ucsim list]'s order. *)

val find : Run_spec.sequential -> (entry, string) result
(** The entry [spec] names, or [Error "unknown protocol NAME"], or
    [Error "FIELD: reason"] for a field moved off {!Run_spec.default}
    that the entry never reads (as {!modelcheck}, {!nemesis}, {!storm}
    and {!shrink} do), or, when it needs FIFO channels and the spec's
    are not, [Error "NAME needs FIFO channels (--fifo)"]. *)

val sharded_map : Run_spec.observers -> Run_spec.sequential -> Space_set.map
(** The [sharded] protocol's shard map, configured: [spec.shards] shards,
    the hot-shard policy if [spec.rebalance] arms it, and the observers. *)

val sharded_workload :
  Run_spec.sequential ->
  (Space_set.update, Space_set.query) Protocol.invocation list array
(** The [sharded] protocol's Zipf-skewed multi-key scripts. *)

val race : (Set_spec.update, Set_spec.query) Protocol.invocation list array
(** Two processes, each inserting one element and deleting the other's:
    the script the set protocols are model-checked on. *)

val modelcheck : explore -> Run_spec.sequential -> (string, string) result
(** Explore every schedule of the protocol [spec] names: the insert and
    delete race on the set protocols, [spec.n] processes of [spec.ops]
    distinct increments on the counter. Algorithm 1 runs on the
    spec's log core. [Error] names a protocol without a model checker,
    or a [dedup] that its replicas cannot snapshot for. *)

val nemesis : runs:int -> Run_spec.sequential -> (string, string) result
(** A randomized crash and partition campaign of [runs] runs off
    [spec.seed]. *)

val storm :
  ?obs:Obs.t ->
  clients:int ->
  plan:Clients.phase list ->
  query_ratio:float ->
  slo:float ->
  Run_spec.sequential ->
  (string, string) result
(** [clients] closed-loop clients of [spec.ops] operations on [spec.n]
    replicas under the open-loop arrival [plan], judged against [slo];
    [Error] for a protocol that needs FIFO channels. *)

val shrink :
  max_runs:int ->
  file:string ->
  Obs.Journal.t ->
  Run_spec.t ->
  string * (Obs.Journal.t, string) result
(** Re-execute the journal [file] recorded from its header, then
    minimize its monitor violation within [max_runs] re-executions. The
    report so far, and the minimized journal, whose header replays it,
    or why there is none. *)

val replay_parallel : Obs.Journal.t -> Run_spec.parallel -> (string, string) result
(** Replay a flight-recorder journal: the workload is regenerated from
    the header, and the recorded per-replica delivery order is
    re-executed on the sequential core — fingerprint equality is
    Proposition 4 checked end to end. [Ok] the fingerprint, or why the
    replay diverged. *)

type bench = {
  verdict : string;  (** the run, the differential, the recorder *)
  recording : (Obs.Journal.t * Obs.Recorder.event list) option;  (** if [record] *)
  layout : string;  (** the monitors' verdicts, the space's layout *)
  ok : bool;  (** the differential passed *)
}

val bench :
  ?obs:Obs.t ->
  record:bool ->
  monitors:Obs.Monitor.criterion list ->
  Run_spec.parallel ->
  bench
(** One multicore run and its Proposition 4 differential; [record]
    attaches the flight recorder, which [monitors] read. *)
