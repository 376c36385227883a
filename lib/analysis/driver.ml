(* The protocol table and every run a Run_spec describes. Each report
   is rendered into a buffer and returned to the command that prints it. *)

(* Format's directives into a report under construction: plain lines
   and the [pp] printers share one buffer. *)
let pr b fmt = Format.kasprintf (Buffer.add_string b) fmt

(* The array core's configuration: the default, with any
   --checkpoint-interval override. *)
let core_config (spec : Run_spec.sequential) =
  match (spec.checkpoint_interval, Generic.default.replay) with
  | Some interval, Checkpoints c ->
    { Generic.default with replay = Checkpoints { c with interval } }
  | _ -> Generic.default

let describe_log_core (spec : Run_spec.sequential) =
  match (spec.log_core, (core_config spec).replay) with
  | `List, _ -> "list"
  | `Array, Checkpoints { interval; _ } ->
    Printf.sprintf "array (checkpoint interval %d)" interval
  | `Array, Stable_prefix -> "array (stable prefix)"

let describe_metrics b (m : Metrics.t) =
  pr b
    "messages sent      %d\nbytes sent         %d\nupdates invoked    %d\nqueries invoked    %d\nops incomplete     %d\nreplay steps       %d\n"
    m.Metrics.messages_sent m.Metrics.bytes_sent m.Metrics.updates_invoked
    m.Metrics.queries_invoked m.Metrics.ops_incomplete m.Metrics.replay_steps

(* One line per requested criterion, naming the first violating event's
   journal index and span id — the index `replay --until` accepts. *)
let monitor_report b ~criteria ~events violations =
  List.iter
    (fun c ->
      match
        List.find_opt (fun v -> v.Obs.Monitor.criterion = c) violations
      with
      | Some v ->
        pr b "monitor %-10s %a@."
          (Obs.Monitor.criterion_name c)
          Obs.Monitor.pp_violation v
      | None ->
        pr b "monitor %-10s clean (%d events)\n"
          (Obs.Monitor.criterion_name c)
          events)
    criteria

(* Algorithm 1 on [A], on the op-log core the spec asks for: the seed's
   list core or the configured array core. {!Persist.Catchup} gives
   either one real churn catch-up (the bare cores carry the PROTOCOL
   stub [snapshot]/[absorb]). *)
let universal (type u q o s) (spec : Run_spec.sequential)
    (module A : Registry.SPEC
      with type update = u
       and type query = q
       and type output = o
       and type state = s) :
    (module Generic.S
       with type update = u
        and type query = q
        and type output = o
        and type state = s) =
  match spec.log_core with
  | `List -> (module Persist.Catchup (Generic_ref.Make (A)) (A.Codec))
  | `Array ->
    let module C = struct
      let config = core_config spec
    end in
    (module Persist.Catchup (Generic.Configured (C) (A)) (A.Codec))

(* The object side of a run: the spec the history is checked against,
   the workload and final read generated from the run spec, and the
   report lines the object adds to the common ones. *)
module type OBJECT = sig
  include Uqadt.S

  val workload :
    Run_spec.sequential -> (update, query) Protocol.invocation list array

  val final_read : Run_spec.sequential -> query

  val latency : bool
  (* an "op latency" line (the register protocols) *)

  val final_reads : bool
  (* one "final read" line per replica (all but lwwmemory) *)
end

module type SET_PROTOCOL =
  Protocol.PROTOCOL
    with type update = Set_spec.update
     and type query = Set_spec.query
     and type output = Set_spec.output

module Set_object = struct
  include Set_spec
  module Codec = Update_codec.For_set

  (* The spec's explicit scripts when it carries them (a replayed
     `shrink` journal), the generated conflict workload otherwise. *)
  let workload (spec : Run_spec.sequential) =
    match Run_spec.set_scripts spec with
    | Some scripts -> scripts
    | None ->
      let rng = Prng.create spec.seed in
      Workload.For_set.conflict ~rng ~n:spec.n ~ops_per_process:spec.ops
        ~domain:16 ~skew:1.0 ~delete_ratio:0.3

  let final_read _ = Read
  let latency = false
  let final_reads = true
end

module Counter_object = struct
  include Counter_spec
  module Codec = Update_codec.For_counter

  let workload (spec : Run_spec.sequential) =
    Workload.For_counter.deposits_and_withdrawals ~rng:(Prng.create spec.seed)
      ~n:spec.n ~ops_per_process:spec.ops ~max_amount:100

  let final_read _ = Value
  let latency = false
  let final_reads = true
end

module Register_object = struct
  include Register_spec
  module Codec = Update_codec.For_register
  module G = Workload.Make (Register_spec)

  let workload (spec : Run_spec.sequential) =
    G.mixed ~rng:(Prng.create spec.seed) ~n:spec.n ~ops_per_process:spec.ops
      ~query_ratio:0.4

  let final_read _ = Read
  let latency = true
  let final_reads = true
end

module Memory_object = struct
  include Memory_spec

  let workload (spec : Run_spec.sequential) =
    Workload.For_memory.random_writes ~rng:(Prng.create spec.seed) ~n:spec.n
      ~ops_per_process:spec.ops ~registers:8 ~read_ratio:0.4

  let final_read _ = Read 0
  let latency = false
  let final_reads = false
end

(* Any registered object: one query for every three updates, drawn from
   the spec's own generators. *)
module Spec_object (A : Registry.SPEC) = struct
  include A

  let workload (spec : Run_spec.sequential) =
    let rng = Prng.create spec.seed in
    Array.init spec.n (fun _ ->
        List.init spec.ops (fun _ ->
            if Prng.int rng 4 = 0 then Protocol.Invoke_query (A.random_query rng)
            else Protocol.Invoke_update (A.random_update rng)))

  let final_read (spec : Run_spec.sequential) =
    A.random_query (Prng.create spec.seed)

  let latency = false
  let final_reads = true
end

module Space_set = Throughput.Sharded.S

(* The sharded object space on the set: a Lamport clock per shard and
   a log per key behind a consistent-hash ring, fed a Zipf-skewed
   multi-key stream. *)
module Sharded_object = struct
  include Space_set.K

  let workload (spec : Run_spec.sequential) =
    let rng = Prng.create spec.seed in
    let elem = Zipf.create ~n:16 ~s:1.0 in
    Workload.For_space.zipf_scripts ~rng ~n:spec.n ~ops_per_process:spec.ops
      ~keys:spec.keys ~skew:1.1 ~fanout:3 ~query_ratio:0.25
      ~update:(fun g ->
        let v = Zipf.sample elem g in
        if Prng.float g 1.0 < 0.3 then Set_spec.Delete v else Set_spec.Insert v)
      ~query:(fun _ -> Set_spec.Read)
      ~read:(fun k q -> Read (k, q))

  let final_read _ = Sweep
  let latency = false
  let final_reads = true
end

let sharded_workload = Sharded_object.workload

(* Simulate protocol [P] replicating object [O] as [spec] describes,
   observed by [ob], and render its report after what [into] holds.
   [note] tops a [trace]; [lines] are printed after the protocol line;
   [check] adds the history's UC and EC verdicts. *)
let drive (type u q o) ?note ?(lines = fun () -> [])
    (module P : Protocol.PROTOCOL
      with type update = u
       and type query = q
       and type output = o)
    (module O : OBJECT
      with type update = u
       and type query = q
       and type output = o) ?(trace = false) ?(check = false)
    ?into:(b = Buffer.create 1024) (ob : Run_spec.observers)
    (spec : Run_spec.sequential) =
  let module R = Runner.Make (P) in
  let workload = O.workload spec in
  let config =
    R.config_of_spec ~trace ~final_read:(Some (O.final_read spec)) ob spec
  in
  let r = R.run config ~workload in
  (match r.R.trace with
  | Some tr ->
    (* Configuration notes sort to the top of the rendered chronology. *)
    Option.iter (fun text -> Trace.record_note tr ~time:0.0 text) note;
    Buffer.add_string b (Trace.render tr ~n:spec.n)
  | None -> ());
  pr b "protocol           %s (object: %s)\n" P.protocol_name O.name;
  List.iter (pr b "%s\n") (lines ());
  describe_metrics b r.R.metrics;
  pr b "converged          %b\n" r.R.converged;
  if O.latency && Float.Array.length r.R.op_latencies > 0 then begin
    let s = Stats.summarize (Float.Array.to_list r.R.op_latencies) in
    pr b "op latency         mean=%.2f p99=%.2f\n" s.Stats.mean s.Stats.p99
  end;
  if O.final_reads then
    List.iter
      (fun (pid, o) -> pr b "final read p%d      %a@." pid O.pp_output o)
      r.R.final_outputs;
  if check then begin
    let module C = Criteria.Make (O) in
    pr b "history UC         %b\nhistory EC         %b\n"
      (C.holds Criteria.UC r.R.history)
      (C.holds Criteria.EC r.R.history)
  end;
  Option.iter
    (fun m ->
      monitor_report b ~criteria:spec.monitors ~events:(R.Mon.events_seen m)
        (R.Mon.violations m))
    config.R.monitor;
  Buffer.contents b

(* An object that carries its update codec, so Algorithm 1 can run on
   it with churn catch-up. *)
module type CODEC_OBJECT = sig
  include OBJECT

  module Codec : Update_codec.S with type update = update
end

let algorithm1 (type u q o s) ?note ?lines
    (module O : CODEC_OBJECT
      with type update = u
       and type query = q
       and type output = o
       and type state = s) ?trace ?check ?into ob spec =
  drive ?note ?lines (module (val universal spec (module O))) (module O) ?trace
    ?check ?into ob spec

(* Algorithm 1 on a registered object, naming its log core after the
   protocol line. *)
let run_universal_on (module A : Registry.SPEC) ?trace ?check ?into ob spec =
  let core = describe_log_core spec in
  algorithm1 ~note:("log core: " ^ core)
    ~lines:(fun () -> [ "log core           " ^ core ])
    (module Spec_object (A))
    ?trace ?check ?into ob spec

(* The shard map of a sharded run: --shards 1 degenerates to a single
   shard holding every key; --rebalance arms the hot-shard split policy.
   The map reports into the telemetry bundle, and a soak's sampler
   watches the ring: cumulative and per-tick op rates for every shard,
   so a hot-shard split shows up in the series. *)
let sharded_map (ob : Run_spec.observers) (spec : Run_spec.sequential) =
  let policy =
    Option.map
      (fun interval ->
        (* 1.5 keeps the trigger reachable at small shard counts: with
           two shards the hottest can never exceed 2x the mean, so a
           factor of 2 would never fire. *)
        { Space_set.interval; hot_factor = 1.5; max_shards = 64 })
      spec.rebalance
  in
  let map = Space_set.create_map ?policy ?obs:ob.obs ~shards:spec.shards () in
  Space_set.configure map;
  Option.iter
    (fun s -> Obs.Series.add_probe s (Space_set.series_probe map))
    ob.sampler;
  map

let run_sharded ?trace ?check ?into ob (spec : Run_spec.sequential) =
  let map = sharded_map ob spec in
  drive
    ~lines:(fun () ->
      [
        Printf.sprintf
          "shards             %d initial, %d final (%d rebalances, %d \
           entries re-homed)"
          spec.shards
          (Ring.shards (Space_set.ring map))
          (Space_set.rebalances map)
          (Space_set.moved_entries map);
        Printf.sprintf "shard ops          %s"
          (String.concat " "
             (List.map
                (fun (s, ops) -> Printf.sprintf "s%d:%d" s ops)
                (Space_set.shard_ops map)));
      ])
    (module Space_set) (module Sharded_object) ?trace ?check ?into ob spec

type explore = {
  por : bool;
  dedup : bool;
  domains : int;
  checkpoint : int;
  max_crashes : int;
  limit : int;
}

let explore_report b name executions exhaustive failures distinct firsts
    (st : Explore.stats) =
  pr b "protocol       %s\nschedules      %d (exhaustive: %b)\n" name
    executions exhaustive;
  pr b
    "states         explored %d, pruned(por) %d, deduped %d\nreplay         %d protocol steps, %d checkpoint restores\n"
    st.Explore.states_explored st.Explore.states_pruned_por
    st.Explore.states_deduped st.Explore.protocol_steps
    st.Explore.checkpoint_restores;
  List.iter
    (fun (c, k) ->
      pr b "%-4s fails    %d (distinct histories: %d)\n" (Criteria.name c) k
        (try List.assoc c distinct with Not_found -> 0))
    failures;
  List.iter
    (fun (c, text) -> pr b "first %s violation:\n%s\n" (Criteria.name c) text)
    firsts;
  Ok (Buffer.contents b)

(* Algorithm 1 on [A], on the core the spec's log core and checkpoint
   interval ask for. *)
let explore_universal (type u q o s) x
    (module A : Registry.SPEC
      with type update = u
       and type query = q
       and type output = o
       and type state = s) ~label ~scripts ~final_read spec =
  let module G = (val universal spec (module A)) in
  let module M = Explore.Make (G) in
  let module S = Snapshot.For_replica (A) (A.Codec) (G) in
  let snapshot =
    if x.checkpoint > 0 || x.dedup then Some S.snapshotter else None
  in
  (* Timestamp-blind state keys are sound only for commutative specs. *)
  let blind = x.dedup && A.commutative in
  let state_key = if blind then Some S.commutative_key else None in
  let message_key = if blind then Some S.commutative_message_key else None in
  let r =
    M.explore ~limit:x.limit ~max_crashes:x.max_crashes ~por:x.por
      ~dedup:x.dedup
      ~checkpoint_every:(if x.checkpoint > 0 then x.checkpoint else 4)
      ?snapshot ?state_key ?message_key
      ~deliveries_commute:S.deliveries_commute ~domains:x.domains ~scripts
      ~final_read ()
  in
  explore_report (Buffer.create 1024)
    (Printf.sprintf "%s [log core: %s]" label (describe_log_core spec))
    r.M.executions r.M.exhaustive r.M.failures r.M.distinct_failures
    r.M.first_failures r.M.stats

let race =
  [|
    [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_update (Set_spec.Delete 2) ];
    [ Protocol.Invoke_update (Set_spec.Insert 2); Protocol.Invoke_update (Set_spec.Delete 1) ];
  |]

let explore_set x (module P : SET_PROTOCOL) =
  if x.dedup then
    Error "--dedup needs a replica snapshot (universal/counter only)"
  else
    let module M = Explore.Make (P) in
    let r =
      M.explore ~limit:x.limit ~max_crashes:x.max_crashes ~por:x.por
        ~domains:x.domains ~scripts:race ~final_read:Set_spec.Read ()
    in
    explore_report (Buffer.create 1024) P.protocol_name r.M.executions
      r.M.exhaustive r.M.failures r.M.distinct_failures r.M.first_failures
      r.M.stats

(* `n` processes adding distinct amounts, `ops` each. *)
let explore_counter x (spec : Run_spec.sequential) =
  explore_universal x (module Counter_object)
    ~label:(Printf.sprintf "universal counter (n=%d, ops=%d)" spec.n spec.ops)
    ~scripts:
      (Array.init spec.n (fun pid ->
           List.init spec.ops (fun i ->
               Protocol.Invoke_update (Counter_spec.Add ((pid * spec.ops) + i + 1)))))
    ~final_read:Counter_spec.Value spec

type reads = Common | Log_core | Shards

type entry = {
  name : string;
  doc : string;
  fifo : bool;
  reads : reads;
  run :
    ?trace:bool -> ?check:bool -> ?into:Buffer.t ->
    Run_spec.observers -> Run_spec.sequential -> string;
  set : (Run_spec.sequential -> (module SET_PROTOCOL)) option;
  explore : (explore -> Run_spec.sequential -> (string, string) result) option;
}

let set_entry ?(fifo = false) ?(explore = false) ?(reads = Common) name doc set =
  {
    name;
    doc;
    fifo;
    reads;
    run = (fun ?trace ?check ?into ob spec ->
      drive (set spec) (module Set_object) ?trace ?check ?into ob spec);
    set = Some set;
    explore = (if explore then Some (fun x spec -> explore_set x (set spec)) else None);
  }

let entry ?explore ?(reads = Common) name doc run =
  { name; doc; fifo = false; reads; run; set = None; explore }

let universal_set spec : (module SET_PROTOCOL) =
  (module (val universal spec (module Set_object)))

module Memo_set = Generic.Configured (struct let config = Generic.memo end) (Set_spec)
module Gc_set = Generic.Configured (struct let config = Generic.gc end) (Set_spec)
module Undo_set = Undo.Make (Undoable.Set)
module Pipe_set = Pipelined.Make (Set_spec)

let protocols : entry list =
  List.map
    (fun (name, spec) ->
      entry ~reads:Log_core ("universal-" ^ name)
        ("Algorithm 1 on the " ^ name ^ " object")
        (run_universal_on spec))
    Registry.all_specs
  @ [
      {
        (set_entry ~reads:Log_core "universal" "Algorithm 1 on the set" universal_set) with
        run =
          (fun ?trace ?check ?(into = Buffer.create 1024) ob spec ->
            (* Both cores exchange byte-identical messages, so the same
               seed replays the same schedule and only the query cost
               differs. *)
            let core = describe_log_core spec in
            pr into "log core           %s\n" core;
            algorithm1 ~note:("log core: " ^ core) (module Set_object) ?trace
              ?check ~into ob spec);
        explore =
          Some
            (fun x spec ->
              explore_universal x (module Set_object) ~label:"universal"
                ~scripts:race ~final_read:Set_spec.Read spec);
      };
      set_entry "memo" "Algorithm 1 + snapshot cache, set" (fun _ -> (module Memo_set));
      set_entry ~fifo:true "gc" "Algorithm 1 + stability GC, set (needs --fifo)"
        (fun _ -> (module Gc_set));
      set_entry "undo" "undo-based construction, set" (fun _ -> (module Undo_set));
      set_entry ~explore:true "pipelined" "naive FIFO apply-on-receive, set"
        (fun _ -> (module Pipe_set));
      set_entry ~explore:true "orset" "OR-set CRDT" (fun _ -> (module Orset_crdt));
      set_entry "2pset" "two-phase set CRDT" (fun _ ->
          (module Twopset_crdt.Protocol_impl));
      set_entry "lwwset" "LWW-element-set CRDT" (fun _ -> (module Lwwset_crdt));
      set_entry "pnset" "counting set CRDT" (fun _ -> (module Pnset_crdt));
      entry ~explore:explore_counter ~reads:Log_core "counter" "Algorithm 1 on the counter"
        (algorithm1 (module Counter_object));
      entry "fastcounter" "CRDT fast path counter"
        (drive (module Commutative.Make (Counter_spec)) (module Counter_object));
      entry "pncounter" "PN-counter CRDT"
        (drive (module Counters.Pncounter) (module Counter_object));
      entry ~reads:Log_core "register" "Algorithm 1 on the register"
        (algorithm1 (module Register_object));
      entry "lwwreg" "LWW-register CRDT"
        (drive (module Registers.Lwwreg) (module Register_object));
      entry "abd" "ABD linearizable register (baseline)"
        (drive (module Abd) (module Register_object));
      entry "lwwmemory" "Algorithm 2 shared memory"
        (drive (module Lww_memory) (module Memory_object));
      entry ~reads:Shards "sharded"
        "Algorithm 1 per shard behind a consistent-hash ring, set \
         (--shards/--keys/--rebalance)"
        run_sharded;
    ]

(* The entry [spec] names, refusing a field the spec moves off its
   default that the entry's runs never read: the log core is read only
   by Algorithm 1 built from the spec, the shard fields only by the
   sharded space. *)
let lookup (spec : Run_spec.sequential) =
  let d = Run_spec.default in
  let fields =
    [
      ("log_core", spec.log_core <> d.log_core, Log_core);
      ("checkpoint_interval", spec.checkpoint_interval <> d.checkpoint_interval, Log_core);
      ("shards", spec.shards <> d.shards, Shards);
      ("keys", spec.keys <> d.keys, Shards);
      ("rebalance", spec.rebalance <> d.rebalance, Shards);
    ]
  in
  match List.find_opt (fun e -> e.name = spec.protocol) protocols with
  | None -> Error (Printf.sprintf "unknown protocol %S" spec.protocol)
  | Some e -> (
    match List.find_opt (fun (_, set, reads) -> set && reads <> e.reads) fields with
    | Some (field, _, reads) ->
      Error
        (Printf.sprintf "%s: not read by %s, only by %s" field e.name
           (if reads = Shards then "sharded"
            else "universal, counter, register and universal-<object>"))
    | None -> Ok e)

let find (spec : Run_spec.sequential) =
  match lookup spec with
  | Ok e when e.fifo && not spec.fifo ->
    Error (Printf.sprintf "%s needs FIFO channels (--fifo)" e.name)
  | r -> r

let modelcheck x (spec : Run_spec.sequential) =
  Result.bind (lookup spec) (function
    | { explore = Some explore; _ } -> explore x spec
    | _ -> Error (Printf.sprintf "no model checker for %S" spec.protocol))

(* The set protocol [spec] names, and whether it needs FIFO channels. *)
let set_protocol (spec : Run_spec.sequential) =
  Result.bind (lookup spec) (function
    | { set = Some set; fifo; _ } -> Ok (set spec, fifo)
    | _ ->
      Error
        (Printf.sprintf "protocol %S has no scenario engine (set protocols only)"
           spec.protocol))

let nemesis ~runs (spec : Run_spec.sequential) =
  Result.map
    (fun ((module P : SET_PROTOCOL), fifo) ->
      let module N = Nemesis.Make (P) in
      (* A FIFO-only protocol gets its FIFO channels. *)
      let campaign = { N.default_campaign with N.runs; fifo; base_seed = spec.seed } in
      let v =
        N.run campaign ~final_read:Set_spec.Read ~workload:(fun rng ~n ~ops ->
            Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:8
              ~skew:1.0 ~delete_ratio:0.35)
      in
      Printf.sprintf
        "protocol %s: %d runs, %d crashes (budget %d/run%s), %d partitions\nconvergence failures       %d\nstalled operations         %d\ncertificate disagreements  %d\nverdict                    %s\n%s"
        P.protocol_name v.N.runs v.N.crashes_injected v.N.crash_cap
        (if v.N.capped_runs > 0 then
           Printf.sprintf ", clamped below the request in %d runs" v.N.capped_runs
         else "")
        v.N.partitions_injected v.N.convergence_failures v.N.stalled_operations
        v.N.certificate_disagreements
        (if N.clean v then "CLEAN" else "FAULTY")
        (if v.N.failing_seeds = [] then ""
         else
           Printf.sprintf "failing seeds: %s\n"
             (String.concat ", " (List.map string_of_int v.N.failing_seeds))))
    (set_protocol spec)

let storm ?obs ~clients ~plan ~query_ratio ~slo (spec : Run_spec.sequential) =
  match set_protocol spec with
  | Error _ as e -> e
  | Ok (_, true) ->
    Error (spec.protocol ^ " needs FIFO channels, which the client engine does not provide")
  | Ok ((module P : SET_PROTOCOL), false) ->
    let module C = Clients.Make (P) in
    let b = Buffer.create 512 in
    let workload =
      Workload.For_set.conflict ~rng:(Prng.create spec.seed) ~n:clients
        ~ops_per_process:spec.ops ~domain:16 ~skew:1.0 ~delete_ratio:0.3
    in
    let config =
      {
        (C.default_config ~n_replicas:spec.n ~n_clients:clients ~seed:spec.seed) with
        C.replica_delay = Network.Exponential { mean = spec.mean_delay };
        final_read = Some Set_spec.Read;
        open_loop =
          Some
            {
              C.plan;
              mix =
                (let one =
                   Workload.Flash_crowd.set_mix ~domain:16 ~skew:1.0
                     ~delete_ratio:0.3 ~query_ratio
                 in
                 fun g -> [ one g ]);
            };
        obs;
      }
    in
    let r = C.run config ~workload in
    pr b "protocol           %s (object: set)\n" P.protocol_name;
    pr b "replicas/clients   %d/%d\n" spec.n clients;
    pr b "arrival plan       %s\n"
      (String.concat " | "
         (List.map
            (fun (ph : Clients.phase) ->
              Printf.sprintf "%g/t for %g" ph.Clients.rate ph.Clients.duration)
            plan));
    pr b "closed loop        %d completed, %d retried, %d failovers\n"
      r.C.ops_completed r.C.ops_abandoned r.C.failovers;
    pr b "open loop          %d completed, %d abandoned\n" r.C.open_completed
      r.C.open_abandoned;
    pr b "converged          %b\n" r.C.converged;
    (match r.C.open_latencies with
    | [] -> pr b "open-loop SLO      no arrivals\n"
    | ls -> pr b "open-loop SLO      %a@." Stats.pp_slo (Stats.slo ~target:slo ls));
    Ok (Buffer.contents b)

let shrink ~max_runs ~file recorded (spec : Run_spec.t) =
  let fail fmt = Printf.ksprintf (fun msg -> ("", Error msg)) fmt in
  match spec with
  | Parallel _ -> fail "%s: a parallel run has no scenario engine" file
  | Sequential spec -> (
    match set_protocol spec with
    | Error msg -> ("", Error msg)
    | Ok ((module P : SET_PROTOCOL), _) -> (
      (* The set protocols: their `run` workload is the scripts a
         minimized journal carries, so it replays through the stock
         driver. *)
      let module S = Scenario.Make (P) in
      let scenario =
        { S.spec; scripts = Set_object.workload spec; final_read = Some Set_spec.Read }
      in
      let criteria =
        if spec.monitors = [] then [ Obs.Monitor.Uc; Obs.Monitor.Ec; Obs.Monitor.Pc ]
        else spec.monitors
      in
      (* Shrink only the run the journal recorded: the header must
         re-execute to the same events, as `replay` requires. *)
      match Obs.Journal.diff recorded (S.run ~criteria scenario).S.journal with
      | Some (i, _, _) ->
        fail "%s: re-executing the header diverges from the journal at event %d"
          file i
      | None -> (
        let b = Buffer.create 512 in
        pr b "scenario           %a@." S.pp scenario;
        match S.shrink ~max_runs ~criteria scenario with
        | None ->
          ( Buffer.contents b,
            Error
              (Printf.sprintf "run is clean — no %s violation to minimize"
                 (String.concat "/" (List.map Obs.Monitor.criterion_name criteria))) )
        | Some { S.scenario = m; outcome; runs } ->
          let v = Option.get outcome.S.violation in
          pr b "violation          %a@." Obs.Monitor.pp_violation v;
          pr b "minimized          %d -> %d events (%d re-executions)\n"
            (Obs.Journal.length recorded) outcome.S.events runs;
          pr b "scenario (min)     %a@." S.pp m;
          let scripts =
            Array.to_list (Array.map (List.map Run_spec.print_op) m.S.scripts)
          in
          Obs.Journal.set_header outcome.S.journal
            (Run_spec.to_header
               (Sequential
                  { m.S.spec with scripts = Some scripts; monitors = [ v.Obs.Monitor.criterion ] }));
          (Buffer.contents b, Ok outcome.S.journal))))

(* The workload a parallel spec describes, with the measure that runs
   it: the sharded set's multi-key Zipf batches, the contended set+zipf
   scripts, or uniform scripts over any registered object. `bench` runs
   it, and `replay` regenerates it from the header (the scripts are pure
   functions of the seed). For the space it configures the shard map,
   reporting into [obs]; [lines] is what `bench` prints after the
   verdict, the space's layout. *)
module type PARALLEL_WORKLOAD = sig
  module P : Protocol.PROTOCOL
  module M : Throughput.MEASURE with module P := P

  val scripts : (P.update, P.query) Protocol.invocation list array
  val final_read : P.query
  val lines : M.verdict -> string list
end

let parallel_workload ~obs (ps : Run_spec.parallel) : (module PARALLEL_WORKLOAD) =
  match ps.space with
  | Some sp ->
    (* A static ring: with no policy, the replicas never mutate the
       shared map during the parallel run. *)
    Space_set.configure (Space_set.create_map ?obs ~shards:sp.shards ());
    (module struct
      module P = Space_set
      module M = Throughput.Sharded

      let scripts =
        M.zipf_scripts ~seed:ps.seed ~domains:ps.domains ~ops:ps.ops
          ~keys:sp.keys ~skew:ps.zipf ~fanout:sp.fanout
          ~query_ratio:ps.query_ratio

      let final_read = P.K.Sweep

      let lines (v : M.verdict) =
        let lens = List.map snd (P.shard_log_lengths v.run.M.E.replicas.(0)) in
        [
          Printf.sprintf "shards             %d (static ring)" sp.shards;
          Printf.sprintf "keys / skew / fan  %d / %.2f / %d" sp.keys ps.zipf
            sp.fanout;
          Printf.sprintf "keyed sub-updates  %d" v.issued;
          Printf.sprintf "shard log spread   min %d / max %d"
            (match lens with [] -> 0 | x :: r -> List.fold_left min x r)
            (List.fold_left max 0 lens);
        ]
    end)
  | None when ps.spec = "set" && ps.zipf > 0.0 ->
    (module struct
      module M = Throughput.Bench (Set_spec)
      module P = M.G

      let scripts =
        Throughput.set_zipf_scripts ~seed:ps.seed ~domains:ps.domains
          ~ops:ps.ops ~skew:ps.zipf ~delete_ratio:0.3

      let final_read = Set_spec.Read
      let lines _ = []
    end)
  | None ->
    (* a validated spec names a registered object *)
    let (module O : Uqadt.S) = Option.get (Registry.find ps.spec) in
    (module struct
      module M = Throughput.Bench (O)
      module P = M.G

      let scripts =
        M.uniform_scripts ~seed:ps.seed ~domains:ps.domains ~ops:ps.ops
          ~query_ratio:ps.query_ratio

      let final_read = O.random_query (Prng.create ps.seed)
      let lines _ = []
    end)

let replay_parallel recorded ps =
  let (module W) = parallel_workload ~obs:None ps in
  W.M.replay_journal ~scripts:W.scripts ~final_read:W.final_read recorded

type bench = {
  verdict : string;
  recording : (Obs.Journal.t * Obs.Recorder.event list) option;
  layout : string;
  ok : bool;
}

let bench ?obs ~record ~monitors (ps : Run_spec.parallel) =
  let (module W) = parallel_workload ~obs ps in
  let module M = W.M in
  let b = Buffer.create 1024 in
  let v =
    M.measure ~mailbox_capacity:ps.mailbox ~batch_every:ps.batch
      ~flush_window:ps.flush_window ?obs
      ?recorder:
        (if record then Some (Obs.Recorder.create ~domains:ps.domains ()) else None)
      ?monitor:(if monitors = [] then None else Some monitors)
      ?journal_header:
        (if record then Some (Run_spec.to_header (Parallel ps)) else None)
      ~domains:ps.domains ~final_read:W.final_read ~scripts:W.scripts ()
  in
  let run = v.M.run in
  let reports = run.M.E.reports in
  let p50, p99 =
    match v.M.latency with
    | None -> (0.0, 0.0)
    | Some s -> (s.Stats.p50 *. 1e6, s.Stats.p99 *. 1e6)
  in
  let ok = M.ok v in
  pr b "spec               %s\n" ps.spec;
  pr b "domains            %d (machine recommends %d)\n" (Array.length reports)
    (Domain.recommended_domain_count ());
  pr b "ops                %d total, %d per domain\n" run.M.E.ops_total ps.ops;
  pr b "updates            %d\n" run.M.E.updates_total;
  pr b "wall               %.4f s\n" run.M.E.wall_seconds;
  pr b "throughput         %.0f ops/sec\n" run.M.E.throughput;
  pr b "latency p50 / p99  %.2f / %.2f us\n" p50 p99;
  pr b "mailbox depth max  %d (stalls %d)\n"
    (Array.fold_left
       (fun acc r -> max acc r.Parallel_engine.mailbox_max_depth)
       0 reports)
    (Array.fold_left (fun acc r -> acc + r.Parallel_engine.mailbox_stalls) 0 reports);
  (* The verdict: the converged state on one line, clipped; the four
     clauses, then the measure's own legs; the PASS/FAIL line. *)
  let state = v.M.oracle.Throughput.state_repr in
  pr b "converged state    %s\n"
    (if String.length state <= 96 then state else String.sub state 0 93 ^ "...");
  List.iter
    (fun (k, v) -> pr b "  %-22s %s\n" k v)
    (List.map (fun (k, b) -> (k, string_of_bool b)) (Throughput.clauses v.M.oracle)
    @ ( "sequential runner",
        match v.M.runner_matches with
        | None -> "n/a (non-commutative)"
        | Some b -> string_of_bool b )
      ::
      (match v.M.journal_replay with
      | None -> []
      | Some b -> [ ("journal replay", string_of_bool b) ]));
  pr b "differential       %s\n" (if ok then "PASS" else "FAIL");
  let layout = Buffer.create 256 in
  Option.iter
    (fun (rc : M.recording) ->
      (match rc.M.replay with
      | Ok fp ->
        pr b "flight recorder    %d events, fingerprint %s\n"
          (Obs.Journal.length rc.M.journal)
          fp
      | Error msg -> pr b "flight recorder    REPLAY FAILED: %s\n" msg);
      Option.iter
        (fun mon ->
          monitor_report layout ~criteria:monitors ~events:(M.Mon.events_seen mon)
            (M.Mon.violations mon))
        rc.M.monitor)
    v.M.recording;
  List.iter (pr layout "%s\n") (W.lines v);
  {
    verdict = Buffer.contents b;
    recording = Option.map (fun rc -> (rc.M.journal, rc.M.events)) v.M.recording;
    layout = Buffer.contents layout;
    ok;
  }
