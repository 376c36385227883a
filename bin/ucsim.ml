(* ucsim — command-line driver for the update-consistency reproduction.

   Subcommands:
     figures      print the Figure 1 matrix and the Figure 2 analysis
     experiments  run the experiment suite (all or by id)
     run          simulate one protocol on a generated workload
     replay       re-execute a journaled run and verify it reproduces it
     diff         first structural divergence between two journals
     modelcheck   exhaustively check a protocol on a small script
     storm        flash-crowd open-loop load with SLO verdicts
     shrink       minimize a monitor-flagged journal to a smallest one
     soak         long-horizon run with streaming series and alert rules
     report       render a registry dump, or series sparklines (--series)
     list         show available protocols and experiments *)

let experiment_ids =
  [ "F1"; "F2"; "P1"; "P4"; "T6"; "T6b"; "C1"; "C2"; "C3"; "C4"; "C4b"; "T7"; "S1"; "C5"; "C6"; "A1"; "A2"; "A3" ]

(* ------------------------------------------------------------------ *)
(* Protocol registry for `run`: each named protocol is paired with its
   object type and a driver that simulates a conflict workload on it.  *)
(* ------------------------------------------------------------------ *)

type run_params = {
  protocol : string;  (* registry name, recorded in the journal header *)
  seed : int;
  n : int;
  ops : int;
  shards : int;
      (* shard count for the sharded object space ("sharded" protocol);
         1 everywhere else *)
  keys : int;  (* key domain of the sharded workload *)
  rebalance : float option;
      (* hot-shard policy check interval; None = static ring *)
  mean_delay : float;
  fifo : bool;
  crashes : (float * int) list;  (* (time, pid) crash schedule *)
  check : bool;
  spacetime : bool;
  log_core : [ `List | `Array ];
      (* op-log substrate for the universal protocols: the seed's cons
         list or the array-backed Oplog (the default) *)
  checkpoint_interval : int option;
      (* override for the universal core's checkpoint interval; only
         meaningful with [log_core = `Array] *)
  batch_window : float option;
  obs_on : bool;
  trace_out : string option;
  registry_out : string option;
  span_dump : bool;
  probe_interval : float option;
  partitions : Network.partition list;
  churn : Network.churn_event list;
  scripts : string list list option;
      (* explicit per-process set scripts (printed ops) overriding the
         generated workload — how a minimized journal from `shrink`
         replays from the file alone *)
  journal_out : string option;
  journal : Obs.Journal.t option;
      (* in-memory capture used by `replay` instead of a file *)
  monitors : Obs.Monitor.criterion list;
  obs : Obs.t option;
      (* pre-built telemetry bundle. `soak` (and a soak replay) builds
         it up front so the streaming sampler can snapshot its registry
         every tick, and `sharded` so its shard map can report into it;
         everyone else leaves it None and lets [obs_of_params] decide *)
  sample_interval : float option;
      (* soak sampler cadence in simulated time; Some marks the journal
         header as a soak run *)
  duration : float option;
      (* soak horizon: overrides the runner deadline (simulated time) *)
  rules : Obs.Alert.rule list;  (* soak alert rules, header-recorded *)
  sampler : Obs.Series.sampler option;
      (* pre-built streaming sampler, threaded into every runner config;
         None (the default everywhere but `soak`) samples nothing *)
}

(* `run`'s flag defaults: `soak`, `modelcheck` and a replayed journal
   header override them field by field. *)
let default_params =
  {
    protocol = "universal";
    seed = 42;
    n = 4;
    ops = 100;
    shards = 1;
    keys = 64;
    rebalance = None;
    mean_delay = 10.0;
    fifo = false;
    crashes = [];
    check = false;
    spacetime = false;
    log_core = `Array;
    checkpoint_interval = None;
    batch_window = None;
    obs_on = false;
    trace_out = None;
    registry_out = None;
    span_dump = false;
    probe_interval = None;
    partitions = [];
    churn = [];
    scripts = None;
    journal_out = None;
    journal = None;
    monitors = [];
    obs = None;
    sample_interval = None;
    duration = None;
    rules = [];
    sampler = None;
  }

let log_core_name = function `List -> "list" | `Array -> "array"

(* The journal's self-description: everything `replay` needs to rebuild
   this run_params record and re-execute the identical schedule. *)
let journal_header p =
  let num i = Obs.Json.Num (float_of_int i) in
  let real f = Obs.Json.Num f in
  let str s = Obs.Json.Str s in
  let arr f xs = Obs.Json.Arr (List.map f xs) in
  let opt f = function None -> Obs.Json.Null | Some v -> f v in
  [
    ("protocol", str p.protocol);
    ("seed", num p.seed);
    ("n", num p.n);
    ("ops", num p.ops);
    ("mean_delay", real p.mean_delay);
    ("fifo", Obs.Json.Bool p.fifo);
    ( "crashes",
      arr
        (fun (time, pid) -> Obs.Json.Obj [ ("t", real time); ("pid", num pid) ])
        p.crashes );
    ("log_core", str (log_core_name p.log_core));
    ("checkpoint_interval", opt num p.checkpoint_interval);
    ("batch_window", opt real p.batch_window);
    ("probe_interval", opt real p.probe_interval);
    ("monitors", arr (fun c -> str (Obs.Monitor.criterion_name c)) p.monitors);
    ( "partitions",
      arr
        (fun (pa : Network.partition) ->
          Obs.Json.Obj
            [
              ("from", real pa.Network.from_time);
              ("to", real pa.Network.to_time);
              ("group", arr num pa.Network.group);
            ])
        p.partitions );
    ( "churn",
      arr
        (fun (ce : Network.churn_event) ->
          Obs.Json.Obj
            [
              ("t", real ce.Network.time);
              ("pid", num ce.Network.pid);
              ("action", str (Network.churn_action_name ce.Network.action));
            ])
        p.churn );
    ("scripts", opt (arr (arr str)) p.scripts);
  ]
  (* Shard fields appear only on sharded runs, so single-object journal
     headers — and the seeded fingerprint pins over them — stay
     byte-identical to the seed's. *)
  @ (if p.shards > 1 then
       [
         ("shards", num p.shards);
         ("keys", num p.keys);
         ("rebalance", opt real p.rebalance);
       ]
     else [])
  (* Soak fields likewise appear only on soak runs: `replay` rebuilds
     the sampler and alert rules from them so a soak journal's Alert
     events reproduce, while plain-run headers stay byte-identical. *)
  @ (match p.sample_interval with
    | None -> []
    | Some dt ->
      [
        ("sample_interval", real dt);
        ("duration", opt real p.duration);
        ("rules", arr (fun r -> str (Obs.Alert.rule_to_string r)) p.rules);
      ])

(* Inverse of [journal_header]: rebuild the run_params a journal was
   recorded under, attaching [journal] as the replay's capture journal.
   Raises [Failure] on a header that does not describe a run. *)
let params_of_header ~journal header =
  let get k = List.assoc_opt k header in
  let missing k = failwith (Printf.sprintf "journal header: bad or missing field %S" k) in
  let num k = match get k with Some (Obs.Json.Num f) -> f | _ -> missing k in
  let int k = int_of_float (num k) in
  let bool k = match get k with Some (Obs.Json.Bool b) -> b | _ -> missing k in
  let str k = match get k with Some (Obs.Json.Str s) -> s | _ -> missing k in
  let opt_num k =
    match get k with
    | Some (Obs.Json.Num f) -> Some f
    | Some Obs.Json.Null | None -> None
    | _ -> missing k
  in
  let log_core =
    match str "log_core" with
    | "list" -> `List
    | "array" -> `Array
    | s -> failwith (Printf.sprintf "journal header: unknown log core %S" s)
  in
  (* An array field, each element read by [f]; absent reads as []. *)
  let list k f =
    match get k with
    | Some (Obs.Json.Arr xs) -> List.map f xs
    | None -> []
    | _ -> missing k
  in
  (* The fields of an object element of array [k]. *)
  let obj k = function
    | Obs.Json.Obj fields -> fun f -> List.assoc_opt f fields
    | _ -> missing k
  in
  let monitors =
    list "monitors" (function
      | Obs.Json.Str s -> (
        match Obs.Monitor.criterion_of_name s with
        | Some c -> c
        | None -> failwith (Printf.sprintf "journal header: unknown criterion %S" s))
      | _ -> missing "monitors")
  in
  let partitions =
    list "partitions" (fun x ->
        let fget = obj "partitions" x in
        match (fget "from", fget "to", fget "group") with
        | ( Some (Obs.Json.Num from_time),
            Some (Obs.Json.Num to_time),
            Some (Obs.Json.Arr group) ) ->
          {
            Network.from_time;
            to_time;
            group =
              List.map
                (function
                  | Obs.Json.Num f -> int_of_float f | _ -> missing "partitions")
                group;
          }
        | _ -> missing "partitions")
  in
  let crashes =
    match get "crashes" with
    | None -> (
      (* journals from before the explicit crash schedule carry the old
         one-crash flag *)
      match get "crash" with
      | Some (Obs.Json.Bool true) -> [ (50.0, int "n" - 1) ]
      | Some (Obs.Json.Bool false) | None -> []
      | _ -> missing "crash")
    | Some _ ->
      list "crashes" (fun x ->
          let fget = obj "crashes" x in
          match (fget "t", fget "pid") with
          | Some (Obs.Json.Num time), Some (Obs.Json.Num pid) ->
            (time, int_of_float pid)
          | _ -> missing "crashes")
  in
  let churn =
    list "churn" (fun x ->
        let fget = obj "churn" x in
        match (fget "t", fget "pid", fget "action") with
        | Some (Obs.Json.Num time), Some (Obs.Json.Num pid), Some (Obs.Json.Str a)
          -> (
          match Network.churn_action_of_name a with
          | Some action -> { Network.time; pid = int_of_float pid; action }
          | None ->
            failwith (Printf.sprintf "journal header: unknown churn action %S" a))
        | _ -> missing "churn")
  in
  let scripts =
    match get "scripts" with
    | None | Some Obs.Json.Null -> None
    | Some _ ->
      Some
        (list "scripts" (function
          | Obs.Json.Arr ops ->
            List.map (function Obs.Json.Str s -> s | _ -> missing "scripts") ops
          | _ -> missing "scripts"))
  in
  let rules =
    list "rules" (function
      | Obs.Json.Str s -> (
        match Obs.Alert.rule_of_string s with
        | r -> r
        | exception Invalid_argument msg -> failwith msg)
      | _ -> missing "rules")
  in
  let opt_int k = Option.map int_of_float (opt_num k) in
  {
    default_params with
    protocol = str "protocol";
    seed = int "seed";
    n = int "n";
    ops = int "ops";
    shards = Option.value ~default:default_params.shards (opt_int "shards");
    keys = Option.value ~default:default_params.keys (opt_int "keys");
    rebalance = opt_num "rebalance";
    mean_delay = num "mean_delay";
    fifo = bool "fifo";
    crashes;
    log_core;
    checkpoint_interval = opt_int "checkpoint_interval";
    batch_window = opt_num "batch_window";
    probe_interval = opt_num "probe_interval";
    partitions;
    churn;
    scripts;
    journal = Some journal;
    monitors;
    sample_interval = opt_num "sample_interval";
    duration = opt_num "duration";
    rules;
  }

(* Telemetry is on as soon as any output that needs it was requested. *)
let obs_of_params p =
  match p.obs with
  | Some o ->
    (* Pre-built by `soak` (or a soak replay) so its sampler could take
       the registry, or by `sharded` for its shard map; only the header
       is still ours to stamp. *)
    Option.iter (fun j -> Obs.Journal.set_header j (journal_header p)) o.Obs.journal;
    Some o
  | None ->
  let journal =
    if p.journal_out <> None || p.journal <> None then begin
      let j =
        match p.journal with Some j -> j | None -> Obs.Journal.create ()
      in
      Obs.Journal.set_header j (journal_header p);
      Some j
    end
    else None
  in
  if
    p.obs_on || p.trace_out <> None || p.registry_out <> None || p.span_dump
    || p.probe_interval <> None || journal <> None || p.monitors <> []
  then Some (Obs.create ?journal ())
  else None

let write_json file json =
  let oc = open_out file in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc

let trace_meta p =
  let opt f = function None -> Obs.Json.Null | Some v -> f v in
  [
    ("seed", Obs.Json.Num (float_of_int p.seed));
    ("replicas", Obs.Json.Num (float_of_int p.n));
    ("protocol", Obs.Json.Str p.protocol);
    ("log_core", Obs.Json.Str (log_core_name p.log_core));
    ("batch_window", opt (fun w -> Obs.Json.Num w) p.batch_window);
  ]

let emit_obs p obs =
  match obs with
  | None -> ()
  | Some (o : Obs.t) ->
    (* Host-resource gauges, stamped once at dump time rather than
       during the run: their values depend on allocator state, so
       keeping them out of the library layer keeps its goldens stable.
       (Stdlib.Gc — uc_core's Gc module shadows the runtime's here.) *)
    let q = Stdlib.Gc.quick_stat () in
    Obs.Registry.set
      (Obs.Registry.gauge o.registry "gc_live_words")
      (float_of_int q.Stdlib.Gc.live_words);
    Obs.Registry.set
      (Obs.Registry.gauge o.registry "gc_major_collections")
      (float_of_int q.Stdlib.Gc.major_collections);
    Obs.Registry.set
      (Obs.Registry.gauge o.registry "gc_top_heap_words")
      (float_of_int q.Stdlib.Gc.top_heap_words);
    (match p.trace_out with
    | Some file ->
      write_json file
        (Obs.Trace_export.to_json ~meta:(trace_meta p) ~replicas:p.n o.spans);
      Printf.printf "trace written      %s (%d spans)\n" file
        (Obs.Span.count o.spans)
    | None -> ());
    (match p.registry_out with
    | Some file ->
      write_json file (Obs.Registry.to_json o.registry);
      Printf.printf "registry written   %s\n" file
    | None -> ());
    (match (o.journal, p.journal_out) with
    | Some j, Some file ->
      let oc = open_out file in
      output_string oc (Obs.Journal.to_jsonl j);
      close_out oc;
      Printf.printf "journal written    %s (%d events)\n" file
        (Obs.Journal.length j)
    | _ -> ());
    if p.span_dump then Format.printf "%a" Obs.Trace_export.pp_span_dump o.spans;
    (match Obs.divergence_series o with
    | [] -> ()
    | series ->
      Printf.printf "divergence series  %s\n"
        (String.concat " "
           (List.map (fun (t, d) -> Printf.sprintf "%.0f:%d" t d) series)));
    Format.printf "telemetry:@.%a" Obs.Registry.pp o.registry

(* One line per requested criterion, naming the first violating event's
   journal index and span id — the index `replay --until` accepts. *)
let print_monitor_report ~criteria ~events violations =
  List.iter
    (fun c ->
      match
        List.find_opt (fun v -> v.Obs.Monitor.criterion = c) violations
      with
      | Some v ->
        Format.printf "monitor %-10s %a@."
          (Obs.Monitor.criterion_name c)
          Obs.Monitor.pp_violation v
      | None ->
        Printf.printf "monitor %-10s clean (%d events)\n"
          (Obs.Monitor.criterion_name c)
          events)
    criteria

(* The array core's configuration: the default, with any
   --checkpoint-interval override. *)
let core_config p =
  match p.checkpoint_interval with
  | None -> Generic.default
  | Some k -> { Generic.default with Generic.checkpoint_interval = k }

let describe_log_core p =
  match p.log_core with
  | `List -> "list"
  | `Array ->
    Printf.sprintf "array (checkpoint interval %d)"
      (core_config p).Generic.checkpoint_interval

let describe_metrics (m : Metrics.t) =
  Printf.printf
    "messages sent      %d\nbytes sent         %d\nupdates invoked    %d\nqueries invoked    %d\nops incomplete     %d\nreplay steps       %d\n"
    m.Metrics.messages_sent m.Metrics.bytes_sent m.Metrics.updates_invoked
    m.Metrics.queries_invoked m.Metrics.ops_incomplete m.Metrics.replay_steps

(* Algorithm 1 on [A], on the op-log core the params ask for: the seed's
   list core or the configured array core. {!Persist.Catchup} gives
   either one real churn catch-up (the bare cores carry the PROTOCOL
   stub [snapshot]/[absorb]). *)
let universal (type u q o s) p
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
  match p.log_core with
  | `List -> (module Persist.Catchup (Generic_ref.Make (A)) (A.Codec))
  | `Array ->
    let module C = struct
      let config = core_config p
    end in
    (module Persist.Catchup (Generic.Configured (C) (A)) (A.Codec))

(* The object side of a run: the spec the history is checked against,
   the workload and final read generated from the params, and the
   report lines the object adds to the common ones. *)
module type OBJECT = sig
  include Uqadt.S

  val workload : run_params -> (update, query) Protocol.invocation list array

  val final_read : run_params -> query

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

  (* The explicit printed scripts when the params carry them (a
     replayed `shrink` journal), the generated conflict workload
     otherwise. *)
  let workload p =
    match p.scripts with
    | Some printed ->
      if List.length printed <> p.n then
        failwith
          (Printf.sprintf "run: %d explicit scripts for n=%d processes"
             (List.length printed) p.n);
      Array.of_list
        (List.map
           (fun script ->
             List.map
               (fun tok ->
                 match Workload.For_set.parse_op tok with
                 | Some op -> op
                 | None -> failwith (Printf.sprintf "run: bad script op %S" tok))
               script)
           printed)
    | None ->
      let rng = Prng.create p.seed in
      Workload.For_set.conflict ~rng ~n:p.n ~ops_per_process:p.ops ~domain:16
        ~skew:1.0 ~delete_ratio:0.3

  let final_read _ = Read
  let latency = false
  let final_reads = true
end

module Counter_object = struct
  include Counter_spec
  module Codec = Update_codec.For_counter

  let workload p =
    Workload.For_counter.deposits_and_withdrawals ~rng:(Prng.create p.seed)
      ~n:p.n ~ops_per_process:p.ops ~max_amount:100

  let final_read _ = Value
  let latency = false
  let final_reads = true
end

module Register_object = struct
  include Register_spec
  module Codec = Update_codec.For_register
  module G = Workload.Make (Register_spec)

  let workload p =
    G.mixed ~rng:(Prng.create p.seed) ~n:p.n ~ops_per_process:p.ops
      ~query_ratio:0.4

  let final_read _ = Read
  let latency = true
  let final_reads = true
end

module Memory_object = struct
  include Memory_spec

  let workload p =
    Workload.For_memory.random_writes ~rng:(Prng.create p.seed) ~n:p.n
      ~ops_per_process:p.ops ~registers:8 ~read_ratio:0.4

  let final_read _ = Read 0
  let latency = false
  let final_reads = false
end

(* Any registered object: one query for every three updates, drawn from
   the spec's own generators. *)
module Spec_object (A : Registry.SPEC) = struct
  include A

  let workload p =
    let rng = Prng.create p.seed in
    Array.init p.n (fun _ ->
        List.init p.ops (fun _ ->
            if Prng.int rng 4 = 0 then Protocol.Invoke_query (A.random_query rng)
            else Protocol.Invoke_update (A.random_update rng)))

  let final_read p = A.random_query (Prng.create p.seed)
  let latency = false
  let final_reads = true
end

module Sharded_set = Space.Make (Set_spec) (Update_codec.For_set)

(* The sharded object space on the set: one Algorithm 1 core per shard
   behind a consistent-hash ring, fed a Zipf-skewed multi-key stream. *)
module Sharded_object = struct
  include Sharded_set.K

  let workload p =
    let rng = Prng.create p.seed in
    let elem = Zipf.create ~n:16 ~s:1.0 in
    Workload.For_space.zipf_scripts ~rng ~n:p.n ~ops_per_process:p.ops
      ~keys:p.keys ~skew:1.1 ~fanout:3 ~query_ratio:0.25
      ~update:(fun g ->
        let v = Zipf.sample elem g in
        if Prng.float g 1.0 < 0.3 then Set_spec.Delete v else Set_spec.Insert v)
      ~query:(fun _ -> Set_spec.Read)
      ~read:(fun k q -> Read (k, q))

  let final_read _ = Sweep
  let latency = false
  let final_reads = true
end

(* Simulate protocol [P] replicating object [O] under every fault,
   channel, telemetry and report option in [p]. [note] tops a --trace;
   [lines] are printed after the protocol line. *)
let drive (type u q o) ?note ?(lines = fun () -> [])
    (module P : Protocol.PROTOCOL
      with type update = u
       and type query = q
       and type output = o)
    (module O : OBJECT
      with type update = u
       and type query = q
       and type output = o) p =
  let module R = Runner.Make (P) in
  let workload = O.workload p in
  let obs = obs_of_params p in
  let monitor =
    if p.monitors = [] then None
    else Some (R.Mon.create ~n:p.n ~criteria:p.monitors)
  in
  let base = R.default_config ~n:p.n ~seed:p.seed in
  let config =
    {
      base with
      R.delay = Network.Exponential { mean = p.mean_delay };
      fifo = p.fifo;
      partitions = p.partitions;
      crashes = p.crashes;
      churn = p.churn;
      final_read = Some (O.final_read p);
      deadline = Option.value ~default:base.R.deadline p.duration;
      trace = p.spacetime;
      batch_window = p.batch_window;
      obs;
      probe_interval = p.probe_interval;
      monitor;
      sampler = p.sampler;
    }
  in
  let r = R.run config ~workload in
  (match r.R.trace with
  | Some tr ->
    (* Configuration notes sort to the top of the rendered chronology. *)
    Option.iter (fun text -> Trace.record_note tr ~time:0.0 text) note;
    print_string (Trace.render tr ~n:p.n)
  | None -> ());
  Printf.printf "protocol           %s (object: %s)\n" P.protocol_name O.name;
  List.iter print_endline (lines ());
  describe_metrics r.R.metrics;
  Printf.printf "converged          %b\n" r.R.converged;
  (match r.R.op_latencies with
  | _ :: _ as ls when O.latency ->
    let s = Stats.summarize ls in
    Printf.printf "op latency         mean=%.2f p99=%.2f\n" s.Stats.mean s.Stats.p99
  | _ -> ());
  if O.final_reads then
    List.iter
      (fun (pid, o) -> Format.printf "final read p%d      %a@." pid O.pp_output o)
      r.R.final_outputs;
  if p.check then begin
    let module C = Criteria.Make (O) in
    Printf.printf "history UC         %b\nhistory EC         %b\n"
      (C.holds Criteria.UC r.R.history)
      (C.holds Criteria.EC r.R.history)
  end;
  Option.iter
    (fun m ->
      print_monitor_report ~criteria:p.monitors ~events:(R.Mon.events_seen m)
        (R.Mon.violations m))
    monitor;
  emit_obs p obs

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
       and type state = s) p =
  drive ?note ?lines (module (val universal p (module O))) (module O) p

(* Algorithm 1 on a registered object, naming its log core after the
   protocol line. *)
let run_universal_on (module A : Registry.SPEC) p =
  let core = describe_log_core p in
  algorithm1 ~note:("log core: " ^ core)
    ~lines:(fun () -> [ "log core           " ^ core ])
    (module Spec_object (A))
    p

(* The sharded object space: --shards 1 degenerates to a single core
   holding every key; --rebalance arms the hot-shard split policy. The
   telemetry bundle is built up front because the shard map reports
   into it. *)
let run_sharded p =
  let obs = obs_of_params p in
  let policy =
    Option.map
      (fun interval ->
        (* 1.5 keeps the trigger reachable at small shard counts: with
           two shards the hottest can never exceed 2x the mean, so a
           factor of 2 would never fire. *)
        { Sharded_set.interval; hot_factor = 1.5; max_shards = 64 })
      p.rebalance
  in
  let map = Sharded_set.create_map ?policy ?obs ~shards:p.shards () in
  Sharded_set.configure map;
  (* Soak runs also watch the ring: cumulative and per-tick op rates
     for every shard, so a hot-shard split shows up in the series. *)
  Option.iter
    (fun s -> Obs.Series.add_probe s (Sharded_set.series_probe map))
    p.sampler;
  drive
    ~lines:(fun () ->
      [
        Printf.sprintf
          "shards             %d initial, %d final (%d rebalances, %d \
           entries re-homed)"
          p.shards
          (Ring.shards (Sharded_set.ring map))
          (Sharded_set.rebalances map)
          (Sharded_set.moved_entries map);
        Printf.sprintf "shard ops          %s"
          (String.concat " "
             (List.map
                (fun (s, ops) -> Printf.sprintf "s%d:%d" s ops)
                (Sharded_set.shard_ops map)));
      ])
    (module Sharded_set) (module Sharded_object) { p with obs }

(* One row per protocol name. `run`, `soak` and `replay` drive [run];
   the set protocols also carry the module `nemesis`, `storm` and
   `shrink` build their engines over. *)
type entry = {
  name : string;
  doc : string;
  fifo : bool;  (* needs FIFO channels (the stability GC) *)
  run : run_params -> unit;
  set : (run_params -> (module SET_PROTOCOL)) option;
}

let set_entry ?(fifo = false) name doc set =
  {
    name;
    doc;
    fifo;
    run = (fun p -> drive (set p) (module Set_object) p);
    set = Some set;
  }

let entry name doc run = { name; doc; fifo = false; run; set = None }

let universal_set p : (module SET_PROTOCOL) =
  (module (val universal p (module Set_object)))

module Memo_set = Generic.Configured (struct let config = Generic.memo end) (Set_spec)

let protocols : entry list =
  List.map
    (fun (name, spec) ->
      entry ("universal-" ^ name)
        ("Algorithm 1 on the " ^ name ^ " object")
        (run_universal_on spec))
    Registry.all_specs
  @ [
      {
        (set_entry "universal" "Algorithm 1 on the set" universal_set) with
        run =
          (fun p ->
            (* Both cores exchange byte-identical messages, so the same
               seed replays the same schedule and only the query cost
               differs. *)
            let core = describe_log_core p in
            Printf.printf "log core           %s\n" core;
            algorithm1 ~note:("log core: " ^ core) (module Set_object) p);
      };
      set_entry "memo" "Algorithm 1 + snapshot cache, set" (fun _ ->
          (module Memo_set));
      set_entry ~fifo:true "gc" "Algorithm 1 + stability GC, set (needs --fifo)"
        (fun _ -> (module Gc.Make (Set_spec)));
      set_entry "undo" "undo-based construction, set" (fun _ ->
          (module Undo.Make (Undoable.Set)));
      set_entry "pipelined" "naive FIFO apply-on-receive, set" (fun _ ->
          (module Pipelined.Make (Set_spec)));
      set_entry "orset" "OR-set CRDT" (fun _ -> (module Orset_crdt));
      set_entry "2pset" "two-phase set CRDT" (fun _ ->
          (module Twopset_crdt.Protocol_impl));
      set_entry "lwwset" "LWW-element-set CRDT" (fun _ -> (module Lwwset_crdt));
      set_entry "pnset" "counting set CRDT" (fun _ -> (module Pnset_crdt));
      entry "counter" "Algorithm 1 on the counter"
        (algorithm1 (module Counter_object));
      entry "fastcounter" "CRDT fast path counter" (fun p ->
          drive (module Commutative.Make (Counter_spec)) (module Counter_object) p);
      entry "pncounter" "PN-counter CRDT" (fun p ->
          drive (module Counters.Pncounter) (module Counter_object) p);
      entry "register" "Algorithm 1 on the register"
        (algorithm1 (module Register_object));
      entry "lwwreg" "LWW-register CRDT" (fun p ->
          drive (module Registers.Lwwreg) (module Register_object) p);
      entry "abd" "ABD linearizable register (baseline)" (fun p ->
          drive (module Abd) (module Register_object) p);
      entry "lwwmemory" "Algorithm 2 shared memory" (fun p ->
          drive (module Lww_memory) (module Memory_object) p);
      entry "sharded"
        "Algorithm 1 per shard behind a consistent-hash ring, set \
         (--shards/--keys/--rebalance)"
        run_sharded;
    ]

(* The entry [name] names, refused on non-FIFO channels when it needs
   them. [cmd] prefixes the one-line error. *)
let find_protocol ~cmd ~fifo name =
  match List.find_opt (fun e -> e.name = name) protocols with
  | None ->
    Printf.eprintf "%s: unknown protocol %S\n" cmd name;
    exit 1
  | Some e when e.fifo && not fifo ->
    Printf.eprintf "%s: %s needs FIFO channels (--fifo)\n" cmd name;
    exit 1
  | Some e -> e


(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

open Cmdliner

(* `--monitor uc,ec,pc` — shared by `run` (and friends) and `bench`. *)
let monitors_conv =
  let parse s =
    let parts = List.filter (fun x -> x <> "") (String.split_on_char ',' s) in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match Obs.Monitor.criterion_of_name x with
        | Some c -> go (c :: acc) rest
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown criterion %S (expected uc, ec or pc)" x)))
    in
    go [] parts
  in
  let print ppf cs =
    Format.pp_print_string ppf
      (String.concat "," (List.map Obs.Monitor.criterion_name cs))
  in
  Arg.conv (parse, print)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

let figures_cmd =
  let doc = "Print the Figure 1 classification matrix and the Figure 2 analysis." in
  let run () =
    print_string (Table.render (Experiments.fig1 ()));
    print_newline ();
    print_string (Experiments.fig2 ())
  in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run $ const ())

let experiments_cmd =
  let doc = "Run the experiment suite (DESIGN.md ids; default: all)." in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids, e.g. C2 C4.")
  in
  let markdown_arg =
    Arg.(value & flag & info [ "markdown" ] ~doc:"Render GitHub-flavoured tables.")
  in
  let run seed markdown ids =
    let wanted = if ids = [] then experiment_ids else ids in
    let wanted = List.map String.uppercase_ascii wanted in
    List.iter
      (fun (id, title, body) ->
        if List.mem (String.uppercase_ascii id) wanted then
          if markdown then Printf.printf "## %s — %s\n\n%s\n" id title body
          else Printf.printf "== %s: %s ==\n%s\n" id title body)
      (Experiments.all ~markdown ~seed ())
  in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ seed_arg $ markdown_arg $ ids)

(* Flags `run` and `soak` share. *)

let protocol_arg =
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun e -> (e.name, e.name)) protocols))) None
    & info [] ~docv:"PROTOCOL" ~doc:"One of the names shown by `ucsim list`.")

let n_arg =
  Arg.(value & opt int default_params.n & info [ "n" ] ~docv:"N" ~doc:"Processes.")

let ops_arg default =
  Arg.(value & opt int default & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per process.")

let delay_arg =
  Arg.(
    value
    & opt float default_params.mean_delay
    & info [ "delay" ] ~docv:"D" ~doc:"Mean message delay.")

let shards_arg =
  Arg.(
    value
    & opt int default_params.shards
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Initial shard count for the $(b,sharded) protocol: one \
           Algorithm 1 core per shard behind a consistent-hash ring. 1 \
           (the default) keeps every key in a single core.")

let keys_arg =
  Arg.(
    value
    & opt int default_params.keys
    & info [ "keys" ] ~docv:"K"
        ~doc:
          "Key domain of the sharded workload (Zipf-skewed; key 0 is the \
           hottest).")

let rebalance_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "rebalance" ] ~docv:"DT"
        ~doc:
          "Arm the hot-shard policy: every $(docv) simulated time units, \
           split the hottest shard when its op rate exceeds 2x the \
           per-shard mean (sharded protocol only).")

let fifo_arg =
  Arg.(
    value & flag
    & info [ "fifo" ] ~doc:"FIFO channels (required by $(b,gc)).")

let churn_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ t_s; action_s; pid_s ] -> (
      match
        ( float_of_string_opt t_s,
          Network.churn_action_of_name action_s,
          int_of_string_opt pid_s )
      with
      | Some time, Some action, Some pid -> Ok { Network.time; pid; action }
      | _ -> Error (`Msg "churn: expected TIME:join|leave|rejoin:PID"))
    | _ -> Error (`Msg "churn: expected TIME:ACTION:PID")
  in
  let print ppf (ce : Network.churn_event) =
    Format.fprintf ppf "%g:%s:%d" ce.Network.time
      (Network.churn_action_name ce.Network.action)
      ce.Network.pid
  in
  Arg.(
    value
    & opt_all (conv (parse, print)) []
    & info [ "churn" ] ~docv:"TIME:ACTION:PID"
        ~doc:
          "Membership change at simulated time TIME: $(b,leave) detaches the \
           replica (its script parks, frames to and from it drop), \
           $(b,rejoin) re-attaches it with its crash-time state, and \
           $(b,join) declares a process that starts the run absent and \
           joins fresh — joiners and rejoiners catch up from a present \
           peer's snapshot when the protocol supports one. Repeatable.")

let journal_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-out" ] ~docv:"FILE"
        ~doc:
          "Record every invocation, wire frame, delivery, fault, probe and \
           alert into a self-describing JSONL event journal at $(docv), \
           sealed with the run's history fingerprint (turns the telemetry \
           layer on). Re-execute it with `ucsim replay`.")

let registry_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "registry-out" ] ~docv:"FILE"
        ~doc:
          "Write the metric registry dump as JSON to $(docv) (turns the \
           telemetry layer on). Render it later with `ucsim report`.")

let run_cmd =
  let doc = "Simulate one protocol on a generated conflict workload." in
  let crash_arg =
    Arg.(value & flag & info [ "crash" ] ~doc:"Crash the last process at t=50.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run the UC/EC checkers on the extracted history, against the \
             object's sequential specification (small runs only).")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print a space-time trace of the run.")
  in
  let log_core_arg =
    Arg.(
      value
      & opt (enum [ ("list", `List); ("array", `Array) ]) default_params.log_core
      & info [ "log-core" ] ~docv:"CORE"
          ~doc:
            "Op-log substrate for Algorithm 1 (universal, counter, register \
             and every universal-<object>): the seed's cons-list core or \
             the array-backed oplog with interval checkpoints (default).")
  in
  let checkpoint_interval_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-interval" ] ~docv:"K"
          ~doc:
            "Record an oplog state checkpoint every K entries (Algorithm 1 \
             on the array core; 0 disables checkpointing). memo keeps its \
             fixed configuration.")
  in
  let obs_arg =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Enable the telemetry layer: per-replica metric registry, causal \
             span tracing, replay-cost profiles. Off by default; runs without \
             it are bit-identical to the uninstrumented simulator.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the span trace as Chrome/Perfetto trace-event JSON to \
             $(docv) (implies --obs). Load it in ui.perfetto.dev.")
  in
  let span_dump_arg =
    Arg.(
      value & flag
      & info [ "span-dump" ]
          ~doc:"Print the compact per-span dump (implies --obs).")
  in
  let probe_interval_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "probe-interval" ] ~docv:"DT"
          ~doc:
            "Sample every live replica's state fingerprint at most every \
             $(docv) simulated time units, recording the divergence series \
             and feeding visibility-latency accounting (implies --obs).")
  in
  let partition_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ from_s; to_s; group_s ] -> (
        match (float_of_string_opt from_s, float_of_string_opt to_s) with
        | Some from_time, Some to_time ->
          let members = String.split_on_char ',' group_s in
          let group = List.filter_map int_of_string_opt members in
          if List.length group <> List.length members || group = [] then
            Error (`Msg "partition: group must be a comma-separated pid list")
          else Ok { Network.from_time; to_time; group }
        | _ -> Error (`Msg "partition: FROM and TO must be numbers"))
      | _ -> Error (`Msg "partition: expected FROM:TO:P1,P2,...")
    in
    let print ppf (p : Network.partition) =
      Format.fprintf ppf "%g:%g:%s" p.Network.from_time p.Network.to_time
        (String.concat "," (List.map string_of_int p.Network.group))
    in
    Arg.conv (parse, print)
  in
  let partitions_arg =
    Arg.(
      value
      & opt_all partition_conv []
      & info [ "partition" ] ~docv:"FROM:TO:PIDS"
          ~doc:
            "Isolate the comma-separated pid group from everyone else between \
             simulated times FROM and TO (messages are delayed, not lost; the \
             partition heals at TO). Repeatable.")
  in
  let batch_window_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "batch-window" ] ~docv:"W"
          ~doc:
            "Buffer each process's broadcasts and flush them as one frame per \
             destination $(docv) time units after the window opens.")
  in
  let monitors_arg =
    Arg.(
      value
      & opt monitors_conv []
      & info [ "monitor" ] ~docv:"CRITERIA"
          ~doc:
            "Comma-separated consistency criteria (uc, ec, pc) to check \
             online as the run progresses; the first violating event is \
             reported with its journal index and span id (implies --obs).")
  in
  let run protocol seed n ops shards keys rebalance mean_delay fifo crash
      check spacetime log_core checkpoint_interval batch_window obs_on
      trace_out registry_out span_dump probe_interval partitions churn
      journal_out monitors =
    let e = find_protocol ~cmd:"run" ~fifo protocol in
    e.run
      {
        default_params with
        protocol;
        seed;
        n;
        ops;
        shards;
        keys;
        rebalance;
        mean_delay;
        fifo;
        crashes = (if crash then [ (50.0, n - 1) ] else []);
        check;
        spacetime;
        log_core;
        checkpoint_interval;
        batch_window;
        obs_on;
        trace_out;
        registry_out;
        span_dump;
        probe_interval;
        partitions;
        churn;
        journal_out;
        monitors;
      }
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ protocol_arg $ seed_arg $ n_arg $ ops_arg default_params.ops
      $ shards_arg $ keys_arg $ rebalance_arg $ delay_arg $ fifo_arg
      $ crash_arg $ check_arg $ trace_arg $ log_core_arg
      $ checkpoint_interval_arg $ batch_window_arg $ obs_arg $ trace_out_arg
      $ registry_out_arg $ span_dump_arg $ probe_interval_arg $ partitions_arg
      $ churn_arg $ journal_out_arg $ monitors_arg)

let modelcheck_cmd =
  let doc =
    "Model-check a protocol: exhaustively by default, with partial-order \
     reduction, state deduplication, checkpointed replay and parallel domains \
     on request."
  in
  let which =
    let choices =
      [
        ("universal", `Universal);
        ("pipelined", `Pipelined);
        ("orset", `Orset);
        ("counter", `Counter);
      ]
    in
    Arg.(value & pos 0 (enum choices) `Universal & info [] ~docv:"PROTOCOL")
  in
  let por_arg =
    Arg.(value & flag & info [ "por" ] ~doc:"Enable sleep-set partial-order reduction.")
  in
  let dedup_arg =
    Arg.(
      value & flag
      & info [ "dedup" ]
          ~doc:
            "Enable state fingerprinting (universal and counter only — needs a \
             replica snapshot).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"D" ~doc:"Explore first-level branches over D domains.")
  in
  let checkpoint_arg =
    Arg.(
      value & opt int 4
      & info [ "checkpoint" ] ~docv:"K"
          ~doc:
            "Snapshot protocol state every K events for O(K) backtracking (0 \
             disables; universal and counter only).")
  in
  let crashes_arg =
    Arg.(
      value & opt int 0
      & info [ "max-crashes" ] ~docv:"C" ~doc:"Also explore up to C process crashes.")
  in
  let limit_arg =
    Arg.(
      value & opt int 200_000
      & info [ "limit" ] ~docv:"L" ~doc:"Cap on complete executions.")
  in
  let n_arg =
    Arg.(
      value & opt int 2
      & info [ "n" ] ~docv:"N" ~doc:"Processes (counter protocol only).")
  in
  let ops_arg =
    Arg.(
      value & opt int 2
      & info [ "ops" ] ~docv:"OPS"
          ~doc:"Increments per process (counter protocol only).")
  in
  let log_core_arg =
    Arg.(
      value
      & opt (enum [ ("list", `List); ("array", `Array) ]) `Array
      & info [ "log-core" ] ~docv:"CORE"
          ~doc:
            "Op-log substrate for the universal protocols: the seed's cons-list \
             core or the array-backed oplog (default). Both cores must report \
             identical verdicts — the flag exists for exactly that A/B check.")
  in
  let checkpoint_interval_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-interval" ] ~docv:"K"
          ~doc:
            "Oplog state-checkpoint cadence inside the replicas (array core \
             only; distinct from --checkpoint, which snapshots whole replicas \
             for explorer backtracking).")
  in
  let run which por dedup domains checkpoint max_crashes limit n ops log_core
      checkpoint_interval =
    let race =
      [|
        [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_update (Set_spec.Delete 2) ];
        [ Protocol.Invoke_update (Set_spec.Insert 2); Protocol.Invoke_update (Set_spec.Delete 1) ];
      |]
    in
    let print_report name executions exhaustive failures distinct firsts
        (st : Explore.stats) =
      Printf.printf "protocol       %s\nschedules      %d (exhaustive: %b)\n" name
        executions exhaustive;
      Printf.printf
        "states         explored %d, pruned(por) %d, deduped %d\nreplay         %d protocol steps, %d checkpoint restores\n"
        st.Explore.states_explored st.Explore.states_pruned_por
        st.Explore.states_deduped st.Explore.protocol_steps
        st.Explore.checkpoint_restores;
      List.iter
        (fun (c, k) ->
          Printf.printf "%-4s fails    %d (distinct histories: %d)\n"
            (Criteria.name c) k
            (try List.assoc c distinct with Not_found -> 0))
        failures;
      List.iter
        (fun (c, text) ->
          Printf.printf "first %s violation:\n%s\n" (Criteria.name c) text)
        firsts
    in
    let checkpoint_every = if checkpoint > 0 then checkpoint else 4 in
    (* Algorithm 1 on [A], on the core --log-core and
       --checkpoint-interval ask for. *)
    let explore_universal (type u q o s)
        (module A : Registry.SPEC
          with type update = u
           and type query = q
           and type output = o
           and type state = s) ~label ~scripts ~final_read =
      let p = { default_params with log_core; checkpoint_interval } in
      let module G = (val universal p (module A)) in
      let module M = Model_check.Make (G) in
      let module S = Snapshot.For_replica (A) (A.Codec) (G) in
      let snapshot = if checkpoint > 0 || dedup then Some S.snapshotter else None in
      (* Timestamp-blind state keys are sound only for commutative specs. *)
      let blind = dedup && A.commutative in
      let state_key = if blind then Some S.commutative_key else None in
      let message_key = if blind then Some S.commutative_message_key else None in
      let r =
        M.explore ~limit ~max_crashes ~por ~dedup ~checkpoint_every ?snapshot
          ?state_key ?message_key ~deliveries_commute:S.deliveries_commute
          ~domains ~scripts ~final_read ()
      in
      print_report
        (Printf.sprintf "%s [log core: %s]" label (describe_log_core p))
        r.M.executions r.M.exhaustive r.M.failures r.M.distinct_failures
        r.M.first_failures r.M.stats
    in
    let explore_set (module P : SET_PROTOCOL) label =
      if dedup then begin
        Printf.eprintf "modelcheck: --dedup needs a replica snapshot (universal/counter only)\n";
        exit 1
      end;
      let module M = Model_check.Make (P) in
      let r =
        M.explore ~limit ~max_crashes ~por ~domains ~scripts:race
          ~final_read:Set_spec.Read ()
      in
      print_report label r.M.executions r.M.exhaustive r.M.failures
        r.M.distinct_failures r.M.first_failures r.M.stats
    in
    match which with
    | `Universal ->
      explore_universal (module Set_object) ~label:"universal" ~scripts:race
        ~final_read:Set_spec.Read
    | `Pipelined -> explore_set (module Pipelined.Make (Set_spec)) "pipelined"
    | `Orset -> explore_set (module Orset_crdt) "or-set"
    | `Counter ->
      let scripts =
        Array.init n (fun pid ->
            List.init ops (fun i ->
                Protocol.Invoke_update (Counter_spec.Add ((pid * ops) + i + 1))))
      in
      explore_universal (module Counter_object)
        ~label:(Printf.sprintf "universal counter (n=%d, ops=%d)" n ops)
        ~scripts ~final_read:Counter_spec.Value
  in
  Cmd.v (Cmd.info "modelcheck" ~doc)
    Term.(
      const run $ which $ por_arg $ dedup_arg $ domains_arg $ checkpoint_arg
      $ crashes_arg $ limit_arg $ n_arg $ ops_arg $ log_core_arg
      $ checkpoint_interval_arg)

(* `nemesis` and `storm`: any set protocol of the table. *)
let set_protocol_arg =
  let choices =
    List.filter_map
      (fun e -> Option.map (fun set -> (e.name, (e, set))) e.set)
      protocols
  in
  Arg.(
    value
    & pos 0 (enum choices) (List.assoc "universal" choices)
    & info [] ~docv:"PROTOCOL" ~doc:"A set protocol shown by `ucsim list`.")

let nemesis_cmd =
  let doc = "Run a randomized fault campaign (crashes + healing partitions)." in
  let runs_arg =
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N" ~doc:"Campaign size.")
  in
  let set_workload rng ~n ~ops =
    Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:8 ~skew:1.0
      ~delete_ratio:0.35
  in
  let campaign_of (module P : SET_PROTOCOL) ~fifo ~runs ~seed =
    let module N = Nemesis.Make (P) in
    let campaign = { N.default_campaign with N.runs; fifo; base_seed = seed } in
    let v = N.run campaign ~workload:set_workload ~final_read:Set_spec.Read in
    Printf.printf
      "protocol %s: %d runs, %d crashes (budget %d/run%s), %d partitions\nconvergence failures       %d\nstalled operations         %d\ncertificate disagreements  %d\nverdict                    %s\n"
      P.protocol_name v.N.runs v.N.crashes_injected v.N.crash_cap
      (if v.N.capped_runs > 0 then
         Printf.sprintf ", clamped below the request in %d runs" v.N.capped_runs
       else "")
      v.N.partitions_injected v.N.convergence_failures v.N.stalled_operations
      v.N.certificate_disagreements
      (if N.clean v then "CLEAN" else "FAULTY");
    if v.N.failing_seeds <> [] then
      Printf.printf "failing seeds: %s\n"
        (String.concat ", " (List.map string_of_int v.N.failing_seeds))
  in
  let run (e, set) seed runs =
    (* A FIFO-only protocol gets its FIFO channels. *)
    campaign_of (set default_params) ~fifo:e.fifo ~runs ~seed
  in
  Cmd.v (Cmd.info "nemesis" ~doc)
    Term.(const run $ set_protocol_arg $ seed_arg $ runs_arg)

let read_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Parse a journal file, dying with a one-line diagnostic on anything
   malformed or truncated — same contract as `report`. *)
let load_journal ~cmd file =
  match Obs.Journal.of_jsonl (read_file file) with
  | exception Obs.Journal.Parse_error msg ->
    Printf.eprintf "%s: %s: %s\n" cmd file msg;
    exit 1
  | exception Failure msg ->
    Printf.eprintf "%s: %s: %s\n" cmd file msg;
    exit 1
  | j -> j

let storm_cmd =
  let doc =
    "Drive a flash crowd at a replicated set: open-loop arrivals (warm-up, \
     spike, cool-down) on top of the closed-loop clients, with per-operation \
     latency judged against an SLO target."
  in
  let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Replicas.") in
  let clients_arg =
    Arg.(value & opt int 6 & info [ "clients" ] ~docv:"C" ~doc:"Closed-loop clients.")
  in
  let ops_arg =
    Arg.(
      value & opt int 20
      & info [ "ops" ] ~docv:"OPS" ~doc:"Closed-loop operations per client.")
  in
  let delay_arg =
    Arg.(
      value & opt float 10.0
      & info [ "delay" ] ~docv:"D" ~doc:"Mean replica-mesh message delay.")
  in
  let base_arg =
    Arg.(
      value & opt float 0.2
      & info [ "base" ] ~docv:"R"
          ~doc:"Background arrival rate (operations per time unit).")
  in
  let peak_arg =
    Arg.(
      value & opt float 4.0
      & info [ "peak" ] ~docv:"R" ~doc:"Arrival rate during the spike.")
  in
  let warm_arg =
    Arg.(
      value & opt float 60.0
      & info [ "warm" ] ~docv:"T" ~doc:"Warm-up duration at the base rate.")
  in
  let spike_arg =
    Arg.(
      value & opt float 40.0
      & info [ "spike" ] ~docv:"T" ~doc:"Spike duration at the peak rate.")
  in
  let cool_arg =
    Arg.(
      value & opt float 60.0
      & info [ "cool" ] ~docv:"T" ~doc:"Cool-down duration at the base rate.")
  in
  let slo_arg =
    Arg.(
      value & opt float 40.0
      & info [ "slo" ] ~docv:"L"
          ~doc:
            "Latency target: the SLO is met when the open-loop p99 is at or \
             under $(docv) simulated time units.")
  in
  let query_ratio_arg =
    Arg.(
      value & opt float 0.25
      & info [ "query-ratio" ] ~docv:"Q"
          ~doc:"Fraction of open-loop arrivals that are reads.")
  in
  let registry_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "registry-out" ] ~docv:"FILE"
          ~doc:
            "Write the metric registry (including the open-loop latency \
             histogram) as JSON to $(docv).")
  in
  let run (e, set) seed n clients ops delay base peak warm spike cool slo
      query_ratio registry_out =
    if e.fifo then begin
      Printf.eprintf "storm: %s needs FIFO channels, which the client engine \
                      does not provide\n" e.name;
      exit 1
    end;
    let (module P : SET_PROTOCOL) = set default_params in
    let module C = Clients.Make (P) in
    let rng = Prng.create seed in
    let workload =
      Workload.For_set.conflict ~rng ~n:clients ~ops_per_process:ops
        ~domain:16 ~skew:1.0 ~delete_ratio:0.3
    in
    let obs = if registry_out <> None then Some (Obs.create ()) else None in
    let plan = Workload.Flash_crowd.plan ~base ~peak ~warm ~spike ~cool in
    let config =
      {
        (C.default_config ~n_replicas:n ~n_clients:clients ~seed) with
        C.replica_delay = Network.Exponential { mean = delay };
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
    Printf.printf "protocol           %s (object: set)\n" P.protocol_name;
    Printf.printf "replicas/clients   %d/%d\n" n clients;
    Printf.printf "arrival plan       %s\n"
      (String.concat " | "
         (List.map
            (fun (ph : Clients.phase) ->
              Printf.sprintf "%g/t for %g" ph.Clients.rate ph.Clients.duration)
            plan));
    Printf.printf "closed loop        %d completed, %d retried, %d failovers\n"
      r.C.ops_completed r.C.ops_abandoned r.C.failovers;
    Printf.printf "open loop          %d completed, %d abandoned\n"
      r.C.open_completed r.C.open_abandoned;
    Printf.printf "converged          %b\n" r.C.converged;
    (match r.C.open_latencies with
    | [] -> print_endline "open-loop SLO      no arrivals"
    | ls ->
      Format.printf "open-loop SLO      %a@." Stats.pp_slo (Stats.slo ~target:slo ls));
    match (obs, registry_out) with
    | Some o, Some file ->
      Obs.finalize o ~live:[];
      write_json file (Obs.Registry.to_json o.Obs.registry);
      Printf.printf "registry written   %s\n" file
    | _ -> ()
  in
  Cmd.v (Cmd.info "storm" ~doc)
    Term.(
      const run $ set_protocol_arg $ seed_arg $ n_arg $ clients_arg $ ops_arg
      $ delay_arg $ base_arg $ peak_arg $ warm_arg $ spike_arg $ cool_arg $ slo_arg
      $ query_ratio_arg $ registry_out_arg)

let shrink_cmd =
  let doc =
    "Minimize a monitor-flagged journaled run (from `run --journal-out`) to \
     a smallest scenario that still violates the same criterion, and write \
     the minimized journal — itself replayable with `ucsim replay`."
  in
  let in_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "journal-in" ] ~docv:"FILE" ~doc:"Journal of the flagged run.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-out" ] ~docv:"FILE"
          ~doc:"Write the minimized violating journal to $(docv).")
  in
  let max_runs_arg =
    Arg.(
      value & opt int 400
      & info [ "max-runs" ] ~docv:"N"
          ~doc:"Re-execution budget for the greedy descent.")
  in
  let run file out max_runs =
    let recorded = load_journal ~cmd:"shrink" file in
    let p =
      match
        params_of_header ~journal:(Obs.Journal.create ())
          (Obs.Journal.header recorded)
      with
      | exception Failure msg ->
        Printf.eprintf "shrink: %s: %s\n" file msg;
        exit 1
      | p -> { p with journal = None }
    in
    if p.batch_window <> None || p.probe_interval <> None then begin
      Printf.eprintf
        "shrink: runs recorded with --batch-window or --probe-interval are \
         not shrinkable (the scenario engine re-executes without them)\n";
      exit 1
    end;
    (* The set protocols: their `run` workload is the scripts a
       minimized journal carries, so it replays through the stock
       driver. *)
    let (module P : SET_PROTOCOL) =
      match List.find_opt (fun e -> e.name = p.protocol) protocols with
      | Some { set = Some set; _ } -> set p
      | _ ->
        Printf.eprintf
          "shrink: protocol %S has no scenario engine (set protocols only)\n"
          p.protocol;
        exit 1
    in
    let module S = Scenario.Make (P) in
    let scripts =
      match Set_object.workload p with
      | exception Failure msg ->
        Printf.eprintf "shrink: %s\n" msg;
        exit 1
      | w -> w
    in
    let scenario =
      {
        S.seed = p.seed;
        n = p.n;
        mean_delay = p.mean_delay;
        fifo = p.fifo;
        scripts;
        partitions = p.partitions;
        crashes = p.crashes;
        churn = p.churn;
        final_read = Some Set_spec.Read;
      }
    in
    let criteria =
      if p.monitors = [] then [ Obs.Monitor.Uc; Obs.Monitor.Ec; Obs.Monitor.Pc ]
      else p.monitors
    in
    Format.printf "scenario           %a@." S.pp scenario;
    match S.shrink ~max_runs ~criteria scenario with
    | None ->
      Printf.eprintf
        "shrink: run is clean — no %s violation to minimize\n"
        (String.concat "/" (List.map Obs.Monitor.criterion_name criteria));
      exit 1
    | Some { S.scenario = m; outcome; runs } ->
      let v =
        match outcome.S.violation with Some v -> v | None -> assert false
      in
      Format.printf "violation          %a@." Obs.Monitor.pp_violation v;
      Printf.printf "minimized          %d -> %d events (%d re-executions)\n"
        (Obs.Journal.length recorded)
        outcome.S.events runs;
      Format.printf "scenario (min)     %a@." S.pp m;
      (match out with
      | None -> ()
      | Some out_file ->
        let printed =
          Array.to_list (Array.map (List.map Workload.For_set.print_op) m.S.scripts)
        in
        let min_params =
          {
            p with
            n = m.S.n;
            mean_delay = m.S.mean_delay;
            fifo = m.S.fifo;
            crashes = m.S.crashes;
            partitions = m.S.partitions;
            churn = m.S.churn;
            scripts = Some printed;
            monitors = [ v.Obs.Monitor.criterion ];
            journal_out = Some out_file;
          }
        in
        Obs.Journal.set_header outcome.S.journal (journal_header min_params);
        let oc = open_out out_file in
        output_string oc (Obs.Journal.to_jsonl outcome.S.journal);
        close_out oc;
        Printf.printf "journal written    %s (%d events)\n" out_file
          outcome.S.events)
  in
  Cmd.v (Cmd.info "shrink" ~doc) Term.(const run $ in_arg $ out_arg $ max_runs_arg)

let classify_cmd =
  let doc =
    "Classify a hand-written set history against every consistency criterion."
  in
  let history_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HISTORY"
          ~doc:
            (Printf.sprintf
               "Events I(v), D(v), R{…} (append w for an ω read); processes \
                separated by '/'. Example: \"%s\"."
               Parse_history.example))
  in
  let witnesses_arg =
    Arg.(value & flag & info [ "witness" ] ~doc:"Also print the UC/PC witnesses found.")
  in
  let run text witnesses =
    match Parse_history.parse text with
    | exception Parse_history.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
    | h ->
      Format.printf "%a"
        (History.pp Set_spec.pp_update Set_spec.pp_query Set_spec.pp_output)
        h;
      let module C = Criteria.Make (Set_spec) in
      List.iter
        (fun (c, ok) ->
          Printf.printf "  %-5s %s\n" (Criteria.name c) (if ok then "yes" else "no"))
        (C.classify h);
      if witnesses then begin
        let module Uc = Check_uc.Make (Set_spec) in
        (match Uc.witness h with
        | Some updates ->
          Format.printf "UC linearization: %a@."
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf " · ")
               Set_spec.pp_update)
            updates
        | None -> ());
        let module Pc = Check_pc.Make (Set_spec) in
        match Pc.witness h with
        | Some ws ->
          Array.iteri
            (fun p w ->
              Format.printf "PC word for p%d: " p;
              List.iter
                (fun (e : _ History.event) ->
                  Format.printf "%a·"
                    (Uqadt.pp_operation Set_spec.pp_update Set_spec.pp_query
                       Set_spec.pp_output)
                    e.History.label)
                w;
              Format.printf "@.")
            ws
        | None -> ()
      end
  in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run $ history_arg $ witnesses_arg)

let soak_cmd =
  let doc =
    "Long-horizon soak run: stream time-series telemetry — registry \
     snapshots, per-replica log and checkpoint gauges, engine queue depth, \
     per-shard op rates, sliding-window latency percentiles — on a \
     simulated-time cadence, evaluate declarative alert rules over the \
     series each tick, and exit non-zero if any rule fires."
  in
  let duration_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"T"
          ~doc:
            "Hard horizon in simulated time: the run stops at $(docv) even \
             with script left (the default horizon is the runner's 1e7 \
             deadline).")
  in
  let sample_interval_arg =
    Arg.(
      value & opt float 50.0
      & info [ "sample-interval" ] ~docv:"DT"
          ~doc:
            "Simulated time between samples. Samples piggyback on existing \
             deliveries and completions — the sampler never schedules engine \
             events, so the schedule is identical with or without it.")
  in
  let series_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "series-out" ] ~docv:"FILE"
          ~doc:
            "Stream every sample (full resolution) and alert firing as JSONL \
             to $(docv); render it later with `ucsim report --series`.")
  in
  let rule_conv =
    let parse s =
      match Obs.Alert.rule_of_string s with
      | r -> Ok r
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    let print ppf r = Format.pp_print_string ppf (Obs.Alert.rule_to_string r) in
    Arg.conv (parse, print)
  in
  let rules_arg =
    Arg.(
      value
      & opt_all rule_conv []
      & info [ "rule" ] ~docv:"RULE"
          ~doc:
            "Alert rule over the sampled series: $(b,above:SERIES:V), \
             $(b,below:SERIES:V), $(b,growth:SERIES:K) (the last K retained \
             points strictly increasing — the unbounded-growth detector), or \
             $(b,slo:SERIES:TARGET). A rule addresses every labeled series \
             of that name, fires at most once, and is journaled as an Alert \
             event. Repeatable.")
  in
  let run protocol seed n ops shards keys rebalance mean_delay fifo churn
      duration sample_interval series_out rules journal_out registry_out =
    let e = find_protocol ~cmd:"soak" ~fifo protocol in
    let journal = Option.map (fun _ -> Obs.Journal.create ()) journal_out in
    (* The bundle exists up front (unlike `run`, where obs_of_params
       decides) so the sampler can snapshot its registry every tick. *)
    let o = Obs.create ?journal () in
    let sampler =
      Obs.Series.sampler ~interval:sample_interval ~registry:o.Obs.registry ()
    in
    let writer =
      Option.map
        (fun file ->
          let oc = open_out file in
          let w =
            Obs.Series.writer oc
              ~meta:
                [
                  ("protocol", Obs.Json.Str protocol);
                  ("seed", Obs.Json.Num (float_of_int seed));
                  ("n", Obs.Json.Num (float_of_int n));
                  ("sample_interval", Obs.Json.Num sample_interval);
                ]
          in
          (file, oc, w))
        series_out
    in
    Option.iter
      (fun (_, _, w) -> Obs.Series.set_sink sampler (Obs.Series.write_point w))
      writer;
    let alerts = Obs.Alert.create rules in
    Obs.Alert.attach alerts sampler ~on_fire:(fun fr ->
        let rule = Obs.Alert.rule_to_string fr.Obs.Alert.rule in
        Printf.printf "ALERT              %s at t=%g on %s (value %g)\n" rule
          fr.Obs.Alert.time fr.Obs.Alert.series fr.Obs.Alert.value;
        Option.iter
          (fun j ->
            Obs.Journal.record j
              (Obs.Journal.Alert
                 {
                   time = fr.Obs.Alert.time;
                   rule;
                   series = fr.Obs.Alert.series;
                   value = fr.Obs.Alert.value;
                 }))
          journal;
        Option.iter
          (fun (_, _, w) ->
            Obs.Series.write_alert w ~time:fr.Obs.Alert.time ~rule
              ~series:fr.Obs.Alert.series ~value:fr.Obs.Alert.value)
          writer);
    e.run
      {
        default_params with
        protocol;
        seed;
        n;
        ops;
        shards;
        keys;
        rebalance;
        mean_delay;
        fifo;
        churn;
        registry_out;
        journal_out;
        journal;
        obs = Some o;
        sample_interval = Some sample_interval;
        duration;
        rules;
        sampler = Some sampler;
      };
    Printf.printf "samples            %d ticks, %d series\n"
      (Obs.Series.ticks sampler)
      (List.length (Obs.Series.list (Obs.Series.store sampler)));
    (match writer with
    | Some (file, oc, w) ->
      Obs.Series.close_writer w;
      close_out oc;
      Printf.printf "series written     %s\n" file
    | None -> ());
    match Obs.Alert.fired alerts with
    | [] ->
      Printf.printf "alerts             none fired (%d armed)\n"
        (List.length rules)
    | fired ->
      Printf.printf "alerts             %d fired (of %d armed)\n"
        (List.length fired) (List.length rules);
      exit 1
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(
      const run $ protocol_arg $ seed_arg $ n_arg $ ops_arg 500 $ shards_arg $ keys_arg
      $ rebalance_arg $ delay_arg $ fifo_arg $ churn_arg $ duration_arg
      $ sample_interval_arg $ series_out_arg $ rules_arg $ journal_out_arg
      $ registry_out_arg)

let report_cmd =
  let doc =
    "Render one or more telemetry registry dumps (from `run \
     --registry-out`) as a single merged table, or, with $(b,--series), a \
     soak series stream (from `soak --series-out`) as sparklines."
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Registry dump JSON file(s) — several are merged into one table \
             (counters add, gauges take the max, histograms combine on \
             their buckets) — or exactly one series JSONL file with \
             $(b,--series).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Re-emit the (merged) dump as canonical (sorted, pretty) JSON \
             instead of a table (registry dumps only).")
  in
  let series_arg =
    Arg.(
      value & flag
      & info [ "series" ]
          ~doc:
            "Treat FILE as a soak series stream: render one sparkline with \
             min/max/last per series, then any fired alerts.")
  in
  let run files json series =
    if series then begin
      match files with
      | [ file ] -> (
        match Obs.Series.load file with
        | exception Failure msg ->
          Printf.eprintf "report: %s\n" msg;
          exit 1
        | loaded -> Format.printf "%a" Obs.Series.render loaded)
      | _ ->
        Printf.eprintf "report: --series takes exactly one file\n";
        exit 1
    end
    else begin
      let load file =
        match Obs.Registry.rows_of_json (Obs.Json.of_string (read_file file)) with
        | exception Obs.Json.Parse_error msg ->
          Printf.eprintf "report: %s is not JSON: %s\n" file msg;
          exit 1
        | exception Failure msg ->
          Printf.eprintf "report: %s: %s\n" file msg;
          exit 1
        | rows -> rows
      in
      match Obs.Registry.merge_rows (List.map load files) with
      | exception Failure msg ->
        Printf.eprintf "report: %s\n" msg;
        exit 1
      | rows ->
        if json then
          print_endline
            (Obs.Json.to_string ~pretty:true (Obs.Registry.rows_to_json rows))
        else Format.printf "%a" Obs.Registry.pp_rows rows
    end
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ files_arg $ json_arg $ series_arg)

(* The `replay --until K` verdict: event K of the recorded journal. *)
let print_replayed_through recorded k =
  if k < 0 || k >= Obs.Journal.length recorded then begin
    Printf.eprintf "replay: --until %d out of range (journal has %d events)\n"
      k (Obs.Journal.length recorded);
    exit 1
  end;
  Format.printf "replay OK through event %d@.event %d          %a@." k k
    Obs.Journal.pp_event
    (Obs.Journal.event recorded k)

(* Replay a flight-recorder journal (from `bench --journal-out`): the
   header names the spec and the workload seed, the scripts are
   regenerated (they are pure functions of the seed), and the recorded
   per-replica delivery order is re-executed on the sequential core —
   fingerprint equality is Proposition 4 checked end to end. Always a
   full replay; --until then prints the named event. *)
let replay_parallel_journal ~file recorded until =
  let header = Obs.Journal.header recorded in
  let str k =
    match List.assoc_opt k header with
    | Some (Obs.Json.Str s) -> s
    | _ ->
      Printf.eprintf "replay: %s: parallel journal header lacks %S\n" file k;
      exit 1
  in
  let num k =
    match List.assoc_opt k header with
    | Some (Obs.Json.Num f) -> f
    | _ ->
      Printf.eprintf "replay: %s: parallel journal header lacks %S\n" file k;
      exit 1
  in
  let spec = str "spec" in
  let seed = int_of_float (num "seed") in
  let domains = int_of_float (num "domains") in
  let ops = int_of_float (num "ops") in
  let query_ratio = num "query_ratio" in
  let zipf = num "zipf" in
  Printf.printf
    "replaying          parallel %s (seed %d, %d domains, %d events recorded)\n"
    spec seed domains
    (Obs.Journal.length recorded);
  let outcome =
    if spec = "set" && zipf > 0.0 then begin
      let module B = Throughput.Bench (Set_spec) in
      let scripts =
        Throughput.set_zipf_scripts ~seed ~domains ~ops ~skew:zipf
          ~delete_ratio:0.3
      in
      B.replay_journal ~scripts ~final_read:Set_spec.Read recorded
    end
    else
      match Registry.find spec with
      | None ->
        Printf.eprintf "replay: %s: unknown spec %S\n" file spec;
        exit 1
      | Some packed ->
        let module A = (val packed : Uqadt.S) in
        let module B = Throughput.Bench (A) in
        let scripts = B.uniform_scripts ~seed ~domains ~ops ~query_ratio in
        B.replay_journal ~scripts
          ~final_read:(A.random_query (Prng.create seed))
          recorded
  in
  match outcome with
  | Error msg ->
    Printf.printf "replay FAILED: %s\n" msg;
    exit 1
  | Ok fp -> (
    match until with
    | Some k -> print_replayed_through recorded k
    | None ->
      Printf.printf "replay OK          %d events, fingerprint %s\n"
        (Obs.Journal.length recorded)
        fp)

let replay_cmd =
  let doc =
    "Re-execute a journaled run (from `run --journal-out` or `bench \
     --journal-out`) and verify it reproduces the recorded schedule and \
     history fingerprint, bisecting to the first diverging event on \
     mismatch."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Event journal (JSONL) to replay.")
  in
  let until_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "until" ] ~docv:"K"
          ~doc:
            "Verify the prefix up to event index $(docv) only and print that \
             event — the index an online monitor names in a violation.")
  in
  let run file until =
    let recorded = load_journal ~cmd:"replay" file in
    match List.assoc_opt "engine" (Obs.Journal.header recorded) with
    | Some (Obs.Json.Str "parallel") ->
      replay_parallel_journal ~file recorded until
    | _ ->
    let capture = Obs.Journal.create () in
    let p =
      match params_of_header ~journal:capture (Obs.Journal.header recorded) with
      | exception Failure msg ->
        Printf.eprintf "replay: %s: %s\n" file msg;
        exit 1
      | p -> p
    in
    let p =
      match p.sample_interval with
      | None -> p
      | Some dt ->
        (* A soak journal carries Alert events. Rebuild the sampler and
           alert engine its header describes — over a fresh registry in
           the capture bundle — so the replay fires, and journals, the
           identical alert stream (the sampler schedules no engine
           events, so the rest of the schedule is untouched). *)
        let o = Obs.create ~journal:capture () in
        let s = Obs.Series.sampler ~interval:dt ~registry:o.Obs.registry () in
        let a = Obs.Alert.create p.rules in
        Obs.Alert.attach a s ~on_fire:(fun fr ->
            Obs.Journal.record capture
              (Obs.Journal.Alert
                 {
                   time = fr.Obs.Alert.time;
                   rule = Obs.Alert.rule_to_string fr.Obs.Alert.rule;
                   series = fr.Obs.Alert.series;
                   value = fr.Obs.Alert.value;
                 }));
        { p with obs = Some o; sampler = Some s }
    in
    let e = find_protocol ~cmd:("replay: " ^ file) ~fifo:p.fifo p.protocol in
    Printf.printf "replaying          %s (seed %d, %d events recorded)\n"
      p.protocol p.seed
      (Obs.Journal.length recorded);
    e.run p;
    let first_diff = Obs.Journal.diff recorded capture in
    let within i = match until with None -> true | Some k -> i <= k in
    (match first_diff with
    | Some (i, a, b) when within i ->
      Printf.printf "replay DIVERGED at event %d\n  recorded: %s\n  replayed: %s\n"
        i a b;
      exit 1
    | _ -> ());
    match until with
    | Some k -> print_replayed_through recorded k
    | None ->
      let fp_rec = Obs.Journal.fingerprint recorded in
      let fp_new = Obs.Journal.fingerprint capture in
      if fp_rec <> fp_new then begin
        let show = function Some s -> s | None -> "(none)" in
        Printf.printf
          "replay FAILED: fingerprint mismatch (recorded %s, replayed %s)\n"
          (show fp_rec) (show fp_new);
        exit 1
      end;
      Printf.printf "replay OK          %d events, fingerprint %s\n"
        (Obs.Journal.length recorded)
        (match fp_rec with Some s -> s | None -> "(none)")
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg $ until_arg)

let diff_cmd =
  let doc =
    "Print the first structural divergence between two event journals (or \
     report them identical)."
  in
  let file_a =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"A" ~doc:"First journal.")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"B" ~doc:"Second journal.")
  in
  let run fa fb =
    let a = load_journal ~cmd:"diff" fa in
    let b = load_journal ~cmd:"diff" fb in
    match Obs.Journal.diff a b with
    | Some (i, ea, eb) ->
      Printf.printf "first divergence at event %d\n  %s: %s\n  %s: %s\n" i fa ea
        fb eb;
      exit 1
    | None ->
      let pa = Obs.Journal.fingerprint a and pb = Obs.Journal.fingerprint b in
      if pa <> pb then begin
        let show = function Some s -> s | None -> "(none)" in
        Printf.printf
          "events identical but fingerprints differ (%s vs %s)\n" (show pa)
          (show pb);
        exit 1
      end;
      Printf.printf "journals identical (%d events, fingerprint %s)\n"
        (Obs.Journal.length a)
        (match pa with Some s -> s | None -> "(none)")
  in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run $ file_a $ file_b)

(* One bench execution with optional flight recording, shared by the
   generic-spec and set+zipf workload paths of `bench`. The recorder is
   attached iff any of --journal-out / --series-out / --monitor was
   given; the rebuilt journal's header carries everything `ucsim
   replay` needs to regenerate the scripts. *)
module Bench_drive (A : Uqadt.S) = struct
  module B = Throughput.Bench (A)

  let exec ~spec_name ~seed ~domains ~ops ~query_ratio ~zipf ~mailbox ~batch
      ~flush_window ~obs ~journal_out ~series_out ~monitors ~sample_interval
      ~scripts ~final_read ~describe =
    let recording =
      journal_out <> None || series_out <> None || monitors <> []
    in
    let recorder =
      if recording then Some (Obs.Recorder.create ~domains ()) else None
    in
    let journal_header =
      if not recording then None
      else
        Some
          [
            ("engine", Obs.Json.Str "parallel");
            ("spec", Obs.Json.Str spec_name);
            ("seed", Obs.Json.Num (float_of_int seed));
            ("domains", Obs.Json.Num (float_of_int domains));
            ("ops", Obs.Json.Num (float_of_int ops));
            ("query_ratio", Obs.Json.Num query_ratio);
            ("zipf", Obs.Json.Num zipf);
            ("batch", Obs.Json.Num (float_of_int batch));
            ("flush_window", Obs.Json.Num (float_of_int flush_window));
            ("mailbox", Obs.Json.Num (float_of_int mailbox));
          ]
    in
    let v =
      B.measure ~mailbox_capacity:mailbox ~batch_every:batch ~flush_window ?obs
        ?recorder
        ?monitor:(if monitors = [] then None else Some monitors)
        ?journal_header ~domains ~final_read ~scripts ()
    in
    let r = B.row ~batch ~flush_window ~ops_per_domain:ops v in
    let checks =
      [
        ("logs agree", string_of_bool v.B.logs_agree);
        ("omega = ts-fold", string_of_bool v.B.omega_matches_fold);
        ("replay = ts-fold", string_of_bool v.B.replay_matches_fold);
        ("updates conserved", string_of_bool v.B.updates_conserved);
        ( "sequential runner",
          match v.B.runner_matches with
          | None -> "n/a (non-commutative)"
          | Some b -> string_of_bool b );
      ]
      @
      match v.B.journal_replay with
      | None -> []
      | Some b -> [ ("journal replay", string_of_bool b) ]
    in
    describe r ~state:v.B.state_repr ~checks;
    (match v.B.recording with
    | None -> ()
    | Some rc ->
      (match rc.B.replay with
      | Ok fp ->
        Printf.printf "flight recorder    %d events, fingerprint %s\n"
          (Obs.Journal.length rc.B.journal)
          fp
      | Error msg -> Printf.printf "flight recorder    REPLAY FAILED: %s\n" msg);
      (match journal_out with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        output_string oc (Obs.Journal.to_jsonl rc.B.journal);
        close_out oc;
        Printf.printf "journal written    %s (%d events)\n" file
          (Obs.Journal.length rc.B.journal));
      (match series_out with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        let w =
          Obs.Series.writer oc
            ~meta:(Option.value ~default:[] journal_header)
        in
        let store =
          Throughput.series_of_events ~interval:sample_interval
            ~sink:(Obs.Series.write_point w) rc.B.events
        in
        Obs.Series.close_writer w;
        close_out oc;
        Printf.printf "series written     %s (%d series)\n" file
          (List.length (Obs.Series.list store)));
      match rc.B.monitor with
      | None -> ()
      | Some mon ->
        print_monitor_report ~criteria:monitors
          ~events:(B.Mon.events_seen mon)
          (B.Mon.violations mon));
    r
end

let bench_cmd =
  let doc =
    "Run the multicore replica engine: one domain per replica executing the \
     universal construction, bounded MPSC mailboxes in between, and the \
     Proposition 4 parallel-vs-sequential differential as the verdict. With \
     any of $(b,--journal-out), $(b,--series-out) or $(b,--monitor) the run \
     is flight-recorded: per-domain lock-free event capture, merged into a \
     replayable journal, checked by a sixth differential clause (sequential \
     re-execution of the recorded delivery order) and fed to the online \
     consistency monitors."
  in
  let spec_arg =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) Registry.names)) "counter"
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:"Object to bench (see `ucsim list` objects).")
  in
  let domains_arg =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"N" ~doc:"Replica domains to spawn.")
  in
  let ops_arg =
    Arg.(
      value & opt int 10_000
      & info [ "ops" ] ~docv:"OPS" ~doc:"Closed-loop operations per domain.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 0.0
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Zipf skew for the contended set workload (set spec only; 0 = \
             uniform random updates).")
  in
  let query_ratio_arg =
    Arg.(
      value & opt float 0.0
      & info [ "query-ratio" ] ~docv:"R"
          ~doc:"Fraction of invocations that are queries.")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Run the sharded object space (set spec) over $(docv) shards on a \
             static consistent-hash ring, with the shard-aware per-shard \
             differential as the verdict. 1 (the default) benches the \
             single-object protocols.")
  in
  let keys_arg =
    Arg.(
      value & opt int 1024
      & info [ "keys" ] ~docv:"K"
          ~doc:"Key domain of the sharded workload (with --shards > 1).")
  in
  let fanout_arg =
    Arg.(
      value & opt int 3
      & info [ "fanout" ] ~docv:"W"
          ~doc:
            "Maximum keys per update batch in the sharded workload (with \
             --shards > 1).")
  in
  let mailbox_arg =
    Arg.(
      value & opt int 1024
      & info [ "mailbox" ] ~docv:"CAP" ~doc:"Mailbox capacity (frames).")
  in
  let batch_arg =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"K" ~doc:"Broadcast every K local updates.")
  in
  let flush_window_arg =
    Arg.(
      value & opt int 0
      & info [ "flush-window" ] ~docv:"W"
          ~doc:
            "Force-flush the per-destination send buffers every $(docv) local \
             invocations, bounding how long a coalesced message can wait for \
             its buffer to reach the --batch threshold (0 = no window; \
             flushes happen only on the threshold and at script end).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the row as JSON.")
  in
  let obs_arg =
    Arg.(value & flag & info [ "obs" ] ~doc:"Print per-domain telemetry rows.")
  in
  let journal_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-out" ] ~docv:"FILE"
          ~doc:
            "Flight-record the run and write the merged per-domain event \
             stream as a replayable journal (re-execute with `ucsim \
             replay`).")
  in
  let series_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "series-out" ] ~docv:"FILE"
          ~doc:
            "Flight-record the run and stream wall-clock per-domain time \
             series (JSONL; render with `ucsim report --series`).")
  in
  let monitor_arg =
    Arg.(
      value & opt monitors_conv []
      & info [ "monitor" ] ~docv:"CRITERIA"
          ~doc:
            "Comma-separated consistency criteria (uc, ec, pc) checked \
             online over the merged flight-recorder stream; the first \
             violating event is reported with its journal index. (pc \
             explores the cross-process interleaving automaton — \
             exponential in concurrent updates, so keep --ops small.)")
  in
  let sample_interval_arg =
    Arg.(
      value & opt float 0.01
      & info [ "sample-interval" ] ~docv:"DT"
          ~doc:"Wall-clock series sampling cadence in seconds.")
  in
  let run spec domains ops zipf seed query_ratio shards keys fanout mailbox
      batch flush_window json obs_flag journal_out series_out monitors
      sample_interval =
    let obs = if obs_flag then Some (Obs.create ()) else None in
    let clip s =
      if String.length s <= 96 then s else String.sub s 0 93 ^ "..."
    in
    if
      shards > 1
      && (journal_out <> None || series_out <> None || monitors <> [])
    then begin
      Printf.eprintf
        "bench: the flight recorder targets the one-core-per-domain engine; \
         --shards > 1 cannot be combined with --journal-out, --series-out \
         or --monitor\n";
      exit 1
    end;
    if shards > 1 then begin
      (* The sharded space runs the set spec; per-shard Prop 4 verdict. *)
      let module B = Throughput.Sharded (Set_spec) (Update_codec.For_set) in
      let skew = if zipf > 0.0 then zipf else 1.1 in
      let scripts =
        B.zipf_scripts ~seed ~domains ~ops ~keys ~skew ~fanout ~query_ratio
      in
      let v =
        B.measure ~mailbox_capacity:mailbox ~batch_every:batch ~flush_window
          ?obs ~shards ~domains ~scripts ()
      in
      let r = B.row ~keys ~skew ~fanout v in
      Printf.printf "spec               %s (sharded)\n" r.Throughput.shard_spec;
      Printf.printf "shards             %d (static ring)\n" r.Throughput.shards;
      Printf.printf "domains            %d (machine recommends %d)\n"
        r.Throughput.shard_domains
        (Domain.recommended_domain_count ());
      Printf.printf "keys / skew / fan  %d / %.2f / %d\n" r.Throughput.keys
        r.Throughput.skew r.Throughput.fanout;
      Printf.printf "ops                %d total, %d keyed sub-updates\n"
        r.Throughput.shard_total_ops r.Throughput.keyed_updates;
      Printf.printf "wall               %.4f s\n" r.Throughput.shard_wall_s;
      Printf.printf "throughput         %.0f ops/sec\n"
        r.Throughput.shard_ops_per_sec;
      Printf.printf "shard log spread   min %d / max %d\n"
        r.Throughput.shard_log_min r.Throughput.shard_log_max;
      Printf.printf "converged state    %s\n" (clip v.B.state_repr);
      List.iter
        (fun (k, vv) -> Printf.printf "  %-22s %s\n" k vv)
        [
          ("per-shard logs agree", string_of_bool v.B.shard_logs_agree);
          ("omega = keyed fold", string_of_bool v.B.omega_matches_fold);
          ("snapshot = keyed fold", string_of_bool v.B.snapshot_matches_fold);
          ("updates conserved", string_of_bool v.B.updates_conserved);
        ];
      Printf.printf "differential       %s\n"
        (if r.Throughput.shard_ok then "PASS" else "FAIL");
      Option.iter (fun path -> Throughput.emit_shard_json path [ r ]) json;
      Option.iter
        (fun o ->
          Obs.finalize o ~live:[];
          Format.printf "telemetry:@.%a@." Obs.Registry.pp o.Obs.registry)
        obs;
      if not r.Throughput.shard_ok then exit 1
    end
    else begin
    let describe (r : Throughput.row) ~state ~checks =
      Printf.printf "spec               %s\n" r.Throughput.spec;
      Printf.printf "domains            %d (machine recommends %d)\n"
        r.Throughput.domains
        (Domain.recommended_domain_count ());
      Printf.printf "ops                %d total, %d per domain\n"
        r.Throughput.total_ops r.Throughput.ops_per_domain;
      Printf.printf "updates            %d\n" r.Throughput.updates;
      Printf.printf "wall               %.4f s\n" r.Throughput.wall_s;
      Printf.printf "throughput         %.0f ops/sec\n" r.Throughput.ops_per_sec;
      Printf.printf "latency p50 / p99  %.2f / %.2f us\n" r.Throughput.p50_us
        r.Throughput.p99_us;
      Printf.printf "mailbox depth max  %d (stalls %d)\n"
        r.Throughput.mailbox_max_depth r.Throughput.mailbox_stalls;
      Printf.printf "converged state    %s\n" (clip state);
      List.iter (fun (k, v) -> Printf.printf "  %-22s %s\n" k v) checks;
      Printf.printf "differential       %s\n"
        (if r.Throughput.ok then "PASS" else "FAIL")
    in
    let row =
      if spec = "set" && zipf > 0.0 then begin
        let module D = Bench_drive (Set_spec) in
        let scripts =
          Throughput.set_zipf_scripts ~seed ~domains ~ops ~skew:zipf
            ~delete_ratio:0.3
        in
        D.exec ~spec_name:"set" ~seed ~domains ~ops ~query_ratio ~zipf
          ~mailbox ~batch ~flush_window ~obs ~journal_out ~series_out
          ~monitors ~sample_interval ~scripts ~final_read:Set_spec.Read
          ~describe
      end
      else begin
        let packed =
          match Registry.find spec with
          | Some p -> p
          | None -> assert false (* enum converter already validated *)
        in
        let module A = (val packed : Uqadt.S) in
        let module D = Bench_drive (A) in
        let scripts = D.B.uniform_scripts ~seed ~domains ~ops ~query_ratio in
        let final_read = A.random_query (Prng.create seed) in
        D.exec ~spec_name:spec ~seed ~domains ~ops ~query_ratio ~zipf:0.0
          ~mailbox ~batch ~flush_window ~obs ~journal_out ~series_out
          ~monitors ~sample_interval ~scripts ~final_read ~describe
      end
    in
    Option.iter (fun path -> Throughput.emit_json path [ row ]) json;
    Option.iter
      (fun o ->
        Obs.finalize o ~live:[];
        Format.printf "telemetry:@.%a@." Obs.Registry.pp o.Obs.registry)
      obs;
    if not row.Throughput.ok then exit 1
    end
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ spec_arg $ domains_arg $ ops_arg $ zipf_arg $ seed_arg
      $ query_ratio_arg $ shards_arg $ keys_arg $ fanout_arg $ mailbox_arg
      $ batch_arg $ flush_window_arg $ json_arg $ obs_arg $ journal_out_arg
      $ series_out_arg $ monitor_arg $ sample_interval_arg)

let list_cmd =
  let doc = "List protocols and experiments." in
  let run () =
    Printf.printf "protocols:\n";
    List.iter (fun e -> Printf.printf "  %-12s %s\n" e.name e.doc) protocols;
    Printf.printf "experiments: %s\n" (String.concat " " experiment_ids);
    Printf.printf "objects:     %s\n" (String.concat " " Registry.names)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc = "Update consistency for wait-free concurrent objects — reproduction driver." in
  let info = Cmd.info "ucsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd;
            experiments_cmd;
            run_cmd;
            replay_cmd;
            diff_cmd;
            modelcheck_cmd;
            nemesis_cmd;
            storm_cmd;
            shrink_cmd;
            soak_cmd;
            bench_cmd;
            classify_cmd;
            report_cmd;
            list_cmd;
          ]))
