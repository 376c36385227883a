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

(* What a run prints and writes besides its report; what it does is a
   Run_spec.sequential. *)
type sinks = {
  obs_on : bool;
  trace_out : string option;
  registry_out : string option;
  span_dump : bool;
  journal_out : string option;
  check : bool;
  trace : bool;  (* print a space-time trace *)
}

let no_sinks =
  {
    obs_on = false;
    trace_out = None;
    registry_out = None;
    span_dump = false;
    journal_out = None;
    check = false;
    trace = false;
  }

(* The telemetry bundle a run with these sinks needs: one is built as
   soon as any output that reads it was requested. *)
let observe ?on_alert sinks spec =
  Run_spec.observe ?on_alert
    ~telemetry:
      (sinks.obs_on || sinks.trace_out <> None || sinks.registry_out <> None
     || sinks.span_dump)
    ?journal:(Option.map (fun _ -> Obs.Journal.create ()) sinks.journal_out)
    spec

(* The command's one-line error for the first invalid field. *)
let or_exit ~cmd = function
  | Ok _ -> ()
  | Error msg ->
    Printf.eprintf "%s: %s\n" cmd msg;
    exit 1

(* A spec from flags, or the command's one-line error. *)
let check_spec ~cmd spec = or_exit ~cmd (Run_spec.validate spec)

(* Flags no run spec carries, checked in the same words. *)
let check_flags ~cmd flags = or_exit ~cmd (Run_spec.check_flags flags)

let write_json file json =
  let oc = open_out file in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc

(* The run's configuration stamped on a Perfetto trace: header fields,
   plus the replica count. *)
let trace_meta (spec : Run_spec.sequential) =
  let header = Run_spec.to_header (Sequential spec) in
  let field k = (k, List.assoc k header) in
  [
    field "seed";
    ("replicas", Obs.Json.Num (float_of_int spec.n));
    field "protocol";
    field "log_core";
    field "batch_window";
  ]

let emit_obs sinks (spec : Run_spec.sequential) obs =
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
    (match sinks.trace_out with
    | Some file ->
      write_json file
        (Obs.Trace_export.to_json ~meta:(trace_meta spec) ~replicas:spec.n
           o.spans);
      Printf.printf "trace written      %s (%d spans)\n" file
        (Obs.Span.count o.spans)
    | None -> ());
    (match sinks.registry_out with
    | Some file ->
      write_json file (Obs.Registry.to_json o.registry);
      Printf.printf "registry written   %s\n" file
    | None -> ());
    (match (o.journal, sinks.journal_out) with
    | Some j, Some file ->
      let oc = open_out file in
      output_string oc (Obs.Journal.to_jsonl j);
      close_out oc;
      Printf.printf "journal written    %s (%d events)\n" file
        (Obs.Journal.length j)
    | _ -> ());
    if sinks.span_dump then Format.printf "%a" Obs.Trace_export.pp_span_dump o.spans;
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
let core_config (spec : Run_spec.sequential) =
  match spec.checkpoint_interval with
  | None -> Generic.default
  | Some k -> { Generic.default with Generic.checkpoint_interval = k }

let describe_log_core (spec : Run_spec.sequential) =
  match spec.log_core with
  | `List -> "list"
  | `Array ->
    Printf.sprintf "array (checkpoint interval %d)"
      (core_config spec).Generic.checkpoint_interval

let describe_metrics (m : Metrics.t) =
  Printf.printf
    "messages sent      %d\nbytes sent         %d\nupdates invoked    %d\nqueries invoked    %d\nops incomplete     %d\nreplay steps       %d\n"
    m.Metrics.messages_sent m.Metrics.bytes_sent m.Metrics.updates_invoked
    m.Metrics.queries_invoked m.Metrics.ops_incomplete m.Metrics.replay_steps

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

module Sharded_set = Space.Make (Set_spec) (Update_codec.For_set)

(* The sharded object space on the set: a Lamport clock per shard and
   a log per key behind a consistent-hash ring, fed a Zipf-skewed
   multi-key stream. *)
module Sharded_object = struct
  include Sharded_set.K

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

(* Simulate protocol [P] replicating object [O] as [spec] describes,
   observed by [ob], reporting to [sinks]. [note] tops a --trace;
   [lines] are printed after the protocol line. *)
let drive (type u q o) ?note ?(lines = fun () -> [])
    (module P : Protocol.PROTOCOL
      with type update = u
       and type query = q
       and type output = o)
    (module O : OBJECT
      with type update = u
       and type query = q
       and type output = o) sinks (ob : Run_spec.observers)
    (spec : Run_spec.sequential) =
  let module R = Runner.Make (P) in
  let workload = O.workload spec in
  let config =
    R.config_of_spec ~trace:sinks.trace ~final_read:(Some (O.final_read spec)) ob
      spec
  in
  let r = R.run config ~workload in
  (match r.R.trace with
  | Some tr ->
    (* Configuration notes sort to the top of the rendered chronology. *)
    Option.iter (fun text -> Trace.record_note tr ~time:0.0 text) note;
    print_string (Trace.render tr ~n:spec.n)
  | None -> ());
  Printf.printf "protocol           %s (object: %s)\n" P.protocol_name O.name;
  List.iter print_endline (lines ());
  describe_metrics r.R.metrics;
  Printf.printf "converged          %b\n" r.R.converged;
  if O.latency && Float.Array.length r.R.op_latencies > 0 then begin
    let s = Stats.summarize (Float.Array.to_list r.R.op_latencies) in
    Printf.printf "op latency         mean=%.2f p99=%.2f\n" s.Stats.mean s.Stats.p99
  end;
  if O.final_reads then
    List.iter
      (fun (pid, o) -> Format.printf "final read p%d      %a@." pid O.pp_output o)
      r.R.final_outputs;
  if sinks.check then begin
    let module C = Criteria.Make (O) in
    Printf.printf "history UC         %b\nhistory EC         %b\n"
      (C.holds Criteria.UC r.R.history)
      (C.holds Criteria.EC r.R.history)
  end;
  Option.iter
    (fun m ->
      print_monitor_report ~criteria:spec.monitors ~events:(R.Mon.events_seen m)
        (R.Mon.violations m))
    config.R.monitor;
  emit_obs sinks spec ob.obs

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
       and type state = s) sinks ob spec =
  drive ?note ?lines (module (val universal spec (module O))) (module O) sinks ob
    spec

(* Algorithm 1 on a registered object, naming its log core after the
   protocol line. *)
let run_universal_on (module A : Registry.SPEC) sinks ob spec =
  let core = describe_log_core spec in
  algorithm1 ~note:("log core: " ^ core)
    ~lines:(fun () -> [ "log core           " ^ core ])
    (module Spec_object (A))
    sinks ob spec

(* The sharded object space: --shards 1 degenerates to a single shard
   holding every key; --rebalance arms the hot-shard split policy. The
   shard map reports into the telemetry bundle, and a soak's sampler
   watches the ring: cumulative and per-tick op rates for every shard,
   so a hot-shard split shows up in the series. *)
let run_sharded sinks (ob : Run_spec.observers) (spec : Run_spec.sequential) =
  let policy =
    Option.map
      (fun interval ->
        (* 1.5 keeps the trigger reachable at small shard counts: with
           two shards the hottest can never exceed 2x the mean, so a
           factor of 2 would never fire. *)
        { Sharded_set.interval; hot_factor = 1.5; max_shards = 64 })
      spec.rebalance
  in
  let map = Sharded_set.create_map ?policy ?obs:ob.obs ~shards:spec.shards () in
  Sharded_set.configure map;
  Option.iter
    (fun s -> Obs.Series.add_probe s (Sharded_set.series_probe map))
    ob.sampler;
  drive
    ~lines:(fun () ->
      [
        Printf.sprintf
          "shards             %d initial, %d final (%d rebalances, %d \
           entries re-homed)"
          spec.shards
          (Ring.shards (Sharded_set.ring map))
          (Sharded_set.rebalances map)
          (Sharded_set.moved_entries map);
        Printf.sprintf "shard ops          %s"
          (String.concat " "
             (List.map
                (fun (s, ops) -> Printf.sprintf "s%d:%d" s ops)
                (Sharded_set.shard_ops map)));
      ])
    (module Sharded_set) (module Sharded_object) sinks ob spec

(* One row per protocol name. `run`, `soak` and `replay` drive [run];
   the set protocols also carry the module `nemesis`, `storm` and
   `shrink` build their engines over. *)
type entry = {
  name : string;
  doc : string;
  fifo : bool;  (* needs FIFO channels (the stability GC) *)
  run : sinks -> Run_spec.observers -> Run_spec.sequential -> unit;
  set : (Run_spec.sequential -> (module SET_PROTOCOL)) option;
}

let set_entry ?(fifo = false) name doc set =
  {
    name;
    doc;
    fifo;
    run = (fun sinks ob spec -> drive (set spec) (module Set_object) sinks ob spec);
    set = Some set;
  }

let entry name doc run = { name; doc; fifo = false; run; set = None }

let universal_set spec : (module SET_PROTOCOL) =
  (module (val universal spec (module Set_object)))

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
          (fun sinks ob spec ->
            (* Both cores exchange byte-identical messages, so the same
               seed replays the same schedule and only the query cost
               differs. *)
            let core = describe_log_core spec in
            Printf.printf "log core           %s\n" core;
            algorithm1 ~note:("log core: " ^ core) (module Set_object) sinks ob
              spec);
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
      entry "fastcounter" "CRDT fast path counter" (fun sinks ob spec ->
          drive (module Commutative.Make (Counter_spec)) (module Counter_object)
            sinks ob spec);
      entry "pncounter" "PN-counter CRDT" (fun sinks ob spec ->
          drive (module Counters.Pncounter) (module Counter_object) sinks ob spec);
      entry "register" "Algorithm 1 on the register"
        (algorithm1 (module Register_object));
      entry "lwwreg" "LWW-register CRDT" (fun sinks ob spec ->
          drive (module Registers.Lwwreg) (module Register_object) sinks ob spec);
      entry "abd" "ABD linearizable register (baseline)" (fun sinks ob spec ->
          drive (module Abd) (module Register_object) sinks ob spec);
      entry "lwwmemory" "Algorithm 2 shared memory" (fun sinks ob spec ->
          drive (module Lww_memory) (module Memory_object) sinks ob spec);
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
  Arg.(value & opt int Run_spec.default.n & info [ "n" ] ~docv:"N" ~doc:"Processes.")

let ops_arg default =
  Arg.(value & opt int default & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per process.")

let delay_arg =
  Arg.(
    value
    & opt float Run_spec.default.mean_delay
    & info [ "delay" ] ~docv:"D" ~doc:"Mean message delay.")

let shards_arg =
  Arg.(
    value
    & opt int Run_spec.default.shards
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Initial shard count for the $(b,sharded) protocol: each \
           shard stamps its keys' updates with its own Lamport clock, \
           behind a consistent-hash ring. 1 (the default) keeps every \
           key in a single shard.")

let keys_arg =
  Arg.(
    value
    & opt int Run_spec.default.keys
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

(* The part of a run spec `run` and `soak` read from the same flags. *)
let spec_term ~ops =
  let spec protocol seed n ops shards keys rebalance mean_delay fifo churn =
    {
      Run_spec.default with
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
    }
  in
  Term.(
    const spec $ protocol_arg $ seed_arg $ n_arg $ ops_arg ops $ shards_arg
    $ keys_arg $ rebalance_arg $ delay_arg $ fifo_arg $ churn_arg)

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
      & opt (enum [ ("list", `List); ("array", `Array) ]) Run_spec.default.log_core
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
  let run (spec : Run_spec.sequential) crash check trace log_core
      checkpoint_interval batch_window obs_on trace_out registry_out span_dump
      probe_interval partitions journal_out monitors =
    let spec =
      {
        spec with
        crashes = (if crash then [ (50.0, spec.n - 1) ] else []);
        log_core;
        checkpoint_interval;
        batch_window;
        probe_interval;
        partitions;
        monitors;
      }
    in
    check_spec ~cmd:"run" (Sequential spec);
    let e = find_protocol ~cmd:"run" ~fifo:spec.fifo spec.protocol in
    let sinks =
      { obs_on; trace_out; registry_out; span_dump; journal_out; check; trace }
    in
    e.run sinks (observe sinks spec) spec
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run
      $ spec_term ~ops:Run_spec.default.ops
      $ crash_arg $ check_arg $ trace_arg $ log_core_arg
      $ checkpoint_interval_arg $ batch_window_arg $ obs_arg $ trace_out_arg
      $ registry_out_arg $ span_dump_arg $ probe_interval_arg $ partitions_arg
      $ journal_out_arg $ monitors_arg)

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
      let spec = { Run_spec.default with log_core; checkpoint_interval } in
      check_spec ~cmd:"modelcheck" (Sequential spec);
      let module G = (val universal spec (module A)) in
      let module M = Explore.Make (G) in
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
        (Printf.sprintf "%s [log core: %s]" label (describe_log_core spec))
        r.M.executions r.M.exhaustive r.M.failures r.M.distinct_failures
        r.M.first_failures r.M.stats
    in
    let explore_set (module P : SET_PROTOCOL) label =
      if dedup then begin
        Printf.eprintf "modelcheck: --dedup needs a replica snapshot (universal/counter only)\n";
        exit 1
      end;
      let module M = Explore.Make (P) in
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
    campaign_of (set Run_spec.default) ~fifo:e.fifo ~runs ~seed
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

(* The run a journal's header describes, or the command's one-line
   error naming the offending field. *)
let decode_header ~cmd file recorded =
  match Run_spec.of_header (Obs.Journal.header recorded) with
  | Ok spec -> spec
  | Error msg ->
    Printf.eprintf "%s: %s: %s\n" cmd file msg;
    exit 1

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
    check_flags ~cmd:"storm"
      Run_spec.
        [
          ("n", At_least (1, n));
          ("clients", At_least (0, clients));
          ("ops", At_least (0, ops));
          ("delay", Non_negative delay);
          ("base", Non_negative base);
          ("peak", Non_negative peak);
          ("warm", Non_negative warm);
          ("spike", Non_negative spike);
          ("cool", Non_negative cool);
          ("query_ratio", Fraction query_ratio);
        ];
    if e.fifo then begin
      Printf.eprintf "storm: %s needs FIFO channels, which the client engine \
                      does not provide\n" e.name;
      exit 1
    end;
    let (module P : SET_PROTOCOL) = set Run_spec.default in
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
    "Minimize a monitor-flagged journaled run of a set protocol (from `run` \
     or `soak --journal-out`) to a smallest scenario that still violates \
     the same criterion, and write the minimized journal — itself \
     replayable with `ucsim replay`. A journal its header does not \
     reproduce is refused."
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
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "shrink: %s\n" msg;
          exit 1)
        fmt
    in
    let spec =
      match decode_header ~cmd:"shrink" file recorded with
      | Sequential spec -> spec
      | Parallel _ -> fail "%s: a parallel run has no scenario engine" file
    in
    (* The set protocols: their `run` workload is the scripts a
       minimized journal carries, so it replays through the stock
       driver. *)
    let (module P : SET_PROTOCOL) =
      match List.find_opt (fun e -> e.name = spec.protocol) protocols with
      | Some { set = Some set; _ } -> set spec
      | _ ->
        fail "protocol %S has no scenario engine (set protocols only)"
          spec.protocol
    in
    let module S = Scenario.Make (P) in
    let scenario =
      {
        S.spec;
        scripts = Set_object.workload spec;
        final_read = Some Set_spec.Read;
      }
    in
    let criteria =
      if spec.monitors = [] then [ Obs.Monitor.Uc; Obs.Monitor.Ec; Obs.Monitor.Pc ]
      else spec.monitors
    in
    (* Shrink only the run the journal recorded: the header must
       re-execute to the same events, as `replay` requires. *)
    (match Obs.Journal.diff recorded (S.run ~criteria scenario).S.journal with
    | Some (i, _, _) ->
      fail "%s: re-executing the header diverges from the journal at event %d"
        file i
    | None -> ());
    Format.printf "scenario           %a@." S.pp scenario;
    match S.shrink ~max_runs ~criteria scenario with
    | None ->
      fail "run is clean — no %s violation to minimize"
        (String.concat "/" (List.map Obs.Monitor.criterion_name criteria))
    | Some { S.scenario = m; outcome; runs } ->
      let v =
        match outcome.S.violation with Some v -> v | None -> assert false
      in
      Format.printf "violation          %a@." Obs.Monitor.pp_violation v;
      Printf.printf "minimized          %d -> %d events (%d re-executions)\n"
        (Obs.Journal.length recorded)
        outcome.S.events runs;
      Format.printf "scenario (min)     %a@." S.pp m;
      Option.iter
        (fun out_file ->
          let scripts =
            Array.to_list (Array.map (List.map Run_spec.print_op) m.S.scripts)
          in
          Obs.Journal.set_header outcome.S.journal
            (Run_spec.to_header
               (Sequential
                  {
                    m.S.spec with
                    scripts = Some scripts;
                    monitors = [ v.Obs.Monitor.criterion ];
                  }));
          let oc = open_out out_file in
          output_string oc (Obs.Journal.to_jsonl outcome.S.journal);
          close_out oc;
          Printf.printf "journal written    %s (%d events)\n" out_file
            outcome.S.events)
        out
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
  let run (spec : Run_spec.sequential) duration sample_interval series_out
      rules journal_out registry_out =
    let spec = { spec with soak = Some { sample_interval; duration; rules } } in
    check_spec ~cmd:"soak" (Sequential spec);
    let e = find_protocol ~cmd:"soak" ~fifo:spec.fifo spec.protocol in
    let writer =
      Option.map
        (fun file ->
          let oc = open_out file in
          let w =
            Obs.Series.writer oc
              ~meta:
                [
                  ("protocol", Obs.Json.Str spec.protocol);
                  ("seed", Obs.Json.Num (float_of_int spec.seed));
                  ("n", Obs.Json.Num (float_of_int spec.n));
                  ("sample_interval", Obs.Json.Num sample_interval);
                ]
          in
          (file, oc, w))
        series_out
    in
    let sinks = { no_sinks with registry_out; journal_out } in
    let ob =
      observe sinks spec ~on_alert:(fun fr ->
          let rule = Obs.Alert.rule_to_string fr.Obs.Alert.rule in
          Printf.printf "ALERT              %s at t=%g on %s (value %g)\n" rule
            fr.Obs.Alert.time fr.Obs.Alert.series fr.Obs.Alert.value;
          Option.iter
            (fun (_, _, w) ->
              Obs.Series.write_alert w ~time:fr.Obs.Alert.time ~rule
                ~series:fr.Obs.Alert.series ~value:fr.Obs.Alert.value)
            writer)
    in
    (* A soak spec always gets its sampler and alert rules. *)
    let sampler = Option.get ob.sampler and alerts = Option.get ob.alerts in
    Option.iter
      (fun (_, _, w) -> Obs.Series.set_sink sampler (Obs.Series.write_point w))
      writer;
    e.run sinks ob spec;
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
      const run $ spec_term ~ops:500 $ duration_arg $ sample_interval_arg
      $ series_out_arg $ rules_arg $ journal_out_arg $ registry_out_arg)

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
    Throughput.Sharded.S.configure
      (Throughput.Sharded.S.create_map ?obs ~shards:sp.shards ());
    (module struct
      module P = Throughput.Sharded.S
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

(* Replay a flight-recorder journal (from `bench --journal-out`): the
   workload is regenerated from the header, and the recorded
   per-replica delivery order is re-executed on the sequential core —
   fingerprint equality is Proposition 4 checked end to end. Always a
   full replay; --until then prints the named event. *)
let replay_parallel_journal recorded (ps : Run_spec.parallel) until =
  Printf.printf
    "replaying          parallel %s (seed %d, %d domains, %d events recorded)\n"
    ps.spec ps.seed ps.domains
    (Obs.Journal.length recorded);
  let (module W) = parallel_workload ~obs:None ps in
  match W.M.replay_journal ~scripts:W.scripts ~final_read:W.final_read recorded with
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
    match decode_header ~cmd:"replay" file recorded with
    | Parallel ps -> replay_parallel_journal recorded ps until
    | Sequential spec ->
    let capture = Obs.Journal.create () in
    let e = find_protocol ~cmd:("replay: " ^ file) ~fifo:spec.fifo spec.protocol in
    Printf.printf "replaying          %s (seed %d, %d events recorded)\n"
      spec.protocol spec.seed
      (Obs.Journal.length recorded);
    e.run no_sinks (Run_spec.observe ~journal:capture spec) spec;
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

(* One bench execution of [ps] with optional flight recording and
   telemetry, printed from the spec and the verdict; exit 1 unless the
   differential passed.
   The recorder is attached iff any of --journal-out / --series-out /
   --monitor was given; the rebuilt journal's header is the spec, all
   `ucsim replay` needs to regenerate the scripts. *)
let bench_exec (ps : Run_spec.parallel) ~obs ~journal_out ~series_out ~monitors
    ~sample_interval =
  let (module W) = parallel_workload ~obs ps in
  let module M = W.M in
  let recording =
    journal_out <> None || series_out <> None || monitors <> []
  in
  let recorder =
    if recording then Some (Obs.Recorder.create ~domains:ps.domains ()) else None
  in
  let journal_header =
    if recording then Some (Run_spec.to_header (Parallel ps)) else None
  in
  let v =
    M.measure ~mailbox_capacity:ps.mailbox ~batch_every:ps.batch
      ~flush_window:ps.flush_window ?obs ?recorder
      ?monitor:(if monitors = [] then None else Some monitors)
      ?journal_header ~domains:ps.domains ~final_read:W.final_read
      ~scripts:W.scripts ()
  in
  let run = v.M.run in
  let reports = run.M.E.reports in
  let p50, p99 =
    match v.M.latency with
    | None -> (0.0, 0.0)
    | Some s -> (s.Stats.p50 *. 1e6, s.Stats.p99 *. 1e6)
  in
  let ok = M.ok v in
  Printf.printf "spec               %s\n" ps.spec;
  Printf.printf "domains            %d (machine recommends %d)\n"
    (Array.length reports)
    (Domain.recommended_domain_count ());
  Printf.printf "ops                %d total, %d per domain\n" run.M.E.ops_total
    ps.ops;
  Printf.printf "updates            %d\n" run.M.E.updates_total;
  Printf.printf "wall               %.4f s\n" run.M.E.wall_seconds;
  Printf.printf "throughput         %.0f ops/sec\n" run.M.E.throughput;
  Printf.printf "latency p50 / p99  %.2f / %.2f us\n" p50 p99;
  Printf.printf "mailbox depth max  %d (stalls %d)\n"
    (Array.fold_left
       (fun acc r -> max acc r.Parallel_engine.mailbox_max_depth)
       0 reports)
    (Array.fold_left
       (fun acc r -> acc + r.Parallel_engine.mailbox_stalls)
       0 reports);
  (* The verdict: the converged state on one line, clipped; the four
     clauses, then the measure's own legs; the PASS/FAIL line. *)
  let state = v.M.oracle.Throughput.state_repr in
  Printf.printf "converged state    %s\n"
    (if String.length state <= 96 then state else String.sub state 0 93 ^ "...");
  List.iter
    (fun (k, v) -> Printf.printf "  %-22s %s\n" k v)
    (List.map
       (fun (k, b) -> (k, string_of_bool b))
       (Throughput.clauses v.M.oracle)
    @ ( "sequential runner",
        match v.M.runner_matches with
        | None -> "n/a (non-commutative)"
        | Some b -> string_of_bool b )
      ::
      (match v.M.journal_replay with
      | None -> []
      | Some b -> [ ("journal replay", string_of_bool b) ]));
  Printf.printf "differential       %s\n" (if ok then "PASS" else "FAIL");
  (match v.M.recording with
  | None -> ()
  | Some rc ->
    (match rc.M.replay with
    | Ok fp ->
      Printf.printf "flight recorder    %d events, fingerprint %s\n"
        (Obs.Journal.length rc.M.journal)
        fp
    | Error msg -> Printf.printf "flight recorder    REPLAY FAILED: %s\n" msg);
    (match journal_out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Obs.Journal.to_jsonl rc.M.journal);
      close_out oc;
      Printf.printf "journal written    %s (%d events)\n" file
        (Obs.Journal.length rc.M.journal));
    (match series_out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      let w =
        Obs.Series.writer oc ~meta:(Option.value ~default:[] journal_header)
      in
      let store =
        Throughput.series_of_events ~interval:sample_interval
          ~sink:(Obs.Series.write_point w) rc.M.events
      in
      Obs.Series.close_writer w;
      close_out oc;
      Printf.printf "series written     %s (%d series)\n" file
        (List.length (Obs.Series.list store)));
    match rc.M.monitor with
    | None -> ()
    | Some mon ->
      print_monitor_report ~criteria:monitors
        ~events:(M.Mon.events_seen mon)
        (M.Mon.violations mon));
  List.iter print_endline (W.lines v);
  Option.iter
    (fun o ->
      Obs.finalize o ~live:[];
      Format.printf "telemetry:@.%a@." Obs.Registry.pp o.Obs.registry)
    obs;
  if not ok then exit 1

let bench_cmd =
  let doc =
    "Run the multicore replica engine: one domain per replica executing the \
     universal construction (or, with $(b,--shards), the sharded object \
     space), bounded MPSC mailboxes in between, and the Proposition 4 \
     parallel-vs-sequential differential as the verdict. With \
     any of $(b,--journal-out), $(b,--series-out) or $(b,--monitor) the run \
     is flight-recorded: per-domain lock-free event capture, merged into a \
     replayable journal, checked by re-executing the recorded delivery \
     order on the sequential core, and fed to the online consistency \
     monitors."
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
             uniform random updates, and no --query-ratio otherwise), or of \
             the keys with --shards.")
  in
  let query_ratio_arg =
    Arg.(
      value & opt float 0.0
      & info [ "query-ratio" ] ~docv:"R"
          ~doc:"Fraction of invocations that are queries.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Bench the sharded object space (set spec only) over $(docv) \
             shards on a static consistent-hash ring, instead of one core \
             per domain: the same measure, flight recorder and monitors, \
             and a journal `ucsim replay` re-executes. Its workload is \
             multi-key update batches over a Zipf-skewed key space (skew \
             --zipf, 1.1 when that is 0).")
  in
  let keys_arg =
    Arg.(
      value
      & opt (some ~none:"1024" int) None
      & info [ "keys" ] ~docv:"K"
          ~doc:"Key domain of the sharded workload (with --shards only).")
  in
  let fanout_arg =
    Arg.(
      value
      & opt (some ~none:"3" int) None
      & info [ "fanout" ] ~docv:"W"
          ~doc:
            "Maximum keys per update batch in the sharded workload (with \
             --shards only).")
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
      batch flush_window obs_flag journal_out series_out monitors
      sample_interval =
    let space =
      match shards with
      | Some shards ->
        Some
          {
            Run_spec.shards;
            keys = Option.value keys ~default:1024;
            fanout = Option.value fanout ~default:3;
          }
      | None ->
        (* without the sharded space no run reads these *)
        List.iter
          (fun (field, given) ->
            Option.iter
              (fun v ->
                or_exit ~cmd:"bench"
                  (Error
                     (Printf.sprintf "%s: only a sharded run (--shards) reads it, got %d"
                        field v)))
              given)
          [ ("keys", keys); ("fanout", fanout) ];
        None
    in
    let ps =
      {
        Run_spec.spec;
        seed;
        domains;
        ops;
        query_ratio;
        (* the skew the scripts are drawn with: the sharded space always
           draws Zipf keys, at 1.1 unless told otherwise, and otherwise a
           skew selects the contended set workload; the validator refuses
           a skew no run draws *)
        zipf = (if space <> None && zipf = 0.0 then 1.1 else zipf);
        batch;
        flush_window;
        mailbox;
        space;
      }
    in
    check_spec ~cmd:"bench" (Parallel ps);
    let obs = if obs_flag then Some (Obs.create ()) else None in
    bench_exec ps ~obs ~journal_out ~series_out ~monitors ~sample_interval
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ spec_arg $ domains_arg $ ops_arg $ zipf_arg $ seed_arg
      $ query_ratio_arg $ shards_arg $ keys_arg $ fanout_arg $ mailbox_arg
      $ batch_arg $ flush_window_arg $ obs_arg $ journal_out_arg
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
