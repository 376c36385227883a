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
     list         show available protocols and experiments

   Each command parses its flags into a run spec, runs it through
   {!Driver}, prints the report it gets back and writes its files. *)

let experiment_ids =
  [ "F1"; "F2"; "P1"; "P4"; "T6"; "T6b"; "C1"; "C2"; "C3"; "C4"; "C4b"; "T7"; "S1"; "C5"; "C6"; "A1"; "A2"; "A3" ]

(* What a run writes besides its report; what it does is a
   Run_spec.sequential. *)
type sinks = {
  obs_on : bool;
  trace_out : string option;
  registry_out : string option;
  span_dump : bool;
  journal_out : string option;
}

let no_sinks =
  { obs_on = false; trace_out = None; registry_out = None; span_dump = false; journal_out = None }

(* The telemetry bundle a run with these sinks needs: one is built as
   soon as any output that reads it was requested. *)
let observe ?on_alert sinks spec =
  Run_spec.observe ?on_alert
    ~telemetry:
      (sinks.obs_on || sinks.trace_out <> None || sinks.registry_out <> None
     || sinks.span_dump)
    ?journal:(Option.map (fun _ -> Obs.Journal.create ()) sinks.journal_out)
    spec

(* The value, or the command's one-line error. A report printed before
   the error stays ahead of it. *)
let ok ~cmd = function
  | Ok v -> v
  | Error msg ->
    flush stdout;
    Printf.eprintf "%s: %s\n" cmd msg;
    exit 1

(* A spec from flags, or the command's one-line error. *)
let check_spec ~cmd spec = ignore (ok ~cmd (Run_spec.validate spec))

(* Flags no run spec carries, checked in the same words. *)
let check_flags ~cmd flags = ok ~cmd (Run_spec.check_flags flags)

let write_json file json =
  let oc = open_out file in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc

let write_journal file j =
  let oc = open_out file in
  output_string oc (Obs.Journal.to_jsonl j);
  close_out oc;
  Printf.printf "journal written    %s (%d events)\n" file (Obs.Journal.length j)

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
       keeping them out of the library layer keeps its goldens stable. *)
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
    | Some j, Some file -> write_journal file j
    | _ -> ());
    if sinks.span_dump then Format.printf "%a" Obs.Trace_export.pp_span_dump o.spans;
    (match Obs.divergence_series o with
    | [] -> ()
    | series ->
      Printf.printf "divergence series  %s\n"
        (String.concat " "
           (List.map (fun (t, d) -> Printf.sprintf "%.0f:%d" t d) series)));
    Format.printf "telemetry:@.%a" Obs.Registry.pp o.registry

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

(* The protocol positional: a name of the table's entries that [has]
   holds for, [default] when omitted (required without one). *)
let protocol_arg ?default ?(doc = "One of the names shown by `ucsim list`.")
    has =
  let names =
    List.filter_map
      (fun (e : Driver.entry) -> if has e then Some (e.name, e.name) else None)
      Driver.protocols
  in
  let i = Arg.info [] ~docv:"PROTOCOL" ~doc in
  match default with
  | Some d -> Arg.(value & pos 0 (enum names) d & i)
  | None -> Arg.(required & pos 0 (some (enum names)) None & i)

(* `nemesis` and `storm`: any set protocol of the table. *)
let set_protocol_arg =
  protocol_arg ~default:"universal" ~doc:"A set protocol shown by `ucsim list`."
    (fun e -> Option.is_some e.set)

(* Flags several commands share. *)

let n_arg ?(doc = "Processes.") default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc)

let ops_arg ?(doc = "Operations per process.") default =
  Arg.(value & opt int default & info [ "ops" ] ~docv:"OPS" ~doc)

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
    const spec $ protocol_arg (fun _ -> true) $ seed_arg
    $ n_arg Run_spec.default.n $ ops_arg ops $ shards_arg $ keys_arg
    $ rebalance_arg $ delay_arg $ fifo_arg $ churn_arg)

let journal_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-out" ] ~docv:"FILE"
        ~doc:
          "Record the run into a self-describing JSONL event journal at \
           $(docv), sealed with the run's history fingerprint: every \
           invocation, wire frame, delivery, fault, probe and alert of a \
           simulated run (turns the telemetry layer on), a $(b,bench) \
           run's merged per-domain flight-recorder stream, or the run \
           $(b,shrink) minimized. Re-execute it with `ucsim replay`.")

let registry_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "registry-out" ] ~docv:"FILE"
        ~doc:
          "Write the metric registry dump (a storm's open-loop latency \
           histogram included) as JSON to $(docv) (turns the telemetry \
           layer on). Render it later with `ucsim report`.")

let series_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "series-out" ] ~docv:"FILE"
        ~doc:
          "Stream every sample (full resolution) and alert firing as JSONL \
           to $(docv): a soak's simulated-time series, or a flight-recorded \
           $(b,bench) run's wall-clock per-domain series. Render it later \
           with `ucsim report --series`.")

let obs_arg =
  Arg.(
    value & flag
    & info [ "obs" ]
        ~doc:
          "Enable the telemetry layer: per-replica (on $(b,bench), \
           per-domain) metric registry, causal span tracing, replay-cost \
           profiles. Off by default; runs without it are bit-identical to \
           the uninstrumented simulator.")

let monitors_arg =
  Arg.(
    value
    & opt monitors_conv []
    & info [ "monitor" ] ~docv:"CRITERIA"
        ~doc:
          "Comma-separated consistency criteria (uc, ec, pc) checked online \
           as a simulated run progresses (implies --obs), or over a \
           $(b,bench) run's merged flight-recorder stream; the first \
           violating event is reported with its journal index. pc explores \
           the cross-process interleaving automaton, exponential in \
           concurrent updates: keep runs small.")

let query_ratio_arg ~doc default =
  Arg.(value & opt float default & info [ "query-ratio" ] ~docv:"R" ~doc)

let sample_interval_arg ~doc default =
  Arg.(value & opt float default & info [ "sample-interval" ] ~docv:"DT" ~doc)

let log_core_arg =
  Arg.(
    value
    & opt (enum [ ("list", `List); ("array", `Array) ]) Run_spec.default.log_core
    & info [ "log-core" ] ~docv:"CORE"
        ~doc:
          "Op-log substrate for Algorithm 1 (universal, counter, register \
           and every universal-<object>; other protocols refuse it): the \
           seed's cons-list core or the array-backed oplog with interval \
           checkpoints (default). Both must report identical verdicts.")

let checkpoint_interval_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-interval" ] ~docv:"K"
        ~doc:
          "Record an oplog state checkpoint every K entries inside the \
           replicas (Algorithm 1 on the array core; 0 disables \
           checkpointing). Read by the protocols --log-core names; any \
           other protocol refuses it.")

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
    let e = ok ~cmd:"run" (Driver.find spec) in
    let sinks = { obs_on; trace_out; registry_out; span_dump; journal_out } in
    let ob = observe sinks spec in
    print_string (e.run ~trace ~check ob spec);
    emit_obs sinks spec ob.obs
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
    protocol_arg ~default:"universal" ~doc:"universal, pipelined, orset or counter."
      (fun e -> Option.is_some e.explore)
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
  let run protocol por dedup domains checkpoint max_crashes limit n ops log_core
      checkpoint_interval =
    check_flags ~cmd:"modelcheck"
      Run_spec.
        [
          ("limit", At_least (1, limit));
          ("max_crashes", At_least (0, max_crashes));
          ("domains", At_least (1, domains));
          ("checkpoint", At_least (0, checkpoint));
        ];
    let spec =
      { Run_spec.default with protocol; n; ops; log_core; checkpoint_interval }
    in
    check_spec ~cmd:"modelcheck" (Sequential spec);
    print_string
      (ok ~cmd:"modelcheck"
         (Driver.modelcheck
            { Driver.por; dedup; domains; checkpoint; max_crashes; limit }
            spec))
  in
  Cmd.v (Cmd.info "modelcheck" ~doc)
    Term.(
      const run $ which $ por_arg $ dedup_arg $ domains_arg $ checkpoint_arg
      $ crashes_arg $ limit_arg
      $ n_arg ~doc:"Processes (counter protocol only)." 2
      $ ops_arg ~doc:"Increments per process (counter protocol only)." 2
      $ log_core_arg
      $ checkpoint_interval_arg)

let nemesis_cmd =
  let doc = "Run a randomized fault campaign (crashes + healing partitions)." in
  let runs_arg =
    Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N" ~doc:"Campaign size.")
  in
  let run protocol seed runs =
    check_flags ~cmd:"nemesis" Run_spec.[ ("runs", At_least (1, runs)) ];
    print_string
      (ok ~cmd:"nemesis"
         (Driver.nemesis ~runs { Run_spec.default with protocol; seed }))
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
  ok ~cmd:(cmd ^ ": " ^ file) (Run_spec.of_header (Obs.Journal.header recorded))

let storm_cmd =
  let doc =
    "Drive a flash crowd at a replicated set: open-loop arrivals (warm-up, \
     spike, cool-down) on top of the closed-loop clients, with per-operation \
     latency judged against an SLO target."
  in
  let clients_arg =
    Arg.(value & opt int 6 & info [ "clients" ] ~docv:"C" ~doc:"Closed-loop clients.")
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
  let run protocol seed n clients ops mean_delay base peak warm spike cool slo
      query_ratio registry_out =
    check_flags ~cmd:"storm"
      Run_spec.
        [
          ("n", At_least (1, n));
          ("clients", At_least (0, clients));
          ("ops", At_least (0, ops));
          ("delay", Non_negative mean_delay);
          ("base", Non_negative base);
          ("peak", Non_negative peak);
          ("warm", Non_negative warm);
          ("spike", Non_negative spike);
          ("cool", Non_negative cool);
          ("slo", Non_negative slo);
          ("query_ratio", Fraction query_ratio);
        ];
    let obs = if registry_out <> None then Some (Obs.create ()) else None in
    print_string
      (ok ~cmd:"storm"
         (Driver.storm ?obs ~clients
            ~plan:(Workload.Flash_crowd.plan ~base ~peak ~warm ~spike ~cool)
            ~query_ratio ~slo
            { Run_spec.default with protocol; seed; n; ops; mean_delay }));
    match (obs, registry_out) with
    | Some o, Some file ->
      Obs.finalize o ~live:[];
      write_json file (Obs.Registry.to_json o.Obs.registry);
      Printf.printf "registry written   %s\n" file
    | _ -> ()
  in
  Cmd.v (Cmd.info "storm" ~doc)
    Term.(
      const run $ set_protocol_arg $ seed_arg $ n_arg ~doc:"Replicas." 3
      $ clients_arg
      $ ops_arg ~doc:"Closed-loop operations per client." 20
      $ delay_arg $ base_arg $ peak_arg $ warm_arg $ spike_arg $ cool_arg $ slo_arg
      $ query_ratio_arg ~doc:"Fraction of open-loop arrivals that are reads." 0.25
      $ registry_out_arg)

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
  let max_runs_arg =
    Arg.(
      value & opt int 400
      & info [ "max-runs" ] ~docv:"N"
          ~doc:"Re-execution budget for the greedy descent.")
  in
  let run file out max_runs =
    check_flags ~cmd:"shrink" Run_spec.[ ("max_runs", At_least (0, max_runs)) ];
    let recorded = load_journal ~cmd:"shrink" file in
    let report, minimized =
      Driver.shrink ~max_runs ~file recorded
        (decode_header ~cmd:"shrink" file recorded)
    in
    print_string report;
    let journal = ok ~cmd:"shrink" minimized in
    Option.iter (fun out_file -> write_journal out_file journal) out
  in
  Cmd.v (Cmd.info "shrink" ~doc)
    Term.(const run $ in_arg $ journal_out_arg $ max_runs_arg)

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
    sample_interval_arg 50.0
      ~doc:
        "Simulated time between samples. Samples piggyback on existing \
         deliveries and completions — the sampler never schedules engine \
         events, so the schedule is identical with or without it."
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
    let e = ok ~cmd:"soak" (Driver.find spec) in
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
    (* Alert lines go where they fire, into the report as it is rendered. *)
    let into = Buffer.create 1024 in
    let ob =
      observe sinks spec ~on_alert:(fun fr ->
          let rule = Obs.Alert.rule_to_string fr.Obs.Alert.rule in
          Printf.bprintf into "ALERT              %s at t=%g on %s (value %g)\n"
            rule fr.Obs.Alert.time fr.Obs.Alert.series fr.Obs.Alert.value;
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
    print_string (e.run ~into ob spec);
    emit_obs sinks spec ob.obs;
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
    | Parallel ps -> (
      (* Always a full replay; --until then prints the named event. *)
      Printf.printf
        "replaying          parallel %s (seed %d, %d domains, %d events recorded)\n"
        ps.spec ps.seed ps.domains
        (Obs.Journal.length recorded);
      match Driver.replay_parallel recorded ps with
      | Error msg ->
        Printf.printf "replay FAILED: %s\n" msg;
        exit 1
      | Ok fp -> (
        match until with
        | Some k -> print_replayed_through recorded k
        | None ->
          Printf.printf "replay OK          %d events, fingerprint %s\n"
            (Obs.Journal.length recorded)
            fp))
    | Sequential spec ->
    let capture = Obs.Journal.create () in
    let e = ok ~cmd:("replay: " ^ file) (Driver.find spec) in
    Printf.printf "replaying          %s (seed %d, %d events recorded)\n"
      spec.protocol spec.seed
      (Obs.Journal.length recorded);
    let ob = Run_spec.observe ~journal:capture spec in
    print_string (e.run ob spec);
    emit_obs no_sinks spec ob.obs;
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
  let zipf_arg =
    Arg.(
      value & opt float 0.0
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Zipf skew for the contended set workload (set spec only; 0 = \
             uniform random updates, and no --query-ratio otherwise), or of \
             the keys with --shards.")
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
                ok ~cmd:"bench"
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
    check_flags ~cmd:"bench"
      Run_spec.[ ("sample_interval", Positive sample_interval) ];
    let obs = if obs_flag then Some (Obs.create ()) else None in
    (* The recorder is attached iff any of --journal-out / --series-out /
       --monitor was given; the rebuilt journal's header is the spec,
       all `ucsim replay` needs to regenerate the scripts. *)
    let r =
      Driver.bench ?obs
        ~record:(journal_out <> None || series_out <> None || monitors <> [])
        ~monitors ps
    in
    print_string r.verdict;
    Option.iter
      (fun (journal, events) ->
        Option.iter (fun file -> write_journal file journal) journal_out;
        Option.iter
          (fun file ->
            let oc = open_out file in
            let w =
              Obs.Series.writer oc ~meta:(Run_spec.to_header (Parallel ps))
            in
            let store =
              Throughput.series_of_events ~interval:sample_interval
                ~sink:(Obs.Series.write_point w) events
            in
            Obs.Series.close_writer w;
            close_out oc;
            Printf.printf "series written     %s (%d series)\n" file
              (List.length (Obs.Series.list store)))
          series_out)
      r.recording;
    print_string r.layout;
    Option.iter
      (fun o ->
        Obs.finalize o ~live:[];
        Format.printf "telemetry:@.%a@." Obs.Registry.pp o.Obs.registry)
      obs;
    if not r.ok then exit 1
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ spec_arg $ domains_arg
      $ ops_arg ~doc:"Closed-loop operations per domain." 10_000
      $ zipf_arg $ seed_arg
      $ query_ratio_arg ~doc:"Fraction of invocations that are queries." 0.0
      $ shards_arg $ keys_arg $ fanout_arg $ mailbox_arg $ batch_arg
      $ flush_window_arg $ obs_arg $ journal_out_arg $ series_out_arg
      $ monitors_arg
      $ sample_interval_arg ~doc:"Wall-clock series sampling cadence in seconds."
          0.01)

let list_cmd =
  let doc = "List protocols and experiments." in
  let run () =
    Printf.printf "protocols:\n";
    List.iter
      (fun (e : Driver.entry) -> Printf.printf "  %-12s %s\n" e.name e.doc)
      Driver.protocols;
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
