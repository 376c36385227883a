(* The three benchmark workloads, one repetition at a time.

   A repetition generates its scripts from the seed, builds the
   replicas, runs the timed phase, reads the peak RSS, and checks the
   outputs. It returns per-repetition metric values; {!Main} runs
   repetitions for the requested time and reports medians. An untraced
   repetition times only the invocations and message visibility (the
   end-to-end numbers); a traced one keeps every span and folds them
   into per-layer self times — a ledger that sums to the repetition's
   wall time. *)

open Traced

type metric = { name : string; unit : string; value : float; samples : int }

let metric ?(samples = 1) name unit value = { name; unit; value; samples }

type rep = {
  ok : bool;
  failures : string list;  (* names of the correctness clauses that failed *)
  attempted : int;  (* invocations issued, ω reads included *)
  ops_per_s : float;
  metrics : metric list;
  ledger : (string * float) list;
      (* traced repetitions: seconds per layer, the last entry the
         unattributed remainder; sums to the repetition's wall time *)
  session : Traced.session;
}

type workload = Sim_mixed | Sim_sharded | Mc_write

let workloads = [ ("sim-mixed", Sim_mixed); ("sim-sharded", Sim_sharded); ("mc-write", Mc_write) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Operations per replica (per domain for mc-write) in one repetition. *)
let default_ops = function
  | Sim_mixed -> 15_000
  | Sim_sharded -> 8_000
  | Mc_write -> 200_000

let secs ns = float_of_int ns *. 1e-9

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let fratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set so far (VmHWM), in MB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    let line =
      List.find_opt
        (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
        (String.split_on_char '\n' status)
    in
    Option.fold ~none:0.0
      ~some:(fun l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
      line
  | exception Sys_error _ -> 0.0

let sorted_floats arrays =
  let a = Array.concat arrays in
  Array.sort Float.compare a;
  a

let pct a q = if Array.length a = 0 then 0.0 else Stats.percentile a q

(* Latency samples of every replica, ns -> µs, sorted. *)
let latencies_us pick recs =
  sorted_floats
    (List.map
       (fun r -> Array.map (fun ns -> float_of_int ns *. 1e-3) (Ibuf.to_array (pick r)))
       recs)

let sum f recs = List.fold_left (fun acc r -> acc + f r) 0 recs

type gc_window = { minor : float; majors : int }

(* Both readings follow a forced minor collection: the runtime's count of
   words in a partly filled minor heap is not exact, so without it the
   same run's delta wanders by up to half a minor heap. *)
let gc_stat () =
  Stdlib.Gc.minor ();
  Stdlib.Gc.quick_stat ()

let gc_delta (g0 : Stdlib.Gc.stat) (g1 : Stdlib.Gc.stat) =
  { minor = g1.Stdlib.Gc.minor_words -. g0.Stdlib.Gc.minor_words;
    majors = g1.Stdlib.Gc.major_collections - g0.Stdlib.Gc.major_collections }

(* Span totals of one replica: self ns per kind, plus the summed
   duration of its top-level spans. *)
type span_totals = { self : int array; top : int; query_self : int list }

let span_totals (r : Rec.t) =
  let sp = r.Rec.spans in
  let self = Spans.self_ns sp in
  let by_kind = Array.make (Array.length kinds) 0 in
  let top = ref 0 and query_self = ref [] in
  for i = 0 to Spans.length sp - 1 do
    let k = Ibuf.get sp.Spans.kind i in
    by_kind.(k) <- by_kind.(k) + self.(i);
    if Ibuf.get sp.Spans.parent i < 0 then
      top := !top + (Ibuf.get sp.Spans.stop i - Ibuf.get sp.Spans.start i);
    if k = kind_index Query then query_self := self.(i) :: !query_self
  done;
  { self = by_kind; top = !top; query_self = !query_self }

let kind_self totals ks =
  List.fold_left
    (fun acc t -> List.fold_left (fun acc k -> acc + t.self.(kind_index k)) acc ks)
    0 totals

let query_ns_sorted totals =
  sorted_floats
    (List.map (fun t -> Array.of_list (List.map float_of_int t.query_self)) totals)

(* The op-log profile counters, summed over replicas (traced only). *)
let oplog_metrics recs =
  let profiles = List.filter_map Rec.profile recs in
  let tot f = List.fold_left (fun acc p -> acc + f p) 0 profiles in
  let open Obs.Profile in
  let inserts = tot (fun p -> p.inserts) in
  let replays = tot (fun p -> p.replays) in
  [
    metric ~samples:inserts "oplog.append_share" "ratio" (ratio (tot (fun p -> p.appends)) inserts);
    metric ~samples:inserts "oplog.shift_per_insert" "entries"
      (ratio (tot (fun p -> p.shift_distance)) inserts);
    metric ~samples:inserts "oplog.checkpoints_dropped_per_insert" "count"
      (ratio (tot (fun p -> p.checkpoints_dropped)) inserts);
    metric ~samples:replays "oplog.checkpoint_hit_share" "ratio"
      (ratio (tot (fun p -> p.checkpoint_hits)) replays);
  ]

(* Zero-valued rows for layers a workload leaves idle, so every
   repetition reports every per-layer name. *)
let idle names = List.map (fun (name, unit) -> metric ~samples:0 name unit 0.0) names

let generic_names =
  [
    ("generic.update_self_ns", "ns");
    ("generic.receive_ns_per_msg", "ns");
    ("generic.query_ns_p50", "ns");
    ("generic.query_ns_p99", "ns");
  ]

let space_span_names =
  [ ("space.update_self_ns", "ns"); ("space.receive_ns_per_msg", "ns"); ("space.query_ns_p50", "ns") ]

let space_count_names = [ ("space.keys_per_update", "keys"); ("space.shard_ops_max_over_mean", "ratio") ]

let persist_names = [ ("persist.absorb_ms", "ms"); ("persist.snapshot_kb", "KB") ]

let engine_names =
  [
    ("parallel_engine.send_self_ns_per_frame", "ns");
    ("parallel_engine.self_s", "s");
    ("parallel_engine.quiesce_s", "s");
    ("mpsc.msgs_per_delivery", "msgs");
  ]

let engine_count_names =
  [
    ("mpsc.stalls_per_frame", "count");
    ("mpsc.max_depth", "frames");
    ("parallel_engine.update_p50_us", "us");
    ("parallel_engine.update_p99_us", "us");
  ]

let engine_vis_names = [ ("parallel_engine.visible_p50_us", "us"); ("parallel_engine.visible_p99_us", "us") ]

let sim_latency_names =
  [
    ("update_p50_us", "us");
    ("update_p99_us", "us");
    ("query_p50_us", "us");
    ("query_p99_us", "us");
    ("visible_p50_t", "t");
    ("visible_p99_t", "t");
  ]

(* ------------------------------------------------------------------ *)
(* Runner workloads                                                    *)

module Uni_set = Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set)
module Sharded_set = Space.Make (Set_spec) (Update_codec.For_set)

let replicas = 4

(* sim-mixed: half reads; updates are the [ucsim run universal] shape —
   Zipf(1.0) over 16 elements, 30% deletes. *)
let mixed_scripts ~seed ~ops =
  let rng = Prng.create seed in
  let elem = Zipf.create ~n:16 ~s:1.0 in
  Array.init replicas (fun _ ->
      let acc = ref [] in
      for _ = 1 to ops do
        let inv =
          if Prng.float rng 1.0 < 0.5 then Protocol.Invoke_query Set_spec.Read
          else
            let v = Zipf.sample elem rng in
            if Prng.float rng 1.0 < 0.3 then Protocol.Invoke_update (Set_spec.Delete v)
            else Protocol.Invoke_update (Set_spec.Insert v)
        in
        acc := inv :: !acc
      done;
      List.rev !acc)

(* One replica leaves a third of the way into the run and rejoins at two
   thirds, catching up from a peer's snapshot. The horizon is the
   script's expected length at the default mean think time of 5. *)
let rejoin_time ~ops = 2.0 *. float_of_int ops *. 5.0 /. 3.0

let mixed_churn ~ops =
  [
    { Network.time = rejoin_time ~ops /. 2.0; pid = replicas - 1; action = Network.Leave };
    { Network.time = rejoin_time ~ops; pid = replicas - 1; action = Network.Rejoin };
  ]

(* The catch-up donor (replica 0, the first present peer) is cut off for
   the 40 time units before the rejoin, so its snapshot always lacks
   frames the rejoiner dropped while away and the quiescence snapshot
   exchange always has a repair to make. Without it, whether any frame
   was lost is a coin flip per seed (frames in flight at the rejoin),
   and the run's allocation and peak RSS were bimodal across seeds. *)
let mixed_partitions ~ops =
  [ { Network.from_time = rejoin_time ~ops -. 40.0; to_time = rejoin_time ~ops -. 1.0; group = [ 0 ] } ]

(* sim-sharded: the [ucsim run sharded] shape — 1024 keys at Zipf 1.1,
   batches of 1..3 keys, a quarter keyed reads. *)
let sharded_scripts ~seed ~ops =
  let rng = Prng.create seed in
  let elem = Zipf.create ~n:16 ~s:1.0 in
  Workload.For_space.zipf_scripts ~rng ~n:replicas ~ops_per_process:ops ~keys:1024 ~skew:1.1
    ~fanout:3 ~query_ratio:0.25
    ~update:(fun g ->
      let v = Zipf.sample elem g in
      if Prng.float g 1.0 < 0.3 then Set_spec.Delete v else Set_spec.Insert v)
    ~query:(fun _ -> Set_spec.Read)
    ~read:(fun k q -> Sharded_set.K.Read (k, q))

let shards = 8

module Sim (P : Protocol.PROTOCOL) = struct
  module T = Traced.Make (P)
  module R = Runner.Make (T)

  let config ~seed ~churn ~partitions ~final_read =
    { (R.default_config ~n:replicas ~seed) with R.churn; partitions; final_read = Some final_read }

  type run = {
    result : R.result;
    session : Traced.session;
    run_ns : int;  (* Runner.run wall time *)
    gc : gc_window;
    rss_mb : float;
  }

  let run ~traced ~seed ~churn ~partitions ~final_read workload =
    let session = Traced.start ~traced ~n:replicas in
    let cfg = config ~seed ~churn ~partitions ~final_read in
    let g0 = gc_stat () in
    let started_ns = now_ns () in
    let result = R.run cfg ~workload in
    let run_ns = now_ns () - started_ns in
    let gc = gc_delta g0 (gc_stat ()) in
    let rss_mb = peak_rss_mb () in
    { result; session; run_ns; gc; rss_mb }

  let failures (r : R.result) =
    List.filter_map
      (fun (name, ok) -> if ok then None else Some name)
      [
        ("converged", r.R.converged);
        ("certificates_agree", r.R.certificates_agree);
        ("ops_incomplete = 0", r.R.metrics.Metrics.ops_incomplete = 0);
        ("every replica answered the final read", List.length r.R.final_outputs = replicas);
      ]

  (* [proto] names the layer the wrapped protocol is ([generic] or
     [space]); [extra] adds workload-specific counts. *)
  let measure ~traced ~proto ~rep_start ~gen_ns ~extra run =
    let r = run.result in
    let m = r.R.metrics in
    let recs = Traced.recs run.session in
    let t_check = now_ns () in
    let failures = failures r in
    let rep_end = now_ns () in
    let check_ns = rep_end - t_check in
    let completed = m.Metrics.ops_completed + List.length r.R.final_outputs in
    let attempted = m.Metrics.updates_invoked + m.Metrics.queries_invoked in
    let ops_per_s = float_of_int completed /. secs run.run_ns in
    let first = List.fold_left (fun acc rc -> min acc rc.Rec.first_ns) max_int recs in
    let frames = sum (fun rc -> rc.Rec.frames) recs in
    let updates = m.Metrics.updates_invoked in
    let common =
      [
        metric ~samples:completed "ops_per_s" "1/s" ops_per_s;
        metric ~samples:updates "bytes_per_update" "B" (ratio m.Metrics.bytes_sent updates);
        metric "setup_s" "s" (secs (first - rep_start));
        metric "workload.gen_s" "s" (secs gen_ns);
        metric "throughput.check_s" "s" (secs check_ns);
        metric ~samples:updates "network.frames_per_update" "frames" (ratio frames updates);
        metric ~samples:frames "network.msgs_per_frame" "msgs" (ratio m.Metrics.messages_sent frames);
        metric ~samples:m.Metrics.queries_invoked "generic.replay_steps_per_query" "steps"
          (ratio m.Metrics.replay_steps m.Metrics.queries_invoked);
      ]
    in
    let e2e =
      if traced then []
      else begin
        let upd = latencies_us (fun rc -> rc.Rec.upd_ns) recs in
        let qry = latencies_us (fun rc -> rc.Rec.qry_ns) recs in
        let vis = sorted_floats (List.map (fun rc -> Fbuf.to_array rc.Rec.vis_t) recs) in
        [
          metric ~samples:(Array.length upd) "update_p50_us" "us" (pct upd 0.5);
          metric ~samples:(Array.length upd) "update_p99_us" "us" (pct upd 0.99);
          metric ~samples:(Array.length qry) "query_p50_us" "us" (pct qry 0.5);
          metric ~samples:(Array.length qry) "query_p99_us" "us" (pct qry 0.99);
          metric ~samples:(Array.length vis) "visible_p50_t" "t" (pct vis 0.5);
          metric ~samples:(Array.length vis) "visible_p99_t" "t" (pct vis 0.99);
          metric ~samples:completed "runtime.minor_words_per_op" "words"
            (run.gc.minor /. float_of_int completed);
          metric "runtime.major_gcs" "count" (float_of_int run.gc.majors);
          metric "peak_rss_mb" "MB" run.rss_mb;
        ]
      end
    in
    let layered, ledger =
      if not traced then ([], [])
      else begin
        let totals = List.map span_totals recs in
        let top = List.fold_left (fun acc t -> acc + t.top) 0 totals in
        let self ks = kind_self totals ks in
        let proto_ns = self [ Update; Query; Receive; Receive_batch ] in
        let runner_ns = run.run_ns - top + self [ Callback; Count_replay ] in
        let network_ns = self [ Broadcast; Broadcast_batch; Send ] in
        let persist_ns = self [ Snapshot; Absorb ] in
        let absorbs = sum (fun rc -> rc.Rec.absorbs) recs in
        let snapshots = sum (fun rc -> rc.Rec.snapshots) recs in
        let messages_in = sum (fun rc -> rc.Rec.messages_in) recs in
        let queries = sum (fun rc -> rc.Rec.queries) recs in
        let qns = query_ns_sorted totals in
        let span_metrics =
          let upd = fratio (float_of_int (self [ Update ])) (float_of_int updates) in
          let rcv = fratio (float_of_int (self [ Receive; Receive_batch ])) (float_of_int messages_in) in
          match proto with
          | `Generic ->
            [
              metric ~samples:updates "generic.update_self_ns" "ns" upd;
              metric ~samples:messages_in "generic.receive_ns_per_msg" "ns" rcv;
              metric ~samples:queries "generic.query_ns_p50" "ns" (pct qns 0.5);
              metric ~samples:queries "generic.query_ns_p99" "ns" (pct qns 0.99);
            ]
            @ idle space_span_names
          | `Space ->
            idle generic_names
            @ [
                metric ~samples:updates "space.update_self_ns" "ns" upd;
                metric ~samples:messages_in "space.receive_ns_per_msg" "ns" rcv;
                metric ~samples:queries "space.query_ns_p50" "ns" (pct qns 0.5);
              ]
        in
        let rep_ns = rep_end - rep_start in
        let ledger =
          [
            ("workload", gen_ns);
            ("runner", runner_ns);
            ("network", network_ns);
            ((match proto with `Generic -> "generic" | `Space -> "space"), proto_ns);
            ("persist", persist_ns);
            ("check", check_ns);
          ]
        in
        let attributed = List.fold_left (fun acc (_, ns) -> acc + ns) 0 ledger in
        let ledger = List.map (fun (l, ns) -> (l, secs ns)) ledger @ [ ("unattributed", secs (rep_ns - attributed)) ] in
        ( span_metrics
          @ oplog_metrics recs
          @ [
              metric "runner.self_s" "s" (secs runner_ns);
              metric ~samples:absorbs "persist.absorb_ms" "ms"
                (fratio (float_of_int persist_ns *. 1e-6) (float_of_int absorbs));
              metric ~samples:snapshots "persist.snapshot_kb" "KB"
                (fratio (float_of_int (sum (fun rc -> rc.Rec.snapshot_bytes) recs) /. 1024.0)
                   (float_of_int snapshots));
              metric "trace.unattributed_share" "ratio"
                (fratio (List.assoc "unattributed" ledger) (secs rep_ns));
            ]
          @ idle (engine_names @ engine_count_names @ engine_vis_names),
          ledger )
      end
    in
    {
      ok = failures = [];
      failures;
      attempted;
      ops_per_s;
      metrics = common @ e2e @ extra @ layered;
      ledger;
      session = run.session;
    }
end

module Mixed = Sim (Uni_set)
module Sharded = Sim (Sharded_set)

let sim_mixed ~traced ~seed ~ops =
  let rep_start = now_ns () in
  let workload = mixed_scripts ~seed ~ops in
  let gen_ns = now_ns () - rep_start in
  let run =
    Mixed.run ~traced ~seed ~churn:(mixed_churn ~ops) ~partitions:(mixed_partitions ~ops)
      ~final_read:Set_spec.Read workload
  in
  Mixed.measure ~traced ~proto:`Generic ~rep_start ~gen_ns
    ~extra:(idle space_count_names @ if traced then [] else idle engine_count_names)
    run

let sim_sharded ~traced ~seed ~ops =
  let rep_start = now_ns () in
  let workload = sharded_scripts ~seed ~ops in
  let map = Sharded_set.create_map ~shards () in
  Sharded_set.configure map;
  let gen_ns = now_ns () - rep_start in
  let run = Sharded.run ~traced ~seed ~churn:[] ~partitions:[] ~final_read:Sharded_set.K.Sweep workload in
  let updates, keys =
    Array.fold_left
      (List.fold_left (fun (u, k) -> function
         | Protocol.Invoke_update ku -> (u + 1, k + List.length ku)
         | Protocol.Invoke_query _ -> (u, k)))
      (0, 0) workload
  in
  let shard_ops = List.map (fun (_, n) -> float_of_int n) (Sharded_set.shard_ops map) in
  let mean = List.fold_left ( +. ) 0.0 shard_ops /. float_of_int (List.length shard_ops) in
  let extra =
    [
      metric ~samples:updates "space.keys_per_update" "keys" (ratio keys updates);
      metric ~samples:(List.length shard_ops) "space.shard_ops_max_over_mean" "ratio"
        (fratio (List.fold_left Float.max 0.0 shard_ops) mean);
    ]
    @ if traced then [] else idle engine_count_names
  in
  Sharded.measure ~traced ~proto:`Space ~rep_start ~gen_ns ~extra run

(* ------------------------------------------------------------------ *)
(* mc-write: the 2-domain parallel engine on the universal counter     *)

module Ctr = Throughput.Bench (Counter_spec)
module Ctr_run = Uqadt.Run (Counter_spec)
module Ctr_seq = Runner.Make (Ctr.G)
module TG = Traced.Make (Ctr.G)
module TE = Parallel_engine.Make (TG)

let domains = 2

let counter_scripts ~seed ~ops = Ctr.uniform_scripts ~seed ~domains ~ops ~query_ratio:0.0

(* Clause 4's oracle: the sequential Runner's ω outputs on the scripts
   ([] unless it converged). The simulation is deterministic, so the
   answer is a pure function of the scripts; repetitions replay the same
   scripts, and the answer is computed once per script set. *)
let sequential_outputs =
  let memo = ref None in
  fun scripts ->
    match !memo with
    | Some (s, outputs) when s == scripts || s = scripts -> outputs
    | _ ->
      let seq =
        Ctr_seq.run
          { (Ctr_seq.default_config ~n:domains ~seed:0) with Ctr_seq.final_read = Some Counter_spec.Value }
          ~workload:scripts
      in
      let outputs = if seq.Ctr_seq.converged then List.map snd seq.Ctr_seq.final_outputs else [] in
      memo := Some (scripts, outputs);
      outputs

(* The Proposition 4 differential of [Throughput.Bench.measure], applied
   to the replicas of a run that already happened: (1) every replica
   holds the same timestamp-sorted log, (2) every ω answer equals the
   query on the timestamp-order fold of that log, (3) a fresh sequential
   replica restored from the log answers the same, (4) the sequential
   Runner on the same scripts agrees (the counter commutes), and (5) the
   log holds exactly the issued updates — plus the engine's own output
   and certificate agreement. *)
let differential ~scripts ~outputs ~outputs_agree ~certificates_agree ~updates_total
    (replicas : Ctr.G.t array) =
  let final_read = Counter_spec.Value in
  let logs = Array.map Ctr.G.local_log replicas in
  let log0 = logs.(0) in
  let expected = Counter_spec.eval (Ctr_run.final_state (List.map (fun (_, _, u) -> u) log0)) final_read in
  let fresh = Ctr.G.create (Throughput.dummy_ctx ~pid:0 ~n:1) in
  Ctr.G.restore_log fresh log0;
  let replayed = ref None in
  Ctr.G.query fresh final_read ~on_result:(fun o -> replayed := Some o);
  let seq = sequential_outputs scripts in
  List.filter_map
    (fun (name, ok) -> if ok then None else Some name)
    [
      ("outputs agree", outputs_agree);
      ("certificates agree", certificates_agree);
      ("logs agree", Array.for_all (( = ) log0) logs);
      ( "omega = ts-fold",
        outputs <> [] && List.for_all (fun (_, o) -> Counter_spec.equal_output o expected) outputs );
      ("replay = ts-fold", !replayed = Some expected);
      ( "sequential runner",
        seq <> [] && List.for_all (fun o -> Counter_spec.equal_output o expected) seq );
      ("updates conserved", List.length log0 = updates_total);
    ]

let report_sum f (reports : Parallel_engine.domain_report array) =
  Array.fold_left (fun acc r -> acc + f r) 0 reports

(* Counts both engine instantiations report identically. *)
let engine_counts ~updates (reports : Parallel_engine.domain_report array) =
  let frames = report_sum (fun r -> r.Parallel_engine.frames_sent) reports in
  let lat =
    sorted_floats (Array.to_list (Array.map (fun r -> Array.map (fun s -> s *. 1e6) r.Parallel_engine.latencies) reports))
  in
  ( frames,
    [
      metric ~samples:updates "bytes_per_update" "B"
        (ratio (report_sum (fun r -> r.Parallel_engine.bytes_sent) reports) updates);
      metric ~samples:updates "network.frames_per_update" "frames" (ratio frames updates);
      metric ~samples:frames "network.msgs_per_frame" "msgs"
        (ratio (report_sum (fun r -> r.Parallel_engine.messages_sent) reports) frames);
      metric ~samples:frames "mpsc.stalls_per_frame" "count"
        (ratio (report_sum (fun r -> r.Parallel_engine.mailbox_stalls) reports) frames);
      metric "mpsc.max_depth" "frames"
        (float_of_int (Array.fold_left (fun acc r -> max acc r.Parallel_engine.mailbox_max_depth) 0 reports));
      metric ~samples:(Array.length lat) "parallel_engine.update_p50_us" "us" (pct lat 0.5);
      metric ~samples:(Array.length lat) "parallel_engine.update_p99_us" "us" (pct lat 0.99);
    ] )

(* What the timed phase yields, whichever engine instantiation ran. *)
type engine_run = {
  run_ns : int;  (* the whole [run] call *)
  wall_s : float;  (* the engine's timed window *)
  throughput : float;
  ops_total : int;
  updates_total : int;
  reports : Parallel_engine.domain_report array;
  outputs : (int * Counter_spec.output) list;
  outputs_agree : bool;
  certificates_agree : bool;
  replicas : Ctr.G.t array;
}

let mc_write ~traced ~seed ~ops =
  let rep_start = now_ns () in
  let scripts = counter_scripts ~seed ~ops in
  let gen_ns = now_ns () - rep_start in
  let session = Traced.start ~traced ~n:domains in
  let g0 = gc_stat () in
  let call_start = now_ns () in
  (* Untraced repetitions run the very engine instantiation
     [Throughput.Bench] measures; traced ones the same engine over the
     wrapped core. *)
  let e =
    if traced then begin
      let cfg = { (TE.default_config ~domains) with TE.final_read = Some Counter_spec.Value } in
      let r = TE.run cfg ~workload:scripts in
      {
        run_ns = now_ns () - call_start;
        wall_s = r.TE.wall_seconds;
        throughput = r.TE.throughput;
        ops_total = r.TE.ops_total;
        updates_total = r.TE.updates_total;
        reports = r.TE.reports;
        outputs = r.TE.outputs;
        outputs_agree = r.TE.outputs_agree;
        certificates_agree = r.TE.certificates_agree;
        replicas = Array.map TG.inner r.TE.replicas;
      }
    end
    else begin
      let cfg = { (Ctr.E.default_config ~domains) with Ctr.E.final_read = Some Counter_spec.Value } in
      let r = Ctr.E.run cfg ~workload:scripts in
      {
        run_ns = now_ns () - call_start;
        wall_s = r.Ctr.E.wall_seconds;
        throughput = r.Ctr.E.throughput;
        ops_total = r.Ctr.E.ops_total;
        updates_total = r.Ctr.E.updates_total;
        reports = r.Ctr.E.reports;
        outputs = r.Ctr.E.outputs;
        outputs_agree = r.Ctr.E.outputs_agree;
        certificates_agree = r.Ctr.E.certificates_agree;
        replicas = r.Ctr.E.replicas;
      }
    end
  in
  let { run_ns; wall_s; throughput; ops_total; updates_total; reports; _ } = e in
  let gc = gc_delta g0 (gc_stat ()) in
  let rss_mb = peak_rss_mb () in
  let t_check = now_ns () in
  let failures =
    differential ~scripts ~outputs:e.outputs ~outputs_agree:e.outputs_agree
      ~certificates_agree:e.certificates_agree ~updates_total e.replicas
  in
  let rep_end = now_ns () in
  let check_ns = rep_end - t_check in
  (* What [run] spends outside its timed wall window: domain spawn,
     replica creation and the start barrier before it; the joins and the
     result's certificate comparison after it. The engine does not say
     where its window starts, so this is not split into set-up and
     tear-down: set-up is the script generation, and replica creation is
     gated through the sim workloads, whose set-up includes it. *)
  let outside_ns = max 0 (run_ns - int_of_float (wall_s *. 1e9)) in
  let frames, counts = engine_counts ~updates:updates_total reports in
  let common =
    [
      metric ~samples:ops_total "ops_per_s" "1/s" throughput;
      metric "setup_s" "s" (secs gen_ns);
      metric "workload.gen_s" "s" (secs gen_ns);
      metric "throughput.check_s" "s" (secs check_ns);
      metric ~samples:domains "generic.replay_steps_per_query" "steps"
        (ratio (report_sum (fun r -> r.Parallel_engine.replay_steps) reports)
           (report_sum (fun r -> r.Parallel_engine.queries) reports));
    ]
    @ counts
    @ idle space_count_names
  in
  let e2e =
    if traced then []
    else
      [
        metric ~samples:ops_total "runtime.minor_words_per_op" "words" (gc.minor /. float_of_int ops_total);
        metric "runtime.major_gcs" "count" (float_of_int gc.majors);
        metric "peak_rss_mb" "MB" rss_mb;
      ]
      @ idle sim_latency_names
  in
  let layered, ledger =
    if not traced then ([], [])
    else begin
      let recs = Traced.recs session in
      let totals = List.map span_totals recs in
      let self ks = kind_self totals ks in
      let top = List.fold_left (fun acc t -> acc + t.top) 0 totals in
      let wall_ns = int_of_float (wall_s *. 1e9) in
      let proto_ns = self [ Update; Query; Receive; Receive_batch ] in
      let send_ns = self [ Broadcast; Broadcast_batch; Send ] in
      (* Domain-seconds, averaged over the domains so the engine phase
         of the ledger sums to its wall time. *)
      let engine_ns = (domains * wall_ns) - top + self [ Callback; Count_replay ] in
      let per_domain ns = ns / domains in
      let updates = sum (fun rc -> rc.Rec.updates) recs in
      let messages_in = sum (fun rc -> rc.Rec.messages_in) recs in
      let qns = query_ns_sorted totals in
      (* Quiescence: from a domain's last script invocation to its ω read. *)
      let quiesce =
        List.map
          (fun (rc : Rec.t) ->
            let sp = rc.Rec.spans in
            let last_update_end = ref 0 and omega_start = ref 0 in
            for i = 0 to Spans.length sp - 1 do
              let k = Ibuf.get sp.Spans.kind i in
              if k = kind_index Update then last_update_end := Ibuf.get sp.Spans.stop i
              else if k = kind_index Query then omega_start := Ibuf.get sp.Spans.start i
            done;
            secs (max 0 (!omega_start - !last_update_end)))
          recs
      in
      let vis =
        sorted_floats
          (List.map (fun rc -> Array.map (fun ns -> float_of_int ns *. 1e-3) (Ibuf.to_array rc.Rec.vis_ns)) recs)
      in
      let rep_ns = rep_end - rep_start in
      let ledger =
        [
          ("workload", gen_ns);
          ("parallel_engine", outside_ns + per_domain engine_ns + per_domain send_ns);
          ("generic", per_domain proto_ns);
          ("check", check_ns);
        ]
      in
      let attributed = List.fold_left (fun acc (_, ns) -> acc + ns) 0 ledger in
      let ledger = List.map (fun (l, ns) -> (l, secs ns)) ledger @ [ ("unattributed", secs (rep_ns - attributed)) ] in
      ( [
          metric ~samples:updates "generic.update_self_ns" "ns" (ratio (self [ Update ]) updates);
          metric ~samples:messages_in "generic.receive_ns_per_msg" "ns"
            (ratio (self [ Receive; Receive_batch ]) messages_in);
          metric ~samples:(Array.length qns) "generic.query_ns_p50" "ns" (pct qns 0.5);
          metric ~samples:(Array.length qns) "generic.query_ns_p99" "ns" (pct qns 0.99);
          metric ~samples:frames "parallel_engine.send_self_ns_per_frame" "ns" (ratio send_ns frames);
          metric ~samples:domains "parallel_engine.self_s" "s" (secs (per_domain engine_ns));
          metric ~samples:domains "parallel_engine.quiesce_s" "s"
            (List.fold_left ( +. ) 0.0 quiesce /. float_of_int domains);
          metric ~samples:(sum (fun rc -> rc.Rec.drains) recs) "mpsc.msgs_per_delivery" "msgs"
            (ratio messages_in (sum (fun rc -> rc.Rec.drains) recs));
          metric ~samples:(Array.length vis) "parallel_engine.visible_p50_us" "us" (pct vis 0.5);
          metric ~samples:(Array.length vis) "parallel_engine.visible_p99_us" "us" (pct vis 0.99);
          metric "runner.self_s" "s" 0.0;
          metric "trace.unattributed_share" "ratio"
            (fratio (List.assoc "unattributed" ledger) (secs rep_ns));
        ]
        @ oplog_metrics recs
        @ idle (space_span_names @ persist_names),
        ledger )
    end
  in
  {
    ok = failures = [];
    failures;
    attempted = ops_total;
    ops_per_s = throughput;
    metrics = common @ e2e @ layered;
    ledger;
    session;
  }

(* Every repetition starts from a compacted heap, so allocation counts
   do not depend on what ran before it. *)
let run_rep w ~traced ~seed ~ops =
  Stdlib.Gc.compact ();
  match w with
  | Sim_mixed -> sim_mixed ~traced ~seed ~ops
  | Sim_sharded -> sim_sharded ~traced ~seed ~ops
  | Mc_write -> mc_write ~traced ~seed ~ops
