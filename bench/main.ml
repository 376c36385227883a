(* Benchmark harness.

   Two layers, one executable:

   1. Bechamel micro-benchmarks — wall-clock cost of the kernels behind
      each experiment table (one Test.make group per experiment id), so
      the asymptotic claims of Section VII.C are backed by measured time
      and not only by operation counting.

   2. The experiment tables themselves (Experiments.all): every figure
      and analytical claim of the paper regenerated and printed in the
      layout EXPERIMENTS.md records. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Replica harness used by the micro-benchmarks: a single replica with
   a no-op network, pre-loaded with a log of the given length.          *)
(* ------------------------------------------------------------------ *)

let dummy_ctx = Throughput.dummy_ctx

module Uni_set = Generic.Make (Set_spec)
module Uni_list = Generic_ref.Make (Set_spec)

(* The array core with checkpointing off isolates the oplog's
   binary-search insert from its checkpoint cache in the C2 rows. *)
module Uni_nockpt =
  Generic.Configured
    (struct
      let config = { Generic.default with checkpoint_interval = 0 }
    end)
    (Set_spec)

module Memo_set = Generic.Configured (struct let config = Generic.memo end) (Set_spec)
module Undo_set = Undo.Make (Undoable.Set)

(* Every benchmarked result flows through [Sys.opaque_identity]: the
   optimiser must materialise it, yet nothing escapes to a global the
   way the old [query_result] ref did. *)
let sink x = ignore (Sys.opaque_identity x)

(* C2: one query against a 512-update log, per construction variant. *)
let test_query_cost =
  let load (type t)
      (module P : Protocol.PROTOCOL
        with type update = Set_spec.update
         and type t = t) =
    let r = P.create (dummy_ctx ~pid:0 ~n:3) in
    let rng = Prng.create 99 in
    for _ = 1 to 512 do
      P.update r (Set_spec.random_update rng) ~on_done:ignore
    done;
    r
  in
  let uni = load (module Uni_set)
  and uni_list = load (module Uni_list)
  and uni_nockpt = load (module Uni_nockpt)
  and memo = load (module Memo_set)
  and undo = load (module Undo_set) in
  let lww =
    let r = Lww_memory.create (dummy_ctx ~pid:0 ~n:3) in
    let rng = Prng.create 3 in
    for _ = 1 to 512 do
      Lww_memory.update r (Memory_spec.random_update rng) ~on_done:ignore
    done;
    r
  in
  Test.make_grouped ~name:"C2-query" ~fmt:"%s/%s"
    [
      Test.make ~name:"universal-512"
        (Staged.stage (fun () ->
             Uni_set.query uni Set_spec.Read ~on_result:sink));
      Test.make ~name:"universal-list-512"
        (Staged.stage (fun () ->
             Uni_list.query uni_list Set_spec.Read ~on_result:sink));
      Test.make ~name:"universal-nockpt-512"
        (Staged.stage (fun () ->
             Uni_nockpt.query uni_nockpt Set_spec.Read ~on_result:sink));
      Test.make ~name:"memo-512"
        (Staged.stage (fun () ->
             Memo_set.query memo Set_spec.Read ~on_result:sink));
      Test.make ~name:"undo-512"
        (Staged.stage (fun () ->
             Undo_set.query undo Set_spec.Read ~on_result:sink));
      Test.make ~name:"lww-memory-512"
        (Staged.stage (fun () ->
             Lww_memory.query lww (Memory_spec.Read 1) ~on_result:sink));
    ]

(* C1: the local cost of one update per protocol family. *)
let test_update_cost =
  Test.make_grouped ~name:"C1-update" ~fmt:"%s/%s"
    [
      Test.make ~name:"universal"
        (let r = Uni_set.create (dummy_ctx ~pid:0 ~n:3) in
         let rng = Prng.create 4 in
         Staged.stage (fun () ->
             Uni_set.update r (Set_spec.random_update rng) ~on_done:ignore));
      Test.make ~name:"or-set"
        (let r = Orset_crdt.create (dummy_ctx ~pid:0 ~n:3) in
         let rng = Prng.create 4 in
         Staged.stage (fun () ->
             Orset_crdt.update r (Set_spec.random_update rng) ~on_done:ignore));
      Test.make ~name:"lww-set"
        (let r = Lwwset_crdt.create (dummy_ctx ~pid:0 ~n:3) in
         let rng = Prng.create 4 in
         Staged.stage (fun () ->
             Lwwset_crdt.update r (Set_spec.random_update rng) ~on_done:ignore));
    ]

(* F1: deciding the criteria of the paper's figures. *)
let test_checkers =
  let module C = Criteria.Make (Set_spec) in
  Test.make_grouped ~name:"F1-checkers" ~fmt:"%s/%s"
    [
      Test.make ~name:"UC(Fig.1b)"
        (Staged.stage (fun () -> sink (C.holds Criteria.UC Figures.fig1b)));
      Test.make ~name:"SEC(Fig.1a)"
        (Staged.stage (fun () -> sink (C.holds Criteria.SEC Figures.fig1a)));
      Test.make ~name:"SUC(Fig.1d)"
        (Staged.stage (fun () -> sink (C.holds Criteria.SUC Figures.fig1d)));
      Test.make ~name:"PC(Fig.2)"
        (Staged.stage (fun () -> sink (C.holds Criteria.PC Figures.fig2)));
    ]

(* P1/T6: a full small simulation, end to end. *)
let test_simulation =
  Test.make_grouped ~name:"P1-simulation" ~fmt:"%s/%s"
    [
      Test.make ~name:"fig2-universal"
        (Staged.stage (fun () ->
             let module R = Runner.Make (Uni_set) in
             let config =
               { (R.default_config ~n:2 ~seed:1) with R.final_read = Some Set_spec.Read }
             in
             sink (R.run config ~workload:(Workload.For_set.fig2_program ()))));
    ]

(* P4: one exhaustive model check of a 3-update race. *)
let test_modelcheck =
  Test.make_grouped ~name:"P4-modelcheck" ~fmt:"%s/%s"
    [
      Test.make ~name:"universal-3upd"
        (Staged.stage (fun () ->
             let module M = Explore.Make (Uni_set) in
             let scripts =
               [|
                 [ Protocol.Invoke_update (Set_spec.Insert 1);
                   Protocol.Invoke_update (Set_spec.Delete 2) ];
                 [ Protocol.Invoke_update (Set_spec.Insert 2) ];
               |]
             in
             sink (M.explore ~scripts ~final_read:Set_spec.Read ())));
    ]

(* A fully-meshed trio of replicas delivering synchronously: the
   protocol's message type stays abstract, messages flow through the
   broadcast closure. *)
let mesh (type t m)
    (module P : Protocol.PROTOCOL with type t = t and type message = m) n =
  let cell : t option array = Array.make n None in
  let ctx pid =
    {
      (dummy_ctx ~pid ~n) with
      Protocol.broadcast =
        (fun msg ->
          Array.iteri
            (fun j r ->
              if j <> pid then
                match r with Some r -> P.receive r ~src:pid msg | None -> ())
            cell);
    }
  in
  Array.iteri (fun i _ -> cell.(i) <- Some (P.create (ctx i))) cell;
  Array.map Option.get cell

(* C3: dissemination step (update + everyone receives), with and without
   stability compaction: Generic's log keeps growing — inserts get
   slower — while the GC'd log stays short. *)
let test_receive_cost =
  let module Gc_set = Gc.Make (Set_spec) in
  Test.make_grouped ~name:"C3-receive" ~fmt:"%s/%s"
    [
      Test.make ~name:"generic-disseminate"
        (let rs = mesh (module Uni_set) 3 in
         let rng = Prng.create 5 in
         Staged.stage (fun () ->
             Uni_set.update rs.(0) (Set_spec.random_update rng) ~on_done:ignore));
      Test.make ~name:"gc-disseminate"
        (let rs = mesh (module Gc_set) 3 in
         let rng = Prng.create 5 in
         let turn = ref 0 in
         Staged.stage (fun () ->
             (* Rotate the updater so every process keeps advancing the
                stability bound. *)
             turn := (!turn + 1) mod 3;
             Gc_set.update rs.(!turn) (Set_spec.random_update rng) ~on_done:ignore));
    ]

(* A1: one message delayed behind 16 fresher local updates — the
   undo/redo repair path at a fixed depth. [a] hears [b] only when the
   bench drains the hold-back queue; [b] hears [a] immediately so its
   clock keeps pace and the lateness stays ~16 deep in steady state. *)
let test_late_message =
  Test.make_grouped ~name:"A1-late-message" ~fmt:"%s/%s"
    [
      Test.make ~name:"undo-repair-16-deep"
        (let held : Undo_set.message Queue.t = Queue.create () in
         let b_cell = ref None in
         let ctx_a =
           {
             (dummy_ctx ~pid:0 ~n:2) with
             Protocol.broadcast =
               (fun msg ->
                 match !b_cell with
                 | Some b -> Undo_set.receive b ~src:0 msg
                 | None -> ());
           }
         in
         let a = Undo_set.create ctx_a in
         let ctx_b =
           {
             (dummy_ctx ~pid:1 ~n:2) with
             Protocol.broadcast = (fun msg -> Queue.add msg held);
           }
         in
         let b = Undo_set.create ctx_b in
         b_cell := Some b;
         let rng = Prng.create 6 in
         Staged.stage (fun () ->
             Undo_set.update b (Set_spec.random_update rng) ~on_done:ignore;
             for _ = 1 to 16 do
               Undo_set.update a (Set_spec.random_update rng) ~on_done:ignore
             done;
             Queue.iter (fun msg -> Undo_set.receive a ~src:1 msg) held;
             Queue.clear held))
    ]

(* T6/F-checkers on a run-extracted history: UC checking at realistic
   sizes (12 updates). *)
let test_uc_on_run =
  let module C = Criteria.Make (Set_spec) in
  let history =
    let module R = Runner.Make (Uni_set) in
    let rng = Prng.create 17 in
    let workload =
      Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:4 ~domain:4 ~skew:1.0
        ~delete_ratio:0.4
    in
    let config = { (R.default_config ~n:3 ~seed:17) with R.final_read = Some Set_spec.Read } in
    (R.run config ~workload).R.history
  in
  Test.make_grouped ~name:"T6-uc-check" ~fmt:"%s/%s"
    [
      Test.make ~name:"UC(12-update run)"
        (Staged.stage (fun () -> sink (C.holds Criteria.UC history)));
    ]

(* C7: the multicore engine end to end — domain spawn, mailbox
   exchange, quiescence — against the sequential virtual-time Runner on
   the same scripts. On a single-core host the gap is pure engine
   overhead; with real cores it becomes the scaling headroom that
   BENCH_throughput.json quantifies. *)
let test_parallel_engine =
  let module B = Throughput.Bench (Counter_spec) in
  let module Seq = Runner.Make (B.G) in
  let scripts = B.uniform_scripts ~seed:11 ~domains:2 ~ops:64 ~query_ratio:0.0 in
  Test.make_grouped ~name:"C7-parallel" ~fmt:"%s/%s"
    [
      Test.make ~name:"parallel-universal-2dom"
        (Staged.stage (fun () ->
             let cfg =
               {
                 (B.E.default_config ~domains:2) with
                 B.E.final_read = Some Counter_spec.Value;
               }
             in
             sink (B.E.run cfg ~workload:scripts)));
      Test.make ~name:"sequential-universal-2proc"
        (Staged.stage (fun () ->
             let cfg =
               {
                 (Seq.default_config ~n:2 ~seed:11) with
                 Seq.final_read = Some Counter_spec.Value;
               }
             in
             sink (Seq.run cfg ~workload:scripts)));
    ]

let all_tests =
  [
    test_query_cost;
    test_update_cost;
    test_checkers;
    test_simulation;
    test_modelcheck;
    test_receive_cost;
    test_late_message;
    test_uc_on_run;
    test_parallel_engine;
  ]

let run_bechamel () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  List.iter
    (fun grouped ->
      let raw = Benchmark.all cfg instances grouped in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-36s %12.1f ns/op\n" name est
          | Some _ | None -> Printf.printf "  %-36s (no estimate)\n" name)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows))
    all_tests

let () =
  print_endline "=== micro-benchmarks (bechamel, monotonic clock) ===";
  run_bechamel ();
  print_newline ();
  print_endline "=== experiment tables (paper reproduction) ===";
  List.iter
    (fun (id, title, body) -> Printf.printf "== %s: %s ==\n%s\n" id title body)
    (Experiments.all ~seed:42 ())
