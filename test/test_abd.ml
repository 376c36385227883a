(* The ABD linearizable-register baseline: safety (reads never regress),
   the round-trip latency the paper's introduction cites, and loss of
   availability without a majority. *)

open Helpers

module R = Runner.Make (Abd)

let upd v = Protocol.Invoke_update (Register_spec.Write v)

let qry = Protocol.Invoke_query Register_spec.Read

let tests =
  [
    Alcotest.test_case "single writer: reads return the latest write" `Quick (fun () ->
        let config =
          { (R.default_config ~n:3 ~seed:1) with R.final_read = Some Register_spec.Read }
        in
        let r = R.run config ~workload:[| [ upd 1; upd 2; qry ]; []; [] |] in
        (* The writer's own read, issued after write(2) completed, must
           return 2 (real-time order). *)
        let own_reads =
          List.filter_map History.query_of (History.process_events r.R.history 0)
        in
        (* the scripted read plus the ω final read, both linearized after
           write(2) *)
        Alcotest.(check (list int)) "reads 2" [ 2; 2 ]
          (List.map snd (List.filter (fun (q, _) -> q = Register_spec.Read) own_reads));
        Alcotest.(check bool) "converged" true r.R.converged);
    qtest ~count:20 "ABD converges and completes without faults" seed_gen (fun seed ->
        let module G = Workload.Make (Register_spec) in
        let rng = Prng.create seed in
        let workload = G.mixed ~rng ~n:3 ~ops_per_process:8 ~query_ratio:0.5 in
        let config =
          { (R.default_config ~n:3 ~seed) with R.final_read = Some Register_spec.Read }
        in
        let r = R.run config ~workload in
        r.R.converged && r.R.metrics.Metrics.ops_incomplete = 0);
    Alcotest.test_case "operation latency is ~4 one-way delays" `Quick (fun () ->
        let config =
          {
            (R.default_config ~n:3 ~seed:2) with
            R.delay = Network.Constant 10.0;
            final_read = Some Register_spec.Read;
          }
        in
        let r = R.run config ~workload:[| [ upd 1; qry ]; []; [] |] in
        Float.Array.iter
          (fun l -> Alcotest.(check (float 1e-6)) "two round trips" 40.0 l)
          r.R.op_latencies);
    Alcotest.test_case "minority survivor cannot finish operations" `Quick (fun () ->
        (* Two of three processes crash: the survivor is a minority and
           its quorum operations stall forever — the availability loss
           Attiya–Bar-Noy–Dolev trade for atomicity. *)
        let config =
          {
            (R.default_config ~n:3 ~seed:3) with
            R.crashes = [ (0.1, 1); (0.1, 2) ];
            final_read = Some Register_spec.Read;
            deadline = 10_000.0;
          }
        in
        let r = R.run config ~workload:[| [ upd 1 ]; []; [] |] in
        Alcotest.(check bool) "stalled" true (r.R.metrics.Metrics.ops_incomplete > 0);
        Alcotest.(check int) "no final read either" 0 (List.length r.R.final_outputs));
    Alcotest.test_case "a crashed minority does not block the majority" `Quick (fun () ->
        let config =
          {
            (R.default_config ~n:3 ~seed:4) with
            R.crashes = [ (0.1, 2) ];
            final_read = Some Register_spec.Read;
          }
        in
        let r = R.run config ~workload:[| [ upd 7; qry ]; [ qry ]; [] |] in
        Alcotest.(check int) "all complete" 0 r.R.metrics.Metrics.ops_incomplete;
        Alcotest.(check bool) "converged" true r.R.converged);
    qtest ~count:15 "reads never regress (per-process monotonicity)" seed_gen (fun seed ->
        (* With a single writer writing increasing values, every process's
           successive reads are monotone — a consequence of
           linearizability that eventual consistency would not give. *)
        let writer = List.init 5 (fun i -> upd (i + 1)) in
        let readers = List.init 6 (fun _ -> qry) in
        let config =
          { (R.default_config ~n:3 ~seed) with R.final_read = Some Register_spec.Read }
        in
        let r = R.run config ~workload:[| writer; readers; readers |] in
        List.for_all
          (fun p ->
            let reads =
              List.filter_map History.query_of (History.process_events r.R.history p)
              |> List.map snd
            in
            let rec monotone = function
              | a :: (b :: _ as rest) -> a <= b && monotone rest
              | [ _ ] | [] -> true
            in
            monotone reads)
          [ 1; 2 ]);
  ]
