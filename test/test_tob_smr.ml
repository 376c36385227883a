(* The TOB state-machine-replication baseline: sequentially consistent,
   agreeing logs, blocking updates — everything Algorithm 1 avoids. *)

open Helpers

module Smr = Tob_smr.Make (Set_spec)
module R = Runner.Make (Smr)

let upd u = Protocol.Invoke_update u

let tests =
  [
    qtest ~count:20 "SMR converges with agreeing applied logs" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:10 ~domain:6 ~skew:1.0
            ~delete_ratio:0.4
        in
        let config =
          { (R.default_config ~n:3 ~seed) with R.fifo = true; final_read = Some Set_spec.Read }
        in
        let r = R.run config ~workload in
        r.R.converged && r.R.certificates_agree
        && r.R.metrics.Metrics.ops_incomplete = 0);
    qtest ~count:15 "SMR histories are sequentially consistent" seed_gen (fun seed ->
        (* Tiny runs so the SC checker stays cheap. The whole point of
           paying the latency: full sequential consistency, not just UC. *)
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:2 ~ops_per_process:2 ~domain:3 ~skew:0.5
            ~delete_ratio:0.4
        in
        let config =
          { (R.default_config ~n:2 ~seed) with R.fifo = true; final_read = Some Set_spec.Read }
        in
        let r = R.run config ~workload in
        let module C = Criteria.Make (Set_spec) in
        C.holds Criteria.SC r.R.history);
    Alcotest.test_case "update latency grows with the network delay" `Quick (fun () ->
        let config =
          {
            (R.default_config ~n:3 ~seed:1) with
            R.fifo = true;
            delay = Network.Constant 10.0;
            final_read = Some Set_spec.Read;
          }
        in
        let r = R.run config ~workload:[| [ upd (Set_spec.Insert 1) ]; []; [] |] in
        (* Stability needs the echo of its own broadcast: one round trip. *)
        Float.Array.iter
          (fun l -> Alcotest.(check (float 1e-6)) "one round trip" 20.0 l)
          r.R.op_latencies);
    Alcotest.test_case "one crash blocks every later update" `Quick (fun () ->
        let config =
          {
            (R.default_config ~n:3 ~seed:2) with
            R.fifo = true;
            crashes = [ (0.1, 2) ];
            final_read = Some Set_spec.Read;
            deadline = 50_000.0;
          }
        in
        let r = R.run config ~workload:[| [ upd (Set_spec.Insert 1) ]; []; [] |] in
        (* p2 can never echo: the insert never stabilises, the update
           never returns — SMR is not wait-free. *)
        Alcotest.(check bool) "stalled" true (r.R.metrics.Metrics.ops_incomplete > 0));
    Alcotest.test_case "queries answer immediately from the stable prefix" `Quick
      (fun () ->
        let config =
          {
            (R.default_config ~n:2 ~seed:3) with
            R.fifo = true;
            delay = Network.Constant 10.0;
            think = Network.Constant 1.0;
            final_read = Some Set_spec.Read;
          }
        in
        let r =
          R.run config
            ~workload:[| [ Protocol.Invoke_query Set_spec.Read ]; [ upd (Set_spec.Insert 1) ] |]
        in
        (* p0's read at t≈1 precedes any stability: it sees the initial
           state and costs nothing. *)
        let read_latency = Float.Array.get r.R.op_latencies 0 in
        Alcotest.(check (float 1e-6)) "local" 0.0 read_latency);
  ]
