(* Fault campaigns: crashes and healing partitions must never break
   convergence or wait-freedom for the update-consistent protocols —
   and the pipelined replica must visibly fail the same campaign. *)

let set_workload rng ~n ~ops =
  Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:8 ~skew:1.0
    ~delete_ratio:0.35

let campaign_test name (module P : Protocol.PROTOCOL
                         with type update = Set_spec.update
                          and type query = Set_spec.query
                          and type output = Set_spec.output) ~fifo =
  Alcotest.test_case name `Slow (fun () ->
      let module N = Nemesis.Make (P) in
      let campaign = { N.default_campaign with N.fifo } in
      let v = N.run campaign ~workload:set_workload ~final_read:Set_spec.Read in
      Alcotest.(check bool) "faults were injected" true
        (v.N.crashes_injected > 0 && v.N.partitions_injected > 0);
      if not (N.clean v) then
        Alcotest.failf "%s: %d conv fails, %d stalls, %d cert splits (seeds %s)" name
          v.N.convergence_failures v.N.stalled_operations v.N.certificate_disagreements
          (String.concat "," (List.map string_of_int v.N.failing_seeds)))

let tests =
  [
    campaign_test "universal survives the nemesis" (module Generic.Make (Set_spec)) ~fifo:false;
    campaign_test "memo survives the nemesis"
      (module Generic.Configured (struct let config = Generic.memo end) (Set_spec))
      ~fifo:false;
    campaign_test "undo survives the nemesis" (module Undo.Make (Undoable.Set)) ~fifo:false;
    campaign_test "gc survives the nemesis (fifo)"
      (module Generic.Configured (struct let config = Generic.gc end) (Set_spec))
      ~fifo:true;
    campaign_test "or-set survives the nemesis" (module Orset_crdt) ~fifo:false;
    campaign_test "lww-set survives the nemesis" (module Lwwset_crdt) ~fifo:false;
    Alcotest.test_case "the pipelined replica fails the same campaign" `Slow (fun () ->
        let module N = Nemesis.Make (Pipelined.Make (Set_spec)) in
        let v = N.run N.default_campaign ~workload:set_workload ~final_read:Set_spec.Read in
        Alcotest.(check bool) "diverges somewhere" true (v.N.convergence_failures > 0));
    Alcotest.test_case "Algorithm 2 survives the nemesis" `Slow (fun () ->
        let module N = Nemesis.Make (Lww_memory) in
        let workload rng ~n ~ops =
          Workload.For_memory.random_writes ~rng ~n ~ops_per_process:ops ~registers:6
            ~read_ratio:0.3
        in
        let v = N.run N.default_campaign ~workload ~final_read:(Memory_spec.Read 0) in
        if not (N.clean v) then
          Alcotest.failf "lww-memory: %d conv fails, %d stalls" v.N.convergence_failures
            v.N.stalled_operations);
    Alcotest.test_case "crash budget is clamped to processes-1 and reported" `Quick
      (fun () ->
        (* The wait-free fault model keeps one survivor; a campaign
           asking for more crashes than processes allow must say so in
           the verdict rather than silently drawing from a smaller cap. *)
        let module N = Nemesis.Make (Generic.Make (Set_spec)) in
        let campaign =
          {
            N.default_campaign with
            N.runs = 8;
            processes = 2;
            ops_per_process = 6;
            max_crashes = 5;
            crash_probability = 1.0;
          }
        in
        let v = N.run campaign ~workload:set_workload ~final_read:Set_spec.Read in
        Alcotest.(check int) "cap = processes - 1" 1 v.N.crash_cap;
        Alcotest.(check int) "every crashing run was clamped" 8 v.N.capped_runs;
        Alcotest.(check int) "exactly one crash per run" 8 v.N.crashes_injected;
        Alcotest.(check bool) "still clean under the clamp" true (N.clean v));
    Alcotest.test_case "a feasible crash budget is never reported as capped" `Quick
      (fun () ->
        let module N = Nemesis.Make (Generic.Make (Set_spec)) in
        let campaign = { N.default_campaign with N.runs = 6; ops_per_process = 8 } in
        let v = N.run campaign ~workload:set_workload ~final_read:Set_spec.Read in
        Alcotest.(check int) "cap is the request" 2 v.N.crash_cap;
        Alcotest.(check int) "no run reported as capped" 0 v.N.capped_runs);
  ]
