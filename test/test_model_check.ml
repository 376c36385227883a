(* Proposition 4, executed: every schedule of Algorithm 1 on small
   conflict-heavy scripts yields an update-consistent history, while the
   naive pipelined replica provably cannot. *)

let race_scripts : (Set_spec.update, Set_spec.query) Protocol.invocation list array =
  [|
    [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_update (Set_spec.Delete 2) ];
    [ Protocol.Invoke_update (Set_spec.Insert 2); Protocol.Invoke_update (Set_spec.Delete 1) ];
  |]

let failures_of report c = List.assoc c report

let tests =
  [
    Alcotest.test_case "Algorithm 1 is UC+EC on every schedule" `Slow (fun () ->
        let module M = Explore.Make (Generic.Make (Set_spec)) in
        let r =
          M.explore ~scripts:race_scripts ~final_read:Set_spec.Read ()
        in
        Alcotest.(check bool) "exhaustive" true r.M.exhaustive;
        Alcotest.(check bool) "many executions" true (r.M.executions > 100);
        Alcotest.(check int) "UC failures" 0 (failures_of r.M.failures Criteria.UC);
        Alcotest.(check int) "EC failures" 0 (failures_of r.M.failures Criteria.EC));
    Alcotest.test_case "Algorithm 1 is SUC on every schedule (small)" `Slow (fun () ->
        let module M = Explore.Make (Generic.Make (Set_spec)) in
        let scripts =
          [|
            [ Protocol.Invoke_update (Set_spec.Insert 1);
              Protocol.Invoke_query Set_spec.Read ];
            [ Protocol.Invoke_update (Set_spec.Delete 1) ];
          |]
        in
        let r =
          M.explore ~criteria:[ Criteria.SUC ] ~scripts ~final_read:Set_spec.Read ()
        in
        Alcotest.(check bool) "exhaustive" true r.M.exhaustive;
        Alcotest.(check int) "SUC failures" 0 (failures_of r.M.failures Criteria.SUC));
    Alcotest.test_case "pipelined replica violates UC on some schedule" `Slow (fun () ->
        let module M = Explore.Make (Pipelined.Make (Set_spec)) in
        let r = M.explore ~scripts:race_scripts ~final_read:Set_spec.Read () in
        Alcotest.(check bool) "exhaustive" true r.M.exhaustive;
        Alcotest.(check bool) "has UC failures" true
          (failures_of r.M.failures Criteria.UC > 0));
    Alcotest.test_case "Algorithm 2 (LWW memory) is UC on every schedule" `Slow
      (fun () ->
        let module M = Explore.Make (Lww_memory) in
        let scripts =
          [|
            [ Protocol.Invoke_update (Memory_spec.Write (0, 1));
              Protocol.Invoke_update (Memory_spec.Write (1, 1)) ];
            [ Protocol.Invoke_update (Memory_spec.Write (0, 2)) ];
          |]
        in
        let r = M.explore ~scripts ~final_read:(Memory_spec.Read 0) () in
        Alcotest.(check bool) "exhaustive" true r.M.exhaustive;
        Alcotest.(check int) "UC failures" 0 (failures_of r.M.failures Criteria.UC));
    Alcotest.test_case "CRDT fast path is UC for the counter" `Slow (fun () ->
        let module M = Explore.Make (Commutative.Make (Counter_spec)) in
        let scripts =
          [|
            [ Protocol.Invoke_update (Counter_spec.Add 2);
              Protocol.Invoke_update (Counter_spec.Add (-1)) ];
            [ Protocol.Invoke_update (Counter_spec.Add 5) ];
          |]
        in
        let r = M.explore ~scripts ~final_read:Counter_spec.Value () in
        Alcotest.(check bool) "exhaustive" true r.M.exhaustive;
        Alcotest.(check int) "UC failures" 0 (failures_of r.M.failures Criteria.UC));
    Alcotest.test_case "Algorithm 1 stays UC under exhaustive crash injection" `Slow
      (fun () ->
        let module M = Explore.Make (Generic.Make (Set_spec)) in
        let scripts =
          [|
            [ Protocol.Invoke_update (Set_spec.Insert 1);
              Protocol.Invoke_update (Set_spec.Delete 1) ];
            [ Protocol.Invoke_update (Set_spec.Insert 1) ];
          |]
        in
        let base = M.explore ~scripts ~final_read:Set_spec.Read () in
        let r = M.explore ~max_crashes:1 ~scripts ~final_read:Set_spec.Read () in
        Alcotest.(check bool) "exhaustive" true r.M.exhaustive;
        Alcotest.(check bool) "crash branches explored" true
          (r.M.executions > base.M.executions);
        Alcotest.(check int) "UC failures" 0 (failures_of r.M.failures Criteria.UC);
        Alcotest.(check int) "EC failures" 0 (failures_of r.M.failures Criteria.EC));
    Alcotest.test_case "OR-set converges but is not UC on Fig.1b races" `Slow (fun () ->
        let module M = Explore.Make (Orset_crdt) in
        let r = M.explore ~scripts:race_scripts ~final_read:Set_spec.Read () in
        Alcotest.(check bool) "exhaustive" true r.M.exhaustive;
        (* Insert-wins: convergent (EC) everywhere, yet some schedules end
           in {1,2}, which no linearization of the updates explains. *)
        Alcotest.(check int) "EC failures" 0 (failures_of r.M.failures Criteria.EC);
        Alcotest.(check bool) "has UC failures" true
          (failures_of r.M.failures Criteria.UC > 0));
  ]
