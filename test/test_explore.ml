(* Regression tests for the exploration engine: every reduction
   mechanism must preserve the seed checker's verdicts exactly, and the
   new report fields must behave as documented. *)

module G_set = Generic.Make (Set_spec)
module M_uni = Explore.Make (G_set)
module M_pipe = Explore.Make (Pipelined.Make (Set_spec))
module M_orset = Explore.Make (Orset_crdt)
module M_counter = Explore.Make (Generic.Make (Counter_spec))
module Snap_set = Snapshot.For_generic (Set_spec) (Update_codec.For_set)
module Snap_counter = Snapshot.For_generic (Counter_spec) (Update_codec.For_counter)

let race_scripts : (Set_spec.update, Set_spec.query) Protocol.invocation list array =
  [|
    [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_update (Set_spec.Delete 2) ];
    [ Protocol.Invoke_update (Set_spec.Insert 2); Protocol.Invoke_update (Set_spec.Delete 1) ];
  |]

let mixed_scripts : (Set_spec.update, Set_spec.query) Protocol.invocation list array =
  [|
    [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_query Set_spec.Read ];
    [ Protocol.Invoke_update (Set_spec.Delete 1);
      Protocol.Invoke_update (Set_spec.Insert 2) ];
  |]

let counter_scripts n ops : (Counter_spec.update, Counter_spec.query) Protocol.invocation list array =
  Array.init n (fun pid ->
      List.init ops (fun i ->
          Protocol.Invoke_update (Counter_spec.Add ((pid * ops) + i + 1))))

let check_counts = Alcotest.(check (list (pair string int)))

let named counts = List.map (fun (c, k) -> (Criteria.name c, k)) counts

let tests =
  [
    Alcotest.test_case "reduced universal search matches the exhaustive verdicts"
      `Slow
      (fun () ->
        let base = M_uni.explore ~scripts:race_scripts ~final_read:Set_spec.Read () in
        let reduced =
          M_uni.explore ~por:true ~dedup:true ~snapshot:Snap_set.snapshotter
            ~deliveries_commute:Snap_set.deliveries_commute ~scripts:race_scripts
            ~final_read:Set_spec.Read ()
        in
        Alcotest.(check bool) "both exhaustive" true
          (base.M_uni.exhaustive && reduced.M_uni.exhaustive);
        check_counts "distinct failures equal"
          (named base.M_uni.distinct_failures)
          (named reduced.M_uni.distinct_failures);
        Alcotest.(check bool) "fewer executions" true
          (reduced.M_uni.executions < base.M_uni.executions));
    Alcotest.test_case "reduced pipelined search matches the exhaustive verdicts"
      `Slow
      (fun () ->
        List.iter
          (fun scripts ->
            let base = M_pipe.explore ~scripts ~final_read:Set_spec.Read () in
            let reduced =
              M_pipe.explore ~por:true ~scripts ~final_read:Set_spec.Read ()
            in
            Alcotest.(check bool) "both exhaustive" true
              (base.M_pipe.exhaustive && reduced.M_pipe.exhaustive);
            check_counts "distinct failures equal"
              (named base.M_pipe.distinct_failures)
              (named reduced.M_pipe.distinct_failures);
            Alcotest.(check bool) "violations found" true
              (List.exists (fun (_, k) -> k > 0) base.M_pipe.distinct_failures))
          [ race_scripts; mixed_scripts ]);
    Alcotest.test_case "reduction holds under crash injection" `Slow (fun () ->
        let base =
          M_uni.explore ~max_crashes:1 ~scripts:race_scripts
            ~final_read:Set_spec.Read ()
        in
        let reduced =
          M_uni.explore ~max_crashes:1 ~por:true ~dedup:true
            ~snapshot:Snap_set.snapshotter
            ~deliveries_commute:Snap_set.deliveries_commute ~scripts:race_scripts
            ~final_read:Set_spec.Read ()
        in
        Alcotest.(check bool) "both exhaustive" true
          (base.M_uni.exhaustive && reduced.M_uni.exhaustive);
        check_counts "distinct failures equal"
          (named base.M_uni.distinct_failures)
          (named reduced.M_uni.distinct_failures));
    Alcotest.test_case "checkpointed replay is exact at every interval" `Slow
      (fun () ->
        let strip (r : M_uni.report) =
          (r.M_uni.executions, r.M_uni.exhaustive, r.M_uni.failures,
           r.M_uni.distinct_failures, r.M_uni.first_failures)
        in
        let base =
          strip (M_uni.explore ~scripts:mixed_scripts ~final_read:Set_spec.Read ())
        in
        List.iter
          (fun k ->
            let r =
              M_uni.explore ~checkpoint_every:k ~snapshot:Snap_set.snapshotter
                ~scripts:mixed_scripts ~final_read:Set_spec.Read ()
            in
            Alcotest.(check bool)
              (Printf.sprintf "interval %d replays to identical verdicts" k)
              true
              (strip r = base);
            Alcotest.(check bool)
              (Printf.sprintf "interval %d used the checkpoints" k)
              true
              (r.M_uni.stats.Explore.checkpoint_restores > 0))
          [ 1; 2; 3; 5 ]);
    Alcotest.test_case "checkpointing cuts protocol-step replays >= 5x" `Slow
      (fun () ->
        let naive = M_uni.explore ~scripts:race_scripts ~final_read:Set_spec.Read () in
        let fast =
          M_uni.explore ~por:true ~dedup:true ~checkpoint_every:4
            ~snapshot:Snap_set.snapshotter
            ~deliveries_commute:Snap_set.deliveries_commute ~scripts:race_scripts
            ~final_read:Set_spec.Read ()
        in
        let n_steps = naive.M_uni.stats.Explore.protocol_steps in
        let f_steps = fast.M_uni.stats.Explore.protocol_steps in
        Alcotest.(check bool)
          (Printf.sprintf "%d naive steps vs %d reduced" n_steps f_steps)
          true
          (n_steps >= 5 * f_steps));
    Alcotest.test_case "first violating history is recorded per criterion" `Slow
      (fun () ->
        (* The OR-set converges (EC holds) but is not UC; with EC listed
           first, the seed checker's single first_failure slot stayed
           empty for UC. *)
        let r =
          M_orset.explore
            ~criteria:[ Criteria.EC; Criteria.UC ]
            ~scripts:race_scripts ~final_read:Set_spec.Read ()
        in
        Alcotest.(check bool) "no EC entry" true
          (not (List.mem_assoc Criteria.EC r.M_orset.first_failures));
        match List.assoc_opt Criteria.UC r.M_orset.first_failures with
        | None -> Alcotest.fail "expected a UC first-failure witness"
        | Some text ->
          Alcotest.(check bool) "witness is a rendered history" true
            (String.length text > 0));
    Alcotest.test_case "commutative dedup key unlocks a deeper counter scope"
      `Slow
      (fun () ->
        (* 2 replicas x 3 increments: the naive DFS's 207,900 schedules
           collapse to about a thousand fingerprinted states, and the
           reduced engine must replay at least 5x fewer protocol steps
           to reach the same verdict. *)
        let r =
          M_counter.explore ~limit:max_int ~por:true ~dedup:true
            ~snapshot:Snap_counter.snapshotter
            ~state_key:Snap_counter.commutative_key
            ~message_key:Snap_counter.commutative_message_key
            ~deliveries_commute:Snap_counter.deliveries_commute
            ~scripts:(counter_scripts 2 3) ~final_read:Counter_spec.Value ()
        in
        let naive =
          M_counter.explore ~limit:max_int ~scripts:(counter_scripts 2 3)
            ~final_read:Counter_spec.Value ()
        in
        Alcotest.(check bool) "exhaustive" true
          (r.M_counter.exhaustive && naive.M_counter.exhaustive);
        check_counts "distinct failures equal the naive DFS's"
          (named naive.M_counter.distinct_failures)
          (named r.M_counter.distinct_failures);
        check_counts "no violations" [ ("UC", 0); ("EC", 0) ]
          (named r.M_counter.distinct_failures);
        let steps (x : M_counter.report) = x.M_counter.stats.Explore.protocol_steps in
        Alcotest.(check bool)
          (Printf.sprintf "5x fewer protocol steps (%d vs %d)" (steps r) (steps naive))
          true
          (5 * steps r <= steps naive);
        Alcotest.(check bool) "states were merged" true
          (r.M_counter.stats.Explore.states_deduped > 0));
    Alcotest.test_case "fingerprints of distinct small inputs stay distinct"
      `Quick
      (fun () ->
        let seen = Hashtbl.create 4096 in
        for i = 0 to 4095 do
          let fp =
            Fingerprint.string
              (Fingerprint.int Fingerprint.empty (i mod 17))
              (string_of_int i)
          in
          (match Hashtbl.find_opt seen fp with
          | Some j -> Alcotest.failf "collision between inputs %d and %d" i j
          | None -> ());
          Hashtbl.add seen fp i
        done);
    Alcotest.test_case "dedup without a state key is rejected" `Quick (fun () ->
        Alcotest.check_raises "needs a key"
          (Invalid_argument "Explore: dedup requires ~state_key or ~snapshot")
          (fun () ->
            ignore
              (M_uni.explore ~dedup:true ~scripts:race_scripts
                 ~final_read:Set_spec.Read ())));
    Alcotest.test_case "timestamp-blind keys refuse non-commutative specs" `Quick
      (fun () ->
        let replica =
          G_set.create
            {
              Protocol.pid = 0;
              n = 2;
              now = (fun () -> 0.0);
              send = (fun ~dst:_ _ -> ());
              broadcast = (fun _ -> ());
              broadcast_batch = (fun _ -> ());
              set_timer = (fun ~delay:_ _ -> ());
              count_replay = (fun _ -> ());
              obs = None;
            }
        in
        match Snap_set.commutative_key replica with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument for the set");
  ]
