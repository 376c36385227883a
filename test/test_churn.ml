(* Dynamic membership: replicas join, leave, and rejoin mid-run —
   joiners catch up from a Persist snapshot, leavers' scripts park,
   rejoiners resume from crash-time state. Through all of it the
   Proposition 4 contract must hold: the converged state is a pure
   function of the timestamp-ordered update multiset (the certificate),
   and churn-run journals must round-trip byte-for-byte. *)

open Helpers
module P = Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set)
module R = Runner.Make (P)

let churn_schedule =
  [
    { Network.time = 20.0; pid = 3; action = Network.Join };
    { Network.time = 30.0; pid = 2; action = Network.Leave };
    { Network.time = 60.0; pid = 2; action = Network.Rejoin };
  ]

let run_churn ?(churn = churn_schedule) ?(partitions = []) ?obs ~seed ~n ~ops () =
  let rng = Prng.create seed in
  let workload =
    Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:8 ~skew:1.0
      ~delete_ratio:0.3
  in
  let config =
    {
      (R.default_config ~n ~seed) with
      R.delay = Network.Exponential { mean = 10.0 };
      churn;
      partitions;
      final_read = Some Set_spec.Read;
      obs;
    }
  in
  R.run config ~workload

let tests =
  [
    qtest ~count:25 "join/leave/rejoin under a partition still converges" seed_gen
      (fun seed ->
        let partitions =
          [ { Network.from_time = 25.0; to_time = 55.0; group = [ 1 ] } ]
        in
        let r = run_churn ~partitions ~seed ~n:4 ~ops:5 () in
        r.R.converged && r.R.certificates_agree
        && List.length r.R.final_outputs = 4);
    qtest ~count:25 "Prop. 4 oracle: ω is the timestamp-order fold of the certificate"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:4 ~ops_per_process:4 ~domain:8
            ~skew:1.0 ~delete_ratio:0.3
        in
        let invoked =
          Array.fold_left (fun acc s -> acc + List.length s) 0 workload
        in
        let r = run_churn ~seed ~n:4 ~ops:4 () in
        r.R.converged && r.R.certificates_agree
        && List.for_all
             (fun (_, cert) ->
               (* The conflict workload is updates-only and everyone is
                  present at the end, so every certificate carries the
                  full update multiset and folds to the common ω. *)
               List.length cert = invoked
               &&
               let state =
                 List.fold_left
                   (fun s (_, u) -> Set_spec.apply s u)
                   Set_spec.initial cert
               in
               let expect = Set_spec.eval state Set_spec.Read in
               List.for_all (fun (_, o) -> o = expect) r.R.final_outputs)
             (Lazy.force r.R.certificates));
    Alcotest.test_case "a leaver that never returns is excluded from ω" `Quick
      (fun () ->
        let churn = [ { Network.time = 25.0; pid = 2; action = Network.Leave } ] in
        let r = run_churn ~churn ~seed:11 ~n:3 ~ops:4 () in
        Alcotest.(check int) "two ω reads" 2 (List.length r.R.final_outputs);
        Alcotest.(check bool) "pid 2 takes no ω read" false
          (List.mem_assoc 2 r.R.final_outputs);
        Alcotest.(check bool) "the present replicas converge" true r.R.converged);
    Alcotest.test_case "a late joiner catches up from a snapshot" `Quick (fun () ->
        let journal = Obs.Journal.create () in
        let obs = Obs.create ~journal () in
        let churn = [ { Network.time = 50.0; pid = 2; action = Network.Join } ] in
        let r = run_churn ~churn ~obs ~seed:5 ~n:3 ~ops:4 () in
        Alcotest.(check int) "all three ω reads" 3 (List.length r.R.final_outputs);
        Alcotest.(check bool) "converged" true r.R.converged;
        let joins =
          List.filter_map
            (function
              | Obs.Journal.Join { pid; rejoin; _ } -> Some (pid, rejoin)
              | _ -> None)
            (Obs.Journal.events journal)
        in
        Alcotest.(check (list (pair int bool))) "one fresh join journaled"
          [ (2, false) ] joins);
    Alcotest.test_case "a rejoin is journaled as one, after its leave" `Quick
      (fun () ->
        let journal = Obs.Journal.create () in
        let obs = Obs.create ~journal () in
        let r = run_churn ~obs ~seed:9 ~n:4 ~ops:4 () in
        Alcotest.(check bool) "converged" true r.R.converged;
        let churn_events =
          List.filter_map
            (function
              | Obs.Journal.Join { pid; rejoin; _ } ->
                Some (if rejoin then `Rejoin pid else `Join pid)
              | Obs.Journal.Leave { pid; _ } -> Some (`Leave pid)
              | _ -> None)
            (Obs.Journal.events journal)
        in
        Alcotest.(check bool) "join, leave, rejoin in schedule order" true
          (churn_events = [ `Join 3; `Leave 2; `Rejoin 2 ]));
    Alcotest.test_case "churn journals replay event-for-event" `Quick (fun () ->
        let capture () =
          let journal = Obs.Journal.create () in
          let obs = Obs.create ~journal () in
          let partitions =
            [ { Network.from_time = 25.0; to_time = 55.0; group = [ 1 ] } ]
          in
          ignore (run_churn ~partitions ~obs ~seed:21 ~n:4 ~ops:5 ());
          journal
        in
        let j1 = capture () and j2 = capture () in
        (match Obs.Journal.diff j1 j2 with
        | None -> ()
        | Some (i, a, b) -> Alcotest.failf "replay diverged at %d: %s vs %s" i a b);
        (* Serialization round-trip: parse-back of the emitted JSONL is
           the same journal, fingerprint included. *)
        (match Obs.Journal.diff j1 (Obs.Journal.of_jsonl (Obs.Journal.to_jsonl j1)) with
        | None -> ()
        | Some (i, a, b) ->
          Alcotest.failf "round-trip diverged at %d: %s vs %s" i a b);
        Alcotest.(check bool) "sealed" true (Obs.Journal.fingerprint j1 <> None);
        Alcotest.(check (option string)) "same history fingerprint"
          (Obs.Journal.fingerprint j1) (Obs.Journal.fingerprint j2));
  ]
