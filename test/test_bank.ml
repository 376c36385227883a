(* The bank ADT: overdraft protection as a linearization-invariant, and
   what it buys under replication — Algorithm 1 preserves it on every
   replica, while a commutative balance (PN-counter) cannot. *)

open Helpers

module Bank = Generic.Make (Bank_spec)
module R = Runner.Make (Bank)
module Run = Uqadt.Run (Bank_spec)

let no_overdraft state =
  Support.Int_map.for_all (fun _ b -> b >= 0) state

let sequential_tests =
  [
    Alcotest.test_case "withdraw is refused on insufficient funds" `Quick (fun () ->
        let s = Run.exec_updates Bank_spec.initial [ Bank_spec.Withdraw (0, 10) ] in
        Alcotest.(check int) "still 0" 0 (Bank_spec.balance s 0));
    Alcotest.test_case "transfer moves money exactly once" `Quick (fun () ->
        let s =
          Run.exec_updates Bank_spec.initial
            [ Bank_spec.Deposit (0, 100); Bank_spec.Transfer (0, 1, 30) ]
        in
        Alcotest.(check int) "src" 70 (Bank_spec.balance s 0);
        Alcotest.(check int) "dst" 30 (Bank_spec.balance s 1);
        Alcotest.(check int) "total" 100 (Bank_spec.eval s Bank_spec.Total));
    Alcotest.test_case "self-transfer is a no-op" `Quick (fun () ->
        let s =
          Run.exec_updates Bank_spec.initial
            [ Bank_spec.Deposit (0, 50); Bank_spec.Transfer (0, 0, 20) ]
        in
        Alcotest.(check int) "unchanged" 50 (Bank_spec.balance s 0));
    qtest "balances never go negative in any sequential run" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let rec go s i = i = 0 || (no_overdraft s && go (Bank_spec.apply s (Bank_spec.random_update rng)) (i - 1)) in
        go Bank_spec.initial 40);
    qtest "deposits and transfers conserve the total" seed_gen (fun seed ->
        let rng = Prng.create seed in
        (* only transfers after an initial deposit: total invariant *)
        let s0 = Bank_spec.apply Bank_spec.initial (Bank_spec.Deposit (0, 1000)) in
        let rec go s i =
          if i = 0 then Bank_spec.eval s Bank_spec.Total = 1000
          else begin
            let t = Bank_spec.Transfer (Prng.int rng 3, Prng.int rng 3, 1 + Prng.int rng 50) in
            go (Bank_spec.apply s t) (i - 1)
          end
        in
        go s0 30);
    Alcotest.test_case "satisfiable: total must cover named balances" `Quick (fun () ->
        Alcotest.(check bool) "covers" true
          (Bank_spec.satisfiable
             [ (Bank_spec.Balance 0, 10); (Bank_spec.Balance 1, 5); (Bank_spec.Total, 20) ]);
        Alcotest.(check bool) "cannot cover" false
          (Bank_spec.satisfiable
             [ (Bank_spec.Balance 0, 10); (Bank_spec.Balance 1, 5); (Bank_spec.Total, 12) ]);
        Alcotest.(check bool) "negative balance impossible" false
          (Bank_spec.satisfiable [ (Bank_spec.Balance 0, -1) ]));
  ]

let bank_workload rng ~n ~ops =
  Array.init n (fun _ ->
      Protocol.Invoke_update (Bank_spec.Deposit (0, 100))
      :: List.init ops (fun _ -> Protocol.Invoke_update (Bank_spec.random_update rng)))

let replicated_tests =
  [
    qtest ~count:30 "replicated bank converges with no overdrafts anywhere" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let workload = bank_workload rng ~n:3 ~ops:15 in
        let config =
          { (R.default_config ~n:3 ~seed) with R.final_read = Some Bank_spec.Total }
        in
        let r = R.run config ~workload in
        let state_of cert = Run.final_state (List.map snd cert) in
        r.R.converged
        && List.for_all (fun (_, cert) -> no_overdraft (state_of cert))
             (Lazy.force r.R.certificates));
    qtest ~count:15 "replicated bank histories are UC" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let workload = bank_workload rng ~n:2 ~ops:2 in
        let config =
          { (R.default_config ~n:2 ~seed) with R.final_read = Some Bank_spec.Total }
        in
        let r = R.run config ~workload in
        let module C = Criteria.Make (Bank_spec) in
        C.holds Criteria.UC r.R.history);
    Alcotest.test_case "a commutative balance goes negative where the bank cannot" `Quick
      (fun () ->
        (* Two branches each withdraw 80 from a 100 balance, concurrently.
           A PN-counter balance applies both: -60. The update-consistent
           bank refuses the second withdrawal in the agreed order. *)
        let module Cnt = Runner.Make (Counters.Pncounter) in
        let config =
          {
            (Cnt.default_config ~n:2 ~seed:1) with
            Cnt.delay = Network.Constant 50.0;
            think = Network.Constant 1.0;
            final_read = Some Counter_spec.Value;
          }
        in
        let counter_run =
          Cnt.run config
            ~workload:
              [|
                [
                  Protocol.Invoke_update (Counter_spec.Add 100);
                  Protocol.Invoke_update (Counter_spec.Add (-80));
                ];
                [ Protocol.Invoke_update (Counter_spec.Add (-80)) ];
              |]
        in
        List.iter
          (fun (_, v) -> Alcotest.(check bool) "overdrawn" true (v < 0))
          counter_run.Cnt.final_outputs;
        let config =
          {
            (R.default_config ~n:2 ~seed:1) with
            R.delay = Network.Constant 50.0;
            think = Network.Constant 1.0;
            final_read = Some (Bank_spec.Balance 0);
          }
        in
        let bank_run =
          R.run config
            ~workload:
              [|
                [
                  Protocol.Invoke_update (Bank_spec.Deposit (0, 100));
                  Protocol.Invoke_update (Bank_spec.Withdraw (0, 80));
                ];
                [ Protocol.Invoke_update (Bank_spec.Withdraw (0, 80)) ];
              |]
        in
        Alcotest.(check bool) "bank converged" true bank_run.R.converged;
        List.iter
          (fun (_, v) -> Alcotest.(check bool) "no overdraft" true (v >= 0))
          bank_run.R.final_outputs);
  ]

let tests = sequential_tests @ replicated_tests
