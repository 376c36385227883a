(* A replicated bank account.

   Section VII.C of the paper notes that keeping the full update log is
   what banks do anyway — the account statement IS the log. Deposits and
   withdrawals commute, so the account balance is a CRDT and the cheap
   apply-on-receive fast path is already update consistent; the
   universal construction additionally hands us the agreed, totally
   ordered statement for auditing.

   Run with: dune exec examples/bank_ledger.exe *)

module Account = Generic.Make (Counter_spec)
module Fast = Commutative.Make (Counter_spec)
module R = Runner.Make (Account)
module RF = Runner.Make (Fast)

let branch_activity rng n ops =
  Workload.For_counter.deposits_and_withdrawals ~rng ~n ~ops_per_process:ops ~max_amount:250

let () =
  let rng = Prng.create 2024 in
  let workload = branch_activity rng 3 6 in
  let config =
    { (R.default_config ~n:3 ~seed:5) with R.final_read = Some Counter_spec.Value }
  in
  let r = R.run config ~workload in
  Format.printf "three bank branches post deposits/withdrawals concurrently@.@.";
  List.iter
    (fun (pid, balance) -> Format.printf "branch %d final balance: %d@." pid balance)
    r.R.final_outputs;
  Format.printf "balances agree: %b@.@." r.R.converged;
  (* The audit trail: every branch holds the same totally ordered
     statement. *)
  (match Lazy.force r.R.certificates with
  | (pid, statement) :: _ ->
    Format.printf "account statement (as agreed at branch %d):@." pid;
    let running = ref 0 in
    List.iteri
      (fun i (origin, Counter_spec.Add n) ->
        running := !running + n;
        Format.printf "  %2d. %s %4d  (branch %d)  balance %5d@." (i + 1)
          (if n >= 0 then "deposit " else "withdraw")
          (abs n) origin !running)
      statement
  | [] -> ());
  (* Same workload over the metadata-free fast path: identical balances,
     no log at all (and thus no statement) — the trade-off of VII.C. *)
  let rng = Prng.create 2024 in
  let workload = branch_activity rng 3 6 in
  let config =
    { (RF.default_config ~n:3 ~seed:5) with RF.final_read = Some Counter_spec.Value }
  in
  let rf = RF.run config ~workload in
  Format.printf "@.fast-path CRDT balances agree too: %b (log entries kept: %d)@."
    rf.RF.converged
    (List.fold_left (fun acc (_, l) -> acc + l) 0 rf.RF.log_lengths)
