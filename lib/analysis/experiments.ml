let mark b = if b then "yes" else "no"

let verdict_cell ~got ~expected =
  if got = expected then mark got else Printf.sprintf "%s (paper says %s!)" (mark got) (mark expected)

let pp_to_string pp v = Format.asprintf "%a" pp v

(* ------------------------------------------------------------------ *)
(* F1: the Figure 1 matrix                                             *)
(* ------------------------------------------------------------------ *)

module Set_criteria = Criteria.Make (Set_spec)

let fig1_criteria =
  [ Criteria.EC; Criteria.SEC; Criteria.PC; Criteria.UC; Criteria.SUC; Criteria.SC ]

let fig1 () =
  let table =
    Table.create ("history" :: List.map Criteria.name fig1_criteria)
  in
  List.iter
    (fun (name, history, expected) ->
      let cells =
        List.map
          (fun c ->
            let got = Set_criteria.holds c history in
            let want = List.assoc c expected in
            verdict_cell ~got ~expected:want)
          fig1_criteria
      in
      Table.add_row table (name :: cells))
    Figures.all;
  table

(* ------------------------------------------------------------------ *)
(* F2: Figure 2 and its PC witnesses                                   *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  let buf = Buffer.create 256 in
  let h = Figures.fig2 in
  Buffer.add_string buf "Figure 2 history:\n";
  Buffer.add_string buf
    (pp_to_string (History.pp Set_spec.pp_update Set_spec.pp_query Set_spec.pp_output) h);
  let module Pc = Check_pc.Make (Set_spec) in
  (match Pc.witness h with
  | None -> Buffer.add_string buf "no PC witness (unexpected!)\n"
  | Some ws ->
    Array.iteri
      (fun p w ->
        Buffer.add_string buf (Printf.sprintf "w%d = " (p + 1));
        List.iter
          (fun (e : _ History.event) ->
            Buffer.add_string buf
              (pp_to_string
                 (Uqadt.pp_operation Set_spec.pp_update Set_spec.pp_query Set_spec.pp_output)
                 e.History.label);
            Buffer.add_string buf "·")
          w;
        Buffer.add_char buf '\n')
      ws);
  let module Ec = Check_ec.Make (Set_spec) in
  Buffer.add_string buf
    (Printf.sprintf "PC: %s (paper: yes)   EC: %s (paper: no)\n"
       (mark (Pc.holds h)) (mark (Ec.holds h)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Common simulation plumbing                                          *)
(* ------------------------------------------------------------------ *)

module Uni_set = Generic.Make (Set_spec)
module Uni_list = Generic_ref.Make (Set_spec)
module Memo_set = Generic.Configured (struct let config = Generic.memo end) (Set_spec)
module Gc_set = Gc.Make (Set_spec)
module Undo_set = Undo.Make (Undoable.Set)
module Pipe_set = Pipelined.Make (Set_spec)
module Uni_reg = Generic.Make (Register_spec)
module Smr_reg = Tob_smr.Make (Register_spec)
module Uni_counter = Generic.Make (Counter_spec)
module Fast_counter = Commutative.Make (Counter_spec)
module Uni_gset = Generic.Make (Gset_spec)
module Fast_gset = Commutative.Make (Gset_spec)

let final_states (type o) (pp : Format.formatter -> o -> unit) (outs : (int * o) list) =
  String.concat " / " (List.map (fun (_, o) -> pp_to_string pp o) outs)

(* Run one set protocol on a script with widely-crossed messages so the
   conflicting updates are genuinely concurrent. *)
let run_set_protocol (module P : Protocol.PROTOCOL
                       with type update = Set_spec.update
                        and type query = Set_spec.query
                        and type output = Set_spec.output) ~seed ~n ~fifo workload =
  let module R = Runner.Make (P) in
  let config =
    {
      (R.default_config ~n ~seed) with
      R.delay = Network.Constant 50.0;
      think = Network.Constant 1.0;
      fifo;
      final_read = Some Set_spec.Read;
    }
  in
  let r = R.run config ~workload in
  (P.protocol_name, r.R.history, r.R.final_outputs, r.R.converged)

(* ------------------------------------------------------------------ *)
(* P1: pipelined convergence is impossible                             *)
(* ------------------------------------------------------------------ *)

let prop1 ~seed =
  let table =
    Table.create [ "protocol"; "final reads"; "converged"; "PC"; "EC"; "UC" ]
  in
  let program = Workload.For_set.fig2_program () in
  let protocols :
      (module Protocol.PROTOCOL
         with type update = Set_spec.update
          and type query = Set_spec.query
          and type output = Set_spec.output)
      list =
    [ (module Pipe_set); (module Uni_set) ]
  in
  List.iter
    (fun p ->
      let name, history, outs, converged = run_set_protocol p ~seed ~n:2 ~fifo:true program in
      Table.add_row table
        [
          name;
          final_states Set_spec.pp_output outs;
          mark converged;
          mark (Set_criteria.holds Criteria.PC history);
          mark (Set_criteria.holds Criteria.EC history);
          mark (Set_criteria.holds Criteria.UC history);
        ])
    protocols;
  table

(* ------------------------------------------------------------------ *)
(* P4: model checking the universal construction                       *)
(* ------------------------------------------------------------------ *)

let prop4_modelcheck () =
  let table =
    Table.create
      [ "protocol"; "object"; "schedules"; "exhaustive"; "UC fails"; "EC fails" ]
  in
  let race =
    [|
      [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_update (Set_spec.Delete 2) ];
      [ Protocol.Invoke_update (Set_spec.Insert 2); Protocol.Invoke_update (Set_spec.Delete 1) ];
    |]
  in
  let row name obj ~executions ~exhaustive ~failures =
    Table.add_row table
      [
        name;
        obj;
        string_of_int executions;
        mark exhaustive;
        string_of_int (List.assoc Criteria.UC failures);
        string_of_int (List.assoc Criteria.EC failures);
      ]
  in
  (let module M = Explore.Make (Uni_set) in
   let r = M.explore ~scripts:race ~final_read:Set_spec.Read () in
   row "universal (Alg.1)" "set" ~executions:r.M.executions ~exhaustive:r.M.exhaustive
     ~failures:r.M.failures);
  (let module M = Explore.Make (Lww_memory) in
   let scripts =
     [|
       [ Protocol.Invoke_update (Memory_spec.Write (0, 1));
         Protocol.Invoke_update (Memory_spec.Write (1, 1)) ];
       [ Protocol.Invoke_update (Memory_spec.Write (0, 2)) ];
     |]
   in
   let r = M.explore ~scripts ~final_read:(Memory_spec.Read 0) () in
   row "lww-memory (Alg.2)" "memory" ~executions:r.M.executions ~exhaustive:r.M.exhaustive
     ~failures:r.M.failures);
  (let module M = Explore.Make (Fast_counter) in
   let scripts =
     [|
       [ Protocol.Invoke_update (Counter_spec.Add 2);
         Protocol.Invoke_update (Counter_spec.Add (-1)) ];
       [ Protocol.Invoke_update (Counter_spec.Add 5) ];
     |]
   in
   let r = M.explore ~scripts ~final_read:Counter_spec.Value () in
   row "crdt-fastpath" "counter" ~executions:r.M.executions ~exhaustive:r.M.exhaustive
     ~failures:r.M.failures);
  (let module M = Explore.Make (Pipe_set) in
   let r = M.explore ~scripts:race ~final_read:Set_spec.Read () in
   row "pipelined (counterexample)" "set" ~executions:r.M.executions ~exhaustive:r.M.exhaustive
     ~failures:r.M.failures);
  table

(* ------------------------------------------------------------------ *)
(* T6: the Section VI set comparison                                   *)
(* ------------------------------------------------------------------ *)

let set_comparison ~seed =
  let table =
    Table.create [ "scenario"; "protocol"; "final state(s)"; "converged"; "UC" ]
  in
  let scenarios =
    [
      ("concurrent I/D race (Fig.1b)", Workload.For_set.insert_delete_race ~n:2);
      ( "delete then re-insert",
        [|
          [
            Protocol.Invoke_update (Set_spec.Insert 1);
            Protocol.Invoke_update (Set_spec.Delete 1);
            Protocol.Invoke_update (Set_spec.Insert 1);
          ];
          [];
        |] );
      ( "delete absent, then insert",
        [|
          [
            Protocol.Invoke_update (Set_spec.Delete 5);
            Protocol.Invoke_update (Set_spec.Insert 5);
          ];
          [];
        |] );
    ]
  in
  let protocols :
      (module Protocol.PROTOCOL
         with type update = Set_spec.update
          and type query = Set_spec.query
          and type output = Set_spec.output)
      list =
    [
      (module Uni_set);
      (module Orset_crdt);
      (module Twopset_crdt.Protocol_impl);
      (module Lwwset_crdt);
      (module Pnset_crdt);
    ]
  in
  List.iter
    (fun (scenario, workload) ->
      List.iter
        (fun p ->
          let name, history, outs, converged =
            run_set_protocol p ~seed ~n:2 ~fifo:false workload
          in
          Table.add_row table
            [
              scenario;
              name;
              final_states Set_spec.pp_output outs;
              mark converged;
              mark (Set_criteria.holds Criteria.UC history);
            ])
        protocols;
      Table.add_sep table)
    scenarios;
  table

(* ------------------------------------------------------------------ *)
(* T7: the empirical protocol × criteria matrix                        *)
(* ------------------------------------------------------------------ *)

module Smr_set = Tob_smr.Make (Set_spec)

let protocol_criteria ~seed =
  let table =
    Table.create [ "protocol"; "converged"; "EC"; "UC"; "SUC"; "PC"; "SC" ]
  in
  (* The Fig. 1b race: every pair of processes has a crossing
     insert/delete conflict — the scenario on which the criteria
     actually separate. *)
  let program = Workload.For_set.insert_delete_race ~n:2 in
  let protocols :
      (bool
      * (module Protocol.PROTOCOL
           with type update = Set_spec.update
            and type query = Set_spec.query
            and type output = Set_spec.output))
      list =
    [
      (false, (module Uni_set));
      (false, (module Orset_crdt));
      (false, (module Twopset_crdt.Protocol_impl));
      (false, (module Lwwset_crdt));
      (false, (module Pnset_crdt));
      (true, (module Pipe_set));
      (true, (module Smr_set));
    ]
  in
  List.iter
    (fun (fifo, p) ->
      let name, history, _, converged = run_set_protocol p ~seed ~n:2 ~fifo program in
      let v c = mark (Set_criteria.holds c history) in
      Table.add_row table
        [
          name;
          mark converged;
          v Criteria.EC;
          v Criteria.UC;
          v Criteria.SUC;
          v Criteria.PC;
          v Criteria.SC;
        ])
    protocols;
  table

(* ------------------------------------------------------------------ *)
(* T6b: invariant preservation (bank vs commutative balance)           *)
(* ------------------------------------------------------------------ *)

let invariant_preservation ~seed =
  let table =
    Table.create [ "object"; "scenario"; "final balance(s)"; "overdraft?" ]
  in
  (* Two branches withdraw 80 from a shared 100, concurrently. *)
  (let module Cnt = Runner.Make (Counters.Pncounter) in
   let config =
     {
       (Cnt.default_config ~n:2 ~seed) with
       Cnt.delay = Network.Constant 50.0;
       think = Network.Constant 1.0;
       final_read = Some Counter_spec.Value;
     }
   in
   let r =
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
   Table.add_row table
     [
       "pn-counter balance";
       "2× withdraw 80 of 100";
       String.concat " / " (List.map (fun (_, v) -> string_of_int v) r.Cnt.final_outputs);
       mark (List.exists (fun (_, v) -> v < 0) r.Cnt.final_outputs);
     ]);
  (let module Bank = Runner.Make (Generic.Make (Bank_spec)) in
   let config =
     {
       (Bank.default_config ~n:2 ~seed) with
       Bank.delay = Network.Constant 50.0;
       think = Network.Constant 1.0;
       final_read = Some (Bank_spec.Balance 0);
     }
   in
   let r =
     Bank.run config
       ~workload:
         [|
           [
             Protocol.Invoke_update (Bank_spec.Deposit (0, 100));
             Protocol.Invoke_update (Bank_spec.Withdraw (0, 80));
           ];
           [ Protocol.Invoke_update (Bank_spec.Withdraw (0, 80)) ];
         |]
   in
   Table.add_row table
     [
       "universal bank (Alg.1)";
       "2× withdraw 80 of 100";
       String.concat " / " (List.map (fun (_, v) -> string_of_int v) r.Bank.final_outputs);
       mark (List.exists (fun (_, v) -> v < 0) r.Bank.final_outputs);
     ]);
  table

(* ------------------------------------------------------------------ *)
(* C1: message complexity                                              *)
(* ------------------------------------------------------------------ *)

let message_complexity ~seed =
  let table =
    Table.create ~aligns:[ Table.Left; Right; Right; Right; Right ]
      [ "protocol"; "n"; "updates"; "msgs/update"; "bytes/msg" ]
  in
  let run_one (module P : Protocol.PROTOCOL
                with type update = Set_spec.update
                 and type query = Set_spec.query
                 and type output = Set_spec.output) ~n ~ops =
    let rng = Prng.create (seed + n + ops) in
    let workload =
      Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:16 ~skew:1.0
        ~delete_ratio:0.3
    in
    let module R = Runner.Make (P) in
    let config = { (R.default_config ~n ~seed) with R.final_read = Some Set_spec.Read } in
    let r = R.run config ~workload in
    let m = r.R.metrics in
    Table.add_row table
      [
        P.protocol_name;
        string_of_int n;
        string_of_int m.Metrics.updates_invoked;
        Printf.sprintf "%.1f"
          (float_of_int m.Metrics.messages_sent /. float_of_int m.Metrics.updates_invoked);
        Printf.sprintf "%.1f"
          (float_of_int m.Metrics.bytes_sent /. float_of_int (max 1 m.Metrics.messages_sent));
      ]
  in
  let protocols :
      (module Protocol.PROTOCOL
         with type update = Set_spec.update
          and type query = Set_spec.query
          and type output = Set_spec.output)
      list =
    [ (module Uni_set); (module Orset_crdt); (module Twopset_crdt.Protocol_impl) ]
  in
  List.iter
    (fun (module P : Protocol.PROTOCOL
           with type update = Set_spec.update
            and type query = Set_spec.query
            and type output = Set_spec.output) ->
      List.iter (fun n -> run_one (module P) ~n ~ops:64) [ 2; 4; 8; 16; 32 ];
      List.iter (fun ops -> run_one (module P) ~n:3 ~ops) [ 256; 1024 ];
      Table.add_sep table)
    protocols;
  table

(* ------------------------------------------------------------------ *)
(* C2: query cost (replay work)                                        *)
(* ------------------------------------------------------------------ *)

let query_cost ~seed =
  let table =
    Table.create ~aligns:[ Table.Left; Right; Right; Right ]
      [ "protocol"; "log updates"; "queries"; "replay steps/query" ]
  in
  let run_one (module P : Protocol.PROTOCOL
                with type update = Set_spec.update
                 and type query = Set_spec.query
                 and type output = Set_spec.output) ~updates =
    let rng = Prng.create (seed + updates) in
    let module G = Workload.Make (Set_spec) in
    let workload = G.query_heavy ~rng ~n:3 ~updates ~queries_per_process:50 in
    let module R = Runner.Make (P) in
    let config = { (R.default_config ~n:3 ~seed) with R.final_read = Some Set_spec.Read } in
    let r = R.run config ~workload in
    let m = r.R.metrics in
    Table.add_row table
      [
        P.protocol_name;
        string_of_int updates;
        string_of_int m.Metrics.queries_invoked;
        Printf.sprintf "%.1f"
          (float_of_int m.Metrics.replay_steps /. float_of_int (max 1 m.Metrics.queries_invoked));
      ]
  in
  let protocols :
      (module Protocol.PROTOCOL
         with type update = Set_spec.update
          and type query = Set_spec.query
          and type output = Set_spec.output)
      list =
    [ (module Uni_list); (module Uni_set); (module Memo_set); (module Undo_set) ]
  in
  List.iter
    (fun p ->
      List.iter (fun updates -> run_one p ~updates) [ 50; 200; 800 ];
      Table.add_sep table)
    protocols;
  (* Algorithm 2 never replays at all. *)
  let rng = Prng.create seed in
  let workload =
    Workload.For_memory.random_writes ~rng ~n:3 ~ops_per_process:300 ~registers:8
      ~read_ratio:0.5
  in
  let module R = Runner.Make (Lww_memory) in
  let config = { (R.default_config ~n:3 ~seed) with R.final_read = Some (Memory_spec.Read 0) } in
  let r = R.run config ~workload in
  let m = r.R.metrics in
  Table.add_row table
    [
      "lww-memory (Alg.2)";
      string_of_int m.Metrics.updates_invoked;
      string_of_int m.Metrics.queries_invoked;
      Printf.sprintf "%.1f"
        (float_of_int m.Metrics.replay_steps /. float_of_int (max 1 m.Metrics.queries_invoked));
    ];
  table

(* ------------------------------------------------------------------ *)
(* C3: log GC                                                          *)
(* ------------------------------------------------------------------ *)

let log_gc ~seed =
  let table =
    Table.create ~aligns:[ Table.Left; Left; Right; Right; Right ]
      [ "protocol"; "faults"; "updates"; "final log entries"; "metadata bytes" ]
  in
  let run_one (module P : Protocol.PROTOCOL
                with type update = Set_spec.update
                 and type query = Set_spec.query
                 and type output = Set_spec.output) ~crash =
    let rng = Prng.create seed in
    let workload =
      Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:200 ~domain:16 ~skew:1.0
        ~delete_ratio:0.3
    in
    let module R = Runner.Make (P) in
    let config =
      {
        (R.default_config ~n:3 ~seed) with
        R.fifo = true;
        final_read = Some Set_spec.Read;
        crashes = (if crash then [ (300.0, 2) ] else []);
      }
    in
    let r = R.run config ~workload in
    let mean xs = List.fold_left ( + ) 0 (List.map snd xs) / max 1 (List.length xs) in
    Table.add_row table
      [
        P.protocol_name;
        (if crash then "p2 crashes" else "none");
        string_of_int r.R.metrics.Metrics.updates_invoked;
        string_of_int (mean r.R.log_lengths);
        string_of_int (mean r.R.metadata_bytes);
      ]
  in
  run_one (module Uni_set) ~crash:false;
  run_one (module Gc_set) ~crash:false;
  run_one (module Uni_set) ~crash:true;
  run_one (module Gc_set) ~crash:true;
  table

(* ------------------------------------------------------------------ *)
(* C4: latency vs round-trip time                                      *)
(* ------------------------------------------------------------------ *)

let latency_vs_rtt ~seed =
  let table =
    Table.create ~aligns:[ Table.Left; Right; Right; Right ]
      [ "protocol"; "one-way delay"; "mean op latency"; "p99 op latency" ]
  in
  let run_one (module P : Protocol.PROTOCOL
                with type update = Register_spec.update
                 and type query = Register_spec.query
                 and type output = Register_spec.output) ~d =
    let rng = Prng.create (seed + int_of_float d) in
    let module G = Workload.Make (Register_spec) in
    let workload = G.mixed ~rng ~n:3 ~ops_per_process:40 ~query_ratio:0.5 in
    let module R = Runner.Make (P) in
    let config =
      {
        (R.default_config ~n:3 ~seed) with
        R.delay = Network.Constant d;
        fifo = true;  (* harmless for the wait-free rows, required by SMR *)
        final_read = Some Register_spec.Read;
      }
    in
    let r = R.run config ~workload in
    let s =
      Stats.summarize
        (if Float.Array.length r.R.op_latencies = 0 then [ 0.0 ]
         else Float.Array.to_list r.R.op_latencies)
    in
    Table.add_row table
      [
        P.protocol_name;
        Printf.sprintf "%.0f" d;
        Printf.sprintf "%.1f" s.Stats.mean;
        Printf.sprintf "%.1f" s.Stats.p99;
      ]
  in
  let protocols :
      (module Protocol.PROTOCOL
         with type update = Register_spec.update
          and type query = Register_spec.query
          and type output = Register_spec.output)
      list =
    [ (module Uni_reg); (module Registers.Lwwreg); (module Abd); (module Smr_reg) ]
  in
  List.iter
    (fun p ->
      List.iter (fun d -> run_one p ~d) [ 1.0; 5.0; 25.0; 125.0 ];
      Table.add_sep table)
    protocols;
  table

(* ------------------------------------------------------------------ *)
(* C4b: availability under partition                                   *)
(* ------------------------------------------------------------------ *)

let availability ~seed =
  let table =
    Table.create
      [ "protocol"; "partition"; "ops completed"; "ops stalled"; "converged after heal" ]
  in
  let run_one (module P : Protocol.PROTOCOL
                with type update = Register_spec.update
                 and type query = Register_spec.query
                 and type output = Register_spec.output) ~heals =
    let rng = Prng.create seed in
    let module G = Workload.Make (Register_spec) in
    let workload = G.mixed ~rng ~n:3 ~ops_per_process:20 ~query_ratio:0.5 in
    let module R = Runner.Make (P) in
    let to_time = if heals then 500.0 else 1e12 in
    let config =
      {
        (R.default_config ~n:3 ~seed) with
        R.partitions = [ { Network.from_time = 10.0; to_time; group = [ 0 ] } ];
        fifo = true;
        final_read = Some Register_spec.Read;
        deadline = 1e6;
      }
    in
    let r = R.run config ~workload in
    Table.add_row table
      [
        P.protocol_name;
        (if heals then "heals at t=500" else "permanent");
        string_of_int r.R.metrics.Metrics.ops_completed;
        string_of_int r.R.metrics.Metrics.ops_incomplete;
        mark r.R.converged;
      ]
  in
  run_one (module Uni_reg) ~heals:true;
  run_one (module Abd) ~heals:true;
  run_one (module Smr_reg) ~heals:true;
  run_one (module Uni_reg) ~heals:false;
  run_one (module Abd) ~heals:false;
  run_one (module Smr_reg) ~heals:false;
  table

(* ------------------------------------------------------------------ *)
(* C5: the CRDT fast path                                              *)
(* ------------------------------------------------------------------ *)

let crdt_fastpath ~seed =
  let table =
    Table.create ~aligns:[ Table.Left; Right; Right; Right; Right ]
      [ "protocol"; "msgs/update"; "bytes/msg"; "replay/query"; "converged" ]
  in
  let run_one (module P : Protocol.PROTOCOL
                with type update = Counter_spec.update
                 and type query = Counter_spec.query
                 and type output = Counter_spec.output) =
    let rng = Prng.create seed in
    let module G = Workload.Make (Counter_spec) in
    let workload = G.mixed ~rng ~n:4 ~ops_per_process:100 ~query_ratio:0.25 in
    let module R = Runner.Make (P) in
    let config = { (R.default_config ~n:4 ~seed) with R.final_read = Some Counter_spec.Value } in
    let r = R.run config ~workload in
    let m = r.R.metrics in
    Table.add_row table
      [
        P.protocol_name;
        Printf.sprintf "%.1f"
          (float_of_int m.Metrics.messages_sent /. float_of_int (max 1 m.Metrics.updates_invoked));
        Printf.sprintf "%.1f"
          (float_of_int m.Metrics.bytes_sent /. float_of_int (max 1 m.Metrics.messages_sent));
        Printf.sprintf "%.1f"
          (float_of_int m.Metrics.replay_steps /. float_of_int (max 1 m.Metrics.queries_invoked));
        mark r.R.converged;
      ]
  in
  run_one (module Uni_counter);
  run_one (module Fast_counter);
  run_one (module Counters.Pncounter);
  table

(* ------------------------------------------------------------------ *)
(* C6: online monitors — how early is a violation caught?              *)
(* ------------------------------------------------------------------ *)

(* Post-hoc checking sees a violation only once the run is over (100%
   of the journal); an online monitor names the first violating event
   as it happens. Algorithm 1 stays clean end to end; the non-FIFO
   pipelined replica is caught mid-journal. For pipelined the driver
   scans a few seeds from [seed] for a violating schedule, like the
   nemesis experiments do. *)
let monitor_latency ~seed =
  let table =
    Table.create ~aligns:[ Table.Left; Right; Right; Right; Left; Left ]
      [
        "protocol";
        "journal events";
        "first violation";
        "caught at";
        "criterion";
        "post-hoc PC/UC";
      ]
  in
  let run_one (module P : Protocol.PROTOCOL
                with type update = Set_spec.update
                 and type query = Set_spec.query
                 and type output = Set_spec.output) seed =
    let module R = Runner.Make (P) in
    let journal = Obs.Journal.create () in
    let obs = Obs.create ~journal () in
    let mon =
      R.Mon.create ~n:3
        ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec; Obs.Monitor.Pc ]
    in
    let rng = Prng.create seed in
    let workload =
      Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:4 ~domain:16
        ~skew:1.0 ~delete_ratio:0.3
    in
    let config =
      {
        (R.default_config ~n:3 ~seed) with
        R.final_read = Some Set_spec.Read;
        obs = Some obs;
        monitor = Some mon;
      }
    in
    let r = R.run config ~workload in
    (journal, R.Mon.first_violation mon, r.R.history)
  in
  let add_row name (journal, violation, history) =
    let events = Obs.Journal.length journal in
    let posthoc =
      Printf.sprintf "%s/%s"
        (mark (Set_criteria.holds Criteria.PC history))
        (mark (Set_criteria.holds Criteria.UC history))
    in
    match violation with
    | None ->
      Table.add_row table
        [ name; string_of_int events; "-"; "-"; "clean"; posthoc ]
    | Some (v : Obs.Monitor.violation) ->
      Table.add_row table
        [
          name;
          string_of_int events;
          string_of_int v.Obs.Monitor.index;
          Printf.sprintf "%.0f%%"
            (100.0 *. float_of_int (v.Obs.Monitor.index + 1)
            /. float_of_int (max 1 events));
          Obs.Monitor.criterion_name v.Obs.Monitor.criterion;
          posthoc;
        ]
  in
  add_row "universal" (run_one (module Uni_set) seed);
  let rec violating k =
    let result = run_one (module Pipe_set) (seed + k) in
    let _, violation, _ = result in
    if violation <> None || k >= 7 then result else violating (k + 1)
  in
  add_row "pipelined" (violating 0);
  table

(* ------------------------------------------------------------------ *)
(* A1: undo-based repair vs full replay under late messages            *)
(* ------------------------------------------------------------------ *)

let undo_ablation ~seed =
  let table =
    Table.create ~aligns:[ Table.Left; Left; Right; Right ]
      [ "protocol"; "delay model"; "total replay steps"; "converged" ]
  in
  let delays =
    [
      ("uniform 1-10", Network.Uniform { lo = 1.0; hi = 10.0 });
      ("exponential mean 10", Network.Exponential { mean = 10.0 });
      ("pareto heavy tail", Network.Pareto { scale = 2.0; shape = 1.1 });
    ]
  in
  let run_one (module P : Protocol.PROTOCOL
                with type update = Set_spec.update
                 and type query = Set_spec.query
                 and type output = Set_spec.output) (dname, delay) =
    let rng = Prng.create seed in
    let module G = Workload.Make (Set_spec) in
    let workload = G.mixed ~rng ~n:4 ~ops_per_process:150 ~query_ratio:0.3 in
    let module R = Runner.Make (P) in
    let config =
      { (R.default_config ~n:4 ~seed) with R.delay; final_read = Some Set_spec.Read }
    in
    let r = R.run config ~workload in
    Table.add_row table
      [
        P.protocol_name;
        dname;
        string_of_int r.R.metrics.Metrics.replay_steps;
        mark r.R.converged;
      ]
  in
  List.iter
    (fun d ->
      run_one (module Uni_set) d;
      run_one (module Memo_set) d;
      run_one (module Undo_set) d;
      Table.add_sep table)
    delays;
  table

(* ------------------------------------------------------------------ *)
(* A2: convergence lag across network conditions                       *)
(* ------------------------------------------------------------------ *)

(* One update-only run of Algorithm 1 on the set under the Runner's
   convergence probe, drained to the end (no deadline). With a zero
   interval the probe samples after every update invocation and every
   delivered message; the fingerprint is a replica's answer to a read,
   so a sample is divergent when two replicas answer differently. The
   probe's last sample is the forced one at quiescence, which is not
   counted. Returns the lag from the last update's invocation to the
   last divergent sample (0 if none came later), the divergent samples
   and all samples. *)
let convergence_window ~seed ~delay ~partitions ~workload =
  let module R = Runner.Make (Uni_set) in
  let obs = Obs.create () in
  let fingerprint r =
    let answer = ref "" in
    Uni_set.query r Set_spec.Read ~on_result:(fun o ->
        answer := pp_to_string Set_spec.pp_output o);
    !answer
  in
  let config =
    {
      (R.default_config ~n:3 ~seed) with
      R.delay;
      partitions;
      deadline = Float.infinity;
      obs = Some obs;
      probe_interval = Some 0.0;
      fingerprint = Some fingerprint;
    }
  in
  let r = R.run config ~workload in
  let samples = List.rev (List.tl (List.rev (Obs.divergence_series obs))) in
  let divergent = List.filter (fun (_, distinct) -> distinct > 1) samples in
  let last_divergence = List.fold_left (fun _ (time, _) -> time) 0.0 divergent in
  let last_update =
    List.fold_left
      (fun acc (e : _ History.event) ->
        Float.max acc (Float.Array.get r.R.intervals.Check_lin.starts e.History.id))
      0.0 (History.updates r.R.history)
  in
  (Float.max 0.0 (last_divergence -. last_update), List.length divergent, List.length samples)

let convergence_sweep ~seed =
  let table =
    Table.create ~aligns:[ Table.Left; Right; Right; Right ]
      [ "network"; "convergence lag"; "divergent probes"; "probes" ]
  in
  let cases =
    [
      ("constant 5", Network.Constant 5.0, []);
      ("uniform 1-10", Network.Uniform { lo = 1.0; hi = 10.0 }, []);
      ("exponential mean 10", Network.Exponential { mean = 10.0 }, []);
      ("pareto heavy tail", Network.Pareto { scale = 2.0; shape = 1.1 }, []);
      ( "uniform + partition [50,400]",
        Network.Uniform { lo = 1.0; hi = 10.0 },
        [ { Network.from_time = 50.0; to_time = 400.0; group = [ 0 ] } ] );
    ]
  in
  List.iter
    (fun (name, delay, partitions) ->
      let rng = Prng.create seed in
      let workload =
        Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:60 ~domain:8 ~skew:1.0
          ~delete_ratio:0.3
      in
      let lag, divergent, probes = convergence_window ~seed ~delay ~partitions ~workload in
      Table.add_row table
        [ name; Printf.sprintf "%.1f" lag; string_of_int divergent; string_of_int probes ])
    cases;
  table

(* ------------------------------------------------------------------ *)
(* S1: client sessions and fail-over                                   *)
(* ------------------------------------------------------------------ *)

let sessions ~seed =
  let module Cl = Clients.Make (Uni_set) in
  let table =
    Table.create
      [ "scenario"; "failovers"; "ops completed"; "converged"; "UC"; "PC" ]
  in
  let row name config workload =
    let r = Cl.run config ~workload in
    Table.add_row table
      [
        name;
        string_of_int r.Cl.failovers;
        string_of_int r.Cl.ops_completed;
        mark r.Cl.converged;
        mark (Set_criteria.holds Criteria.UC r.Cl.history);
        mark (Set_criteria.holds Criteria.PC r.Cl.history);
      ]
  in
  let upd u = Protocol.Invoke_update u and qry = Protocol.Invoke_query Set_spec.Read in
  row "no faults"
    { (Cl.default_config ~n_replicas:3 ~n_clients:2 ~seed) with
      Cl.final_read = Some Set_spec.Read }
    [| [ upd (Set_spec.Insert 1); qry ]; [ upd (Set_spec.Insert 2); qry ] |];
  row "replica crash, fail-over"
    {
      (Cl.default_config ~n_replicas:3 ~n_clients:2 ~seed) with
      Cl.crashes = [ (10.0, 0) ];
      think = Network.Constant 6.0;
      final_read = Some Set_spec.Read;
    }
    [| [ upd (Set_spec.Insert 1); qry; qry ]; [ upd (Set_spec.Insert 2); qry ] |];
  row "crash + slow mesh (session rollback)"
    {
      (Cl.default_config ~n_replicas:2 ~n_clients:1 ~seed:7) with
      Cl.replica_delay = Network.Constant 500.0;
      client_delay = Network.Constant 0.25;
      think = Network.Constant 3.0;
      crashes = [ (11.0, 0) ];
      final_read = Some Set_spec.Read;
    }
    [| [ upd (Set_spec.Insert 7); qry; qry; qry ] |];
  table

(* ------------------------------------------------------------------ *)
(* A3: distribution of the inconsistency window                        *)
(* ------------------------------------------------------------------ *)

let divergence_distribution ~seed =
  let samples =
    List.init 200 (fun i ->
        let seed = seed + i in
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:20 ~domain:8 ~skew:1.0
            ~delete_ratio:0.3
        in
        let lag, _, _ =
          convergence_window ~seed ~delay:(Network.Exponential { mean = 10.0 })
            ~partitions:[] ~workload
        in
        lag)
  in
  let summary = Stats.summarize samples in
  Format.asprintf
    "convergence lag after the last update, 200 runs (exp. delays, mean 10):@.%a@.%a"
    Stats.pp_summary summary Stats.pp_histogram
    (Stats.histogram ~buckets:10 samples)

let all ?(markdown = false) ~seed () =
  let render = if markdown then Table.render_markdown else Table.render in
  [
    ("F1", "Figure 1: consistency-criteria matrix", render (fig1 ()));
    ("F2", "Figure 2: PC but not EC", fig2 ());
    ("P1", "Proposition 1: pipelined convergence is impossible wait-free", render (prop1 ~seed));
    ("P4", "Proposition 4: exhaustive model check", render (prop4_modelcheck ()));
    ("T6", "Section VI: set semantics under conflict", render (set_comparison ~seed));
    ( "T6b",
      "Invariant preservation: overdraft protection",
      render (invariant_preservation ~seed) );
    ("T7", "Empirical protocol × criteria matrix", render (protocol_criteria ~seed));
    ("S1", "Client sessions and fail-over", render (sessions ~seed));
    ("C1", "Message complexity", render (message_complexity ~seed));
    ("C2", "Query replay cost", render (query_cost ~seed));
    ("C3", "Log growth and stability GC", render (log_gc ~seed));
    ("C4", "Operation latency vs network delay", render (latency_vs_rtt ~seed));
    ("C4b", "Availability under partition", render (availability ~seed));
    ("C5", "CRDT fast path", render (crdt_fastpath ~seed));
    ("C6", "Online monitor detection latency", render (monitor_latency ~seed));
    ("A1", "Undo-based repair vs replay", render (undo_ablation ~seed));
    ("A2", "Convergence lag across networks", render (convergence_sweep ~seed));
    ("A3", "Distribution of the inconsistency window", divergence_distribution ~seed);
  ]
