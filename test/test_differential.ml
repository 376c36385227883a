(* Differential testing: the optimized checkers against brute-force
   reference implementations on random small histories. A bug in the
   memoized searches would show up as a divergence from the naive
   enumeration long before it corrupted an experiment table. *)

open Helpers

module Gen = Gen_history.Make (Set_spec)
module Run = Uqadt.Run (Set_spec)
module Uc = Check_uc.Make (Set_spec)
module Sc = Check_sc.Make (Set_spec)
module L = Linearize.Make (Set_spec)

(* UC by definition: enumerate every linear extension of the update
   program order and test the ω reads against each final state. *)
let uc_brute_force h =
  let updates = Array.of_list (History.updates h) in
  let omegas = List.filter_map History.query_of (History.omega_queries h) in
  let dag = History.update_dag h in
  Dag.linear_extensions dag (fun order ->
      let word =
        List.map
          (fun r -> Option.get (History.update_of updates.(r)))
          (Array.to_list order)
      in
      let final = Run.final_state word in
      List.for_all
        (fun (qi, qo) -> Set_spec.equal_output (Set_spec.eval final qi) qo)
        omegas)

(* SC by definition: enumerate linear extensions of the full program
   order (with ω events syntactically last per process, which the
   encoding guarantees) and replay each completely. *)
let sc_brute_force h =
  let events = Array.of_list (History.events h) in
  let dag = History.po_dag h in
  Dag.linear_extensions dag (fun order ->
      L.recognizes_events (List.map (fun i -> events.(i)) (Array.to_list order)))

(* ---------------- protocol-vs-protocol differential ---------------- *)

(* Lockstep mesh: one abstract schedule — invocations interleaved with
   single-message FIFO flushes — executed against different protocol
   implementations of the same object, comparing every query answer.
   The schedule is precomputed so each protocol sees the identical
   delivery pattern; per-(src,dst) FIFO queues model the channel
   discipline Gc requires. *)
type mesh_action = Act_invoke of int | Act_flush of int * int  (* src, dst *)

let random_mesh rng ~n ~max_ops =
  let ops = Array.init n (fun _ -> 1 + Prng.int rng max_ops) in
  let remaining = Array.copy ops in
  let actions = ref [] in
  let total = Array.fold_left ( + ) 0 ops in
  for _ = 1 to total do
    (* Pick a process that still has operations, then maybe flush. *)
    let live =
      List.filter (fun p -> remaining.(p) > 0) (List.init n Fun.id)
    in
    let p = List.nth live (Prng.int rng (List.length live)) in
    remaining.(p) <- remaining.(p) - 1;
    actions := Act_invoke p :: !actions;
    for _ = 1 to Prng.int rng 3 do
      let src = Prng.int rng n and dst = Prng.int rng n in
      if src <> dst then actions := Act_flush (src, dst) :: !actions
    done
  done;
  (ops, List.rev !actions)

(* Run one protocol over the schedule; returns every query answer, in
   invocation order, per process (including a final read each). *)
let run_mesh (type u q o m t)
    (module P : Protocol.PROTOCOL
      with type update = u
       and type query = q
       and type output = o
       and type message = m
       and type t = t) ~n ~invocations ~actions ~final_read =
  let channels = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ())) in
  let replicas =
    Array.init n (fun pid ->
        P.create
          {
            Protocol.pid;
            n;
            now = (fun () -> 0.0);
            send = (fun ~dst m -> Queue.add m channels.(pid).(dst));
            broadcast =
              (fun m ->
                for dst = 0 to n - 1 do
                  if dst <> pid then Queue.add m channels.(pid).(dst)
                done);
            broadcast_batch =
              (fun ms ->
                List.iter
                  (fun m ->
                    for dst = 0 to n - 1 do
                      if dst <> pid then Queue.add m channels.(pid).(dst)
                    done)
                  ms);
            set_timer = (fun ~delay:_ _ -> ());
            count_replay = (fun _ -> ());
            obs = None;
          })
  in
  let outputs = Array.make n [] in
  let scripts = Array.map (fun l -> ref l) invocations in
  let flush src dst =
    if not (Queue.is_empty channels.(src).(dst)) then
      P.receive replicas.(dst) ~src (Queue.pop channels.(src).(dst))
  in
  List.iter
    (function
      | Act_invoke p -> (
        match !(scripts.(p)) with
        | [] -> ()
        | inv :: rest -> (
          scripts.(p) := rest;
          match inv with
          | Protocol.Invoke_update u -> P.update replicas.(p) u ~on_done:ignore
          | Protocol.Invoke_query q ->
            P.query replicas.(p) q ~on_result:(fun o ->
                outputs.(p) <- o :: outputs.(p))))
      | Act_flush (src, dst) -> flush src dst)
    actions;
  (* Drain rounds: receives may emit further messages (heartbeats), so
     loop until the whole mesh is quiet. *)
  let quiet = ref false in
  while not !quiet do
    quiet := true;
    Array.iteri
      (fun src row ->
        Array.iteri
          (fun dst q ->
            if not (Queue.is_empty q) then begin
              quiet := false;
              flush src dst
            end)
          row)
      channels
  done;
  Array.iteri
    (fun p r ->
      P.query r final_read ~on_result:(fun o -> outputs.(p) <- o :: outputs.(p)))
    replicas;
  Array.map List.rev outputs

module G_set = Generic.Make (Set_spec)
module Gref_set = Generic_ref.Make (Set_spec)
module Memo_set = Generic.Configured (struct let config = Generic.memo end) (Set_spec)
module Gc_set = Gc.Make (Set_spec)
module Undo_set = Undo.Make (Undoable.Set)
module G_counter = Generic.Make (Counter_spec)
module Gref_counter = Generic_ref.Make (Counter_spec)
module Memo_counter = Generic.Configured (struct let config = Generic.memo end) (Counter_spec)
module Fast_counter = Commutative.Make (Counter_spec)

(* Gc only matches Generic exactly while no heartbeat fires: a replica
   heartbeats after [heartbeat_every = 8] receives without sending, and
   heartbeats perturb the Lamport clocks. n=3 with at most 3 updates per
   process keeps every replica below 7 incoming messages. *)
let set_mesh seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 2 in
  let ops, actions = random_mesh rng ~n ~max_ops:3 in
  let invocations =
    Array.map
      (fun k ->
        List.init k (fun _ ->
            if Prng.int rng 4 = 0 then Protocol.Invoke_query Set_spec.Read
            else Protocol.Invoke_update (Set_spec.random_update rng)))
      ops
  in
  (n, invocations, actions)

let counter_mesh seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 2 in
  let ops, actions = random_mesh rng ~n ~max_ops:3 in
  let invocations =
    Array.map
      (fun k ->
        List.init k (fun _ ->
            if Prng.int rng 4 = 0 then Protocol.Invoke_query Counter_spec.Value
            else Protocol.Invoke_update (Counter_spec.random_update rng)))
      ops
  in
  (n, invocations, actions)

(* Compare per-process answer streams with the spec's output equality,
   not polymorphic (=): incremental protocols (Undo) reach the same set
   through a different sequence of adds/removes than a replay from
   initial, and Stdlib.Set trees with equal elements can differ in
   shape. *)
let outputs_equal equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (List.equal equal) a b

let differential_protocol_tests =
  let set_equal name (module P : Protocol.PROTOCOL
                       with type update = Set_spec.update
                        and type query = Set_spec.query
                        and type output = Set_spec.output) =
    qtest ~count:120
      (Printf.sprintf "%s answers every query like Algorithm 1 (set)" name)
      seed_gen
      (fun seed ->
        let n, invocations, actions = set_mesh seed in
        let reference =
          run_mesh (module G_set) ~n ~invocations ~actions
            ~final_read:Set_spec.Read
        in
        let candidate =
          run_mesh (module P) ~n ~invocations ~actions ~final_read:Set_spec.Read
        in
        outputs_equal Set_spec.equal_output reference candidate)
  in
  let counter_equal name (module P : Protocol.PROTOCOL
                           with type update = Counter_spec.update
                            and type query = Counter_spec.query
                            and type output = Counter_spec.output) =
    qtest ~count:120
      (Printf.sprintf "%s answers every query like Algorithm 1 (counter)" name)
      seed_gen
      (fun seed ->
        let n, invocations, actions = counter_mesh seed in
        let reference =
          run_mesh (module G_counter) ~n ~invocations ~actions
            ~final_read:Counter_spec.Value
        in
        let candidate =
          run_mesh (module P) ~n ~invocations ~actions
            ~final_read:Counter_spec.Value
        in
        outputs_equal Counter_spec.equal_output reference candidate)
  in
  [
    set_equal "Seed list core" (module Gref_set);
    set_equal "Memo" (module Memo_set);
    set_equal "Gc (heartbeat-free sizes)" (module Gc_set);
    set_equal "Undo" (module Undo_set);
    counter_equal "Seed list core" (module Gref_counter);
    counter_equal "Memo" (module Memo_counter);
    counter_equal "CRDT fast path" (module Fast_counter);
  ]

(* ------------- oplog core vs seed list core, full Runner ------------- *)

(* The two Generic cores exchange byte-identical messages, so under one
   seed the network draws the same delays for both and the two runs
   execute the very same schedule: every observable of the run —
   history, certificates, final reads — must be equal, not merely
   convergent. This is the end-to-end differential for the oplog
   refactor (binary-search insert + interval checkpoints vs the seed
   cons-scan + full replay). *)
let run_generic_core
    (module P : Generic.S
      with type update = Set_spec.update
       and type query = Set_spec.query
       and type output = Set_spec.output
       and type state = Set_spec.state) ~seed ~fifo =
  let module R = Runner.Make (P) in
  let rng = Prng.create seed in
  let workload =
    Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:20 ~domain:8 ~skew:1.0
      ~delete_ratio:0.4
  in
  let config =
    { (R.default_config ~n:3 ~seed) with R.fifo; final_read = Some Set_spec.Read }
  in
  let r = R.run config ~workload in
  ( r.R.history,
    r.R.final_outputs,
    Lazy.force r.R.certificates,
    r.R.converged && r.R.certificates_agree,
    (r.R.metrics.Metrics.messages_sent, r.R.metrics.Metrics.bytes_sent) )

(* Telemetry must be a pure observer. An attached [Obs.t] — spans
   riding every message, convergence probes, oplog profiles — may not
   perturb a single observable of the run: same seed means the same
   history, the same final reads and certificates, and the same metrics
   record down to the wire bytes. *)
let run_set_telemetry ?(ops = 15) ?(monitors = false) ~seed ~obs
    ~probe_interval () =
  let module R = Runner.Make (G_set) in
  let rng = Prng.create (seed lxor 0x5eed) in
  let workload =
    Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:ops ~domain:8
      ~skew:1.0 ~delete_ratio:0.4
  in
  let monitor =
    if monitors then
      Some
        (R.Mon.create ~n:3
           ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec; Obs.Monitor.Pc ])
    else None
  in
  let config =
    {
      (R.default_config ~n:3 ~seed) with
      R.final_read = Some Set_spec.Read;
      obs;
      probe_interval;
      monitor;
    }
  in
  let r = R.run config ~workload in
  (r.R.history, r.R.final_outputs, Lazy.force r.R.certificates, r.R.metrics)

let runner_differential_tests =
  let core_vs_core fifo label =
    qtest ~count:60 label seed_gen (fun seed ->
        let h1, f1, c1, ok1, wire1 = run_generic_core (module G_set) ~seed ~fifo in
        let h2, f2, c2, ok2, wire2 = run_generic_core (module Gref_set) ~seed ~fifo in
        ok1 && ok2 && h1 = h2 && f1 = f2 && c1 = c2 && wire1 = wire2)
  in
  [
    core_vs_core false
      "oplog-core Generic ≡ seed list core on random Runner schedules";
    core_vs_core true
      "oplog-core Generic ≡ seed list core on FIFO Runner schedules";
    qtest ~count:40 "telemetry off ≡ telemetry on, byte for byte" seed_gen
      (fun seed ->
        let bare = run_set_telemetry ~seed ~obs:None ~probe_interval:None () in
        let o = Obs.create () in
        let instrumented =
          run_set_telemetry ~seed ~obs:(Some o) ~probe_interval:(Some 5.0) ()
        in
        (* identical observables, and the instruments did record *)
        bare = instrumented
        && Obs.Span.count o.Obs.spans > 0
        && Obs.divergence_series o <> []);
    qtest ~count:15 "journal + monitors are pure observers too" seed_gen
      (fun seed ->
        let bare =
          run_set_telemetry ~ops:8 ~seed ~obs:None ~probe_interval:None ()
        in
        let journal = Obs.Journal.create () in
        let o = Obs.create ~journal () in
        let observed =
          run_set_telemetry ~ops:8 ~monitors:true ~seed ~obs:(Some o)
            ~probe_interval:(Some 5.0) ()
        in
        let history, _, _, _ = bare in
        (* identical history, final reads, certificates and metrics —
           wire bytes included — and the journal both recorded and was
           sealed with exactly that history's fingerprint *)
        bare = observed
        && Obs.Journal.length journal > 0
        && Obs.Journal.fingerprint journal
           = Some
               (History.fingerprint Set_spec.pp_update Set_spec.pp_query
                  Set_spec.pp_output history));
  ]

(* Bit-identity of the sequential runner across refactors: these three
   seeded runs reproduce `ucsim run` configurations exactly (workload
   generator, delay model, final read), and their sealed history
   fingerprints were captured before the multicore engine PR. The
   parallel engine must not perturb the deterministic path — not the
   runner, not [Prng.split]/[create] stream layout, not the workload
   draws — so these literals must never move. *)
let pinned_run_tests =
  let set_fingerprint ~seed ~n ~ops =
    let module R = Runner.Make (G_set) in
    let rng = Prng.create seed in
    let workload =
      Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:16
        ~skew:1.0 ~delete_ratio:0.3
    in
    let config =
      {
        (R.default_config ~n ~seed) with
        R.delay = Network.Exponential { mean = 10.0 };
        final_read = Some Set_spec.Read;
      }
    in
    let r = R.run config ~workload in
    History.fingerprint Set_spec.pp_update Set_spec.pp_query Set_spec.pp_output
      r.R.history
  in
  let counter_fingerprint ~seed ~n ~ops =
    let module R = Runner.Make (G_counter) in
    let rng = Prng.create seed in
    let workload =
      Workload.For_counter.deposits_and_withdrawals ~rng ~n
        ~ops_per_process:ops ~max_amount:100
    in
    let config =
      {
        (R.default_config ~n ~seed) with
        R.delay = Network.Exponential { mean = 10.0 };
        final_read = Some Counter_spec.Value;
      }
    in
    let r = R.run config ~workload in
    History.fingerprint Counter_spec.pp_update Counter_spec.pp_query
      Counter_spec.pp_output r.R.history
  in
  [
    Alcotest.test_case "pinned: universal/set seed 1 n 3 ops 6" `Quick (fun () ->
        Alcotest.(check string)
          "fingerprint" "a3028740e43cd9ff"
          (set_fingerprint ~seed:1 ~n:3 ~ops:6));
    Alcotest.test_case "pinned: universal/set seed 42 n 4 ops 8" `Quick
      (fun () ->
        Alcotest.(check string)
          "fingerprint" "f84ccaebdd940ba2"
          (set_fingerprint ~seed:42 ~n:4 ~ops:8));
    Alcotest.test_case "pinned: counter seed 7 n 3 ops 10" `Quick (fun () ->
        Alcotest.(check string)
          "fingerprint" "2dbc0e1fa6fad3a3"
          (counter_fingerprint ~seed:7 ~n:3 ~ops:10));
  ]

(* Churn-run byte pins: the complete serialized journal — header line,
   every event (joins, leaves, catch-up snapshot bytes included), and
   the sealed footer — of three seeded join/leave/rejoin runs under a
   partition, digested with SHA-256. Unlike the rolling history
   fingerprints above, these pin the whole wire-visible schedule: any
   drift in the churn engine, the catch-up protocol, or the journal
   encoding moves the literal. *)
let churn_pin_tests =
  let churn_sha ~seed ~n ~ops =
    let module P = Persist.Catchup (G_set) (Update_codec.For_set) in
    let module R = Runner.Make (P) in
    let journal = Obs.Journal.create () in
    let obs = Obs.create ~journal () in
    let rng = Prng.create seed in
    let workload =
      Workload.For_set.conflict ~rng ~n ~ops_per_process:ops ~domain:16
        ~skew:1.0 ~delete_ratio:0.3
    in
    let config =
      {
        (R.default_config ~n ~seed) with
        R.delay = Network.Exponential { mean = 10.0 };
        churn =
          [
            { Network.time = 20.0; pid = n - 1; action = Network.Join };
            { Network.time = 30.0; pid = 1; action = Network.Leave };
            { Network.time = 60.0; pid = 1; action = Network.Rejoin };
          ];
        partitions =
          [ { Network.from_time = 25.0; to_time = 55.0; group = [ 0 ] } ];
        final_read = Some Set_spec.Read;
        obs = Some obs;
      }
    in
    let r = R.run config ~workload in
    Alcotest.(check bool) "churn run converged" true r.R.converged;
    Sha256.hex (Obs.Journal.to_jsonl journal)
  in
  let pin name ~seed ~n ~ops digest =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check string) "sha256" digest (churn_sha ~seed ~n ~ops))
  in
  [
    pin "pinned churn journal: seed 1 n 3 ops 5" ~seed:1 ~n:3 ~ops:5 "2c7a54e11278b12325f6bc6a8e03f5e2cfcfda1a13ae2d455d74891e7c4f7d5f";
    pin "pinned churn journal: seed 8 n 4 ops 6" ~seed:8 ~n:4 ~ops:6 "31e05b30d7ccf3759dd39cbc2f156e272fd5aebbd1ed27e29e270877743540ac";
    pin "pinned churn journal: seed 23 n 4 ops 4" ~seed:23 ~n:4 ~ops:4 "da77997c8fded5f80a660e6c394f6e48bcd9a4f8dc69b7fa5e61c0db17be1d6e";
  ]

(* Sharded-run byte pins: the same complete-journal digest for the
   sharded object space. Four seeded runs — a single shard (the
   degenerate space, whose journal must stay exactly as deterministic
   as any other run), a static two-shard ring, a four-shard ring with
   the hot-shard policy armed so [Rebalance]/[Shard] events land in the
   pinned bytes, and a two-shard ring split under churn, whose final
   snapshots are pinned too. Any drift in the ring hash, the fan-out
   batching, migration, catch-up, or the shard event encoding moves
   these literals. *)
let shard_pin_tests =
  let module Sp = Space.Make (Set_spec) (Update_codec.For_set) in
  let module R = Runner.Make (Sp) in
  let sharded_sha ?policy ~shards ~seed ~n ~ops ~keys () =
    let journal = Obs.Journal.create () in
    let obs = Obs.create ~journal () in
    let map = Sp.create_map ?policy ~obs ~shards () in
    Sp.configure map;
    let workload =
      Workload.For_space.zipf_scripts ~rng:(Prng.create seed) ~n
        ~ops_per_process:ops ~keys ~skew:1.1 ~fanout:3 ~query_ratio:0.25
        ~update:(fun g ->
          let v = 1 + Prng.int g 16 in
          if Prng.float g 1.0 < 0.3 then Set_spec.Delete v
          else Set_spec.Insert v)
        ~query:(fun _ -> Set_spec.Read)
        ~read:(fun k q -> Sp.K.Read (k, q))
    in
    let config =
      {
        (R.default_config ~n ~seed) with
        R.delay = Network.Exponential { mean = 10.0 };
        final_read = Some Sp.K.Sweep;
        obs = Some obs;
      }
    in
    let r = R.run config ~workload in
    Alcotest.(check bool) "sharded run converged" true r.R.converged;
    if policy <> None then
      Alcotest.(check bool) "policy fired at least once" true
        (Sp.rebalances map >= 1);
    Sha256.hex (Obs.Journal.to_jsonl journal)
  in
  (* `ucsim run sharded -n 4 --ops 60 --shards 2 --keys 32 --rebalance 10
     --seed 5 --churn 20:join:3 --churn 80:leave:1 --churn 200:rejoin:1
     --partition 180:199:0`, built as the command builds it: the policy
     splits hot shards while replica 3 joins late and replica 1 leaves
     and rejoins from a donor partitioned off just before, so migrations
     and whole-space catch-ups interleave. Returns the journal's digest
     (the command's journal file, byte for byte) and the digest of every
     replica's final snapshot, which holds each shard's clock and its
     log in timestamp order. No online monitor runs: on a run that
     breaks update consistency the UC monitor's search does not end, and
     a pin must fail, not hang. *)
  let churn_rebalance_shas () =
    let module Held = struct
      include Sp

      let made = Hashtbl.create 4

      let create ctx =
        let r = Sp.create ctx in
        Hashtbl.replace made ctx.Protocol.pid r;
        r
    end in
    let module R = Runner.Make (Held) in
    let spec =
      {
        Run_spec.default with
        protocol = "sharded";
        seed = 5;
        n = 4;
        ops = 60;
        shards = 2;
        keys = 32;
        rebalance = Some 10.0;
        churn =
          [
            { Network.time = 20.0; pid = 3; action = Network.Join };
            { Network.time = 80.0; pid = 1; action = Network.Leave };
            { Network.time = 200.0; pid = 1; action = Network.Rejoin };
          ];
        partitions = [ { Network.from_time = 180.0; to_time = 199.0; group = [ 0 ] } ];
      }
    in
    let journal = Obs.Journal.create () in
    let ob = Run_spec.observe ~journal spec in
    let policy = { Sp.interval = 10.0; hot_factor = 1.5; max_shards = 64 } in
    let map = Sp.create_map ~policy ?obs:ob.Run_spec.obs ~shards:spec.shards () in
    Sp.configure map;
    let elem = Zipf.create ~n:16 ~s:1.0 in
    let workload =
      Workload.For_space.zipf_scripts ~rng:(Prng.create spec.seed) ~n:spec.n
        ~ops_per_process:spec.ops ~keys:spec.keys ~skew:1.1 ~fanout:3
        ~query_ratio:0.25
        ~update:(fun g ->
          let v = Zipf.sample elem g in
          if Prng.float g 1.0 < 0.3 then Set_spec.Delete v
          else Set_spec.Insert v)
        ~query:(fun _ -> Set_spec.Read)
        ~read:(fun k q -> Sp.K.Read (k, q))
    in
    Hashtbl.reset Held.made;
    let r =
      R.run (R.config_of_spec ~final_read:(Some Sp.K.Sweep) ob spec) ~workload
    in
    Alcotest.(check bool) "converged" true r.R.converged;
    Alcotest.(check bool) "the policy split a shard" true (Sp.rebalances map >= 1);
    Alcotest.(check bool) "entries were re-homed" true (Sp.moved_entries map > 0);
    Alcotest.(check bool) "a snapshot was absorbed" true
      (r.R.metrics.Metrics.snapshots_absorbed >= 1);
    let journal_sha = Sha256.hex (Obs.Journal.to_jsonl journal) in
    let snapshots =
      List.init spec.n (fun pid ->
          Option.get (Sp.snapshot (Hashtbl.find Held.made pid)))
    in
    (journal_sha, Sha256.hex (String.concat "" snapshots))
  in
  let policy = { Sp.interval = 15.0; hot_factor = 1.5; max_shards = 64 } in
  [
    Alcotest.test_case "pinned sharded journal: 1 shard seed 5" `Quick
      (fun () ->
        Alcotest.(check string) "sha256"
          "2934db2b96c153a27bcdc233c4d074225d3389c2b2de9323aa0d884fb74fc9db"
          (sharded_sha ~shards:1 ~seed:5 ~n:3 ~ops:6 ~keys:16 ()));
    Alcotest.test_case "pinned sharded journal: 2 shards seed 12" `Quick
      (fun () ->
        Alcotest.(check string) "sha256"
          "33e5c431137bcb16cb2a5d40ad6ba241cafead3b76775e0c4eec382c07cb6083"
          (sharded_sha ~shards:2 ~seed:12 ~n:3 ~ops:6 ~keys:32 ()));
    Alcotest.test_case "pinned sharded journal: 4 shards seed 19, rebalancing"
      `Quick
      (fun () ->
        Alcotest.(check string) "sha256"
          "6af4492f2b6f96d382334a9e4b905c960ded59acf14d9c5f7b7630770967bf9f"
          (sharded_sha ~policy ~shards:4 ~seed:19 ~n:4 ~ops:5 ~keys:16 ()));
    Alcotest.test_case
      "pinned sharded journal and snapshots: 2 shards seed 5, rebalancing under churn"
      `Quick
      (fun () ->
        let journal, snapshots = churn_rebalance_shas () in
        Alcotest.(check string) "journal sha256" "4e945966e54b1587eaa077065226cb9bd4c13dc3b4c93330ebeea6e4511f5869" journal;
        Alcotest.(check string) "snapshots sha256" "e3ba96de6745b1042d6090a157ba3a72f4dede083998e1e3410876103a2ed480" snapshots);
  ]

let tests =
  differential_protocol_tests @ runner_differential_tests @ pinned_run_tests
  @ churn_pin_tests @ shard_pin_tests
  @ [
    qtest ~count:150 "Check_uc agrees with brute force" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let h = Gen.convergent_mix rng ~processes:2 ~max_updates:4 ~max_queries:3 in
        Uc.holds h = uc_brute_force h);
    qtest ~count:100 "Check_uc agrees with brute force (3 processes)" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let h = Gen.convergent_mix rng ~processes:3 ~max_updates:4 ~max_queries:2 in
        Uc.holds h = uc_brute_force h);
    qtest ~count:100 "Check_sc agrees with brute force" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let h = Gen.convergent_mix rng ~processes:2 ~max_updates:3 ~max_queries:3 in
        Sc.holds h = sc_brute_force h);
    Alcotest.test_case "brute force confirms the figure verdicts" `Quick (fun () ->
        List.iter
          (fun (name, h, expected) ->
            let want_uc = List.assoc Criteria.UC expected in
            let want_sc = List.assoc Criteria.SC expected in
            Alcotest.(check bool) (name ^ " UC") want_uc (uc_brute_force h);
            Alcotest.(check bool) (name ^ " SC") want_sc (sc_brute_force h))
          Figures.all);
  ]
