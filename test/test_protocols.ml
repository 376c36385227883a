(* The universal construction and its variants: convergence on random
   workloads, observable equivalence between Generic / Memo / Undo / GC,
   certificate validity, and the paper's propositions on real runs. *)

open Helpers

module Uni = Generic.Make (Set_spec)
module Memo_set = Generic.Configured (struct let config = Generic.memo end) (Set_spec)
module Gc_set = Generic.Configured (struct let config = Generic.gc end) (Set_spec)
module Undo_set = Undo.Make (Undoable.Set)
module Undo_counter = Undo.Make (Undoable.Counter)

module C = Criteria.Make (Set_spec)

type final = (int * Set_spec.output) list

(* Run a set protocol on the standard random conflict workload. *)
let finals_of (module P : Protocol.PROTOCOL
                with type update = Set_spec.update
                 and type query = Set_spec.query
                 and type output = Set_spec.output) ?(fifo = false) ~seed () : final * bool =
  let module R = Runner.Make (P) in
  let rng = Prng.create seed in
  let workload =
    Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:25 ~domain:8 ~skew:1.0
      ~delete_ratio:0.4
  in
  let config =
    { (R.default_config ~n:3 ~seed) with R.fifo; final_read = Some Set_spec.Read }
  in
  let r = R.run config ~workload in
  (r.R.final_outputs, r.R.converged)

let equal_finals a b =
  List.length a = List.length b
  && List.for_all2 (fun (p, o) (p', o') -> p = p' && Set_spec.equal_output o o') a b

let convergence_tests =
  [
    qtest ~count:30 "universal set converges on random schedules" seed_gen (fun seed ->
        snd (finals_of (module Uni) ~seed ()));
    qtest ~count:30 "memoized variant converges" seed_gen (fun seed ->
        snd (finals_of (module Memo_set) ~seed ()));
    qtest ~count:30 "undo variant converges" seed_gen (fun seed ->
        snd (finals_of (module Undo_set) ~seed ()));
    qtest ~count:30 "gc variant converges under fifo" seed_gen (fun seed ->
        snd (finals_of (module Gc_set) ~fifo:true ~seed ()));
    (* The three log-based variants implement the same abstract
       algorithm, so on identical schedules they must return identical
       final states — not merely converged ones. *)
    qtest ~count:30 "memo ≡ generic observably" seed_gen (fun seed ->
        let a, _ = finals_of (module Uni) ~seed () in
        let b, _ = finals_of (module Memo_set) ~seed () in
        equal_finals a b);
    qtest ~count:30 "undo ≡ generic observably" seed_gen (fun seed ->
        let a, _ = finals_of (module Uni) ~seed () in
        let b, _ = finals_of (module Undo_set) ~seed () in
        equal_finals a b);
    (* GC's heartbeat traffic perturbs the shared delay stream, so its
       schedules differ from Generic's under the same seed; instead of
       bit equivalence we check its histories satisfy the criterion. *)
    qtest ~count:20 "gc histories are UC (small runs, fifo)" seed_gen (fun seed ->
        let module R = Runner.Make (Gc_set) in
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:2 ~ops_per_process:3 ~domain:3 ~skew:0.5
            ~delete_ratio:0.4
        in
        let config =
          { (R.default_config ~n:2 ~seed) with R.fifo = true; final_read = Some Set_spec.Read }
        in
        let r = R.run config ~workload in
        C.holds Criteria.UC r.R.history);
  ]

let certificate_tests =
  [
    qtest ~count:20 "certificates agree and explain the final reads" seed_gen (fun seed ->
        let module R = Runner.Make (Uni) in
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:15 ~domain:6 ~skew:1.0
            ~delete_ratio:0.4
        in
        let config = { (R.default_config ~n:3 ~seed) with R.final_read = Some Set_spec.Read } in
        let r = R.run config ~workload in
        let module Run = Uqadt.Run (Set_spec) in
        r.R.certificates_agree
        && List.for_all
             (fun (pid, cert) ->
               match List.assoc_opt pid r.R.final_outputs with
               | None -> false
               | Some out ->
                 Set_spec.equal_output
                   (Set_spec.eval (Run.final_state (List.map snd cert)) Set_spec.Read)
                   out)
             (Lazy.force r.R.certificates));
    qtest ~count:20 "certificates extend per-process invocation order" seed_gen
      (fun seed ->
        let module R = Runner.Make (Uni) in
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:12 ~domain:6 ~skew:0.5
            ~delete_ratio:0.3
        in
        let config = { (R.default_config ~n:3 ~seed) with R.final_read = Some Set_spec.Read } in
        let r = R.run config ~workload in
        let invoked p =
          List.filter_map History.update_of (History.process_events r.R.history p)
        in
        List.for_all
          (fun (_, cert) ->
            List.for_all
              (fun p ->
                let from_cert =
                  List.filter_map (fun (o, u) -> if o = p then Some u else None) cert
                in
                List.length from_cert = List.length (invoked p)
                && List.for_all2 Set_spec.equal_update from_cert (invoked p))
              [ 0; 1; 2 ])
          (Lazy.force r.R.certificates));
  ]

let memo_gc_internals =
  [
    Alcotest.test_case "memo snapshots bound replay work" `Quick (fun () ->
        (* Feed 1000 in-order updates through a lone replica; each query
           replays at most one snapshot interval. *)
        let dummy : _ Protocol.ctx =
          {
            Protocol.pid = 0;
            n = 1;
            now = (fun () -> 0.0);
            send = (fun ~dst:_ _ -> ());
            broadcast = ignore;
            broadcast_batch = ignore;
            set_timer = (fun ~delay:_ _ -> ());
            count_replay = ignore;
            obs = None;
          }
        in
        let counted = ref 0 in
        let ctx = { dummy with Protocol.count_replay = (fun k -> counted := !counted + k) } in
        let r = Memo_set.create ctx in
        for i = 1 to 1000 do
          Memo_set.update r (Set_spec.Insert (i mod 17)) ~on_done:ignore
        done;
        (* The first query after a cold log replays it fully (and records
           the checkpoints); subsequent queries replay at most one
           snapshot interval. *)
        Memo_set.query r Set_spec.Read ~on_result:ignore;
        counted := 0;
        Memo_set.query r Set_spec.Read ~on_result:ignore;
        Memo_set.query r Set_spec.Read ~on_result:ignore;
        let interval =
          match Generic.memo.replay with Checkpoints c -> c.interval | Stable_prefix -> 0
        in
        Alcotest.(check bool) "bounded" true (!counted <= 2 * interval));
    Alcotest.test_case "gc compacts a quiescent log to near-empty" `Quick (fun () ->
        let module R = Runner.Make (Gc_set) in
        let workload =
          Array.make 3 (List.init 40 (fun i -> Protocol.Invoke_update (Set_spec.Insert i)))
        in
        let config =
          { (R.default_config ~n:3 ~seed:5) with R.fifo = true; final_read = Some Set_spec.Read }
        in
        let r = R.run config ~workload in
        Alcotest.(check bool) "small tails" true
          (List.for_all (fun (_, len) -> len < 120) r.R.log_lengths);
        Alcotest.(check bool) "converged" true r.R.converged);
    Alcotest.test_case "gc log is much smaller than generic's" `Quick (fun () ->
        let run (module P : Protocol.PROTOCOL
                  with type update = Set_spec.update
                   and type query = Set_spec.query
                   and type output = Set_spec.output) =
          let module R = Runner.Make (P) in
          let rng = Prng.create 9 in
          let workload =
            Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:100 ~domain:8 ~skew:1.0
              ~delete_ratio:0.3
          in
          let config =
            { (R.default_config ~n:3 ~seed:9) with R.fifo = true; final_read = Some Set_spec.Read }
          in
          let r = R.run config ~workload in
          List.fold_left (fun acc (_, l) -> acc + l) 0 r.R.log_lengths
        in
        let generic = run (module Uni) and gc = run (module Gc_set) in
        Alcotest.(check bool) "gc strictly smaller" true (gc * 4 < generic));
    Alcotest.test_case "gc refuses an update below its watermark, log unchanged" `Quick
      (fun () ->
        (* p1's two updates reach p0 out of order, as no FIFO channel
           would deliver them: the second lets p0 fold its own update at
           clock 1, so the first arrives at the watermark. *)
        let sent = ref [] in
        let ctx pid =
          { (Throughput.dummy_ctx ~pid ~n:2) with
            Protocol.broadcast = (fun m -> sent := m :: !sent) }
        in
        let p0 = Gc_set.create (ctx 0) and p1 = Gc_set.create (ctx 1) in
        Gc_set.update p1 (Set_spec.Insert 1) ~on_done:ignore;
        Gc_set.update p1 (Set_spec.Insert 2) ~on_done:ignore;
        let second, first =
          match !sent with [ b; a ] -> (b, a) | _ -> Alcotest.fail "two broadcasts"
        in
        Gc_set.update p0 (Set_spec.Delete 1) ~on_done:ignore;
        Gc_set.receive p0 ~src:1 second;
        let log = Gc_set.local_log p0 in
        Alcotest.(check int) "p0 folded its own update" 1 (List.length log);
        Alcotest.(check bool) "raises Invalid_argument" true
          (match Gc_set.receive p0 ~src:1 first with
          | () -> false
          | exception Invalid_argument _ -> true);
        Alcotest.(check bool) "log unchanged" true (Gc_set.local_log p0 = log));
    Alcotest.test_case "undo repairs only on reordering" `Quick (fun () ->
        (* In-order arrivals need no repairs at all. *)
        let dummy : _ Protocol.ctx =
          {
            Protocol.pid = 0;
            n = 1;
            now = (fun () -> 0.0);
            send = (fun ~dst:_ _ -> ());
            broadcast = ignore;
            broadcast_batch = ignore;
            set_timer = (fun ~delay:_ _ -> ());
            count_replay = ignore;
            obs = None;
          }
        in
        let r = Undo_set.create dummy in
        for i = 1 to 50 do
          Undo_set.update r (Set_spec.Insert i) ~on_done:ignore
        done;
        Alcotest.(check int) "no repairs" 0 (Undo_set.repairs r));
    Alcotest.test_case "undo ignores a repeated delivery" `Quick (fun () ->
        (* The op-log beneath is idempotent on a repeated timestamp; the
           undo/redo repair around it must be too, at the tail and
           below it. *)
        let sent = ref [] in
        let ctx pid : _ Protocol.ctx =
          {
            Protocol.pid;
            n = 2;
            now = (fun () -> 0.0);
            send = (fun ~dst:_ _ -> ());
            broadcast = (fun m -> sent := m :: !sent);
            broadcast_batch = ignore;
            set_timer = (fun ~delay:_ _ -> ());
            count_replay = ignore;
            obs = None;
          }
        in
        let origin = Undo_counter.create (ctx 0) in
        Undo_counter.update origin (Counter_spec.Add 5) ~on_done:ignore;
        Undo_counter.update origin (Counter_spec.Add 7) ~on_done:ignore;
        let plus5, plus7 =
          match List.rev !sent with [ a; b ] -> (a, b) | _ -> assert false
        in
        let r = Undo_counter.create (ctx 1) in
        let value what =
          Undo_counter.query r Counter_spec.Value ~on_result:(fun v ->
              Alcotest.(check int) what 12 v);
          Alcotest.(check int) (what ^ ": log length") 2 (Undo_counter.log_length r)
        in
        List.iter (Undo_counter.receive r ~src:0) [ plus5; plus7 ];
        value "both delivered";
        Undo_counter.receive r ~src:0 plus7;
        value "the tail again";
        Undo_counter.receive r ~src:0 plus5;
        value "the entry below the tail again");
  ]

let proposition_tests =
  [
    (* Proposition 4 on random simulated schedules: small enough runs
       that the SUC checker itself is feasible. *)
    qtest ~count:20 "Algorithm 1 histories are SUC (random small runs)" seed_gen
      (fun seed ->
        let module R = Runner.Make (Uni) in
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:2 ~ops_per_process:2 ~domain:3 ~skew:0.5
            ~delete_ratio:0.5
        in
        let config = { (R.default_config ~n:2 ~seed) with R.final_read = Some Set_spec.Read } in
        let r = R.run config ~workload in
        C.holds Criteria.SUC r.R.history);
    (* Proposition 3 via the constructive witness: the SUC witness of a
       simulated Algorithm-1 run always verifies the Insert-wins
       specification. *)
    qtest ~count:20 "Prop 3: SUC witness yields an insert-wins relation" seed_gen
      (fun seed ->
        let module R = Runner.Make (Uni) in
        let rng = Prng.create seed in
        let workload =
          Workload.For_set.conflict ~rng ~n:2 ~ops_per_process:2 ~domain:2 ~skew:0.5
            ~delete_ratio:0.5
        in
        let config = { (R.default_config ~n:2 ~seed) with R.final_read = Some Set_spec.Read } in
        let r = R.run config ~workload in
        let module Suc = Check_suc.Make (Set_spec) in
        match Suc.witness r.R.history with
        | None -> false
        | Some w ->
          let vis =
            List.map
              (fun ((e : _ History.event), ranks) -> (e.History.id, ranks))
              w.Suc.visibility
          in
          let rel =
            Check_iw.of_suc_witness r.R.history ~sigma_ranks:w.Suc.sigma_ranks ~vis
          in
          Check_iw.verify r.R.history rel);
    (* Algorithm 2's histories are update consistent for the memory. *)
    qtest ~count:20 "Algorithm 2 histories are UC" seed_gen (fun seed ->
        let module R = Runner.Make (Lww_memory) in
        let rng = Prng.create seed in
        let workload =
          Workload.For_memory.random_writes ~rng ~n:3 ~ops_per_process:4 ~registers:2
            ~read_ratio:0.4
        in
        let config =
          { (R.default_config ~n:3 ~seed) with R.final_read = Some (Memory_spec.Read 0) }
        in
        let r = R.run config ~workload in
        let module Cm = Criteria.Make (Memory_spec) in
        Cm.holds Criteria.UC r.R.history);
  ]

let guard_tests =
  [
    Alcotest.test_case "CRDT fast path refuses non-commutative types" `Quick (fun () ->
        let module F = Commutative.Make (Set_spec) in
        let dummy : _ Protocol.ctx =
          {
            Protocol.pid = 0;
            n = 2;
            now = (fun () -> 0.0);
            send = (fun ~dst:_ _ -> ());
            broadcast = ignore;
            broadcast_batch = ignore;
            set_timer = (fun ~delay:_ _ -> ());
            count_replay = ignore;
            obs = None;
          }
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (F.create dummy);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "unchecked fast path on a set diverges" `Quick (fun () ->
        (* The guard trusts the spec's flag, so a set that claims to
           commute gets the fast path — and diverges. *)
        let module F =
          Commutative.Make
            (struct
              include Set_spec

              let commutative = true
            end)
        in
        let module R = Runner.Make (F) in
        let config =
          {
            (R.default_config ~n:2 ~seed:3) with
            R.delay = Network.Constant 50.0;
            think = Network.Constant 1.0;
            final_read = Some Set_spec.Read;
          }
        in
        let r = R.run config ~workload:(Workload.For_set.insert_delete_race ~n:2) in
        Alcotest.(check bool) "diverged" false r.R.converged);
    Alcotest.test_case "G-counter rejects negative increments" `Quick (fun () ->
        let dummy : _ Protocol.ctx =
          {
            Protocol.pid = 0;
            n = 1;
            now = (fun () -> 0.0);
            send = (fun ~dst:_ _ -> ());
            broadcast = ignore;
            broadcast_batch = ignore;
            set_timer = (fun ~delay:_ _ -> ());
            count_replay = ignore;
            obs = None;
          }
        in
        let r = Counters.Gcounter.create dummy in
        Alcotest.check_raises "negative" (Invalid_argument "Gcounter: negative increment")
          (fun () -> Counters.Gcounter.update r (Counter_spec.Add (-1)) ~on_done:ignore));
  ]

let tests = convergence_tests @ certificate_tests @ memo_gc_internals @ proposition_tests @ guard_tests
