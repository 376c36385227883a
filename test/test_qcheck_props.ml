(* Property layer: the paper's Proposition 2 hierarchy on random
   histories, codec/persistence round-trips, fingerprint behaviour and
   engine invariants — every law checked on generated inputs, not
   hand-picked examples. *)

open Helpers

module C_set = Criteria.Make (Set_spec)
module Gen_set = Gen_history.Make (Set_spec)
module Gen_counter = Gen_history.Make (Counter_spec)

(* UC by definition, generically: enumerate every linear extension of
   the update program order and test the ω reads against each final
   state. *)
module Brute (A : Uqadt.S) = struct
  module Run = Uqadt.Run (A)

  let uc h =
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
        List.for_all (fun (qi, qo) -> A.equal_output (A.eval final qi) qo) omegas)
end

module Brute_counter = Brute (Counter_spec)

(* ------------------------- Proposition 2 ------------------------- *)

let hierarchy_tests =
  [
    qtest ~count:120 "UC implies EC (Proposition 2)" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let h = Gen_set.convergent_mix rng ~processes:3 ~max_updates:4 ~max_queries:2 in
        (not (C_set.holds Criteria.UC h)) || C_set.holds Criteria.EC h);
    qtest ~count:60 "SUC implies SEC and UC (Proposition 2)" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let h = Gen_set.convergent_mix rng ~processes:2 ~max_updates:3 ~max_queries:2 in
        (not (C_set.holds Criteria.SUC h))
        || (C_set.holds Criteria.SEC h && C_set.holds Criteria.UC h));
    qtest ~count:40 "classify respects the whole implication lattice" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let h = Gen_set.convergent_mix rng ~processes:2 ~max_updates:3 ~max_queries:2 in
        let verdicts = C_set.classify h in
        List.for_all
          (fun (c1, v1) ->
            List.for_all
              (fun (c2, v2) -> (not (Criteria.implies c1 c2)) || (not v1) || v2)
              verdicts)
          verdicts);
    qtest ~count:100 "Check_uc agrees with brute force on the counter" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let h =
          Gen_counter.convergent_mix rng ~processes:2 ~max_updates:4 ~max_queries:2
        in
        let module Uc = Check_uc.Make (Counter_spec) in
        Uc.holds h = Brute_counter.uc h);
  ]

(* ------------------------ codec round-trips ---------------------- *)

let varint_gen = QCheck2.Gen.(oneof [ int_range 0 127; int_range 0 1_000_000_000 ])

module Set_persist = Persist.Make (Set_spec) (Update_codec.For_set)
module G_set = Generic.Make (Set_spec)

let dummy_ctx pid n : G_set.message Protocol.ctx =
  {
    Protocol.pid;
    n;
    now = (fun () -> 0.0);
    send = (fun ~dst:_ _ -> ());
    broadcast = (fun _ -> ());
    broadcast_batch = (fun _ -> ());
    set_timer = (fun ~delay:_ _ -> ());
    count_replay = (fun _ -> ());
    obs = None;
  }

let random_log rng =
  List.init (Prng.int rng 6) (fun i ->
      let pid = Prng.int rng 3 in
      (Timestamp.make ~clock:(i + 1 + Prng.int rng 3) ~pid, pid, Set_spec.random_update rng))

(* A replica that has logged local and remote updates and ticked its
   clock with unlogged queries — the state a log-only restore
   under-recovers. *)
let busy_replica rng =
  let buf = Queue.create () in
  let peer =
    G_set.create
      { (dummy_ctx 1 2) with Protocol.broadcast = (fun m -> Queue.add m buf) }
  in
  let r = G_set.create (dummy_ctx 0 2) in
  for _ = 1 to Prng.int rng 5 do
    G_set.update r (Set_spec.random_update rng) ~on_done:ignore
  done;
  for _ = 1 to Prng.int rng 4 do
    G_set.update peer (Set_spec.random_update rng) ~on_done:ignore
  done;
  Queue.iter (fun m -> G_set.receive r ~src:1 m) buf;
  for _ = 1 to Prng.int rng 4 do
    G_set.query r Set_spec.Read ~on_result:ignore
  done;
  r

let codec_tests =
  [
    qtest "varint round-trips and has the accounted size" varint_gen (fun x ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w x;
        let s = Codec.Writer.contents w in
        let r = Codec.Reader.of_string s in
        let y = Codec.Reader.varint r in
        y = x && Codec.Reader.at_end r && String.length s = Wire.varint_size x);
    qtest "byte_string round-trips and has the accounted size"
      QCheck2.Gen.(string_size (int_range 0 40))
      (fun s ->
        let w = Codec.Writer.create () in
        Codec.Writer.byte_string w s;
        let encoded = Codec.Writer.contents w in
        let r = Codec.Reader.of_string encoded in
        let s' = Codec.Reader.byte_string r in
        s' = s && Codec.Reader.at_end r && String.length encoded = Wire.string_size s);
    qtest "set update codec round-trips at its declared wire size" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let u = Set_spec.random_update rng in
        let s = Update_codec.For_set.to_string u in
        Set_spec.equal_update (Update_codec.For_set.of_string s) u
        && String.length s = Set_spec.update_wire_size u);
    qtest "counter update codec round-trips at its declared wire size" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let u = Counter_spec.random_update rng in
        let s = Update_codec.For_counter.to_string u in
        Counter_spec.equal_update (Update_codec.For_counter.of_string s) u
        && String.length s = Counter_spec.update_wire_size u);
    qtest ~count:150 "log snapshots round-trip" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let log =
          List.sort
            (fun (a, _, _) (b, _, _) -> Timestamp.compare a b)
            (random_log rng)
        in
        Set_persist.decode_log (Set_persist.encode_log log) = log);
    qtest ~count:150 "replica snapshots restore the exact state" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let r = busy_replica rng in
        let saved = Set_persist.snapshot_replica r in
        let fresh = G_set.create (dummy_ctx 0 2) in
        Set_persist.restore_replica fresh saved;
        G_set.local_log fresh = G_set.local_log r
        && G_set.clock_value fresh = G_set.clock_value r);
  ]

(* -------------------------- fingerprints ------------------------- *)

let fingerprint_tests =
  [
    qtest ~count:300 "fingerprint separates distinct strings"
      QCheck2.Gen.(pair (string_size (int_range 0 12)) (string_size (int_range 0 12)))
      (fun (a, b) ->
        a = b
        || not
             (Fingerprint.equal
                (Fingerprint.string Fingerprint.empty a)
                (Fingerprint.string Fingerprint.empty b)));
    qtest ~count:200 "fingerprint is structural, not concatenative"
      QCheck2.Gen.(
        pair (string_size (int_range 1 6)) (string_size (int_range 1 6)))
      (fun (a, b) ->
        not
          (Fingerprint.equal
             (Fingerprint.list Fingerprint.string Fingerprint.empty [ a ^ b ])
             (Fingerprint.list Fingerprint.string Fingerprint.empty [ a; b ])));
  ]

(* ----------------------- engine invariants ----------------------- *)

module M_uni = Explore.Make (G_set)
module M_pipe = Explore.Make (Pipelined.Make (Set_spec))
module Snap_set = Snapshot.For_generic (Set_spec) (Update_codec.For_set)

(* Tiny random scripts: 2 processes, 1-2 operations each, drawn from a
   small value domain so conflicts are common. *)
let random_scripts rng =
  Array.init 2 (fun _ ->
      List.init
        (1 + Prng.int rng 2)
        (fun _ ->
          if Prng.int rng 5 = 0 then Protocol.Invoke_query Set_spec.Read
          else Protocol.Invoke_update (Set_spec.random_update rng)))

let engine_tests =
  [
    qtest ~count:25 "POR preserves distinct violation counts (pipelined)" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let scripts = random_scripts rng in
        let base = M_pipe.explore ~scripts ~final_read:Set_spec.Read () in
        let red = M_pipe.explore ~por:true ~scripts ~final_read:Set_spec.Read () in
        base.M_pipe.exhaustive && red.M_pipe.exhaustive
        && red.M_pipe.distinct_failures = base.M_pipe.distinct_failures);
    qtest ~count:20
      "POR + dedup + checkpoints preserve distinct violation counts (universal)"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let scripts = random_scripts rng in
        let base = M_uni.explore ~scripts ~final_read:Set_spec.Read () in
        let red =
          M_uni.explore ~por:true ~dedup:true ~checkpoint_every:2
            ~snapshot:Snap_set.snapshotter
            ~deliveries_commute:Snap_set.deliveries_commute ~scripts
            ~final_read:Set_spec.Read ()
        in
        base.M_uni.exhaustive && red.M_uni.exhaustive
        && red.M_uni.distinct_failures = base.M_uni.distinct_failures);
    qtest ~count:15 "parallel exploration reports exactly the sequential result"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let scripts = random_scripts rng in
        let seq = M_pipe.explore ~domains:1 ~scripts ~final_read:Set_spec.Read () in
        let par = M_pipe.explore ~domains:2 ~scripts ~final_read:Set_spec.Read () in
        seq = par);
  ]

(* ------------------- Prop. 4 order-independence -------------------

   The lemma the multicore engine's differential oracle stands on,
   pinned sequentially and engine-independently for every spec in the
   registry: delivering one update set in any permutation yields the
   same final state as timestamp order, because the oplog re-sorts by
   timestamp and replay folds the sorted log. If a future spec smuggled
   delivery-order dependence into [apply] (or a log core stopped
   sorting), this fails before any domain is ever spawned. *)

let permutation_tests =
  List.map
    (fun (name, packed) ->
      let module A = (val packed : Uqadt.S) in
      qtest ~count:40
        (name ^ ": any delivery permutation folds like timestamp order")
        seed_gen
        (fun seed ->
          let rng = Prng.create seed in
          let k = 1 + Prng.int rng 8 in
          (* pid = entry index keeps (clock, pid) timestamps unique
             while leaving clock collisions to exercise the pid
             tie-break. *)
          let entries =
            List.init k (fun i ->
                ( Timestamp.make ~clock:(1 + Prng.int rng 6) ~pid:i,
                  i,
                  A.random_update rng ))
          in
          let sorted =
            List.sort
              (fun (a, _, _) (b, _, _) -> Timestamp.compare a b)
              entries
          in
          let expected =
            List.fold_left (fun s (_, _, u) -> A.apply s u) A.initial sorted
          in
          let shuffled = Array.of_list entries in
          Prng.shuffle rng shuffled;
          let log = Oplog.create () in
          Array.iter
            (fun ((ts : Timestamp.t), _, u) ->
              ignore (Oplog.insert log ~clock:ts.clock ~pid:ts.pid u : int))
            shuffled;
          let state, _ = Oplog.replay log ~apply:A.apply ~initial:A.initial in
          A.equal_state state expected
          && Format.asprintf "%a" A.pp_state state
             = Format.asprintf "%a" A.pp_state expected))
    Registry.all

(* ------------- monitor vs batch, registry-wide, faulty -------------

   test_monitor pins the index-level contract for the set spec on
   synthetic histories; here the same differential — the online
   monitor's first violation is exactly the first prefix the batch
   checker rejects, clean iff no prefix ever fails — runs for every
   spec in the registry, on histories harvested from {e faulty}
   schedules: the naive pipelined replica under a crash and a healing
   partition, which reorders deliveries enough to exercise the
   monitors' rejecting paths on non-commutative specs. *)

let random_feed rng h =
  let n = History.process_count h in
  let lines = Array.init n (fun p -> ref (History.steps_of_process h p)) in
  let out = ref [] in
  for _ = 1 to History.size h do
    let live =
      List.filter (fun p -> !(lines.(p)) <> []) (List.init n Fun.id)
    in
    let p = List.nth live (Prng.int rng (List.length live)) in
    (match !(lines.(p)) with
    | s :: rest ->
      lines.(p) := rest;
      out := (p, s) :: !out
    | [] -> assert false)
  done;
  List.rev !out

let first_failing_prefix ~n holds feed =
  let lines = Array.make n [] in
  let rec go i = function
    | [] -> None
    | (pid, step) :: rest ->
      lines.(pid) <- step :: lines.(pid);
      let h = History.make (Array.to_list (Array.map List.rev lines)) in
      if holds h then go (i + 1) rest else Some i
  in
  go 0 feed

let faulty_monitor_tests =
  List.map
    (fun (name, packed) ->
      let module A = (val packed : Uqadt.S) in
      let module M = Obs.Monitor.Make (A) in
      let module Uc = Check_uc.Make (A) in
      let module Ec = Check_ec.Make (A) in
      let module Pc = Check_pc.Make (A) in
      let module R = Runner.Make (Pipelined.Make (A)) in
      let module W = Workload.Make (A) in
      let feed_monitor ~n criterion feed =
        let m = M.create ~n ~criteria:[ criterion ] in
        List.iteri
          (fun i (pid, step) ->
            match step with
            | History.U u -> M.on_update m ~pid ~index:i ~span:None u
            | History.Q (q, o) ->
              M.on_query m ~pid ~index:i ~span:None ~omega:false q o
            | History.Qw (q, o) ->
              M.on_query m ~pid ~index:i ~span:None ~omega:true q o)
          feed;
        Option.map (fun v -> v.Obs.Monitor.index) (M.first_violation m)
      in
      qtest ~count:12
        (name ^ ": monitor = batch first-failing prefix under faults")
        seed_gen
        (fun seed ->
          let rng = Prng.create seed in
          let n = 3 in
          let workload = W.mixed ~rng ~n ~ops_per_process:2 ~query_ratio:0.4 in
          let config =
            {
              (R.default_config ~n ~seed) with
              R.delay = Network.Exponential { mean = 10.0 };
              crashes = [ (40.0, 2) ];
              partitions =
                [ { Network.from_time = 10.0; to_time = 45.0; group = [ 0 ] } ];
              final_read = Some (A.random_query rng);
            }
          in
          let r = R.run config ~workload in
          let feed = random_feed rng r.R.history in
          let n = History.process_count r.R.history in
          List.for_all
            (fun (criterion, holds) ->
              feed_monitor ~n criterion feed
              = first_failing_prefix ~n holds feed)
            [
              (Obs.Monitor.Uc, Uc.holds);
              (Obs.Monitor.Ec, Ec.holds);
              (Obs.Monitor.Pc, Pc.holds);
            ]))
    Registry.all

let tests =
  hierarchy_tests @ codec_tests @ fingerprint_tests @ engine_tests
  @ permutation_tests @ faulty_monitor_tests
