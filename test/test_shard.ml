(* The sharded object space (tentpole: the whole stack generic over a
   shard map).

   - the Proposition 4 oracle on the parallel engine at shard counts
     1/2/4, and batched — certificates equal across replicas, ω sweeps
     equal to the keyed fold, snapshot/absorb restore agreeing, keyed
     sub-updates conserved — with the fold rendered on one line;
   - a flight-recorded parallel run at shard counts 1/2/4, unbatched
     and batched, replaying its journal to the recorded fingerprint,
     and failing to once one deliver count is edited;
   - the sequential runner over the space: converged, certificates
     agree, online UC/EC monitors clean;
   - a hot-shard rebalance run (policy armed): at least one split
     fires, entries re-home, and the run still converges with clean
     monitors;
   - manual [trigger_split] + [force_migrate]: the merged sweep is
     preserved, entries move, and every surviving log entry routes to
     the shard that holds it under the post-split ring;
   - the UCX whole-space snapshot/absorb round trip;
   - journal [Rebalance]/[Shard] events through JSON and jsonl;
   - the per-shard registry rows as `ucsim report` renders them
     (golden), counting the updates of observed replicas only;
   - the certificate's k-way merge against the stable sort of the
     concatenated shard logs, over runs with splits and migrations,
     and its words per entry flat in the log length;
   - the per-key logs: every keyed read and sweep against the fold of
     the shard logs, every shard clock against one tick per read, and
     every shard clock covering its entries after each migration and
     absorb, over random runs with splits, migrations and both kinds
     of absorb; an absorbed entry landing in its key's shard whatever
     shard its frame names; and a keyed read allocating only what its
     key's new entries apply, however full its shard;
   - a message's rendering and wire size, alone and in a 3-key
     envelope, pinned;
   - a sweep against [K.eval] of the shard logs' fold at 1, 2 and 8
     shards, with keys returned to the initial state left out;
   - what an update allocates (5 words a key, 3 more for an envelope)
     and what a second sweep allocates per key. *)

module S = Space.Make (Set_spec) (Update_codec.For_set)
module B = Throughput.Sharded
module R = Runner.Make (S)

(* ------------------------- workload plumbing ------------------------- *)

let set_update g =
  let v = 1 + Prng.int g 16 in
  if Prng.float g 1.0 < 0.3 then Set_spec.Delete v else Set_spec.Insert v

let scripts ~seed ~n ~ops ~keys ~skew =
  Workload.For_space.zipf_scripts ~rng:(Prng.create seed) ~n
    ~ops_per_process:ops ~keys ~skew ~fanout:3 ~query_ratio:0.25
    ~update:set_update
    ~query:(fun _ -> Set_spec.Read)
    ~read:(fun k q -> S.K.Read (k, q))

let run_space ?policy ?obs ?(monitors = []) ~shards ~seed ~n ~ops ~keys ~skew
    () =
  let map = S.create_map ?policy ?obs ~shards () in
  S.configure map;
  let monitor =
    if monitors = [] then None else Some (R.Mon.create ~n ~criteria:monitors)
  in
  let config =
    {
      (R.default_config ~n ~seed) with
      R.final_read = Some S.K.Sweep;
      obs;
      monitor;
    }
  in
  let r = R.run config ~workload:(scripts ~seed ~n ~ops ~keys ~skew) in
  (map, monitor, r)

(* --------------------------- manual harness -------------------------- *)

(* Two replicas wired through in-memory mailboxes: enough network to
   exercise fan-out, split and migration without the simulator. *)
let manual_pair map =
  S.configure map;
  let boxes = Array.init 2 (fun _ -> Queue.create ()) in
  let ctx pid : _ Protocol.ctx =
    {
      Protocol.pid;
      n = 2;
      now = (fun () -> 0.0);
      send = (fun ~dst m -> Queue.push (pid, m) boxes.(dst));
      broadcast = (fun m -> Queue.push (pid, m) boxes.(1 - pid));
      broadcast_batch =
        (fun ms -> List.iter (fun m -> Queue.push (pid, m) boxes.(1 - pid)) ms);
      set_timer = (fun ~delay:_ _ -> ());
      count_replay = ignore;
      obs = None;
    }
  in
  let rs = Array.init 2 (fun pid -> S.create (ctx pid)) in
  let drain () =
    let quiet = ref false in
    while not !quiet do
      quiet := true;
      Array.iteri
        (fun dst box ->
          while not (Queue.is_empty box) do
            quiet := false;
            let src, m = Queue.pop box in
            S.receive rs.(dst) ~src m
          done)
        boxes
    done
  in
  (rs, drain)

let sweep r =
  let out = ref None in
  S.query r S.K.Sweep ~on_result:(fun o -> out := Some o);
  match !out with Some o -> o | None -> Alcotest.fail "sweep did not answer"

let feed_manual ~seed ~ops (rs : S.t array) drain =
  let g = Prng.create seed in
  for _ = 1 to ops do
    let p = Prng.int g 2 in
    let width = 1 + Prng.int g 3 in
    let batch = ref [] in
    for _ = 1 to width do
      let k = Prng.int g 32 in
      batch := (k, set_update g) :: !batch
    done;
    S.update rs.(p) (List.rev !batch) ~on_done:ignore;
    drain ()
  done

let entries_route_home map r =
  List.for_all
    (fun (s, log) ->
      List.for_all (fun (_, _, (k, _)) -> Ring.route (S.ring map) k = s) log)
    (S.shard_logs r)

(* One parallel run of the space's measure on a fresh static ring. *)
let bench ?batch_every ?flush_window ?recorder ~shards scripts =
  B.S.configure (B.S.create_map ~shards ());
  B.measure ?batch_every ?flush_window ?recorder ~domains:(Array.length scripts)
    ~final_read:B.S.K.Sweep ~scripts ()

(* ------------------------------ tests -------------------------------- *)

let differential_tests =
  [
    Alcotest.test_case
      "parallel differential holds at shards 1/2/4 (logs, ω fold, snapshot, \
       conservation)"
      `Slow
      (fun () ->
        List.iter
          (fun (shards, seed, batch_every, flush_window, query_ratio) ->
            let scripts =
              B.zipf_scripts ~seed ~domains:2 ~ops:300 ~keys:64 ~skew:1.1
                ~fanout:3 ~query_ratio
            in
            let v = bench ~batch_every ~flush_window ~shards scripts in
            let label =
              Printf.sprintf "shards=%d seed=%d batch=%d" shards seed
                batch_every
            in
            Alcotest.(check bool) label true (B.ok v);
            (* Unbatched, each update is one envelope to the one peer. *)
            let sum f =
              Array.fold_left (fun acc r -> acc + f r) 0 v.B.run.B.E.reports
            in
            Alcotest.(check bool)
              (label ^ ": fewer frames than updates iff batched")
              (batch_every > 1)
              (sum (fun r -> r.Parallel_engine.frames_sent)
              < sum (fun r -> r.Parallel_engine.updates)))
          [
            (1, 3, 1, 0, 0.2);
            (2, 17, 1, 0, 0.2);
            (4, 42, 1, 0, 0.2);
            (4, 5, 8, 4, 0.25);
            (4, 23, 8, 4, 0.25);
          ]);
    Alcotest.test_case
      "a recorded run replays at shards 1/2/4, and not with a deliver count \
       edited"
      `Quick
      (fun () ->
        List.iter
          (fun (shards, batch_every, flush_window) ->
            let scripts =
              B.zipf_scripts ~seed:shards ~domains:2 ~ops:300 ~keys:64
                ~skew:1.1 ~fanout:3 ~query_ratio:0.2
            in
            let recorder = Obs.Recorder.create ~domains:2 () in
            let v = bench ~batch_every ~flush_window ~recorder ~shards scripts in
            let label =
              Printf.sprintf "shards=%d batch=%d" shards batch_every
            in
            Alcotest.(check bool) (label ^ ": differential") true (B.ok v);
            let rc = Option.get v.B.recording in
            Alcotest.(check (result string string))
              (label ^ ": replay reaches the recorded fingerprint")
              (Ok rc.B.fingerprint) rc.B.replay;
            let journal = rc.B.journal in
            let edited =
              Obs.Journal.create ~header:(Obs.Journal.header journal) ()
            in
            let bumped = ref false in
            List.iter
              (fun ev ->
                Obs.Journal.record edited
                  (match ev with
                  | Obs.Journal.Deliver d when not !bumped ->
                    bumped := true;
                    Obs.Journal.Deliver { d with count = d.count + 1 }
                  | ev -> ev))
              (Obs.Journal.events journal);
            Obs.Journal.seal edited ~fingerprint:rc.B.fingerprint;
            Alcotest.(check bool)
              (label ^ ": an edited deliver count fails")
              true
              (Result.is_error
                 (B.replay_journal ~scripts ~final_read:B.S.K.Sweep edited)))
          [ (1, 1, 0); (2, 1, 0); (4, 1, 0); (1, 8, 4); (2, 8, 4); (4, 8, 4) ]);
    Alcotest.test_case "a 64-key run's converged state renders on one line" `Quick
      (fun () ->
        let scripts =
          B.zipf_scripts ~seed:3 ~domains:2 ~ops:500 ~keys:64 ~skew:1.1 ~fanout:3
            ~query_ratio:0.3
        in
        let state = (bench ~shards:4 scripts).B.oracle.Throughput.state_repr in
        Alcotest.(check bool) "longer than the 80-column margin" true (String.length state > 80);
        Alcotest.(check bool) "no newline" false (String.contains state '\n'));
    Alcotest.test_case "sequential runner converges with clean monitors"
      `Quick
      (fun () ->
        let map, monitor, r =
          run_space ~monitors:[ Obs.Monitor.Uc; Obs.Monitor.Ec ] ~shards:4
            ~seed:7 ~n:3 ~ops:20 ~keys:64 ~skew:1.1 ()
        in
        Alcotest.(check bool) "converged" true r.R.converged;
        Alcotest.(check bool) "certificates agree" true r.R.certificates_agree;
        Alcotest.(check int) "ring untouched without a policy" 0
          (S.rebalances map);
        match monitor with
        | None -> Alcotest.fail "monitor missing"
        | Some m ->
          Alcotest.(check (list string)) "monitors clean" []
            (List.map
               (Format.asprintf "%a" Obs.Monitor.pp_violation)
               (R.Mon.violations m)));
  ]

let rebalance_tests =
  [
    Alcotest.test_case
      "hot-shard rebalance fires, re-homes entries, converges, monitors clean"
      `Quick
      (fun () ->
        let policy =
          { S.interval = 15.0; hot_factor = 1.5; max_shards = 64 }
        in
        let map, monitor, r =
          run_space ~policy ~monitors:[ Obs.Monitor.Uc; Obs.Monitor.Ec ]
            ~shards:2 ~seed:11 ~n:3 ~ops:30 ~keys:16 ~skew:1.1 ()
        in
        Alcotest.(check bool) "at least one split" true (S.rebalances map >= 1);
        Alcotest.(check bool) "ring grew" true (Ring.shards (S.ring map) > 2);
        Alcotest.(check bool) "entries re-homed" true (S.moved_entries map > 0);
        Alcotest.(check bool) "converged" true r.R.converged;
        Alcotest.(check bool) "certificates agree" true r.R.certificates_agree;
        match monitor with
        | None -> Alcotest.fail "monitor missing"
        | Some m ->
          Alcotest.(check (list string)) "monitors clean" []
            (List.map
               (Format.asprintf "%a" Obs.Monitor.pp_violation)
               (R.Mon.violations m)));
  ]

let migration_tests =
  [
    Alcotest.test_case
      "manual split + migrate preserves the sweep and re-homes entries"
      `Quick
      (fun () ->
        let map = S.create_map ~shards:2 () in
        let rs, drain = manual_pair map in
        feed_manual ~seed:5 ~ops:60 rs drain;
        let before = sweep rs.(0) in
        Alcotest.(check bool) "replicas agree pre-split" true
          (S.K.equal_output before (sweep rs.(1)));
        let hot, _ =
          match S.shard_ops map with
          | [] -> Alcotest.fail "no shard ops"
          | x :: tl ->
            List.fold_left
              (fun (h, c) (s, n) -> if n > c then (s, n) else (h, c))
              x tl
        in
        let fresh = S.trigger_split map ~now:1.0 ~hot in
        Alcotest.(check bool) "fresh shard id is new" true (fresh > hot);
        Array.iter S.force_migrate rs;
        drain ();
        Alcotest.(check bool) "entries re-homed" true (S.moved_entries map > 0);
        Array.iter
          (fun r ->
            Alcotest.(check bool) "sweep preserved across migration" true
              (S.K.equal_output before (sweep r));
            Alcotest.(check bool) "every entry routes to its shard" true
              (entries_route_home map r))
          rs;
        (* Migration only moves entries, it never loses or duplicates
           them: per-shard lengths sum to the pre-split total. *)
        let total r =
          List.fold_left (fun n (_, l) -> n + l) 0 (S.shard_log_lengths r)
        in
        Alcotest.(check int) "log mass conserved" (total rs.(0)) (total rs.(1)));
    Alcotest.test_case "UCX snapshot/absorb restores a fresh replica" `Quick
      (fun () ->
        let map = S.create_map ~shards:4 () in
        let rs, drain = manual_pair map in
        feed_manual ~seed:9 ~ops:40 rs drain;
        let snap =
          match S.snapshot rs.(0) with
          | Some s -> s
          | None -> Alcotest.fail "space must provide a snapshot"
        in
        let map' = S.create_map ~shards:4 () in
        let fresh, _ = manual_pair map' in
        Alcotest.(check bool) "absorb accepts" true (S.absorb fresh.(0) snap);
        Alcotest.(check bool) "restored sweep agrees" true
          (S.K.equal_output (sweep rs.(0)) (sweep fresh.(0)));
        (* Absorbing twice changes nothing: timestamp-union merge. *)
        Alcotest.(check bool) "absorb is idempotent" true
          (S.absorb fresh.(0) snap);
        Alcotest.(check bool) "sweep unchanged" true
          (S.K.equal_output (sweep rs.(0)) (sweep fresh.(0))));
  ]

let journal_tests =
  [
    Alcotest.test_case "Rebalance/Shard events round-trip JSON and jsonl"
      `Quick
      (fun () ->
        let events =
          [
            Obs.Journal.Rebalance
              { time = 12.5; hot = 1; fresh = 4; shards = 5; moved = 37 };
            Obs.Journal.Shard { time = 12.5; shard = 1; ops = 120; log = 64 };
            Obs.Journal.Shard { time = 12.5; shard = 4; ops = 0; log = 0 };
          ]
        in
        List.iter
          (fun e ->
            Alcotest.(check bool) "event json round-trip" true
              (Obs.Journal.event_of_json (Obs.Journal.event_to_json e) = e))
          events;
        let j = Obs.Journal.create ~header:[ ("shards", Obs.Json.Num 5.0) ] () in
        List.iter (Obs.Journal.record j) events;
        Obs.Journal.seal j ~fingerprint:"cafe";
        let j' = Obs.Journal.of_jsonl (Obs.Journal.to_jsonl j) in
        (match Obs.Journal.diff j j' with
        | None -> ()
        | Some (i, a, b) ->
          Alcotest.failf "jsonl round-trip diverges at %d: %s vs %s" i a b);
        Alcotest.(check (option string)) "fingerprint survives" (Some "cafe")
          (Obs.Journal.fingerprint j'));
  ]

(* The registry rows as `ucsim report` renders them: to_json →
   rows_of_json → pp_rows, filtered to the shard family. Golden — the
   run is deterministic, so the exact counts are part of the
   contract. *)
let registry_golden =
  Alcotest.test_case "per-shard registry rows render as a stable table"
    `Quick
    (fun () ->
      let obs = Obs.create () in
      let map, _, r =
        run_space ~obs ~shards:2 ~seed:13 ~n:2 ~ops:8 ~keys:16 ~skew:1.1 ()
      in
      Alcotest.(check bool) "converged" true r.R.converged;
      let rows =
        Obs.Registry.rows_of_json (Obs.Registry.to_json obs.Obs.registry)
      in
      let shard_rows =
        List.filter
          (fun (row : Obs.Registry.row) ->
            String.length row.name >= 6 && String.sub row.name 0 6 = "shard_")
          rows
      in
      let rendered = Format.asprintf "%a" Obs.Registry.pp_rows shard_rows in
      let total_ops =
        List.fold_left (fun n (_, ops) -> n + ops) 0 (S.shard_ops map)
      in
      let counter name labels =
        match
          List.find_opt
            (fun (row : Obs.Registry.row) ->
              row.name = name && row.labels = labels)
            shard_rows
        with
        | Some { data = Obs.Registry.Count c; _ } -> c
        | _ -> Alcotest.failf "row %s missing" name
      in
      Alcotest.(check int) "shard_ops rows sum to the map's total" total_ops
        (counter "shard_ops" [ ("shard", "0") ]
        + counter "shard_ops" [ ("shard", "1") ]);
      Alcotest.(check string) "report rendering (golden)"
        (String.concat "\n"
           [
             "shard_log_entries{shard=0}  22";
             "shard_log_entries{shard=1}  10";
             "shard_moved_entries         0";
             "shard_ops{shard=0}          22";
             "shard_ops{shard=1}          10";
             "shard_splits{shard=0}       0";
             "shard_splits{shard=1}       0";
             "";
           ])
        rendered)

(* A replica without a telemetry handle, like those the multicore
   bench's journal replay builds over the run's map, leaves the
   shard_ops rows alone; its twin with a handle counts its three keyed
   sub-updates. *)
let unobserved_ops =
  Alcotest.test_case "shard_ops counts only replicas that report telemetry" `Quick
    (fun () ->
      let o = Obs.create () in
      S.configure (S.create_map ~obs:o ~shards:2 ());
      let batch = List.map (fun k -> (k, Set_spec.Insert k)) [ 1; 2; 3 ] in
      List.iter
        (fun obs ->
          S.update
            (S.create { (Throughput.dummy_ctx ~pid:0 ~n:1) with obs })
            batch ~on_done:ignore)
        [ None; Some (Obs.replica o 0) ];
      let counted =
        List.fold_left
          (fun n (row : Obs.Registry.row) ->
            match row.data with
            | Obs.Registry.Count c when row.name = "shard_ops" -> n + c
            | _ -> n)
          0
          (Obs.Registry.rows_of_json (Obs.Registry.to_json o.Obs.registry))
      in
      Alcotest.(check int) "the observed replica's sub-updates" 3 counted)

(* --------------------------- certificates ---------------------------- *)

(* The space's replicas as the runner builds them, kept for inspection
   after the run. *)
module Kept = struct
  include S

  let made = ref []

  let create ctx =
    let r = S.create ctx in
    made := r :: !made;
    r
end

module KR = Runner.Make (Kept)
module Cert = Protocol.Certificate (S)

(* The certificate a stable sort of the concatenated shard logs gives:
   the procedure the k-way merge replaced, kept as its reference. *)
let sorted_certificate ~n r =
  List.concat_map snd (S.shard_logs r)
  |> List.stable_sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b)
  |> List.map (fun (_, origin, ku) -> (origin mod n, [ ku ]))

let hottest map =
  fst
    (List.fold_left
       (fun (h, c) (s, ops) -> if ops > c then (s, ops) else (h, c))
       (0, -1) (S.shard_ops map))

(* A random sharded run under a hot-shard policy, then one more split
   that every replica migrates before it is certified again: the merge
   agrees with the reference on every replica, both times. *)
let certificate_merge =
  Helpers.qtest ~count:60 "certificate's k-way merge = stable sort of the shard logs"
    Helpers.seed_gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 3 in
      let policy =
        { S.interval = float_of_int (5 + Prng.int rng 20); hot_factor = 1.2; max_shards = 16 }
      in
      let map = S.create_map ~policy ~shards:(1 + Prng.int rng 3) () in
      S.configure map;
      Kept.made := [];
      let config = { (KR.default_config ~n ~seed) with KR.final_read = Some S.K.Sweep } in
      let r =
        KR.run config
          ~workload:
            (scripts ~seed ~n ~ops:(10 + Prng.int rng 30) ~keys:(8 + Prng.int rng 56) ~skew:1.1)
      in
      let agree () =
        List.for_all
          (fun x ->
            S.force_migrate x;
            let reference = sorted_certificate ~n x in
            Cert.to_list x = Some reference)
          !Kept.made
      in
      let during = agree () in
      ignore (S.trigger_split map ~now:0.0 ~hot:(hottest map) : int);
      r.KR.certificates_agree && during && agree ())

(* A lone replica over [map]. *)
let solo map =
  S.configure map;
  S.create
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

let solo_space ~shards = solo (S.create_map ~shards ())

(* Minor words per certificate entry of a replica holding [entries]
   single-key updates over 8 shards, the certificate built as a
   list. *)
let certificate_words entries =
  let r = solo_space ~shards:8 in
  for i = 1 to entries do
    S.update r [ (i * 7919 mod 1024, Set_spec.Insert (i mod 16)) ] ~on_done:ignore
  done;
  let words =
    Helpers.minor_words (fun () -> ignore (Sys.opaque_identity (Cert.to_list r)))
  in
  words /. float_of_int entries

(* The merge reads the shard logs in place: the fold allocates the
   singleton batch and the list the [(origin, [ku])] pair and the cons,
   9 words an entry whatever the length. Concatenating the logs and
   sorting them cost 66 words an entry at 48k, growing with log n. *)
let certificate_guard =
  Alcotest.test_case "certificate words per entry stay flat from 10k to 40k" `Quick
    (fun () ->
      let short = certificate_words 10_000 and long = certificate_words 40_000 in
      if long > short +. 0.05 || long > 9.05 then
        Alcotest.failf "certificate minor words per entry: %.2f at 10k, %.2f at 40k"
          short long)

(* ------------------------------ key logs ----------------------------- *)

(* What a read answered before each key had a log of its own: [K.eval]
   of the keyed fold of the replica's shard logs, merged in timestamp
   order. *)
let reference_state r =
  List.concat_map snd (S.shard_logs r)
  |> List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b)
  |> List.fold_left (fun m (_, _, ku) -> S.K.apply m [ ku ]) S.K.initial

(* The space with every query checked as it is answered: the answer
   against the reference fold, and the shard clocks against line 13,
   one tick of the routed shard for a read (creating it if need be)
   and of every live shard for a sweep. And after every migration and
   absorb, each shard's clock covers its entries. *)
module Checked = struct
  include Kept

  let map = ref None

  let reads = ref 0

  let failures = ref []

  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

  (* What a migration and an absorb must leave: every shard's clock at
     or above the clock of each entry it holds, so that the next stamp
     there sorts after all of them. *)
  let clocks_cover r =
    let clocks = S.shard_clocks r in
    List.iter
      (fun (s, log) ->
        let top = List.fold_left (fun acc (ts, _, _) -> max acc ts.Timestamp.clock) 0 log in
        let c = List.assoc s clocks in
        if c < top then fail "shard %d clock %d below its entries' %d" s c top)
      (S.shard_logs r)

  (* Every entry point migrates first; here the migration is checked
     before the operation runs. *)
  let migrated r =
    S.force_migrate r;
    clocks_cover r

  let update r u ~on_done =
    migrated r;
    S.update r u ~on_done

  let receive r ~src m =
    migrated r;
    S.receive r ~src m

  let receive_batch r ~src ms =
    migrated r;
    S.receive_batch r ~src ms

  let absorb r bytes =
    migrated r;
    let merged = S.absorb r bytes in
    clocks_cover r;
    merged

  let query r q ~on_result =
    migrated r;
    let expected = S.K.eval (reference_state r) q in
    let before = S.shard_clocks r in
    let ticked =
      match (q, !map) with
      | S.K.Read (k, _), Some m -> [ Ring.route (S.ring m) k ]
      | S.K.Read _, None -> []
      | S.K.Sweep, _ -> List.map fst before
    in
    S.query r q ~on_result:(fun out ->
        incr reads;
        if not (S.K.equal_output expected out) then
          fail "%s answered %s, the shard-log fold %s"
            (Format.asprintf "%a" S.K.pp_query q)
            (Format.asprintf "%a" S.K.pp_output out)
            (Format.asprintf "%a" S.K.pp_output expected);
        let after = S.shard_clocks r in
        List.iter
          (fun (s, c) ->
            let was = Option.value ~default:0 (List.assoc_opt s before) in
            let want = if List.mem s ticked then was + 1 else was in
            if c <> want then fail "shard %d clock %d after %s, want %d" s c
                (Format.asprintf "%a" S.K.pp_query q) want)
          after;
        if List.length after < List.length before then fail "a shard vanished";
        on_result out)
end

module CR = Runner.Make (Checked)

(* A random sharded run under exponential delays (deliveries land out
   of order), batch windows and multi-key updates, a hot-shard policy
   (splits and migrations), the
   last replica joining late (a UCX absorb into a fresh replica) and
   replica 0 leaving and rejoining (one into a populated replica), then
   a manual split after the run, migrated and read again on every
   replica. Returns the run, the map, and whether every check held. *)
let checked_run seed =
  let rng = Prng.create seed in
  let n = 3 + Prng.int rng 2 in
  let keys = 8 + Prng.int rng 56 in
  let policy =
    { S.interval = float_of_int (5 + Prng.int rng 20); hot_factor = 1.2; max_shards = 16 }
  in
  let map = S.create_map ~policy ~shards:(1 + Prng.int rng 3) () in
  S.configure map;
  Checked.map := Some map;
  Checked.failures := [];
  Checked.reads := 0;
  Kept.made := [];
  let leave = float_of_int (10 + Prng.int rng 40) in
  let churn =
    [
      { Network.time = float_of_int (5 + Prng.int rng 40); pid = n - 1; action = Network.Join };
      { Network.time = leave; pid = 0; action = Network.Leave };
      { Network.time = leave +. float_of_int (5 + Prng.int rng 40); pid = 0; action = Network.Rejoin };
    ]
  in
  let config =
    {
      (CR.default_config ~n ~seed) with
      CR.delay = Network.Exponential { mean = float_of_int (2 + Prng.int rng 12) };
      batch_window = (if Prng.bool rng then Some 3.0 else None);
      churn;
      final_read = Some S.K.Sweep;
    }
  in
  let r = CR.run config ~workload:(scripts ~seed ~n ~ops:(10 + Prng.int rng 25) ~keys ~skew:1.1) in
  ignore (S.trigger_split map ~now:0.0 ~hot:(hottest map) : int);
  List.iter
    (fun x ->
      for k = 0 to keys - 1 do
        Checked.query x (S.K.Read (k, Set_spec.Read)) ~on_result:ignore
      done;
      Checked.query x S.K.Sweep ~on_result:ignore)
    !Kept.made;
  (r, map, !Checked.failures = [] && r.CR.converged && r.CR.certificates_agree)

let key_log_differential =
  Helpers.qtest ~count:40 "keyed reads and sweeps equal the shard-log fold, one tick per read"
    Helpers.seed_gen (fun seed ->
      let _, _, ok = checked_run seed in
      if not ok then
        QCheck2.Test.fail_reportf "%d failed checks, first: %s"
          (List.length !Checked.failures)
          (String.concat "; " (List.filteri (fun i _ -> i < 3) (List.rev !Checked.failures)));
      true)

(* The Runner hands a replica its frames message by message; the
   parallel engine hands it whole envelopes through [receive_batch].
   Here replica 0's envelopes (an update's sub-updates, 1 to 3 keys)
   reach replica 1 whole and in random order, between checked reads,
   while replica 1 writes too. *)
let envelope_run seed =
  let rng = Prng.create seed in
  let map = S.create_map ~shards:(1 + Prng.int rng 4) () in
  S.configure map;
  Checked.map := Some map;
  Checked.failures := [];
  let pending = ref [] in
  let ctx pid : _ Protocol.ctx =
    let post ms = if pid = 0 then pending := ms :: !pending in
    {
      Protocol.pid;
      n = 2;
      now = (fun () -> 0.0);
      send = (fun ~dst:_ _ -> ());
      broadcast = (fun m -> post [ m ]);
      broadcast_batch = post;
      set_timer = (fun ~delay:_ _ -> ());
      count_replay = ignore;
      obs = None;
    }
  in
  let a = S.create (ctx 0) and b = S.create (ctx 1) in
  let batch () = List.init (1 + Prng.int rng 3) (fun _ -> (Prng.int rng 16, set_update rng)) in
  let deliver_one () =
    let i = Prng.int rng (List.length !pending) in
    let env = List.nth !pending i in
    pending := List.filteri (fun j _ -> j <> i) !pending;
    S.receive_batch b ~src:0 env
  in
  for _ = 1 to 60 do
    S.update (if Prng.int rng 4 = 0 then b else a) (batch ()) ~on_done:ignore;
    if !pending <> [] && Prng.int rng 3 > 0 then deliver_one ();
    Checked.query b (S.K.Read (Prng.int rng 16, Set_spec.Read)) ~on_result:ignore
  done;
  while !pending <> [] do
    deliver_one ()
  done;
  Checked.query b S.K.Sweep ~on_result:ignore;
  !Checked.failures

let envelope_differential =
  Helpers.qtest ~count:60 "envelopes landed whole and out of order keep the key logs exact"
    Helpers.seed_gen (fun seed ->
      match envelope_run seed with
      | [] -> true
      | failures ->
        QCheck2.Test.fail_reportf "%d failed checks, first: %s" (List.length failures)
          (String.concat "; " (List.filteri (fun i _ -> i < 3) (List.rev failures))))

(* One run in which every path the key logs have to follow happens. *)
let key_log_paths =
  Alcotest.test_case "key logs follow splits, migrations and both kinds of absorb" `Quick
    (fun () ->
      let r, map, ok = checked_run 4 in
      Alcotest.(check int) "failed checks" 0 (List.length !Checked.failures);
      Alcotest.(check bool) "converged, certificates agree" true ok;
      Alcotest.(check bool) "the policy split a shard" true (S.rebalances map >= 2);
      Alcotest.(check bool) "entries moved" true (S.moved_entries map > 0);
      Alcotest.(check bool) "a fresh and a populated replica absorbed" true
        (r.CR.metrics.Metrics.snapshots_absorbed >= 2);
      Alcotest.(check bool) "reads were checked" true (!Checked.reads > 20))

(* An absorbed entry lands as a delivery does, under its key and in the
   shard its key routes to, whatever shard its frame names; the named
   shard's clock rises to the frame's. A frame [snapshot] writes names
   the shard of every entry in it, so only a frame made by hand shows
   the difference. *)
let misnamed_frame =
  Alcotest.test_case "an absorbed entry lands in its key's shard, not the frame's" `Quick
    (fun () ->
      let map = S.create_map ~shards:2 () in
      let r = solo map in
      let k = List.find (fun k -> Ring.route (S.ring map) k = 1) (List.init 64 Fun.id) in
      let entry = (Timestamp.make ~clock:5 ~pid:3, 3, (k, Set_spec.Insert 3)) in
      let module OneC = Keyed.One_codec (Set_spec) (Update_codec.For_set) in
      let shard_frame =
        Persist.replica_frame ~clock:9
          (Oplog.encode_list ~encode_update:OneC.encode [ entry ])
      in
      let w = Codec.Writer.create () in
      String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) "UCX\x01";
      Codec.Writer.varint w 1;
      Codec.Writer.varint w 0;
      Codec.Writer.byte_string w shard_frame;
      Alcotest.(check bool) "absorbed" true (S.absorb r (Codec.Writer.contents w));
      Alcotest.(check bool) "filed under the key's shard" true
        (S.shard_logs r = [ (0, []); (1, [ entry ]) ]);
      Alcotest.(check (list (pair int int))) "clocks: the frame's, the entry's"
        [ (0, 9); (1, 5) ] (S.shard_clocks r);
      let out = ref None in
      S.query r (S.K.Read (k, Set_spec.Read)) ~on_result:(fun o -> out := Some o);
      Alcotest.(check bool) "the key reads its entry" true
        (S.K.equal_output (Option.get !out)
           (S.K.eval (S.K.apply S.K.initial [ (k, Set_spec.Insert 3) ]) (S.K.Read (k, Set_spec.Read)))))

let answered = ref None

let keep_answer o = answered := Some o

(* Minor words a read of key 7 allocates after the key gained
   [gained] entries, interleaved with [others] entries on other keys
   of its (only) shard; and the words [Set_spec.apply] builds folding
   those [gained] updates onto the key's previous state. *)
let keyed_read_words ~others ~gained =
  let r = solo_space ~shards:1 in
  let k = 7 in
  let update ku = S.update r [ ku ] ~on_done:ignore in
  let other i = update (100 + (i mod 512), Set_spec.Insert (i mod 16)) in
  let early = List.init 40 (fun i -> Set_spec.Insert (i mod 24)) in
  List.iteri (fun i u -> other i; update (k, u)) early;
  for i = 1 to others do other i done;
  S.query r (S.K.Read (k, Set_spec.Read)) ~on_result:keep_answer;
  let late = List.init gained (fun i -> Set_spec.Insert (24 + i)) in
  List.iter
    (fun u ->
      update (k, u);
      for i = 1 to others / gained do other i done)
    late;
  let read =
    Helpers.minor_words (fun () ->
        S.query r (S.K.Read (k, Set_spec.Read)) ~on_result:keep_answer)
  in
  let base = List.fold_left Set_spec.apply Set_spec.initial early in
  let applied =
    Helpers.minor_words (fun () ->
        ignore (Sys.opaque_identity (List.fold_left Set_spec.apply base late)))
  in
  (read, applied)

(* A keyed read folds its key's new entries and nothing else: what
   [A.apply] builds for them plus a constant, however many entries
   the other keys of its shard gained. Folding the whole shard into a
   keyed map overshot the bound by 598 words with no other keys and
   by 22,038 with 10k. *)
let keyed_read_guard =
  Alcotest.test_case "a keyed read allocates what its key's new entries apply, + 16 words"
    `Quick (fun () ->
      List.iter
        (fun others ->
          let read, applied = keyed_read_words ~others ~gained:8 in
          if read > applied +. 16. then
            Alcotest.failf "read of 8 new entries beside %d others: %.0f words, apply %.0f"
              others read applied)
        [ 0; 10_000 ])

(* ------------------------ messages and sweeps ------------------------ *)

(* What a lone replica (pid 1 of 3, 8 shards) hands its transport for
   each update: a single-key update's message alone, a batch's as one
   envelope. *)
let sent_messages updates =
  S.configure (S.create_map ~shards:8 ());
  let sent = ref [] in
  let r =
    S.create
      {
        Protocol.pid = 1;
        n = 3;
        now = (fun () -> 0.0);
        send = (fun ~dst:_ _ -> ());
        broadcast = (fun m -> sent := `Alone m :: !sent);
        broadcast_batch = (fun ms -> sent := `Envelope ms :: !sent);
        set_timer = (fun ~delay:_ _ -> ());
        count_replay = ignore;
        obs = None;
      }
  in
  List.iter (fun kus -> S.update r kus ~on_done:ignore) updates;
  List.rev !sent

let rendered m = Printf.sprintf "%s %d" (S.describe_message m) (S.message_wire_size m)

(* Pinned to what the nested (shard, (timestamp, update)) message
   rendered and cost on the wire: the flat record changes neither the
   traces nor the byte counts. *)
let message_pins =
  Alcotest.test_case "a message's rendering and wire size, alone and in an envelope"
    `Quick (fun () ->
      let sent =
        sent_messages
          [
            [ (5, Set_spec.Insert 3) ];
            [ (1, Set_spec.Insert 2); (700, Set_spec.Delete 9); (42, Set_spec.Insert 300) ];
          ]
      in
      let shape = function
        | `Alone m -> "alone: " ^ rendered m
        | `Envelope ms -> "envelope: " ^ String.concat "; " (List.map rendered ms)
      in
      Alcotest.(check (list string)) "messages"
        [
          "alone: s0:5:=I(3)(1,1) 6";
          "envelope: s7:1:=I(2)(1,22) 6; s5:700:=D(9)(1,16) 7; s4:42:=I(300)(1,13) 7";
        ]
        (List.map shape sent))

(* Updates that put keys 100 to 103 back at the initial state: an
   insert then a delete of one element, from one replica or from both,
   and within one batch. *)
let undone_keys = [ 100; 101; 102; 103 ]

let undo (rs : S.t array) drain =
  let update p kus =
    S.update rs.(p) kus ~on_done:ignore;
    drain ()
  in
  update 0 [ (100, Set_spec.Insert 4) ];
  update 0 [ (100, Set_spec.Delete 4) ];
  update 0 [ (101, Set_spec.Insert 5); (7, Set_spec.Insert 5) ];
  update 1 [ (101, Set_spec.Delete 5) ];
  update 1 [ (102, Set_spec.Insert 6); (102, Set_spec.Delete 6); (103, Set_spec.Insert 1) ];
  update 0 [ (103, Set_spec.Delete 1) ]

(* A sweep builds its answer from the sorted key ids with no keyed map:
   the same answer, rendered the same, as [K.eval] of the shard logs'
   fold, and without the keys back at the initial state. *)
let sweep_differential =
  Helpers.qtest ~count:40 "a sweep = K.eval of the shard-log fold at 1, 2 and 8 shards"
    Helpers.seed_gen (fun seed ->
      List.for_all
        (fun shards ->
          let rs, drain = manual_pair (S.create_map ~shards ()) in
          feed_manual ~seed ~ops:40 rs drain;
          undo rs drain;
          feed_manual ~seed:(seed + 1) ~ops:10 rs drain;
          Array.for_all
            (fun r ->
              let expected = S.K.eval (reference_state r) S.K.Sweep and got = sweep r in
              let text = Format.asprintf "%a" S.K.pp_output in
              S.K.equal_output expected got
              && text expected = text got
              &&
              match got with
              | S.K.States states ->
                List.for_all (fun k -> not (List.mem_assoc k states)) undone_keys
              | S.K.Out _ -> false)
            rs)
        [ 1; 2; 8 ])

(* Minor words per [w]-key update on a lone replica over 8 shards,
   onto 64 key logs that already hold an entry each, so each log has
   room for the [w] entries the updates add. *)
let update_words w =
  let r = solo_space ~shards:8 in
  for k = 0 to 63 do
    S.update r [ (k, Set_spec.Insert 1) ] ~on_done:ignore
  done;
  let batches =
    Array.init 64 (fun i -> List.init w (fun j -> ((i + j) mod 64, Set_spec.Insert (2 + j))))
  in
  let words =
    Helpers.minor_words (fun () ->
        for i = 0 to 63 do
          S.update r batches.(i) ~on_done:ignore
        done)
  in
  words /. 64.0

(* An update allocates the message of each keyed sub-update, 5 words,
   and a batch's envelope a cons a message. With a queue cell, a
   (shard, stamped) pair, the stamped record and its timestamp per
   message, and the queue popped into a list and reversed for an
   envelope, 1-, 2- and 3-key updates cost 12, 36 and 54 words. *)
let update_guard =
  Alcotest.test_case "a w-key update allocates 5w words, + 3w for an envelope" `Quick
    (fun () ->
      List.iter
        (fun w ->
          let words = update_words w in
          let bound = float_of_int ((5 * w) + if w > 1 then 3 * w else 0) in
          if words > bound +. 0.5 then
            Alcotest.failf "a %d-key update: %.2f minor words, bound %.0f" w words bound)
        [ 1; 2; 3 ])

(* Minor words per key of a second sweep over 64 keys of 6 entries
   each, whose logs' query caches the first sweep filled. *)
let sweep_words () =
  let r = solo_space ~shards:8 in
  for i = 0 to 383 do
    S.update r [ (i mod 64, Set_spec.Insert (i mod 23)) ] ~on_done:ignore
  done;
  ignore (sweep r : S.K.output);
  let words = Helpers.minor_words (fun () -> ignore (Sys.opaque_identity (sweep r))) in
  words /. 64.0

(* A sweep copies the key ids into an int array (1 word a key) and
   sorts it with [Array.stable_sort], whose merge scratch is half the
   array and whose every merge allocates its loop's closure (3.2 words
   a key over 64 keys; [Array.sort]'s heap sort, which raises an
   exception as it sifts, took 4.0); per key it allocates the replay's
   (state, steps) pair (3) and the answer's binding and cons (6): 13.5
   words a key here. [Set_spec.equal_state] allocates nothing comparing
   a state with the initial one; as [Int_set.equal], which enumerates
   its left set whatever the right one, it cost 11 words a key more.
   Built by adding every key to a keyed map, then filtered and listed,
   a sweep cost 56.9. *)
let sweep_guard =
  Alcotest.test_case "a second sweep allocates at most 14 words a key" `Quick
    (fun () ->
      let words = sweep_words () in
      if words > 14.0 then
        Alcotest.failf "a second sweep over 64 keys: %.1f minor words a key" words)

let tests =
  differential_tests @ rebalance_tests @ migration_tests @ journal_tests
  @ [
      registry_golden;
      unobserved_ops;
      certificate_merge;
      certificate_guard;
      key_log_differential;
      envelope_differential;
      key_log_paths;
      misnamed_frame;
      keyed_read_guard;
      message_pins;
      sweep_differential;
      update_guard;
      sweep_guard;
    ]
