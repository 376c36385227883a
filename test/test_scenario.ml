(* The scenario engine and its shrinker. The planted regression mirrors
   the CLI recipe pinned in CI (`ucsim run pipelined -n 2 --ops 1
   --seed 3 --churn 30:join:1 --monitor pc` then `ucsim shrink`): a
   late joiner misses an insert frame — Pipelined keeps no snapshot to
   catch it up — and its ω read is PC-inexplicable. The shrinker must
   converge deterministically to a ≤ 6-event journal whose re-run trips
   the same monitor at the same index. *)

open Helpers
module SPipe = Scenario.Make (Pipelined.Make (Set_spec))
module SGen =
  Scenario.Make (Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set))

let planted =
  {
    SPipe.spec =
      {
        Run_spec.default with
        protocol = "pipelined";
        seed = 3;
        n = 2;
        ops = 1;
        mean_delay = 10.0;
        fifo = false;
        partitions = [];
        crashes = [];
        churn = [ { Network.time = 30.0; pid = 1; action = Network.Join } ];
      };
    scripts =
      Workload.For_set.conflict ~rng:(Prng.create 3) ~n:2 ~ops_per_process:1
        ~domain:16 ~skew:1.0 ~delete_ratio:0.3;
    final_read = Some Set_spec.Read;
  }

(* A run with everything Scenario.run used to drop: a batch window, a
   probe interval, and a soak sampler with a horizon. *)
let observed =
  {
    Run_spec.default with
    protocol = "pipelined";
    seed = 3;
    n = 3;
    ops = 8;
    batch_window = Some 2.0;
    probe_interval = Some 5.0;
    soak =
      Some
        {
          sample_interval = 10.0;
          duration = Some 60.0;
          rules = [ Obs.Alert.rule_of_string "above:queue_depth:0" ];
        };
  }

(* A run no protocol can keep update consistent: p0's I(4) frame
   reaches p1 while p1 is away and is dropped, p0 then leaves for good,
   and p1 rejoins with no donor to catch up from ("bytes":0), so its ω
   read {3} misses I(4). The UC monitor is right to flag it. *)
let lost_update =
  {
    SGen.spec =
      {
        Run_spec.default with
        seed = 735516;
        n = 2;
        mean_delay = 5.0;
        fifo = false;
        churn =
          [
            { Network.time = 25.0; pid = 1; action = Network.Leave };
            { Network.time = 71.0; pid = 0; action = Network.Leave };
            { Network.time = 74.0; pid = 1; action = Network.Rejoin };
          ];
      };
    scripts =
      [|
        [ Protocol.Invoke_update (Set_spec.Insert 3); Protocol.Invoke_update (Set_spec.Insert 4) ];
        [];
      |];
    final_read = Some Set_spec.Read;
  }

(* The same run with p1 back at 60, while p0 still holds I(4) and can
   donate it. *)
let caught_up =
  {
    lost_update with
    SGen.spec =
      {
        lost_update.SGen.spec with
        churn =
          [
            { Network.time = 25.0; pid = 1; action = Network.Leave };
            { Network.time = 60.0; pid = 1; action = Network.Rejoin };
            { Network.time = 71.0; pid = 0; action = Network.Leave };
          ];
      };
  }

(* Whether every update of a run reaches a replica present at its end,
   read off the schedule the journal records, never off replica state.
   An update is held by its issuer, by the destination of each
   delivered frame carrying it, and by a replica that (re)joins while
   its donor holds it — the Runner's donor rule: the first peer that is
   up, attached and not partitioned away from the joiner. A replica is
   present at the end when it is up, attached and has joined. The
   gather-scatter pass at quiescence then hands every such update to
   every present replica. What a catch-up actually transferred is not
   consulted, so a catch-up that loses updates still fails a property
   guarded by this. *)
let every_update_reaches_the_end (spec : Run_spec.sequential) journal =
  let n = spec.n in
  let absent =
    Array.init n (fun pid ->
        match List.find_opt (fun (c : Network.churn_event) -> c.pid = pid) spec.churn with
        | Some { action = Network.Join; _ } -> true
        | _ -> false)
  in
  let offline = Array.copy absent and crashed = Array.make n false in
  let held = Array.make n [] in
  let hold pid spans = held.(pid) <- spans @ held.(pid) in
  let updates = ref [] and in_flight = ref [] in
  let separated a b at =
    List.exists
      (fun (p : Network.partition) ->
        p.from_time <= at && at < p.to_time && List.mem a p.group <> List.mem b p.group)
      spec.partitions
  in
  let donor pid at =
    List.find_opt
      (fun d -> d <> pid && (not crashed.(d)) && (not offline.(d)) && not (separated d pid at))
      (List.init n Fun.id)
  in
  let rec take src dst at = function
    | [] -> ([], [])
    | ((s, d, a, spans) as f) :: rest ->
      if s = src && d = dst && Float.equal a at then (spans, rest)
      else
        let spans', rest' = take src dst at rest in
        (spans', f :: rest')
  in
  List.iter
    (function
      | Obs.Journal.Update { pid; span; _ } ->
        (* An unstamped update cannot be followed: count it lost. *)
        let s = Option.value span ~default:(-1) in
        updates := s :: !updates;
        hold pid [ s ]
      | Obs.Journal.Frame { src; dst; arrival; spans; _ } ->
        in_flight := !in_flight @ [ (src, dst, arrival, List.filter_map Fun.id spans) ]
      | Obs.Journal.Deliver { src; dst; time; _ } ->
        let spans, rest = take src dst time !in_flight in
        in_flight := rest;
        hold dst spans
      | Obs.Journal.Crash { pid; _ } -> crashed.(pid) <- true
      | Obs.Journal.Leave { pid; _ } -> offline.(pid) <- true
      | Obs.Journal.Join { pid; time; _ } ->
        offline.(pid) <- false;
        Option.iter (fun d -> hold pid held.(d)) (donor pid time)
      | _ -> ())
    (Obs.Journal.events journal);
  List.for_all
    (fun s ->
      s >= 0
      && List.exists
           (fun pid -> (not crashed.(pid)) && (not offline.(pid)) && List.mem s held.(pid))
           (List.init n Fun.id))
    !updates

(* Algorithm 1 with a catch-up that claims every snapshot and merges
   none of it. *)
module Lossy = struct
  include Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set)

  let absorb _ _ = true
end

module SLossy = Scenario.Make (Lossy)

let shrink_planted () =
  match SPipe.shrink ~criteria:[ Obs.Monitor.Pc ] planted with
  | None -> Alcotest.fail "planted PC violation was not flagged"
  | Some s -> s

let tests =
  [
    Alcotest.test_case "planted Pipelined PC violation shrinks to ≤ 6 events"
      `Quick
      (fun () ->
        let s = shrink_planted () in
        Alcotest.(check bool)
          (Printf.sprintf "%d events ≤ 6" s.SPipe.outcome.SPipe.events)
          true
          (s.SPipe.outcome.SPipe.events <= 6);
        Alcotest.(check bool) "strictly smaller than the original" true
          (SPipe.size s.SPipe.scenario < SPipe.size planted);
        match s.SPipe.outcome.SPipe.violation with
        | Some v ->
          Alcotest.(check string) "criterion" "pc"
            (Obs.Monitor.criterion_name v.Obs.Monitor.criterion)
        | None -> Alcotest.fail "minimized outcome lost its violation");
    Alcotest.test_case "re-running the minimized scenario trips PC at the same index"
      `Quick
      (fun () ->
        let s = shrink_planted () in
        let reported =
          match s.SPipe.outcome.SPipe.violation with
          | Some v -> v.Obs.Monitor.index
          | None -> Alcotest.fail "minimized outcome lost its violation"
        in
        match (SPipe.run ~criteria:[ Obs.Monitor.Pc ] s.SPipe.scenario).SPipe.violation with
        | Some v ->
          Alcotest.(check int) "violation index" reported v.Obs.Monitor.index
        | None -> Alcotest.fail "re-run is clean");
    Alcotest.test_case "a scenario re-executes the journal its spec's run records"
      `Quick
      (fun () ->
        let scripts =
          Workload.For_set.conflict ~rng:(Prng.create 3) ~n:3 ~ops_per_process:8
            ~domain:16 ~skew:1.0 ~delete_ratio:0.3
        in
        (* The run as `ucsim run` and `ucsim replay` configure it. *)
        let recorded = Obs.Journal.create () in
        let config =
          SPipe.R.config_of_spec ~final_read:(Some Set_spec.Read)
            (Run_spec.observe ~journal:recorded observed)
            observed
        in
        ignore (SPipe.R.run config ~workload:scripts);
        let o =
          SPipe.run ~criteria:[]
            { SPipe.spec = observed; scripts; final_read = Some Set_spec.Read }
        in
        let has f = List.exists f (Obs.Journal.events recorded) in
        Alcotest.(check bool) "probes journaled" true
          (has (function Obs.Journal.Probe _ -> true | _ -> false));
        Alcotest.(check bool) "alerts journaled" true
          (has (function Obs.Journal.Alert _ -> true | _ -> false));
        (match Obs.Journal.diff recorded o.SPipe.journal with
        | None -> ()
        | Some (i, a, b) -> Alcotest.failf "diverge at %d: %s vs %s" i a b);
        Alcotest.(check (option string))
          "fingerprint"
          (Obs.Journal.fingerprint recorded)
          (Obs.Journal.fingerprint o.SPipe.journal));
    Alcotest.test_case "minimization is deterministic end to end" `Quick (fun () ->
        let s1 = shrink_planted () and s2 = shrink_planted () in
        Alcotest.(check int) "same event count" s1.SPipe.outcome.SPipe.events
          s2.SPipe.outcome.SPipe.events;
        Alcotest.(check int) "same run budget spent" s1.SPipe.runs s2.SPipe.runs;
        Alcotest.(check string) "same scenario"
          (Format.asprintf "%a" SPipe.pp s1.SPipe.scenario)
          (Format.asprintf "%a" SPipe.pp s2.SPipe.scenario);
        match
          Obs.Journal.diff s1.SPipe.outcome.SPipe.journal
            s2.SPipe.outcome.SPipe.journal
        with
        | None -> ()
        | Some (i, a, b) ->
          Alcotest.failf "minimized journals diverge at %d: %s vs %s" i a b);
    qtest ~count:20 "generated scenarios never flag Algorithm 1 for UC or EC"
      (SGen.gen ~n_max:3 ~ops_max:4 ())
      (fun t ->
        (* Not PC: Algorithm 1 is update consistent, and UC and PC are
           incomparable (Proposition 2) — a smaller-timestamp straggler
           reorders the replayed log between two reads, which no single
           pipelined interleaving explains. Only over runs whose
           schedule delivers every update to a replica present at the
           end: churn can strand an update on replicas that all leave
           or crash ([lost_update]), and then no protocol answers the
           ω reads with it. *)
        let o = SGen.run ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec ] t in
        QCheck2.assume (every_update_reaches_the_end t.SGen.spec o.SGen.journal);
        o.SGen.violation = None && o.SGen.events > 0);
    Alcotest.test_case "an update stranded by churn is flagged, and excused by the schedule"
      `Quick (fun () ->
        let o = SGen.run ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec ] lost_update in
        Alcotest.(check int) "events" 10 o.SGen.events;
        (match o.SGen.violation with
        | Some v ->
          Alcotest.(check (pair string int)) "UC at the ω read" ("uc", 9)
            (Obs.Monitor.criterion_name v.Obs.Monitor.criterion, v.Obs.Monitor.index)
        | None -> Alcotest.fail "the ω read {3} was not flagged");
        Alcotest.(check bool) "no present replica ever holds I(4)" false
          (every_update_reaches_the_end lost_update.SGen.spec o.SGen.journal));
    Alcotest.test_case "a catch-up that loses updates is not excused" `Quick (fun () ->
        let o = SGen.run ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec ] caught_up in
        Alcotest.(check bool) "the donor holds I(4)" true
          (every_update_reaches_the_end caught_up.SGen.spec o.SGen.journal);
        Alcotest.(check bool) "Algorithm 1 is clean" true (o.SGen.violation = None);
        let lossy =
          SLossy.run ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec ]
            { SLossy.spec = caught_up.SGen.spec; scripts = caught_up.SGen.scripts;
              final_read = caught_up.SGen.final_read }
        in
        Alcotest.(check bool) "the schedule still delivers I(4)" true
          (every_update_reaches_the_end caught_up.SGen.spec lossy.SLossy.journal);
        Alcotest.(check bool) "the lossy catch-up is flagged" true
          (lossy.SLossy.violation <> None));
    qtest ~count:8 "the shrinker only ever shrinks, preserving the criterion"
      (SPipe.gen ~n_max:3 ~ops_max:3 ())
      (fun t ->
        match SPipe.run t with
        | { SPipe.violation = None; _ } -> SPipe.shrink t = None
        | { SPipe.violation = Some v0; _ } -> (
          match SPipe.shrink ~max_runs:60 t with
          | None -> false
          | Some s ->
            SPipe.size s.SPipe.scenario <= SPipe.size t
            && s.SPipe.runs <= 60
            &&
            (match s.SPipe.outcome.SPipe.violation with
            | Some v -> v.Obs.Monitor.criterion = v0.Obs.Monitor.criterion
            | None -> false)));
  ]
