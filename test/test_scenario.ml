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
           pipelined interleaving explains. *)
        let o = SGen.run ~criteria:[ Obs.Monitor.Uc; Obs.Monitor.Ec ] t in
        o.SGen.violation = None && o.SGen.events > 0);
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
