(* The telemetry layer: JSON codec round trips, registry semantics,
   span aggregation, and end-to-end checks on instrumented Runner runs
   — the trace export golden test and the convergence probe under a
   healing partition. *)

module Json = Obs.Json
module Registry = Obs.Registry
module Span = Obs.Span

(* ------------------------------ Json ------------------------------ *)

let sample_json =
  Json.Obj
    [
      ("name", Json.Str "run");
      ("ok", Json.Bool true);
      ("missing", Json.Null);
      ("count", Json.Num 42.0);
      ("ratio", Json.Num 0.125);
      ( "rows",
        Json.Arr
          [ Json.Num 1.0; Json.Str "a\"b\\c\n"; Json.Obj []; Json.Arr [] ] );
    ]

let json_tests =
  [
    Alcotest.test_case "print/parse round trip" `Quick (fun () ->
        let compact = Json.of_string (Json.to_string sample_json) in
        let pretty = Json.of_string (Json.to_string ~pretty:true sample_json) in
        Alcotest.(check bool) "compact" true (compact = sample_json);
        Alcotest.(check bool) "pretty" true (pretty = sample_json));
    Alcotest.test_case "integral numbers print without a fraction" `Quick
      (fun () ->
        Alcotest.(check string) "int" "42" (Json.to_string (Json.Num 42.0));
        Alcotest.(check string) "frac" "0.5" (Json.to_string (Json.Num 0.5)));
    Alcotest.test_case "string escapes parse" `Quick (fun () ->
        let v = Json.of_string {|"aé\n\t\"b\""|} in
        Alcotest.(check bool) "decoded" true
          (v = Json.Str "a\xc3\xa9\n\t\"b\""));
    Alcotest.test_case "malformed input raises Parse_error" `Quick (fun () ->
        List.iter
          (fun s ->
            match Json.of_string s with
            | exception Json.Parse_error _ -> ()
            | _ -> Alcotest.failf "parsed %S" s)
          [ "{"; "[1,]"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]);
    Alcotest.test_case "accessors are total" `Quick (fun () ->
        Alcotest.(check (option int))
          "count" (Some 42)
          (Option.bind (Json.member "count" sample_json) Json.get_int);
        Alcotest.(check (option string))
          "name" (Some "run")
          (Option.bind (Json.member "name" sample_json) Json.get_str);
        Alcotest.(check bool) "missing field" true
          (Json.member "nope" sample_json = None);
        Alcotest.(check bool) "member of non-object" true
          (Json.member "x" (Json.Num 1.0) = None));
  ]

(* ---------------------------- Registry ---------------------------- *)

let registry_tests =
  [
    Alcotest.test_case "registration is find-or-create" `Quick (fun () ->
        let r = Registry.create () in
        let c1 = Registry.counter r ~labels:[ ("pid", "0") ] "msgs" in
        let c2 = Registry.counter r ~labels:[ ("pid", "0") ] "msgs" in
        Registry.inc c1;
        Registry.inc ~by:2 c2;
        Alcotest.(check int) "one series" 3 (Registry.counter_value c1);
        Alcotest.(check int) "one row" 1 (List.length (Registry.rows r)));
    Alcotest.test_case "kind clash is rejected" `Quick (fun () ->
        let r = Registry.create () in
        let (_ : Registry.counter) = Registry.counter r "x" in
        match Registry.gauge r "x" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "gauge over counter accepted");
    Alcotest.test_case "rows sort by name then numeric label" `Quick (fun () ->
        let r = Registry.create () in
        List.iter
          (fun pid ->
            Registry.inc
              (Registry.counter r ~labels:[ ("pid", string_of_int pid) ] "m"))
          [ 10; 2; 1 ];
        Registry.set (Registry.gauge r "a_gauge") 1.0;
        let names =
          List.map
            (fun (row : Registry.row) -> (row.name, row.labels))
            (Registry.rows r)
        in
        Alcotest.(check bool) "order" true
          (names
          = [
              ("a_gauge", []);
              ("m", [ ("pid", "1") ]);
              ("m", [ ("pid", "2") ]);
              ("m", [ ("pid", "10") ]);
            ]));
    Alcotest.test_case "histograms summarize and bucket by powers of two"
      `Quick (fun () ->
        let r = Registry.create () in
        let h = Registry.hist r "lat" in
        List.iter (Registry.observe h) [ 1.0; 3.0; 3.0; 5.0; 0.0 ];
        match Registry.rows r with
        | [ { data = Registry.Histogram d; _ } ] ->
          Alcotest.(check int) "count" 5 d.Registry.count;
          Alcotest.(check (float 1e-9)) "sum" 12.0 d.Registry.sum;
          Alcotest.(check (float 1e-9)) "max" 5.0 d.Registry.max;
          (* 0.0 pools under le=0; 1.0 under 1; 3.0×2 under 4; 5.0 under 8 *)
          Alcotest.(check bool) "buckets" true
            (d.Registry.buckets
            = [ (0.0, 1); (1.0, 1); (4.0, 2); (8.0, 1) ])
        | _ -> Alcotest.fail "expected one histogram row");
    Alcotest.test_case "dump JSON round-trips through rows_of_json" `Quick
      (fun () ->
        let r = Registry.create () in
        Registry.inc ~by:7 (Registry.counter r ~labels:[ ("pid", "3") ] "msgs");
        Registry.set (Registry.gauge r "div") 2.0;
        let h = Registry.hist r ~labels:[ ("pid", "3") ] "lat" in
        List.iter (Registry.observe h) [ 0.5; 2.0; 8.0 ];
        let rows = Registry.rows r in
        let back = Registry.rows_of_json (Registry.to_json r) in
        Alcotest.(check bool) "identical rows" true (rows = back);
        (* and through the printer, as [ucsim report] does *)
        let reparsed =
          Registry.rows_of_json
            (Json.of_string (Json.to_string ~pretty:true (Registry.to_json r)))
        in
        Alcotest.(check bool) "identical after print/parse" true
          (rows = reparsed));
    Alcotest.test_case "rows_of_json rejects non-dumps" `Quick (fun () ->
        List.iter
          (fun j ->
            match Registry.rows_of_json j with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail "accepted a non-dump")
          [ Json.Null; Json.Obj [ ("metrics", Json.Num 1.0) ] ]);
    (* Sharded collection: each domain writes a private shard, the
       coordinator merges — counters add, gauges keep the high-water
       mark, histogram samples pool. *)
    Alcotest.test_case "shard/merge folds per-domain registries" `Quick
      (fun () ->
        let parent = Registry.create () in
        let s0 = Registry.shard parent and s1 = Registry.shard parent in
        Registry.inc ~by:3 (Registry.counter s0 ~labels:[ ("pid", "0") ] "ops");
        Registry.inc ~by:4 (Registry.counter s1 ~labels:[ ("pid", "1") ] "ops");
        Registry.inc ~by:5 (Registry.counter s0 "total");
        Registry.inc ~by:6 (Registry.counter s1 "total");
        Registry.set (Registry.gauge s0 "depth") 9.0;
        Registry.set (Registry.gauge s1 "depth") 2.0;
        List.iter (Registry.observe (Registry.hist s0 "lat")) [ 1.0; 3.0 ];
        List.iter (Registry.observe (Registry.hist s1 "lat")) [ 5.0 ];
        Registry.merge ~into:parent s0;
        Registry.merge ~into:parent s1;
        Alcotest.(check int) "counters add" 11
          (Registry.counter_value (Registry.counter parent "total"));
        Alcotest.(check int) "labelled series kept apart" 3
          (Registry.counter_value
             (Registry.counter parent ~labels:[ ("pid", "0") ] "ops"));
        Alcotest.(check int) "hist samples pool" 3
          (Registry.hist_count (Registry.hist parent "lat"));
        match
          List.find
            (fun (row : Registry.row) -> row.name = "depth")
            (Registry.rows parent)
        with
        | { data = Registry.Value v; _ } ->
          Alcotest.(check (float 1e-9)) "gauges keep the max" 9.0 v
        | _ -> Alcotest.fail "depth gauge missing");
    (* [ucsim report a.json b.json]: dump-level merge, golden bytes so
       the rendered table is pinned. *)
    Alcotest.test_case "merge_rows merges dumps (golden bytes)" `Quick
      (fun () ->
        let dump inc_by gauge_v samples =
          let r = Registry.create () in
          Registry.inc ~by:inc_by
            (Registry.counter r ~labels:[ ("pid", "0") ] "msgs");
          Registry.set (Registry.gauge r "depth") gauge_v;
          List.iter (Registry.observe (Registry.hist r "lat")) samples;
          Registry.rows_of_json (Registry.to_json r)
        in
        let merged =
          Registry.merge_rows
            [ dump 7 3.0 [ 1.0; 3.0; 3.0 ]; dump 5 8.0 [ 0.5; 5.0 ] ]
        in
        let rendered = Format.asprintf "%a" Registry.pp_rows merged in
        Alcotest.(check string) "golden table"
          "depth        8\n\
           lat          count=5 mean=2.500 p50=4.000 p90=8.000 p99=8.000 \
           max=5.000\n\
           msgs{pid=0}  12\n"
          rendered);
    Alcotest.test_case "merge_rows rejects kind clashes" `Quick (fun () ->
        let counter_dump =
          let r = Registry.create () in
          Registry.inc (Registry.counter r "x");
          Registry.rows_of_json (Registry.to_json r)
        in
        let gauge_dump =
          let r = Registry.create () in
          Registry.set (Registry.gauge r "x") 1.0;
          Registry.rows_of_json (Registry.to_json r)
        in
        match Registry.merge_rows [ counter_dump; gauge_dump ] with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "conflicting kinds merged");
  ]

(* ------------------------------ Span ------------------------------ *)

let span_tests =
  [
    Alcotest.test_case "visibility is the slowest live apply" `Quick (fun () ->
        let t = Span.create () in
        let s = Span.fresh t ~pid:0 ~time:1.0 ~label:"ins 1" in
        Span.record_apply t ~span:(Some s) ~pid:0 ~time:1.0;
        Span.record_send t ~span:(Some s) ~src:0 ~time:1.0;
        Span.record_deliver t ~span:(Some s) ~src:0 ~dst:1 ~sent:1.0
          ~received:4.0;
        Span.record_apply t ~span:(Some s) ~pid:1 ~time:4.0;
        Span.record_deliver t ~span:(Some s) ~src:0 ~dst:2 ~sent:1.0
          ~received:7.5;
        Span.record_apply t ~span:(Some s) ~pid:2 ~time:7.5;
        (match Span.visibility t ~live:[ 0; 1; 2 ] with
        | [ (info, Some lag) ] ->
          Alcotest.(check int) "origin" 0 info.Span.origin;
          Alcotest.(check (float 1e-9)) "lag" 6.5 lag
        | _ -> Alcotest.fail "expected one visible span");
        (* a live replica that never applied makes the span invisible *)
        match Span.visibility t ~live:[ 0; 1; 2; 3 ] with
        | [ (_, None) ] -> ()
        | _ -> Alcotest.fail "expected an invisible span");
    Alcotest.test_case "ambient span installs and clears" `Quick (fun () ->
        let t = Span.create () in
        Alcotest.(check bool) "empty" true (Span.active t = None);
        Span.set_active t (Some 3);
        Alcotest.(check bool) "set" true (Span.active t = Some 3);
        Span.set_active t None;
        Alcotest.(check bool) "cleared" true (Span.active t = None));
  ]

(* -------------------- instrumented Runner runs -------------------- *)

module P = Generic.Make (Set_spec)
module R = Runner.Make (P)

let run_instrumented ~seed ~n ~partitions ~probe_interval =
  let obs = Obs.create () in
  let workload =
    Array.init n (fun p ->
        List.init 6 (fun i ->
            Protocol.Invoke_update (Set_spec.Insert ((p * 10) + i))))
  in
  let config =
    {
      (R.default_config ~n ~seed) with
      R.final_read = Some Set_spec.Read;
      partitions;
      obs = Some obs;
      probe_interval;
    }
  in
  let r = R.run config ~workload in
  (obs, r)

let field k j = Json.member k j
let str_field k j = Option.bind (field k j) Json.get_str

let span_of_event j =
  Option.bind (field "args" j) (fun a ->
      Option.bind (field "span" a) Json.get_int)

(* Satellite: the golden test for [--trace-out]. The export must
   survive a print/parse round trip, deliver slices must match
   [messages_delivered] exactly, and every deliver that carries a span
   must be preceded by a send of the same span — the trace is
   followable. *)
let trace_tests =
  [
    Alcotest.test_case "trace export is valid, complete and followable"
      `Quick (fun () ->
        let obs, r =
          run_instrumented ~seed:42 ~n:3 ~partitions:[] ~probe_interval:None
        in
        let json =
          Json.of_string
            (Json.to_string ~pretty:true
               (Obs.Trace_export.to_json obs.Obs.spans))
        in
        Alcotest.(check (option string))
          "time unit" (Some "ms")
          (str_field "displayTimeUnit" json);
        let events =
          match Option.bind (field "traceEvents" json) Json.get_list with
          | Some l -> l
          | None -> Alcotest.fail "no traceEvents array"
        in
        let with_ph p = List.filter (fun e -> str_field "ph" e = Some p) events in
        let delivers = with_ph "X" in
        Alcotest.(check int) "one slice per delivered message"
          r.R.metrics.Metrics.messages_delivered (List.length delivers);
        Alcotest.(check int) "one flow start per span"
          (Span.count obs.Obs.spans)
          (List.length (with_ph "s"));
        let sent_spans =
          List.filter_map span_of_event
            (List.filter (fun e -> str_field "name" e = Some "send") events)
        in
        List.iter
          (fun d ->
            match span_of_event d with
            | None -> Alcotest.fail "a deliver slice lost its span"
            | Some s ->
              if not (List.mem s sent_spans) then
                Alcotest.failf "deliver of span %d has no matching send" s)
          delivers;
        (* every event timestamp is a number — the file loads *)
        List.iter
          (fun e ->
            if Option.bind (field "ts" e) Json.get_num = None then
              Alcotest.fail "event without ts")
          events);
    Alcotest.test_case "trace export leads with metadata events" `Quick
      (fun () ->
        let obs, _ =
          run_instrumented ~seed:42 ~n:3 ~partitions:[] ~probe_interval:None
        in
        let meta =
          [ ("seed", Json.Num 42.0); ("protocol", Json.Str "universal") ]
        in
        let json =
          Json.of_string
            (Json.to_string
               (Obs.Trace_export.to_json ~meta ~replicas:3 obs.Obs.spans))
        in
        let events =
          match Option.bind (field "traceEvents" json) Json.get_list with
          | Some l -> l
          | None -> Alcotest.fail "no traceEvents array"
        in
        let metas, rest =
          List.partition (fun e -> str_field "ph" e = Some "M") events
        in
        (* one process_name row per replica plus one config row, and
           they precede every span event *)
        Alcotest.(check int) "metadata rows" 4 (List.length metas);
        let prefix_len = List.length metas in
        List.iteri
          (fun i e ->
            if i < prefix_len && str_field "ph" e <> Some "M" then
              Alcotest.fail "metadata does not lead the event list")
          events;
        Alcotest.(check int) "replica names" 3
          (List.length
             (List.filter
                (fun e -> str_field "name" e = Some "process_name")
                metas));
        (match
           List.find_opt
             (fun e -> str_field "name" e = Some "ucsim_config")
             metas
         with
        | None -> Alcotest.fail "no ucsim_config metadata row"
        | Some row ->
          let args = Option.get (field "args" row) in
          Alcotest.(check (option string))
            "protocol in config" (Some "universal")
            (str_field "protocol" args);
          Alcotest.(check (option int))
            "seed in config" (Some 42)
            (Option.bind (field "seed" args) Json.get_int));
        (* with no metadata requested the export is unchanged *)
        Alcotest.(check int) "no gratuitous metadata"
          (List.length rest)
          (match
             Option.bind
               (field "traceEvents"
                  (Obs.Trace_export.to_json obs.Obs.spans))
               Json.get_list
           with
          | Some l -> List.length l
          | None -> 0));
    Alcotest.test_case "corrupted registry dumps are rejected" `Quick
      (fun () ->
        let r = Registry.create () in
        Registry.inc (Registry.counter r ~labels:[ ("pid", "0") ] "msgs");
        let text = Json.to_string ~pretty:true (Registry.to_json r) in
        (* truncation makes it unparseable *)
        let truncated = String.sub text 0 (String.length text / 2) in
        (match Json.of_string truncated with
        | exception Json.Parse_error _ -> ()
        | _ -> Alcotest.fail "truncated dump parsed as JSON");
        (* structural corruption is caught by rows_of_json *)
        match Registry.rows_of_json (Json.Obj [ ("metrics", Json.Str "?") ]) with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "corrupted dump accepted");
    Alcotest.test_case "finalize folds visibility into the registry" `Quick
      (fun () ->
        let obs, r =
          run_instrumented ~seed:7 ~n:3 ~partitions:[] ~probe_interval:None
        in
        Alcotest.(check bool) "run converged" true r.R.converged;
        let vis =
          List.filter
            (fun (row : Registry.row) -> row.name = "visibility_latency")
            (Registry.rows obs.Obs.registry)
        in
        Alcotest.(check int) "one histogram per origin" 3 (List.length vis);
        let total =
          List.fold_left
            (fun acc (row : Registry.row) ->
              match row.Registry.data with
              | Registry.Histogram d -> acc + d.Registry.count
              | _ -> acc)
            0 vis
        in
        Alcotest.(check int) "every update became visible" 18 total);
  ]

(* The convergence probe: replicas split by a partition must show
   divergence above 1 somewhere in the series, and the forced final
   probe must read 1 once the partition heals and the run quiesces. *)
let probe_tests =
  [
    Alcotest.test_case "divergence rises under a partition and heals" `Quick
      (fun () ->
        let obs, r =
          run_instrumented ~seed:11 ~n:4
            ~partitions:
              [ { Network.from_time = 5.0; to_time = 150.0; group = [ 0; 1 ] } ]
            ~probe_interval:(Some 10.0)
        in
        Alcotest.(check bool) "run converged" true r.R.converged;
        let series = Obs.divergence_series obs in
        Alcotest.(check bool) "probes fired" true (List.length series >= 2);
        let peak = List.fold_left (fun m (_, d) -> max m d) 0 series in
        Alcotest.(check bool) "diverged mid-run" true (peak > 1);
        let _, final = List.nth series (List.length series - 1) in
        Alcotest.(check int) "healed at quiescence" 1 final;
        (* probe samples are chronological *)
        let times = List.map fst series in
        Alcotest.(check bool) "sorted" true
          (List.sort compare times = times));
    (* Experiments A2 and A3 count probes this way, on updates-only
       runs with a fingerprint that reads the replica. *)
    Alcotest.test_case "a zero interval samples every update and delivery"
      `Quick (fun () ->
        let workload =
          Array.init 3 (fun p ->
              List.init 6 (fun i ->
                  Protocol.Invoke_update (Set_spec.Insert ((p * 10) + i))))
        in
        let read r =
          let answer = ref "" in
          P.query r Set_spec.Read ~on_result:(fun o ->
              answer := Format.asprintf "%a" Set_spec.pp_output o);
          !answer
        in
        let calls = ref 0 in
        let run probe_interval =
          let obs = Obs.create () in
          let config =
            {
              (R.default_config ~n:3 ~seed:5) with
              R.obs = Some obs;
              probe_interval;
              fingerprint = Some (fun r -> incr calls; read r);
            }
          in
          (obs, R.run config ~workload)
        in
        let obs, r = run (Some 0.0) in
        let m = r.R.metrics in
        let samples = List.length (Obs.divergence_series obs) in
        Alcotest.(check int) "deliveries" 36 m.Metrics.messages_delivered;
        Alcotest.(check int) "updates, deliveries and the forced sample"
          (m.Metrics.updates_invoked + m.Metrics.messages_delivered + 1)
          samples;
        Alcotest.(check int) "one fingerprint per replica per sample" (3 * samples) !calls;
        let _, unprobed = run None in
        Alcotest.(check bool) "reads schedule nothing" true
          (r.R.intervals = unprobed.R.intervals));
  ]

(* A probed run's divergence series, counted by certificate classes
   (no fingerprint) and by the count they replaced: every live
   replica's certificate rendered as text (its log length when the
   protocol keeps none), and the number of distinct strings. Rendering
   reads no replica, so both runs take the same schedule. *)
module Probe_counts (P : Protocol.PROTOCOL) = struct
  module R = Runner.Make (P)
  module Cert = Protocol.Certificate (P)

  let rendered r =
    match Cert.to_list r with
    | Some cert ->
      String.concat ";"
        (List.map (fun (p, u) -> Format.asprintf "%d:%a" p P.pp_update u) cert)
    | None -> Printf.sprintf "log:%d" (P.log_length r)

  let series config ~workload =
    let run fingerprint =
      let obs = Obs.create () in
      let r =
        R.run
          { config with R.obs = Some obs; probe_interval = Some 0.0; fingerprint }
          ~workload
      in
      Alcotest.(check bool) "run converged" true r.R.converged;
      Obs.divergence_series obs
    in
    (run None, run (Some rendered))
end

let class_probe_tests =
  let module Uni = Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set) in
  let module Sp = Space.Make (Set_spec) (Update_codec.For_set) in
  let check_series name (classes, rendered) =
    Alcotest.(check bool) (name ^ ": replicas diverged") true
      (List.exists (fun (_, d) -> d > 1) classes);
    Alcotest.(check (list (pair (float 0.) int))) name rendered classes
  in
  [
    Alcotest.test_case "certificate classes count what the rendered certificates did" `Quick
      (fun () ->
        let workload =
          Workload.For_set.conflict ~rng:(Prng.create 7) ~n:4 ~ops_per_process:12 ~domain:8
            ~skew:1.0 ~delete_ratio:0.3
        in
        let module U = Probe_counts (Uni) in
        check_series "universal, partitioned and churned"
          (U.series ~workload
             {
               (U.R.default_config ~n:4 ~seed:7) with
               U.R.delay = Network.Exponential { mean = 10.0 };
               final_read = Some Set_spec.Read;
               churn =
                 [
                   { Network.time = 20.0; pid = 3; action = Network.Join };
                   { Network.time = 30.0; pid = 2; action = Network.Leave };
                   { Network.time = 60.0; pid = 2; action = Network.Rejoin };
                 ];
               partitions = [ { Network.from_time = 40.0; to_time = 80.0; group = [ 1 ] } ];
             });
        Sp.configure (Sp.create_map ~shards:4 ());
        let elem = Zipf.create ~n:16 ~s:1.0 in
        let workload =
          Workload.For_space.zipf_scripts ~rng:(Prng.create 7) ~n:4 ~ops_per_process:12
            ~keys:32 ~skew:1.1 ~fanout:3 ~query_ratio:0.25
            ~update:(fun g ->
              let v = Zipf.sample elem g in
              if Prng.float g 1.0 < 0.3 then Set_spec.Delete v else Set_spec.Insert v)
            ~query:(fun _ -> Set_spec.Read)
            ~read:(fun k q -> Sp.K.Read (k, q))
        in
        let module S = Probe_counts (Sp) in
        check_series "sharded, partitioned"
          (S.series ~workload
             {
               (S.R.default_config ~n:4 ~seed:7) with
               S.R.final_read = Some Sp.K.Sweep;
               partitions = [ { Network.from_time = 10.0; to_time = 60.0; group = [ 0; 1 ] } ];
             }));
  ]

let tests =
  json_tests @ registry_tests @ span_tests @ trace_tests @ probe_tests @ class_probe_tests
