(* ucbench: one workload, one seed, repetitions for a fixed time.

     ucbench --workload sim-mixed|sim-sharded|mc-write --seed N
             --seconds S --trace 0|1 [--spans-out FILE]

   With --trace 0 every repetition is untraced and the medians over
   repetitions are the end-to-end metrics. With --trace 1 the run spends
   two fifths of its time on untraced repetitions (the baseline for the
   tracing overhead and the source of the untraced-only counts) and the
   rest on traced ones, and prints the per-layer metrics and the
   layer ledger. Prints a table, then one JSON line with every metric
   (value, unit, sample count); exits 1 when any correctness check
   failed. *)

open Ucbench
open Harness

let usage = "ucbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]"

let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  Stats.percentile a 0.5

(* Repetitions until [budget] seconds have passed since [t0], at least
   [min_reps]; a repetition is not started when the previous one's
   duration says it would end past the budget. *)
let repeat ~t0 ~budget ~min_reps f =
  let rec go acc count last =
    let elapsed = secs (Traced.now_ns () - t0) in
    if count >= min_reps && elapsed +. last > budget then List.rev acc
    else begin
      let s = Traced.now_ns () in
      let r = f () in
      go (r :: acc) (count + 1) (secs (Traced.now_ns () - s))
    end
  in
  go [] 0 0.0

(* Medians over repetitions, in first-seen order; [peak_rss_mb] is the
   first repetition's reading (VmHWM only grows within a process). *)
let aggregate reps =
  let order = ref [] and values = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (m : metric) ->
          if not (Hashtbl.mem values m.name) then order := m :: !order;
          Hashtbl.add values m.name m)
        r.metrics)
    reps;
  List.rev_map
    (fun (m : metric) ->
      let all = List.rev (Hashtbl.find_all values m.name) in
      let value =
        if m.name = "peak_rss_mb" then (List.hd all).value
        else median (List.map (fun (x : metric) -> x.value) all)
      in
      { m with value; samples = List.fold_left (fun acc (x : metric) -> acc + x.samples) 0 all })
    !order

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sim-mixed, sim-sharded or mc-write");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the last traced repetition's spans (TSV)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("ucbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  let traced = !trace = 1 in
  let ops = default_ops w in
  let t0 = Traced.now_ns () in
  Printf.printf "workload %s  seed %d  ops/replica %d  seconds %g  trace %d\n%!" !workload !seed ops
    !seconds !trace;
  (* A short repetition whose metrics are discarded (its outputs are
     still checked): it pays one-time initialisation, which would
     otherwise skew the first repetition's allocation counts, and the
     first 2-domain run after idle reads about half the throughput of
     the runs that follow. *)
  let warm_up = run_rep w ~traced:false ~seed:!seed ~ops:(max 1 (ops / 10)) in
  let rep ~traced () =
    let c0 = Unix.times () and w0 = Traced.now_ns () in
    let r = run_rep w ~traced ~seed:!seed ~ops in
    let c1 = Unix.times () in
    Printf.printf "  %s rep: %.0f ops/s  wall %.3f s  cpu %.3f s  %s\n%!"
      (if traced then "traced  " else "untraced")
      r.ops_per_s
      (secs (Traced.now_ns () - w0))
      (c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime)
      (if r.ok then "ok" else "FAILED: " ^ String.concat ", " r.failures);
    r
  in
  let plain =
    repeat ~t0 ~min_reps:(if traced then 1 else 3)
      ~budget:(if traced then 0.4 *. !seconds else !seconds)
      (rep ~traced:false)
  in
  let with_spans = if traced then repeat ~t0 ~min_reps:1 ~budget:!seconds (rep ~traced:true) else [] in
  let all = plain @ with_spans in
  let correct = List.for_all (fun r -> r.ok) (warm_up :: all) in
  let attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 (warm_up :: all) in
  let base = aggregate plain in
  let metrics =
    if not traced then base
    else begin
      let layered = aggregate with_spans in
      let traced_ops = median (List.map (fun r -> r.ops_per_s) with_spans) in
      let untraced_ops = median (List.map (fun r -> r.ops_per_s) plain) in
      let overhead =
        metric ~samples:(List.length with_spans) "trace.overhead" "ratio" ((untraced_ops /. traced_ops) -. 1.0)
      in
      (* Untraced values win where both phases report a metric. *)
      base @ List.filter (fun (m : metric) -> not (List.exists (fun (b : metric) -> b.name = m.name) base)) layered
      @ [ overhead ]
    end
  in
  Printf.printf "\n%-42s %16s  %-6s %10s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (m : metric) -> Printf.printf "%-42s %16.6g  %-6s %10d\n" m.name m.value m.unit m.samples)
    metrics;
  if traced then begin
    (* The ledger of the traced repetition with the median wall time:
       layer self times plus the remainder no span covers, which sum to
       that repetition's wall time. *)
    let wall r = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.ledger in
    let by_wall = List.sort (fun a b -> Float.compare (wall a) (wall b)) with_spans in
    let mid = List.nth by_wall (List.length by_wall / 2) in
    Printf.printf "\nlayer ledger (traced repetition with the median wall time)\n";
    List.iter
      (fun (l, s) -> Printf.printf "  %-16s %10.4f s  %5.1f%%\n" l s (100.0 *. s /. wall mid))
      mid.ledger;
    Printf.printf "  %-16s %10.4f s\n" "wall" (wall mid);
    match List.rev with_spans with
    | last :: _ when !spans_out <> "" -> Traced.write_spans last.session !spans_out
    | _ -> ()
  end;
  let failed = if correct then 0 else attempted in
  let fields =
    List.map
      (fun (m : metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"samples\": %d}" m.name (json_float m.value)
          m.unit m.samples)
      metrics
  in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"reps\": %d, \"correct\": %b, \"attempted\": %d, \
     \"failed\": %d, \"metrics\": {%s}}\n"
    !workload !seed !trace (List.length all) correct attempted failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
