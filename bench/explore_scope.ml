(* Exploration-engine scaling scenario.

   Two measurements on Algorithm 1 over the counter:

   1. Calibration (2 replicas x 3 increments): both the seed-equivalent
      naive DFS and the reduced engine finish, so the distinct-failure
      counts can be compared for equality and the protocol-step replay
      ratio measured honestly.

   2. Scale (3 replicas x 3 increments, 27-event schedules): the naive
      DFS cannot finish this scope — it is capped at an execution
      budget and reports how much replay work it burned getting nowhere
      — while the reduced engine (commutativity-aware fingerprinting +
      checkpointed replay) completes it exhaustively.  Sleep sets are
      off at this scope on purpose: the covering rule only lets a
      visited fingerprint subsume a revisit when its recorded sleep set
      is a subset of the current one, so combining sleep sets with a
      timestamp-blind dedup that already collapses the graph fragments
      the visited table and costs more replays than it saves.

   `--smoke` runs only the calibration scope (CI budget). *)

module P = Generic.Make (Counter_spec)
module M = Explore.Make (P)
module Snap = Snapshot.For_generic (Counter_spec) (Update_codec.For_counter)

let scripts n ops : (Counter_spec.update, Counter_spec.query) Protocol.invocation list array =
  Array.init n (fun pid ->
      List.init ops (fun i ->
          Protocol.Invoke_update (Counter_spec.Add ((pid * ops) + i + 1))))

let reduced ?(domains = 1) ?(por = true) ~n ~ops () =
  M.explore ~limit:max_int ~por ~dedup:true ~checkpoint_every:4
    ~snapshot:Snap.snapshotter ~state_key:Snap.commutative_key
    ~message_key:Snap.commutative_message_key
    ~deliveries_commute:Snap.deliveries_commute ~domains ~scripts:(scripts n ops)
    ~final_read:Counter_spec.Value ()

let naive ~limit ~n ~ops () =
  M.explore ~limit ~scripts:(scripts n ops) ~final_read:Counter_spec.Value ()

let describe label (r : M.report) elapsed =
  let s = r.M.stats in
  Printf.printf
    "%-22s %s after %.2fs\n\
    \  executions checked   %d\n\
    \  protocol steps       %d\n\
    \  states explored      %d (pruned by POR %d, deduped %d)\n\
    \  checkpoint restores  %d\n"
    label
    (if r.M.exhaustive then "completed the scope" else "hit its budget")
    elapsed r.M.executions s.Explore.protocol_steps s.Explore.states_explored
    s.Explore.states_pruned_por s.Explore.states_deduped
    s.Explore.checkpoint_restores;
  List.iter
    (fun (c, k) ->
      Printf.printf "  %-4s violations      %d distinct\n" (Criteria.name c) k)
    r.M.distinct_failures

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  print_endline "== calibration: 2 replicas x 3 increments (both engines finish) ==";
  let base, base_t = timed (naive ~limit:max_int ~n:2 ~ops:3) in
  let red, red_t = timed (reduced ~n:2 ~ops:3) in
  describe "naive DFS" base base_t;
  describe "reduced engine" red red_t;
  let r =
    ratio base.M.stats.Explore.protocol_steps red.M.stats.Explore.protocol_steps
  in
  Printf.printf "replay reduction       %.1fx fewer protocol steps%s\n" r
    (if r >= 5.0 then " (>= 5x: PASS)" else " (< 5x: FAIL)");
  let agree = base.M.distinct_failures = red.M.distinct_failures in
  Printf.printf "verdict agreement      %s\n"
    (if agree then "identical distinct-failure counts (PASS)" else "MISMATCH (FAIL)");
  if (not agree) || r < 5.0 then exit 1;
  if not smoke then begin
    print_endline "";
    print_endline
      "== scale: 3 replicas x 3 increments (27-event schedules; naive capped) ==";
    let cap = 200_000 in
    let base3, base3_t = timed (naive ~limit:cap ~n:3 ~ops:3) in
    let red3, red3_t = timed (reduced ~por:false ~n:3 ~ops:3) in
    describe (Printf.sprintf "naive DFS (cap %d)" cap) base3 base3_t;
    describe "reduced engine" red3 red3_t;
    Printf.printf
      "the naive DFS burned %d protocol steps on %d schedules without\n\
       finishing (a vanishing fraction of the scope's interleavings); the\n\
       reduced engine covered the entire scope for %d steps total.\n"
      base3.M.stats.Explore.protocol_steps base3.M.executions
      red3.M.stats.Explore.protocol_steps;
    if base3.M.exhaustive then begin
      print_endline "unexpected: the naive engine finished the scale scope";
      exit 1
    end;
    if not red3.M.exhaustive then begin
      print_endline "FAIL: the reduced engine did not finish the scale scope";
      exit 1
    end
  end
