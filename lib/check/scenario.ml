(* Property-driven scenario engine: a run spec plus the typed scripts
   it runs, as one generatable, shrinkable value. A scenario executes
   through {!Runner} configured from its spec — the same configuration
   `ucsim replay` builds — with the online monitors attached; when a
   run is flagged, the shrinker greedily re-runs structurally smaller
   candidates (everything is seeded, so every re-run is deterministic)
   until no smaller scenario still trips the same criterion — yielding
   a smallest violating journal. *)

module Make (P : Protocol.PROTOCOL) = struct
  module R = Runner.Make (P)

  type t = {
    spec : Run_spec.sequential;
    scripts : R.action list array;
    final_read : P.query option;
  }

  type outcome = {
    violation : Obs.Monitor.violation option;
    journal : Obs.Journal.t;
    events : int;
    converged : bool;
  }

  let size t =
    let s = t.spec in
    Array.fold_left (fun acc s -> acc + List.length s) 0 t.scripts
    + List.length s.partitions
    + List.length s.crashes + List.length s.churn + s.n

  let pp ppf t =
    let s = t.spec in
    Format.fprintf ppf
      "seed=%d n=%d ops=%d delay=%g%s partitions=%d crashes=%d churn=%d"
      s.seed s.n
      (Array.fold_left (fun acc s -> acc + List.length s) 0 t.scripts)
      s.mean_delay
      (if s.fifo then " fifo" else "")
      (List.length s.partitions)
      (List.length s.crashes) (List.length s.churn)

  let run ?(criteria = [ Obs.Monitor.Uc; Obs.Monitor.Ec; Obs.Monitor.Pc ]) t =
    if Array.length t.scripts <> t.spec.n then
      invalid_arg "Scenario.run: scripts width must match n";
    let journal = Obs.Journal.create () in
    let spec = { t.spec with monitors = criteria } in
    let config =
      R.config_of_spec ~final_read:t.final_read
        (Run_spec.observe ~journal spec)
        spec
    in
    let result = R.run config ~workload:t.scripts in
    {
      violation = Option.bind config.R.monitor R.Mon.first_violation;
      journal;
      events = Obs.Journal.length journal;
      converged = result.R.converged;
    }

  (* ----------------------------- shrinking ----------------------------- *)

  let remove_nth i l = List.filteri (fun j _ -> j <> i) l

  (* Structurally smaller variants, coarsest first: dropping a whole
     process's script prunes far more of the search space per re-run
     than dropping one op, so try it first. Every candidate is strictly
     smaller under {!size}, which makes the greedy loop terminate. *)
  let candidates t =
    let s = t.spec in
    let acc = ref [] in
    let push c = acc := c :: !acc in
    (* Single-op removals, finest last (pushed first, reversed below). *)
    Array.iteri
      (fun p script ->
        List.iteri
          (fun i _ ->
            push
              {
                t with
                scripts =
                  Array.mapi
                    (fun q s -> if q = p then remove_nth i s else s)
                    t.scripts;
              })
          script)
      t.scripts;
    (* Script halving. *)
    Array.iteri
      (fun p script ->
        let len = List.length script in
        if len >= 2 then begin
          let half = len / 2 in
          let keep f =
            push
              {
                t with
                scripts =
                  Array.mapi
                    (fun q s -> if q = p then List.filteri f s else s)
                    t.scripts;
              }
          in
          keep (fun i _ -> i < half);
          keep (fun i _ -> i >= half)
        end)
      t.scripts;
    (* Removing an empty process shrinks [n]; remaining pids shift down
       and every fault referencing the removed pid goes with it. *)
    if s.n > 1 then
      Array.iteri
        (fun k script ->
          if script = [] then begin
            let remap p = if p > k then p - 1 else p in
            push
              {
                t with
                scripts =
                  Array.of_list
                    (List.filteri
                       (fun i _ -> i <> k)
                       (Array.to_list t.scripts));
                spec =
                  {
                    s with
                    n = s.n - 1;
                    partitions =
                      List.filter_map
                        (fun (p : Network.partition) ->
                          let group =
                            List.filter_map
                              (fun pid ->
                                if pid = k then None else Some (remap pid))
                              p.group
                          in
                          if group = [] then None else Some { p with group })
                        s.partitions;
                    crashes =
                      List.filter_map
                        (fun (tm, pid) ->
                          if pid = k then None else Some (tm, remap pid))
                        s.crashes;
                    churn =
                      List.filter_map
                        (fun (ce : Network.churn_event) ->
                          if ce.pid = k then None
                          else Some { ce with pid = remap ce.pid })
                        s.churn;
                  };
              }
          end)
        t.scripts;
    (* Fault-schedule thinning. *)
    let thin edit l =
      List.iteri (fun i _ -> push { t with spec = edit (remove_nth i l) }) l
    in
    thin (fun partitions -> { s with partitions }) s.partitions;
    thin (fun crashes -> { s with crashes }) s.crashes;
    thin (fun churn -> { s with churn }) s.churn;
    (* Whole-script removal, coarsest of all. *)
    Array.iteri
      (fun p script ->
        if script <> [] then
          push
            {
              t with
              scripts =
                Array.mapi (fun q s -> if q = p then [] else s) t.scripts;
            })
      t.scripts;
    !acc

  type shrunk = {
    scenario : t;
    outcome : outcome;
    runs : int;  (** re-executions the minimization spent *)
  }

  let shrink ?(max_runs = 400) ?criteria t0 =
    match run ?criteria t0 with
    | { violation = None; _ } -> None
    | { violation = Some v0; _ } as o0 ->
      let target = v0.Obs.Monitor.criterion in
      let runs = ref 1 in
      (* Greedy descent: take the first candidate that still trips the
         target criterion, restart from it; stop at a local minimum or
         when the run budget is spent. Deterministic: candidate order
         is a pure function of the scenario and every run is seeded. *)
      let reproduces cand =
        if !runs >= max_runs then None
        else begin
          incr runs;
          let o = run ~criteria:[ target ] cand in
          match o.violation with
          | Some v when v.Obs.Monitor.criterion = target -> Some o
          | _ -> None
        end
      in
      let rec descend best best_outcome =
        let rec try_candidates = function
          | [] -> (best, best_outcome)
          | cand :: rest -> (
            match reproduces cand with
            | Some o -> descend cand o
            | None -> try_candidates rest)
        in
        if !runs >= max_runs then (best, best_outcome)
        else try_candidates (candidates best)
      in
      let scenario, outcome = descend t0 o0 in
      Some { scenario; outcome; runs = !runs }

  (* ----------------------------- generation ---------------------------- *)

  (* Scenario generator for property tests: all structure comes from
     small integer primitives, so QCheck's integrated shrinking already
     reduces seeds and counts; {!shrink} then does the semantic
     minimization the generic shrinker cannot. *)
  let gen ?(n_max = 4) ?(ops_max = 5) () =
    let open QCheck2.Gen in
    let* n = int_range 2 (max 2 n_max) in
    let* seed = int_bound 999_999 in
    let* script_seed = int_bound 999_999 in
    let* ops = int_range 1 (max 1 ops_max) in
    let* fifo = bool in
    let* mean_delay = oneofl [ 2.0; 5.0; 15.0 ] in
    let scripts =
      let rng = Prng.create (script_seed + 1) in
      Array.init n (fun _ ->
          List.init ops (fun _ ->
              if Prng.int rng 4 = 0 then
                Protocol.Invoke_query (P.random_query rng)
              else Protocol.Invoke_update (P.random_update rng)))
    in
    let gen_partition =
      let* from = int_range 5 120 in
      let* width = int_range 5 200 in
      let* pid = int_bound (n - 1) in
      return
        {
          Network.from_time = float_of_int from;
          to_time = float_of_int (from + width);
          group = [ pid ];
        }
    in
    let* partitions = list_size (int_bound 2) gen_partition in
    let* crashes =
      list_size
        (int_bound ((n - 1) / 2))
        (let* tm = int_range 10 150 in
         let* pid = int_bound (n - 1) in
         return (float_of_int tm, pid))
    in
    let gen_churn =
      let* pid = int_bound (n - 1) in
      let* t_leave = int_range 10 120 in
      let* gap = int_range 10 120 in
      let* comeback = bool in
      return
        (if comeback then
           [
             { Network.time = float_of_int t_leave; pid; action = Network.Leave };
             {
               Network.time = float_of_int (t_leave + gap);
               pid;
               action = Network.Rejoin;
             };
           ]
         else
           [ { Network.time = float_of_int t_leave; pid; action = Network.Leave } ])
    in
    let* churn = map List.concat (list_size (int_bound 2) gen_churn) in
    return
      {
        spec =
          {
            Run_spec.default with
            seed;
            n;
            mean_delay;
            fifo;
            partitions;
            crashes;
            churn;
          };
        scripts;
        final_read = Some (P.random_query (Prng.create (script_seed + 2)));
      }
end
