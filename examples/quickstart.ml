(* Quickstart: a replicated set on three simulated nodes.

   Algorithm 1 (the universal construction) makes ANY update-query data
   type strong update consistent in a wait-free way: every replica
   answers immediately from local state, and once the network quiesces
   all replicas agree on a state explained by one linearization of the
   updates.

   Run with: dune exec examples/quickstart.exe *)

module Set_replica = Generic.Make (Set_spec)
module R = Runner.Make (Set_replica)

let () =
  (* Three processes race: p0 and p1 insert/delete the same elements,
     p2 inserts its own and crashes halfway through. *)
  let workload =
    [|
      [
        Protocol.Invoke_update (Set_spec.Insert 1);
        Protocol.Invoke_update (Set_spec.Delete 2);
        Protocol.Invoke_query Set_spec.Read;
      ];
      [
        Protocol.Invoke_update (Set_spec.Insert 2);
        Protocol.Invoke_update (Set_spec.Delete 1);
        Protocol.Invoke_query Set_spec.Read;
      ];
      [ Protocol.Invoke_update (Set_spec.Insert 3) ];
    |]
  in
  let config =
    {
      (R.default_config ~n:3 ~seed:7) with
      R.delay = Network.Uniform { lo = 1.0; hi = 20.0 };
      crashes = [ (6.0, 2) ];  (* p2 crashes; nobody waits for it *)
      final_read = Some Set_spec.Read;
    }
  in
  let r = R.run config ~workload in
  Format.printf "The recorded distributed history:@.%a@."
    (History.pp Set_spec.pp_update Set_spec.pp_query Set_spec.pp_output)
    r.R.history;
  List.iter
    (fun (pid, out) -> Format.printf "final read at p%d: %a@." pid Set_spec.pp_output out)
    r.R.final_outputs;
  Format.printf "replicas converged: %b@." r.R.converged;
  (* Every live replica holds the same update linearization — the
     "common sequential history" of the paper. *)
  (match Lazy.force r.R.certificates with
  | (pid, cert) :: _ ->
    Format.printf "agreed update order (from p%d): %a@." pid
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " · ")
         (fun ppf (origin, u) -> Format.fprintf ppf "%a@@p%d" Set_spec.pp_update u origin))
      cert
  | [] -> ());
  Format.printf "certificates agree: %b@." r.R.certificates_agree;
  (* And the history itself satisfies the paper's criterion. *)
  let module C = Criteria.Make (Set_spec) in
  Format.printf "history is update consistent: %b@." (C.holds Criteria.UC r.R.history)
