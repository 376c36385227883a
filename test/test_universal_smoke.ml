(* End-to-end: Algorithm 1 on the set, adversarial delays, must converge
   with agreeing certificates and a UC/EC-valid extracted history. *)

module P = Generic.Make (Set_spec)
module R = Runner.Make (P)

let conflict_workload : R.action list array =
  [|
    [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_update (Set_spec.Delete 2); Protocol.Invoke_query Set_spec.Read ];
    [ Protocol.Invoke_update (Set_spec.Insert 2); Protocol.Invoke_update (Set_spec.Delete 1); Protocol.Invoke_query Set_spec.Read ];
    [ Protocol.Invoke_update (Set_spec.Insert 3); Protocol.Invoke_query Set_spec.Read ];
  |]

let run_once seed =
  let config =
    { (R.default_config ~n:3 ~seed) with R.final_read = Some Set_spec.Read }
  in
  R.run config ~workload:conflict_workload

let tests =
  [
    Alcotest.test_case "universal set converges" `Quick (fun () ->
        let r = run_once 42 in
        Alcotest.(check bool) "converged" true r.R.converged;
        Alcotest.(check bool) "certificates agree" true r.R.certificates_agree;
        Alcotest.(check int) "three final reads" 3 (List.length r.R.final_outputs));
    Alcotest.test_case "extracted history is UC and EC" `Quick (fun () ->
        let r = run_once 7 in
        let module C = Criteria.Make (Set_spec) in
        Alcotest.(check bool) "UC" true (C.holds Criteria.UC r.R.history);
        Alcotest.(check bool) "EC" true (C.holds Criteria.EC r.R.history));
    Alcotest.test_case "certificate explains the final reads" `Quick (fun () ->
        let r = run_once 99 in
        match (Lazy.force r.R.certificates, r.R.final_outputs) with
        | (_, cert) :: _, (_, out) :: _ ->
          let module Run = Uqadt.Run (Set_spec) in
          let state = Run.final_state (List.map snd cert) in
          Alcotest.(check bool) "explains" true
            (Set_spec.equal_output (Set_spec.eval state Set_spec.Read) out)
        | _, _ -> Alcotest.fail "missing certificate or final read");
    Alcotest.test_case "deterministic under a fixed seed" `Quick (fun () ->
        let a = run_once 1234 and b = run_once 1234 in
        Alcotest.(check int) "same message count" a.R.metrics.Metrics.messages_sent
          b.R.metrics.Metrics.messages_sent;
        Alcotest.(check bool) "same finals" true
          (List.for_all2
             (fun (p, o) (p', o') -> p = p' && Set_spec.equal_output o o')
             a.R.final_outputs b.R.final_outputs));
    Alcotest.test_case "survives n-1 crashes (wait-freedom)" `Quick (fun () ->
        let config =
          {
            (R.default_config ~n:3 ~seed:5) with
            R.final_read = Some Set_spec.Read;
            crashes = [ (2.0, 1); (3.0, 2) ];
          }
        in
        let r = R.run config ~workload:conflict_workload in
        (* The survivor still answers: operations never block. *)
        Alcotest.(check int) "one final read" 1 (List.length r.R.final_outputs));
  ]
