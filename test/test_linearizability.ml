(* Linearizability of executions: the ABD baseline must pass, the
   wait-free register must (observably) fail, and hand-timed histories
   pin the checker's semantics. *)

open Helpers

module Lin_reg = Check_lin.Make (Register_spec)

(* A hand-timed history: [spans] gives each event's (invocation,
   response) pair, in event-id order. *)
let timed steps spans =
  let column f = Float.Array.of_list (List.map f spans) in
  (History.make steps, { Check_lin.starts = column fst; finishes = column snd })

let unit_tests =
  [
    Alcotest.test_case "sequential run is linearizable" `Quick (fun () ->
        let h, iv =
          timed
            [ [ History.U (Register_spec.Write 1); History.Q (Register_spec.Read, 1) ] ]
            [ (0.0, 1.0); (2.0, 3.0) ]
        in
        Alcotest.(check bool) "lin" true (Lin_reg.holds h ~intervals:iv));
    Alcotest.test_case "a stale read after a completed write is not linearizable" `Quick
      (fun () ->
        (* write(1) responds at t=1; the read starts at t=2 and still
           returns the initial 0. *)
        let h, iv =
          timed
            [
              [ History.U (Register_spec.Write 1) ];
              [ History.Q (Register_spec.Read, 0) ];
            ]
            [ (0.0, 1.0); (2.0, 3.0) ]
        in
        Alcotest.(check bool) "not lin" false (Lin_reg.holds h ~intervals:iv));
    Alcotest.test_case "overlapping operations may order either way" `Quick (fun () ->
        (* The same stale read is fine while it overlaps the write. *)
        let h, iv =
          timed
            [
              [ History.U (Register_spec.Write 1) ];
              [ History.Q (Register_spec.Read, 0) ];
            ]
            [ (0.0, 5.0); (2.0, 3.0) ]
        in
        Alcotest.(check bool) "lin" true (Lin_reg.holds h ~intervals:iv));
    Alcotest.test_case "new-old read inversion is rejected" `Quick (fun () ->
        (* Two sequential reads around a write's response: the second
           read may not travel back in time. *)
        let h, iv =
          timed
            [
              [ History.U (Register_spec.Write 1) ];
              [
                History.Q (Register_spec.Read, 1);
                History.Q (Register_spec.Read, 0);
              ];
            ]
            [ (0.0, 10.0); (1.0, 2.0); (3.0, 4.0) ]
        in
        Alcotest.(check bool) "not lin" false (Lin_reg.holds h ~intervals:iv));
    Alcotest.test_case "witness respects real time" `Quick (fun () ->
        let h, iv =
          timed
            [
              [ History.U (Register_spec.Write 1) ];
              [ History.U (Register_spec.Write 2) ];
              [ History.Q (Register_spec.Read, 2) ];
            ]
            [ (0.0, 1.0); (2.0, 3.0); (4.0, 5.0) ]
        in
        match Lin_reg.witness h ~intervals:iv with
        | None -> Alcotest.fail "linearizable"
        | Some w ->
          let ids = List.map (fun (e : _ History.event) -> e.History.id) w in
          Alcotest.(check (list int)) "temporal order" [ 0; 1; 2 ] ids);
  ]

let run_register (module P : Protocol.PROTOCOL
                   with type update = Register_spec.update
                    and type query = Register_spec.query
                    and type output = Register_spec.output) seed =
  let module R = Runner.Make (P) in
  let rng = Prng.create seed in
  let module G = Workload.Make (Register_spec) in
  let workload = G.mixed ~rng ~n:2 ~ops_per_process:3 ~query_ratio:0.5 in
  let config =
    {
      (R.default_config ~n:2 ~seed) with
      R.delay = Network.Uniform { lo = 5.0; hi = 40.0 };
      final_read = Some Register_spec.Read;
    }
  in
  let r = R.run config ~workload in
  Lin_reg.holds r.R.history ~intervals:r.R.intervals

let execution_tests =
  [
    qtest ~count:15 "ABD runs are linearizable" seed_gen (fun seed ->
        run_register (module Abd) seed);
    Alcotest.test_case "the wait-free register run can violate atomicity" `Quick
      (fun () ->
        (* With slow messages, p1 reads 0 long after p0's write(1)
           completed: inherently non-linearizable — the recency the paper
           deliberately trades for wait-freedom. *)
        let module P = Generic.Make (Register_spec) in
        let module R = Runner.Make (P) in
        let config =
          {
            (R.default_config ~n:2 ~seed:1) with
            R.delay = Network.Constant 100.0;
            think = Network.Constant 10.0;
            final_read = Some Register_spec.Read;
          }
        in
        let r =
          R.run config
            ~workload:
              [|
                [ Protocol.Invoke_update (Register_spec.Write 1) ];
                [
                  (* the second read starts well after write(1) responded
                     yet still returns 0: a new-old inversion *)
                  Protocol.Invoke_query Register_spec.Read;
                  Protocol.Invoke_query Register_spec.Read;
                ];
              |]
        in
        Alcotest.(check bool) "converged eventually" true r.R.converged;
        Alcotest.(check bool) "but not linearizable" false
          (Lin_reg.holds r.R.history ~intervals:r.R.intervals));
  ]

let tests = unit_tests @ execution_tests
