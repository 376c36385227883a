(* Workload generators: the shapes the experiments rely on. *)

open Helpers

let count_ops script = List.length script

let count_queries script =
  List.length
    (List.filter
       (function Protocol.Invoke_query _ -> true | Protocol.Invoke_update _ -> false)
       script)

(* The multicore benches' two generators, pinned by sha256 of their
   rendered scripts: each cuts one [Prng.fork]ed stream per domain, so a
   digest moves with the draw order as well as with the shape. The
   digests were recorded while each was still a copy of its [Workload]
   generator, before it became a per-domain call of it. *)
module Sharded = Throughput.Sharded

let script_digest pp_update pp_query scripts =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun pid script ->
      Printf.bprintf b "domain %d\n" pid;
      List.iter
        (function
          | Protocol.Invoke_update u -> Printf.bprintf b "u %s\n" (Format.asprintf "%a" pp_update u)
          | Protocol.Invoke_query q -> Printf.bprintf b "q %s\n" (Format.asprintf "%a" pp_query q))
        script)
    scripts;
  Sha256.hex (Buffer.contents b)

(* (seed, domains, ops, keys, skew, fanout, query ratio) *)
let sharded_pins =
  [
    ((42, 1, 500, 64, 1.1, 1, 0.0),
      "3151ef599cf39edba353bfe28f7c6aa39e040d6395d784b4596eb0b22138d85b");
    ((3, 2, 500, 64, 1.1, 3, 0.3),
      "fe8526c414619e011ab3b456193031f7abefb05d4d964f63ad7bea45747e4a19");
    ((7, 3, 400, 1024, 0.5, 5, 0.9),
      "836a13482391f5358326b8e1b83712f0b1876e5b66d598ffcec458152695d410");
    ((11, 4, 300, 16, 1.5, 2, 0.1),
      "c65c4b881ad996f8006984a556f1526af0f711858cf6a4b664697728fbe15ab8");
    ((0, 4, 2000, 1024, 1.1, 4, 0.25),
      "9b6df2e0fa4b64bab91ba645f51729464aef83e053a454382745b34c3e136234");
  ]

(* (seed, domains, ops, skew, delete ratio) *)
let set_pins =
  [
    ((5, 3, 300, 1.2, 0.3),
      "0195c510fbd5fc39e470706b5ab9695c9df4011e5d1e9f29977cd40ce0fb7ee9");
    ((42, 2, 1000, 1.0, 0.3),
      "b5f2313dcf582f29a65d6f40e331a8148f6153d525a2d23ecfb6578bcd7660ff");
    ((1, 2, 20_000, 1.1, 0.5),
      "07c1415a2be1d033965ee1bfce1666b4a2d0039705838001fc4c7858f4b1ddb2");
  ]

let generator_pins () =
  List.iter
    (fun ((seed, domains, ops, keys, skew, fanout, query_ratio), digest) ->
      Alcotest.(check string)
        (Printf.sprintf "sharded seed %d, %d domains, fanout %d, query ratio %g" seed domains
           fanout query_ratio)
        digest
        (script_digest Sharded.S.K.pp_update Sharded.S.K.pp_query
           (Sharded.zipf_scripts ~seed ~domains ~ops ~keys ~skew ~fanout ~query_ratio)))
    sharded_pins;
  List.iter
    (fun ((seed, domains, ops, skew, delete_ratio), digest) ->
      Alcotest.(check string)
        (Printf.sprintf "set seed %d, %d domains, %d ops" seed domains ops)
        digest
        (script_digest Set_spec.pp_update Set_spec.pp_query
           (Throughput.set_zipf_scripts ~seed ~domains ~ops ~skew ~delete_ratio)))
    set_pins

let tests =
  [
    Alcotest.test_case "the multicore generators' scripts are pinned" `Quick generator_pins;
    qtest "mixed: width, length and query ratio" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let module G = Workload.Make (Set_spec) in
        let w = G.mixed ~rng ~n:4 ~ops_per_process:50 ~query_ratio:0.5 in
        Array.length w = 4
        && Array.for_all (fun s -> count_ops s = 50) w
        &&
        let queries = Array.fold_left (fun acc s -> acc + count_queries s) 0 w in
        (* 200 coin flips at p=0.5: a loose 60–140 band *)
        queries > 60 && queries < 140);
    qtest "updates_only has no queries" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let module G = Workload.Make (Counter_spec) in
        let w = G.updates_only ~rng ~n:3 ~ops_per_process:20 in
        Array.for_all (fun s -> count_queries s = 0) w);
    qtest "query_heavy: only process 0 updates" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let module G = Workload.Make (Set_spec) in
        let w = G.query_heavy ~rng ~n:3 ~updates:10 ~queries_per_process:5 in
        count_ops w.(0) = 15
        && count_queries w.(0) = 5
        && count_queries w.(1) = 5
        && count_ops w.(1) = 5);
    qtest "set conflict workload stays in its domain" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let w =
          Workload.For_set.conflict ~rng ~n:3 ~ops_per_process:30 ~domain:5 ~skew:1.0
            ~delete_ratio:0.3
        in
        Array.for_all
          (List.for_all (function
            | Protocol.Invoke_update (Set_spec.Insert v)
            | Protocol.Invoke_update (Set_spec.Delete v) ->
              1 <= v && v <= 5
            | Protocol.Invoke_query _ -> false))
          w);
    qtest "skew concentrates conflict on hot elements" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let w =
          Workload.For_set.conflict ~rng ~n:2 ~ops_per_process:200 ~domain:50 ~skew:1.5
            ~delete_ratio:0.3
        in
        let hot = ref 0 and total = ref 0 in
        Array.iter
          (List.iter (function
            | Protocol.Invoke_update (Set_spec.Insert v)
            | Protocol.Invoke_update (Set_spec.Delete v) ->
              incr total;
              if v <= 3 then incr hot
            | Protocol.Invoke_query _ -> ()))
          w;
        (* Under Zipf(1.5) the top-3 of 50 carry well over a third. *)
        !hot * 3 > !total);
    Alcotest.test_case "insert_delete_race is the Fig.1b pattern" `Quick (fun () ->
        let w = Workload.For_set.insert_delete_race ~n:2 in
        Alcotest.(check int) "p0 ops" 3 (count_ops w.(0));
        (* insert own element, delete the other's, read *)
        match w.(0) with
        | [ Protocol.Invoke_update (Set_spec.Insert 0);
            Protocol.Invoke_update (Set_spec.Delete 1);
            Protocol.Invoke_query Set_spec.Read ] ->
          ()
        | _ -> Alcotest.fail "unexpected script shape");
    Alcotest.test_case "fig2 program matches the paper's Figure 2" `Quick (fun () ->
        let w = Workload.For_set.fig2_program () in
        Alcotest.(check int) "two processes" 2 (Array.length w);
        match (w.(0), w.(1)) with
        | ( Protocol.Invoke_update (Set_spec.Insert 1) :: _,
            Protocol.Invoke_update (Set_spec.Insert 2)
            :: Protocol.Invoke_update (Set_spec.Delete 3) :: _ ) ->
          ()
        | _ -> Alcotest.fail "unexpected program");
    qtest "memory workload respects register bound and read ratio" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let w =
          Workload.For_memory.random_writes ~rng ~n:2 ~ops_per_process:100 ~registers:4
            ~read_ratio:0.25
        in
        Array.for_all
          (List.for_all (function
            | Protocol.Invoke_update (Memory_spec.Write (x, _)) -> 0 <= x && x < 4
            | Protocol.Invoke_query (Memory_spec.Read x) -> 0 <= x && x < 4))
          w);
    qtest "ledger increments_only is G-counter-safe" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let w =
          Workload.For_counter.increments_only ~rng ~n:3 ~ops_per_process:20 ~max_amount:9
        in
        Array.for_all
          (List.for_all (function
            | Protocol.Invoke_update (Counter_spec.Add k) -> k > 0
            | Protocol.Invoke_query _ -> false))
          w);
    qtest "text editing stays within sane positions" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let w = Workload.For_text.collaborative ~rng ~n:2 ~edits_per_process:30 in
        Array.for_all
          (List.for_all (function
            | Protocol.Invoke_update (Text_spec.Insert (p, _))
            | Protocol.Invoke_update (Text_spec.Delete p) ->
              0 <= p && p < 40
            | Protocol.Invoke_query _ -> false))
          w);
    qtest "set script codec round-trips every op" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let ops =
          List.init 40 (fun _ ->
              match Prng.int rng 3 with
              | 0 -> Protocol.Invoke_update (Set_spec.Insert (Prng.int rng 100))
              | 1 -> Protocol.Invoke_update (Set_spec.Delete (Prng.int rng 100))
              | _ -> Protocol.Invoke_query Set_spec.Read)
        in
        List.for_all
          (fun op ->
            Run_spec.parse_op (Run_spec.print_op op) = Some op)
          ops);
    Alcotest.test_case "the codec rejects garbage" `Quick (fun () ->
        List.iter
          (fun s ->
            match Run_spec.parse_op s with
            | None -> ()
            | Some _ -> Alcotest.failf "parsed %S" s)
          [ ""; "X(3)"; "I()"; "I(x)"; "I(3"; "R(1)"; "insert 3"; "D" ]);
    Alcotest.test_case "flash-crowd plan is warm/spike/cool at base/peak/base" `Quick
      (fun () ->
        match Workload.Flash_crowd.plan ~base:0.5 ~peak:8.0 ~warm:30.0 ~spike:10.0 ~cool:40.0 with
        | [ w; s; c ] ->
          Alcotest.(check (float 0.0)) "warm rate" 0.5 w.Clients.rate;
          Alcotest.(check (float 0.0)) "warm duration" 30.0 w.Clients.duration;
          Alcotest.(check (float 0.0)) "spike rate" 8.0 s.Clients.rate;
          Alcotest.(check (float 0.0)) "spike duration" 10.0 s.Clients.duration;
          Alcotest.(check (float 0.0)) "cool rate" 0.5 c.Clients.rate;
          Alcotest.(check (float 0.0)) "cool duration" 40.0 c.Clients.duration
        | phases -> Alcotest.failf "expected 3 phases, got %d" (List.length phases));
    qtest "flash-crowd mix respects its ratios at the edges" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let all_queries =
          Workload.Flash_crowd.set_mix ~domain:8 ~skew:1.0 ~delete_ratio:0.3
            ~query_ratio:1.0
        and no_queries =
          Workload.Flash_crowd.set_mix ~domain:8 ~skew:1.0 ~delete_ratio:0.3
            ~query_ratio:0.0
        in
        List.for_all
          (fun _ ->
            (match all_queries rng with
            | Protocol.Invoke_query Set_spec.Read -> true
            | Protocol.Invoke_update _ -> false)
            &&
            match no_queries rng with
            | Protocol.Invoke_update (Set_spec.Insert v)
            | Protocol.Invoke_update (Set_spec.Delete v) ->
              1 <= v && v <= 8
            | Protocol.Invoke_query _ -> false)
          (List.init 50 Fun.id));
  ]
