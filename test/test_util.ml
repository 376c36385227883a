(* uc_util: PRNG, heap, bitset, stats, wire, zipf, table, dag. *)

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let prng_tests =
  [
    Alcotest.test_case "prng is deterministic per seed" `Quick (fun () ->
        let a = Prng.create 7 and b = Prng.create 7 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
        done);
    Alcotest.test_case "different seeds give different streams" `Quick (fun () ->
        let a = Prng.create 1 and b = Prng.create 2 in
        Alcotest.(check bool) "diverge" true (Prng.bits64 a <> Prng.bits64 b));
    Alcotest.test_case "split is independent of parent draws" `Quick (fun () ->
        let parent = Prng.create 5 in
        let child = Prng.split parent in
        let first = Prng.bits64 child in
        let parent2 = Prng.create 5 in
        let child2 = Prng.split parent2 in
        Alcotest.(check int64) "same child stream" first (Prng.bits64 child2));
    Alcotest.test_case "copy replays the stream" `Quick (fun () ->
        let a = Prng.create 11 in
        ignore (Prng.bits64 a);
        let b = Prng.copy a in
        Alcotest.(check int64) "copied" (Prng.bits64 a) (Prng.bits64 b));
    qtest "int bound respected"
      QCheck2.Gen.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let g = Prng.create seed in
        let v = Prng.int g bound in
        0 <= v && v < bound);
    qtest "int_in range respected"
      QCheck2.Gen.(triple small_int (int_range (-50) 50) (int_range 0 100))
      (fun (seed, lo, width) ->
        let g = Prng.create seed in
        let v = Prng.int_in g lo (lo + width) in
        lo <= v && v <= lo + width);
    qtest "float bound respected"
      QCheck2.Gen.small_int
      (fun seed ->
        let g = Prng.create seed in
        let v = Prng.float g 3.5 in
        0.0 <= v && v < 3.5);
    qtest "exponential is non-negative" QCheck2.Gen.small_int (fun seed ->
        let g = Prng.create seed in
        Prng.exponential g ~mean:4.0 >= 0.0);
    qtest "pareto is at least scale" QCheck2.Gen.small_int (fun seed ->
        let g = Prng.create seed in
        Prng.pareto g ~scale:2.0 ~shape:1.5 >= 2.0);
    qtest "shuffle is a permutation" QCheck2.Gen.(pair small_int (list small_int))
      (fun (seed, xs) ->
        let g = Prng.create seed in
        let a = Array.of_list xs in
        Prng.shuffle g a;
        List.sort compare (Array.to_list a) = List.sort compare xs);
    Alcotest.test_case "int rejects non-positive bound" `Quick (fun () ->
        let g = Prng.create 0 in
        Alcotest.check_raises "zero" (Invalid_argument "Prng.int: bound must be positive")
          (fun () -> ignore (Prng.int g 0)));
    Alcotest.test_case "sample_weighted prefers heavy weights" `Quick (fun () ->
        let g = Prng.create 1 in
        let hits = ref 0 in
        for _ = 1 to 1000 do
          if Prng.sample_weighted g [ (9.0, `A); (1.0, `B) ] = `A then incr hits
        done;
        Alcotest.(check bool) "about 90%" true (!hits > 800 && !hits < 980));
  ]

let heap_tests =
  let drain h =
    let rec go acc =
      if Heap.is_empty h then List.rev acc
      else begin
        let item = Heap.min_item h in
        Heap.remove_min h;
        go (item :: acc)
      end
    in
    go []
  in
  [
    qtest "pops in sorted order" QCheck2.Gen.(list (int_bound 20)) (fun times ->
        (* Item i at time [times.(i)]: out by time, equal times by
           insertion. *)
        let h = Heap.create () in
        List.iteri (fun i t -> Heap.push h ~time:(float_of_int t) i) times;
        let expected =
          List.mapi (fun i t -> (t, i)) times
          |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
        in
        drain h = expected);
    qtest "length tracks pushes" QCheck2.Gen.(list int) (fun xs ->
        let h = Heap.create () in
        List.iter (fun x -> Heap.push h ~time:(float_of_int x) x) xs;
        Heap.length h = List.length xs);
    Alcotest.test_case "min_item and min_time do not remove" `Quick (fun () ->
        let h = Heap.create () in
        Heap.push h ~time:3.0 30;
        Heap.push h ~time:1.0 10;
        Alcotest.(check int) "item" 10 (Heap.min_item h);
        Alcotest.(check (float 0.0)) "time" 1.0 (Heap.min_time h);
        Alcotest.(check bool) "later than 0.5" true (Heap.min_later_than h 0.5);
        Alcotest.(check bool) "not later than 1" false (Heap.min_later_than h 1.0);
        Alcotest.(check int) "still two" 2 (Heap.length h));
    Alcotest.test_case "an empty heap raises" `Quick (fun () ->
        let h = Heap.create () in
        Alcotest.check_raises "remove_min"
          (Invalid_argument "Heap.remove_min: empty heap") (fun () ->
            Heap.remove_min h);
        Alcotest.check_raises "min_item" (Invalid_argument "Heap.min_item: empty heap")
          (fun () -> ignore (Heap.min_item h : int)));
    Alcotest.test_case "clear empties" `Quick (fun () ->
        let h = Heap.create () in
        List.iter (fun x -> Heap.push h ~time:(float_of_int x) x) [ 5; 2; 8 ];
        Heap.clear h;
        Alcotest.(check bool) "empty" true (Heap.is_empty h));
    qtest "push_after keys by now + delay"
      QCheck2.Gen.(list (pair (float_bound_inclusive 100.0) (float_bound_inclusive 10.0)))
      (fun keys ->
        let a = Heap.create () and b = Heap.create () in
        List.iteri
          (fun i (now, delay) ->
            Heap.push_after a ~now ~delay i;
            Heap.push b ~time:(now +. delay) i)
          keys;
        drain a = drain b);
    (* Keys and items sit in unboxed columns: once the columns have
       grown, pushing and popping allocate nothing. *)
    Alcotest.test_case "push and remove_min allocate nothing" `Quick (fun () ->
        let h = Heap.create () in
        (* Boxed once, here: reading a [float array] would box each time. *)
        let times = List.init 1000 (fun i -> float_of_int ((i * 7919) mod 1000)) in
        let round () =
          List.iteri (fun i time -> Heap.push h ~time i) times;
          while not (Heap.is_empty h) do
            ignore (Heap.min_item h : int);
            Heap.remove_min h
          done
        in
        round ();
        let words = Helpers.minor_words round in
        if words > 16. then Alcotest.failf "1000 pushes and pops: %.0f minor words" words);
  ]

(* Bitset checked against a Set.Make(Int) model. *)
let bitset_tests =
  let cap = 64 in
  let module S = Set.Make (Int) in
  let gen_ops = QCheck2.Gen.(list (int_range 0 (cap - 1))) in
  let of_model xs = (Bitset.of_list cap xs, S.of_list xs) in
  [
    qtest "of_list/mem agree with the model" gen_ops (fun xs ->
        let b, m = of_model xs in
        List.for_all (fun i -> Bitset.mem b i = S.mem i m) (List.init cap Fun.id));
    qtest "union agrees" QCheck2.Gen.(pair gen_ops gen_ops) (fun (xs, ys) ->
        let bx, mx = of_model xs and by, my = of_model ys in
        Bitset.elements (Bitset.union bx by) = S.elements (S.union mx my));
    qtest "inter agrees" QCheck2.Gen.(pair gen_ops gen_ops) (fun (xs, ys) ->
        let bx, mx = of_model xs and by, my = of_model ys in
        Bitset.elements (Bitset.inter bx by) = S.elements (S.inter mx my));
    qtest "diff agrees" QCheck2.Gen.(pair gen_ops gen_ops) (fun (xs, ys) ->
        let bx, mx = of_model xs and by, my = of_model ys in
        Bitset.elements (Bitset.diff bx by) = S.elements (S.diff mx my));
    qtest "cardinal agrees" gen_ops (fun xs ->
        let b, m = of_model xs in
        Bitset.cardinal b = S.cardinal m);
    qtest "subset agrees" QCheck2.Gen.(pair gen_ops gen_ops) (fun (xs, ys) ->
        let bx, mx = of_model xs and by, my = of_model ys in
        Bitset.subset bx by = S.subset mx my);
    qtest "add/remove are functional" gen_ops (fun xs ->
        let b, _ = of_model xs in
        let b2 = Bitset.add b 0 in
        Bitset.mem b2 0 && (Bitset.mem b 0 = List.mem 0 xs));
    Alcotest.test_case "full has every index" `Quick (fun () ->
        Alcotest.(check int) "cardinal" 10 (Bitset.cardinal (Bitset.full 10)));
    Alcotest.test_case "capacity mismatch raises" `Quick (fun () ->
        Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch")
          (fun () -> ignore (Bitset.union (Bitset.create 4) (Bitset.create 5))));
    Alcotest.test_case "out-of-bounds raises" `Quick (fun () ->
        Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds")
          (fun () -> ignore (Bitset.mem (Bitset.create 4) 4)));
    qtest "equal iff same elements" QCheck2.Gen.(pair gen_ops gen_ops) (fun (xs, ys) ->
        let bx, mx = of_model xs and by, my = of_model ys in
        Bitset.equal bx by = S.equal mx my);
  ]

let stats_tests =
  [
    Alcotest.test_case "summary of a known sample" `Quick (fun () ->
        let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
        Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
        Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
        Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
        Alcotest.(check (float 1e-9)) "p50" 2.5 s.Stats.p50);
    Alcotest.test_case "percentile interpolates" `Quick (fun () ->
        let sorted = [| 0.0; 10.0 |] in
        Alcotest.(check (float 1e-9)) "p25" 2.5 (Stats.percentile sorted 0.25));
    Alcotest.test_case "empty sample raises" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
          (fun () -> ignore (Stats.summarize [])));
    qtest "percentiles are monotone" QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 100.0))
      (fun xs ->
        let s = Stats.summarize xs in
        s.Stats.min <= s.Stats.p50 && s.Stats.p50 <= s.Stats.p90
        && s.Stats.p90 <= s.Stats.p99 && s.Stats.p99 <= s.Stats.max);
    qtest "stddev is non-negative" QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 10.0))
      (fun xs -> Stats.stddev xs >= 0.0);
    Alcotest.test_case "histogram buckets cover the sample" `Quick (fun () ->
        let h = Stats.histogram ~buckets:4 [ 0.0; 1.0; 2.0; 3.0; 4.0 ] in
        let rendered = Format.asprintf "%a" Stats.pp_histogram h in
        Alcotest.(check bool) "renders" true (String.length rendered > 0));
    Alcotest.test_case "single-element sample" `Quick (fun () ->
        let s = Stats.summarize [ 7.5 ] in
        Alcotest.(check int) "count" 1 s.Stats.count;
        Alcotest.(check (float 1e-9)) "mean" 7.5 s.Stats.mean;
        Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.stddev;
        Alcotest.(check (float 1e-9)) "p50" 7.5 s.Stats.p50;
        Alcotest.(check (float 1e-9)) "p99" 7.5 s.Stats.p99;
        Alcotest.(check (float 1e-9)) "percentile q=1" 7.5
          (Stats.percentile [| 7.5 |] 1.0));
    Alcotest.test_case "all-equal sample has stddev 0, not NaN" `Quick (fun () ->
        (* With values whose squares lose precision, the naive variance
           can come out as a tiny negative number; sqrt would be NaN. *)
        let xs = List.init 10 (fun _ -> 10.1) in
        let s = Stats.summarize xs in
        Alcotest.(check bool) "stddev not NaN" false (Float.is_nan s.Stats.stddev);
        Alcotest.(check (float 1e-9)) "stddev" 0.0 s.Stats.stddev;
        Alcotest.(check (float 1e-9)) "p90 = the value" 10.1 s.Stats.p90);
    Alcotest.test_case "all-equal histogram has a zero-width range" `Quick
      (fun () ->
        (* The sample range is empty; bucketing must still place every
           sample in the first bucket instead of dividing by zero. *)
        let h = Stats.histogram ~buckets:4 [ 2.0; 2.0; 2.0 ] in
        let rendered = Format.asprintf "%a" Stats.pp_histogram h in
        Alcotest.(check bool) "first bucket holds all three" true
          (let contains_all_three = ref false in
           String.split_on_char '\n' rendered
           |> List.iteri (fun i line ->
                  if i = 0 && String.length line > 0 then
                    contains_all_three :=
                      String.index_opt line '3' <> None
                      && String.index_opt line '#' <> None);
           !contains_all_three));
  ]

let wire_tests =
  [
    Alcotest.test_case "varint sizes at boundaries" `Quick (fun () ->
        List.iter
          (fun (n, want) -> Alcotest.(check int) (string_of_int n) want (Wire.varint_size n))
          [ (0, 1); (127, 1); (128, 2); (16383, 2); (16384, 3) ]);
    Alcotest.test_case "negative varint raises" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Wire.varint_size: negative") (fun () ->
            ignore (Wire.varint_size (-1))));
    qtest "varint size is monotone" QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 100000))
      (fun (a, b) -> a > b || Wire.varint_size a <= Wire.varint_size b);
    Alcotest.test_case "string and list sizes" `Quick (fun () ->
        Alcotest.(check int) "string" 6 (Wire.string_size "hello");
        Alcotest.(check int) "list" 4 (Wire.list_size Wire.varint_size [ 1; 2; 3 ]));
  ]

let zipf_tests =
  [
    qtest "samples stay in support range" QCheck2.Gen.small_int (fun seed ->
        let z = Zipf.create ~n:10 ~s:1.2 in
        let g = Prng.create seed in
        let v = Zipf.sample z g in
        1 <= v && v <= 10);
    Alcotest.test_case "skew favours rank 1" `Quick (fun () ->
        let z = Zipf.create ~n:100 ~s:1.5 in
        let g = Prng.create 3 in
        let ones = ref 0 in
        for _ = 1 to 1000 do
          if Zipf.sample z g = 1 then incr ones
        done;
        Alcotest.(check bool) "rank 1 dominates" true (!ones > 300));
    Alcotest.test_case "s=0 is roughly uniform" `Quick (fun () ->
        let z = Zipf.create ~n:4 ~s:0.0 in
        let g = Prng.create 3 in
        let counts = Array.make 5 0 in
        for _ = 1 to 4000 do
          let v = Zipf.sample z g in
          counts.(v) <- counts.(v) + 1
        done;
        Array.iteri (fun i c -> if i > 0 then Alcotest.(check bool) "balanced" true (c > 800)) counts);
  ]

let table_tests =
  [
    Alcotest.test_case "render aligns columns" `Quick (fun () ->
        let t = Table.create [ "a"; "bb" ] in
        Table.add_row t [ "xxx"; "y" ];
        let s = Table.render t in
        Alcotest.(check bool) "has borders" true (String.length s > 0 && s.[0] = '+'));
    Alcotest.test_case "markdown renders a separator" `Quick (fun () ->
        let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "k"; "v" ] in
        Table.add_row t [ "x"; "1" ];
        let s = Table.render_markdown t in
        Alcotest.(check bool) "separator" true
          (String.split_on_char '\n' s |> fun lines -> List.length lines >= 3));
    Alcotest.test_case "ragged rows pad" `Quick (fun () ->
        let t = Table.create [ "a"; "b"; "c" ] in
        Table.add_row t [ "only" ];
        Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0));
    Alcotest.test_case "too many cells raises" `Quick (fun () ->
        let t = Table.create [ "a" ] in
        Alcotest.check_raises "overflow" (Invalid_argument "Table.add_row: more cells than headers")
          (fun () -> Table.add_row t [ "x"; "y" ]));
  ]

let dag_tests =
  [
    Alcotest.test_case "topo order respects edges" `Quick (fun () ->
        let g = Dag.create 4 in
        Dag.add_edge g 0 1;
        Dag.add_edge g 1 2;
        Dag.add_edge g 0 3;
        match Dag.topo_order g with
        | None -> Alcotest.fail "acyclic graph"
        | Some order ->
          let pos v = Option.get (List.find_index (Int.equal v) order) in
          Alcotest.(check bool) "0<1<2" true (pos 0 < pos 1 && pos 1 < pos 2));
    Alcotest.test_case "cycle detected" `Quick (fun () ->
        let g = Dag.create 2 in
        Dag.add_edge g 0 1;
        Dag.add_edge g 1 0;
        Alcotest.(check bool) "cyclic" false (Dag.is_acyclic g));
    Alcotest.test_case "linear extensions of an antichain = n!" `Quick (fun () ->
        let g = Dag.create 4 in
        Alcotest.(check int) "4! = 24" 24 (Dag.count_linear_extensions g ~limit:1000));
    Alcotest.test_case "linear extensions of a chain = 1" `Quick (fun () ->
        let g = Dag.create 4 in
        Dag.add_edge g 0 1;
        Dag.add_edge g 1 2;
        Dag.add_edge g 2 3;
        Alcotest.(check int) "chain" 1 (Dag.count_linear_extensions g ~limit:1000));
    Alcotest.test_case "two chains of 2 = 6 extensions" `Quick (fun () ->
        let g = Dag.create 4 in
        Dag.add_edge g 0 1;
        Dag.add_edge g 2 3;
        Alcotest.(check int) "C(4,2)" 6 (Dag.count_linear_extensions g ~limit:1000));
    Alcotest.test_case "every extension is a valid topological order" `Quick (fun () ->
        let g = Dag.create 4 in
        Dag.add_edge g 0 2;
        Dag.add_edge g 1 3;
        let ok = ref true in
        let (_ : bool) =
          Dag.linear_extensions g (fun order ->
              let pos = Array.make 4 0 in
              Array.iteri (fun i v -> pos.(v) <- i) order;
              if pos.(0) > pos.(2) || pos.(1) > pos.(3) then ok := false;
              false)
        in
        Alcotest.(check bool) "all valid" true !ok);
    Alcotest.test_case "reachable computes transitive closure" `Quick (fun () ->
        let g = Dag.create 4 in
        Dag.add_edge g 0 1;
        Dag.add_edge g 1 2;
        let reach = Dag.reachable g in
        Alcotest.(check bool) "0 reaches 2" true (Bitset.mem reach.(0) 2);
        Alcotest.(check bool) "2 reaches nothing" true (Bitset.is_empty reach.(2)));
    Alcotest.test_case "duplicate edges ignored" `Quick (fun () ->
        let g = Dag.create 2 in
        Dag.add_edge g 0 1;
        Dag.add_edge g 0 1;
        Alcotest.(check (list int)) "single succ" [ 1 ] (Dag.succs g 0));
    Alcotest.test_case "limit caps the enumeration" `Quick (fun () ->
        let g = Dag.create 5 in
        Alcotest.(check int) "capped" 10 (Dag.count_linear_extensions g ~limit:10));
  ]

(* [fork] (the full SplitMix64 split, fresh gamma per child) and the
   byte-compatibility of the legacy [split]/[create] streams it must
   not disturb: the pinned literals below were captured on the tree as
   it stood before [fork] existed, so any drift in the historical
   streams — which every seeded journal depends on — fails here. *)
let fork_tests =
  let chi_square ~cells observed =
    let total = Array.fold_left ( + ) 0 observed in
    let expected = float_of_int total /. float_of_int cells in
    Array.fold_left
      (fun acc o ->
        let d = float_of_int o -. expected in
        acc +. (d *. d /. expected))
      0.0 observed
  in
  [
    Alcotest.test_case "split streams are pinned (pre-fork literals)" `Quick
      (fun () ->
        let g = Prng.create 42 in
        let c1 = Prng.split g in
        let c2 = Prng.split g in
        let check label expected got = Alcotest.(check int64) label expected got in
        check "c1.0" 6332618229526065668L (Prng.bits64 c1);
        check "c1.1" (-816328817471504299L) (Prng.bits64 c1);
        check "c1.2" 8971565426155258802L (Prng.bits64 c1);
        check "c2.0" (-245134149879684690L) (Prng.bits64 c2);
        check "c2.1" 5693819483401481853L (Prng.bits64 c2);
        check "c2.2" (-9098865275727344972L) (Prng.bits64 c2);
        check "parent resumes" 5139283748462763858L (Prng.bits64 g));
    Alcotest.test_case "seeded int stream is pinned" `Quick (fun () ->
        let h = Prng.create 7 in
        let draws = ref [] in
        for _ = 1 to 4 do
          draws := Prng.int h 100 :: !draws
        done;
        Alcotest.(check (list int))
          "first draws" [ 21; 51; 36; 50 ] (List.rev !draws));
    Alcotest.test_case "fork is deterministic in the parent state" `Quick
      (fun () ->
        let a = Prng.create 9 and b = Prng.create 9 in
        let ca = Prng.fork a and cb = Prng.fork b in
        for _ = 1 to 50 do
          Alcotest.(check int64) "same child" (Prng.bits64 ca) (Prng.bits64 cb)
        done;
        (* and the parents stay in lockstep too *)
        Alcotest.(check int64) "same parent" (Prng.bits64 a) (Prng.bits64 b));
    Alcotest.test_case "fork children and parent diverge" `Quick (fun () ->
        let g = Prng.create 3 in
        let c1 = Prng.fork g in
        let c2 = Prng.fork g in
        let take n rng = List.init n (fun _ -> Prng.bits64 rng) in
        let s1 = take 16 c1 and s2 = take 16 c2 and sp = take 16 g in
        Alcotest.(check bool) "c1 <> c2" true (s1 <> s2);
        Alcotest.(check bool) "c1 <> parent" true (s1 <> sp);
        Alcotest.(check bool) "c2 <> parent" true (s2 <> sp));
    Alcotest.test_case "copy preserves the forked gamma" `Quick (fun () ->
        let c = Prng.fork (Prng.create 21) in
        ignore (Prng.bits64 c);
        let d = Prng.copy c in
        for _ = 1 to 20 do
          Alcotest.(check int64) "replays" (Prng.bits64 c) (Prng.bits64 d)
        done);
    Alcotest.test_case "forked child is uniform (chi-square smoke)" `Quick
      (fun () ->
        let c = Prng.fork (Prng.create 123) in
        let buckets = Array.make 16 0 in
        for _ = 1 to 4096 do
          let b = Prng.int c 16 in
          buckets.(b) <- buckets.(b) + 1
        done;
        let stat = chi_square ~cells:16 buckets in
        (* 15 dof; 60 is far beyond any plausible quantile (p < 1e-6),
           so only a broken generator fails — deterministic, no flake. *)
        Alcotest.(check bool)
          (Printf.sprintf "chi2 %.1f < 60" stat)
          true (stat < 60.0));
    Alcotest.test_case "sibling forks don't correlate (chi-square smoke)" `Quick
      (fun () ->
        let root = Prng.create 77 in
        let c1 = Prng.fork root in
        let c2 = Prng.fork root in
        (* Joint distribution of paired draws over a 4x4 grid: under
           independence every cell is uniform. A shared Weyl sequence
           (the pre-gamma failure mode) concentrates the diagonal. *)
        let cells = Array.make 16 0 in
        for _ = 1 to 4096 do
          let i = (4 * Prng.int c1 4) + Prng.int c2 4 in
          cells.(i) <- cells.(i) + 1
        done;
        let stat = chi_square ~cells:16 cells in
        Alcotest.(check bool)
          (Printf.sprintf "chi2 %.1f < 60" stat)
          true (stat < 60.0));
  ]

(* FIPS 180-4 test vectors: the journal fingerprint pins in
   test_differential.ml are only as trustworthy as this digest. *)
let sha256_tests =
  [
    Alcotest.test_case "FIPS vectors" `Quick (fun () ->
        List.iter
          (fun (input, want) -> Alcotest.(check string) input want (Sha256.hex input))
          [
            ( "",
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
            ( "abc",
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
            ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
            ( "The quick brown fox jumps over the lazy dog",
              "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
          ]);
    qtest "digest is a pure function of the bytes" QCheck2.Gen.(string_size (int_range 0 200))
      (fun s ->
        Sha256.hex s = Sha256.hex (String.init (String.length s) (String.get s)));
  ]

let slo_tests =
  [
    Alcotest.test_case "slo on a known sample" `Quick (fun () ->
        let sample = [ 1.0; 2.0; 3.0; 4.0; 50.0 ] in
        let s = Stats.slo ~target:10.0 sample in
        Alcotest.(check int) "count" 5 s.Stats.count;
        Alcotest.(check int) "violations strictly above target" 1 s.Stats.violations;
        Alcotest.(check (float 1e-9)) "compliance" 0.8 s.Stats.compliance;
        Alcotest.(check (float 1e-9)) "max" 50.0 s.Stats.max;
        Alcotest.(check (float 1e-9)) "target echoed" 10.0 s.Stats.target);
    Alcotest.test_case "a sample exactly at target does not violate" `Quick (fun () ->
        let s = Stats.slo ~target:5.0 [ 5.0; 5.0 ] in
        Alcotest.(check int) "no violations" 0 s.Stats.violations;
        Alcotest.(check (float 1e-9)) "full compliance" 1.0 s.Stats.compliance);
    Alcotest.test_case "empty sample raises" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Stats.slo: empty sample")
          (fun () -> ignore (Stats.slo ~target:1.0 [])));
    qtest "slo percentiles are ordered and compliance bounded"
      QCheck2.Gen.(list_size (int_range 1 60) (float_bound_inclusive 100.0))
      (fun xs ->
        let s = Stats.slo ~target:50.0 xs in
        s.Stats.p50 <= s.Stats.p99
        && s.Stats.p99 <= s.Stats.max
        && s.Stats.compliance >= 0.0
        && s.Stats.compliance <= 1.0
        && s.Stats.violations + int_of_float (s.Stats.compliance *. float_of_int s.Stats.count)
           <= s.Stats.count + 1);
    Alcotest.test_case "slo_by_key empty raises" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Stats.slo_by_key: empty sample") (fun () ->
            ignore (Stats.slo_by_key ~target:1.0 [])));
    Alcotest.test_case "single sample pins every percentile to it" `Quick
      (fun () ->
        let s = Stats.slo ~target:3.0 [ 2.0 ] in
        Alcotest.(check int) "count" 1 s.Stats.count;
        Alcotest.(check (float 1e-9)) "p50" 2.0 s.Stats.p50;
        Alcotest.(check (float 1e-9)) "p99" 2.0 s.Stats.p99;
        Alcotest.(check (float 1e-9)) "max" 2.0 s.Stats.max;
        Alcotest.(check int) "no violations" 0 s.Stats.violations;
        Alcotest.(check (float 1e-9)) "compliance" 1.0 s.Stats.compliance);
    Alcotest.test_case "all-equal latencies judge cleanly, no NaN" `Quick
      (fun () ->
        let xs = List.init 25 (fun _ -> 4.2) in
        let s = Stats.slo ~target:4.2 xs in
        Alcotest.(check bool) "compliance not NaN" false
          (Float.is_nan s.Stats.compliance);
        Alcotest.(check int) "at-target is compliant" 0 s.Stats.violations;
        Alcotest.(check (float 1e-9)) "p99 equals the value" 4.2 s.Stats.p99;
        let rendered = Format.asprintf "%a" Stats.pp_slo s in
        Alcotest.(check bool) "verdict MET" true
          (let len = String.length rendered in
           len >= 3 && String.sub rendered (len - 3) 3 = "MET"));
    Alcotest.test_case "target exactly at p99 is MET" `Quick (fun () ->
        (* p99 interpolation over [1..100] lands at 99.01; pin the
           clamp rule by judging against exactly that value: MET, and
           only the samples strictly above it violate. *)
        let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
        let s0 = Stats.slo ~target:0.0 xs in
        let s = Stats.slo ~target:s0.Stats.p99 xs in
        Alcotest.(check (float 1e-9)) "p99 pinned" 99.01 s.Stats.p99;
        Alcotest.(check int) "only 100.0 is above p99" 1 s.Stats.violations;
        let rendered = Format.asprintf "%a" Stats.pp_slo s in
        Alcotest.(check bool) "verdict MET at equality" true
          (let len = String.length rendered in
           len >= 3 && String.sub rendered (len - 3) 3 = "MET"));
    Alcotest.test_case "slo_by_key collapses each key to its worst leg" `Quick
      (fun () ->
        let s =
          Stats.slo_by_key ~target:10.0
            [ (1, 2.0); (1, 30.0); (2, 4.0); (2, 1.0); (3, 10.0) ]
        in
        Alcotest.(check int) "one verdict per key" 3 s.Stats.count;
        Alcotest.(check int) "only key 1 misses" 1 s.Stats.violations;
        Alcotest.(check (float 1e-9)) "max is worst leg" 30.0 s.Stats.max);
  ]

let window_tests =
  [
    Alcotest.test_case "window evicts oldest first" `Quick (fun () ->
        let w = Stats.window ~capacity:3 in
        List.iter (Stats.window_push w) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
        Alcotest.(check (list (float 1e-9)))
          "last three, oldest first" [ 3.0; 4.0; 5.0 ] (Stats.window_samples w);
        Alcotest.(check int) "length capped" 3 (Stats.window_length w);
        Alcotest.(check int) "pushed counts evictions" 5 (Stats.window_pushed w));
    Alcotest.test_case "empty window summarizes to None" `Quick (fun () ->
        let w = Stats.window ~capacity:4 in
        Alcotest.(check bool) "summary" true (Stats.window_summary w = None);
        Alcotest.(check bool) "slo" true (Stats.window_slo ~target:1.0 w = None));
    Alcotest.test_case "non-positive capacity raises" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Stats.window: capacity must be positive") (fun () ->
            ignore (Stats.window ~capacity:0)));
    qtest "window agrees with a list-suffix model"
      QCheck2.Gen.(pair (int_range 1 16) (list (float_bound_inclusive 50.0)))
      (fun (cap, xs) ->
        let w = Stats.window ~capacity:cap in
        List.iter (Stats.window_push w) xs;
        let n = List.length xs in
        let keep = min cap n in
        let model = List.filteri (fun i _ -> i >= n - keep) xs in
        Stats.window_samples w = model
        && Stats.window_length w = keep
        && Stats.window_pushed w = n);
    qtest "windowed slo matches slo on the retained suffix"
      QCheck2.Gen.(pair (int_range 1 8)
                     (list_size (int_range 1 40) (float_bound_inclusive 9.0)))
      (fun (cap, xs) ->
        let w = Stats.window ~capacity:cap in
        List.iter (Stats.window_push w) xs;
        match Stats.window_slo ~target:5.0 w with
        | None -> false
        | Some s ->
          let direct = Stats.slo ~target:5.0 (Stats.window_samples w) in
          s.Stats.violations = direct.Stats.violations
          && s.Stats.p99 = direct.Stats.p99);
  ]

let tests =
  prng_tests @ fork_tests @ heap_tests @ bitset_tests @ stats_tests
  @ slo_tests @ window_tests @ sha256_tests @ wire_tests @ zipf_tests
  @ table_tests @ dag_tests
