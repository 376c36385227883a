(* uc_clock: Lamport clocks, timestamps, vector clocks. *)

open Helpers

let lamport_tests =
  [
    Alcotest.test_case "tick is strictly increasing" `Quick (fun () ->
        let c = Lamport.create () in
        let a = Lamport.tick c in
        let b = Lamport.tick c in
        Alcotest.(check bool) "a<b" true (a < b));
    Alcotest.test_case "merge takes the max" `Quick (fun () ->
        let c = Lamport.create () in
        Lamport.merge c 10;
        Alcotest.(check int) "10" 10 (Lamport.value c);
        Lamport.merge c 3;
        Alcotest.(check int) "still 10" 10 (Lamport.value c));
    Alcotest.test_case "observe merges then ticks" `Quick (fun () ->
        let c = Lamport.create () in
        Alcotest.(check int) "11" 11 (Lamport.observe c 10));
    Alcotest.test_case "happened-before implies smaller clock" `Quick (fun () ->
        (* p sends at clock s; q receives and acts: q's next event has a
           strictly larger clock. *)
        let p = Lamport.create () and q = Lamport.create () in
        let s = Lamport.tick p in
        let r = Lamport.observe q s in
        Alcotest.(check bool) "s<r" true (s < r));
  ]

let timestamp_tests =
  let ts c p = Timestamp.make ~clock:c ~pid:p in
  [
    Alcotest.test_case "lexicographic order" `Quick (fun () ->
        Alcotest.(check bool) "clock first" true Timestamp.(ts 1 9 < ts 2 0);
        Alcotest.(check bool) "pid breaks ties" true Timestamp.(ts 1 0 < ts 1 1));
    qtest "total order: exactly one of <, =, >" (QCheck2.Gen.pair seed_gen seed_gen)
      (fun (a, b) ->
        let x = ts (a mod 5) (a mod 3) and y = ts (b mod 5) (b mod 3) in
        let lt = Timestamp.compare x y < 0
        and eq = Timestamp.equal x y
        and gt = Timestamp.compare x y > 0 in
        List.length (List.filter Fun.id [ lt; eq; gt ]) = 1);
    qtest "compare is antisymmetric" (QCheck2.Gen.pair seed_gen seed_gen) (fun (a, b) ->
        let x = ts (a mod 7) (a mod 4) and y = ts (b mod 7) (b mod 4) in
        Timestamp.compare x y = -Timestamp.compare y x);
    Alcotest.test_case "wire size grows logarithmically" `Quick (fun () ->
        Alcotest.(check int) "small" 2 (Timestamp.wire_size (ts 1 1));
        Alcotest.(check int) "large clock" 4 (Timestamp.wire_size (ts 100000 1)));
  ]

let vc_of_list l = Vector_clock.of_array (Array.of_list l)

let vector_clock_tests =
  [
    Alcotest.test_case "leq is component-wise" `Quick (fun () ->
        Alcotest.(check bool) "leq" true (Vector_clock.leq (vc_of_list [ 1; 2 ]) (vc_of_list [ 2; 2 ]));
        Alcotest.(check bool) "not leq" false
          (Vector_clock.leq (vc_of_list [ 3; 0 ]) (vc_of_list [ 2; 2 ])));
    Alcotest.test_case "concurrent iff incomparable" `Quick (fun () ->
        Alcotest.(check bool) "concurrent" true
          (Vector_clock.concurrent (vc_of_list [ 1; 0 ]) (vc_of_list [ 0; 1 ]));
        Alcotest.(check bool) "ordered" false
          (Vector_clock.concurrent (vc_of_list [ 1; 0 ]) (vc_of_list [ 1; 1 ])));
    qtest "merge is the least upper bound" (QCheck2.Gen.pair seed_gen seed_gen)
      (fun (a, b) ->
        let x = vc_of_list [ a mod 5; (a / 5) mod 5; a mod 3 ]
        and y = vc_of_list [ b mod 5; (b / 5) mod 5; b mod 3 ] in
        let m = Vector_clock.merge x y in
        Vector_clock.leq x m && Vector_clock.leq y m);
    qtest "merge is commutative and idempotent" (QCheck2.Gen.pair seed_gen seed_gen)
      (fun (a, b) ->
        let x = vc_of_list [ a mod 5; a mod 7 ] and y = vc_of_list [ b mod 5; b mod 7 ] in
        Vector_clock.equal (Vector_clock.merge x y) (Vector_clock.merge y x)
        && Vector_clock.equal (Vector_clock.merge x x) x);
    Alcotest.test_case "tick advances exactly one component" `Quick (fun () ->
        let v = Vector_clock.tick (vc_of_list [ 0; 0; 0 ]) 1 in
        Alcotest.(check bool) "is 0,1,0" true (Vector_clock.equal v (vc_of_list [ 0; 1; 0 ])));
    Alcotest.test_case "deliverable: sender's next message only" `Quick (fun () ->
        let local = vc_of_list [ 2; 1 ] in
        Alcotest.(check bool) "next from p0" true
          (Vector_clock.deliverable (vc_of_list [ 3; 1 ]) ~from:0 local);
        Alcotest.(check bool) "gap from p0" false
          (Vector_clock.deliverable (vc_of_list [ 4; 1 ]) ~from:0 local);
        Alcotest.(check bool) "missing dependency" false
          (Vector_clock.deliverable (vc_of_list [ 3; 2 ]) ~from:0 local));
    Alcotest.test_case "size mismatch raises" `Quick (fun () ->
        Alcotest.check_raises "mismatch" (Invalid_argument "Vector_clock.merge: size mismatch")
          (fun () -> ignore (Vector_clock.merge (vc_of_list [ 1 ]) (vc_of_list [ 1; 2 ]))));
  ]

let tests = lamport_tests @ timestamp_tests @ vector_clock_tests
