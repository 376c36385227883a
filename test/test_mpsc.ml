(* The bounded MPSC mailbox under the engine's exact usage patterns:
   single-threaded ring semantics, the all-to-all exchange and
   multi-producer stress against the batch drain, close (also of a ring
   a producer is stalled on), the backoff that paces the retries, and
   what a transfer allocates and leaves reachable. *)

(* One [pop_run]: how many it consumed, and what, in order. *)
let drain q =
  let got = ref [] in
  let n = Mpsc.pop_run q (fun v -> got := v :: !got) in
  (n, List.rev !got)

let seq_fifo () =
  let q = Mpsc.create 8 0 in
  for i = 1 to 5 do
    Alcotest.(check bool) "accepted" true (Mpsc.try_push q i)
  done;
  Alcotest.(check int) "depth" 5 (Mpsc.length q);
  Alcotest.(check (pair int (list int))) "fifo" (5, [ 1; 2; 3; 4; 5 ]) (drain q);
  Alcotest.(check int) "empty run" 0 (Mpsc.pop_run q (fun _ -> assert false));
  Alcotest.(check int) "drained" 0 (Mpsc.length q)

let capacity_bound () =
  let q = Mpsc.create 4 0 in
  for i = 1 to 4 do
    Alcotest.(check bool) "fills" true (Mpsc.try_push q i)
  done;
  Alcotest.(check bool) "full" false (Mpsc.try_push q 99);
  Alcotest.(check (pair int (list int))) "whole run" (4, [ 1; 2; 3; 4 ]) (drain q);
  for i = 5 to 8 do
    Alcotest.(check bool) "slots reusable" true (Mpsc.try_push q i)
  done;
  Alcotest.(check bool) "full again" false (Mpsc.try_push q 99);
  Alcotest.(check int) "depth" 4 (Mpsc.length q)

let wraparound () =
  let q = Mpsc.create 3 0 in
  for round = 0 to 99 do
    Alcotest.(check bool) "push" true (Mpsc.try_push q round);
    Alcotest.(check (pair int (list int))) "pop" (1, [ round ]) (drain q)
  done;
  Alcotest.(check int) "drained" 0 (Mpsc.length q)

let close_semantics () =
  let q = Mpsc.create 4 0 in
  ignore (Mpsc.try_push q 1 : bool);
  Mpsc.close q;
  Alcotest.check_raises "push raises" Mpsc.Closed (fun () ->
      ignore (Mpsc.try_push q 2 : bool));
  Alcotest.(check (pair int (list int))) "pending drainable" (1, [ 1 ]) (drain q);
  Alcotest.(check int) "then nothing" 0 (Mpsc.pop_run q (fun _ -> assert false))

(* The engine's all-to-all pattern: every domain is a producer into
   each peer's mailbox and the one consumer of its own. Four-slot
   mailboxes keep the rings close to full, and a producer that finds a
   peer's ring full drains its own before it retries, as the engine's
   delivery loop does; without that drain a cycle of full mailboxes
   would deadlock, and the watchdog would end the test binary. Every
   mailbox must deliver each producer's elements exactly once and in
   order. *)
let multi_producer_stress () =
  let domains = 3 and per = 2_000 in
  let boxes = Array.init domains (fun _ -> Mpsc.create 4 (-1, -1)) in
  let exchange me () =
    let seen = Array.make domains 0 in
    let in_order = ref true and received = ref 0 in
    let take (src, i) =
      if i <> seen.(src) then in_order := false;
      seen.(src) <- i + 1;
      incr received
    in
    let bk = Mpsc.Backoff.create ~park:Unix.sleepf in
    for i = 0 to per - 1 do
      for dst = 0 to domains - 1 do
        if dst <> me then begin
          Mpsc.Backoff.reset bk;
          while not (Mpsc.try_push boxes.(dst) (me, i)) do
            ignore (Mpsc.pop_run boxes.(me) take : int);
            Mpsc.Backoff.once bk
          done
        end
      done
    done;
    Mpsc.Backoff.reset bk;
    while !received < (domains - 1) * per do
      if Mpsc.pop_run boxes.(me) take > 0 then Mpsc.Backoff.reset bk
      else Mpsc.Backoff.once bk
    done;
    (seen, !in_order)
  in
  Helpers.with_watchdog ~seconds:30. "the all-to-all mailbox exchange" (fun () ->
      let doms = List.init domains (fun me -> Domain.spawn (exchange me)) in
      List.iteri
        (fun me d ->
          let seen, in_order = Domain.join d in
          Alcotest.(check bool) (Printf.sprintf "domain %d: per-producer fifo" me) true in_order;
          Array.iteri
            (fun src c ->
              Alcotest.(check int)
                (Printf.sprintf "domain %d from %d" me src)
                (if src = me then 0 else per)
                c)
            seen)
        doms);
  Array.iter (fun b -> Alcotest.(check int) "drained" 0 (Mpsc.length b)) boxes

(* A producer stalled on a full ring, retrying [try_push] as the
   engine's delivery loop does, must leave its loop with [Closed] once
   the ring is closed (that is how a failed domain releases the peers
   stalled on its mailbox), and what was queued stays drainable. *)
let close_releases_blocked_producers () =
  let q = Mpsc.create 2 0 in
  ignore (Mpsc.try_push q 0 : bool);
  ignore (Mpsc.try_push q 1 : bool);
  let stalled = Atomic.make false in
  Helpers.with_watchdog ~seconds:10. "a producer stalled on a closed ring" (fun () ->
      let producer =
        Domain.spawn (fun () ->
            let rec retry () =
              if Mpsc.try_push q 2 then `Pushed
              else begin
                Atomic.set stalled true;
                Domain.cpu_relax ();
                retry ()
              end
            in
            try retry () with Mpsc.Closed -> `Closed)
      in
      while not (Atomic.get stalled) do
        Domain.cpu_relax ()
      done;
      Mpsc.close q;
      match Domain.join producer with
      | `Closed -> ()
      | `Pushed -> Alcotest.fail "push succeeded on a full queue");
  Alcotest.(check (pair int (list int))) "contents intact" (2, [ 0; 1 ]) (drain q)

(* [pop_run] hands over the whole ready run in FIFO order and returns
   its length, calls nothing on an empty ring, and carries on where it
   stopped once the ring refills, across the wrap too. *)
let pop_run_basics () =
  let q = Mpsc.create 8 0 in
  for i = 1 to 6 do
    Alcotest.(check bool) "accepted" true (Mpsc.try_push q i)
  done;
  Alcotest.(check (pair int (list int))) "whole run in order" (6, [ 1; 2; 3; 4; 5; 6 ]) (drain q);
  Alcotest.(check int) "empty run" 0 (Mpsc.pop_run q (fun _ -> assert false));
  for i = 7 to 12 do
    Alcotest.(check bool) "accepted across the wrap" true (Mpsc.try_push q i)
  done;
  Alcotest.(check int) "depth across the wrap" 6 (Mpsc.length q);
  Alcotest.(check (pair int (list int)))
    "run across the wrap" (6, [ 7; 8; 9; 10; 11; 12 ]) (drain q);
  Alcotest.(check int) "empty again" 0 (Mpsc.pop_run q (fun _ -> assert false))

(* The engine's drain pattern under multi-producer fire, producers
   spinning on [try_push] as the engine's stall loop does: batch
   dequeue must lose nothing, reorder nothing, and keep per-producer
   FIFO — and because each slot's sequence is released as it is
   consumed, producers must be able to refill the ring behind the
   drain. *)
let pop_run_multi_producer () =
  let producers = 4 and per = 2_500 in
  let q = Mpsc.create 32 (-1, -1) in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              while not (Mpsc.try_push q (p, i)) do
                Domain.cpu_relax ()
              done
            done))
  in
  let seen = Array.make producers 0 in
  let received = ref 0 in
  while !received < producers * per do
    let n =
      Mpsc.pop_run q (fun (p, i) ->
          Alcotest.(check int) "per-producer fifo" seen.(p) i;
          seen.(p) <- i + 1;
          incr received)
    in
    if n = 0 then Domain.cpu_relax ()
  done;
  List.iter Domain.join doms;
  Array.iteri
    (fun p c -> Alcotest.(check int) (Printf.sprintf "producer %d" p) per c)
    seen;
  Alcotest.(check int) "drained" 0 (Mpsc.length q)

(* The spin-then-park policy the engine runs, observed through an
   instrumented park function: 64 spins that never park, then pauses
   doubling from 1 µs and clamped at 200 µs, and [reset] restarting the
   cycle. *)
let backoff_policy () =
  let parked = ref [] in
  let b = Mpsc.Backoff.create ~park:(fun d -> parked := d :: !parked) in
  for _ = 1 to 64 do
    Mpsc.Backoff.once b
  done;
  Alcotest.(check (list (float 0.0))) "spin burst never parks" [] !parked;
  for _ = 1 to 10 do
    Mpsc.Backoff.once b
  done;
  Alcotest.(check (list (float 0.0)))
    "parks double up to the cap"
    (List.init 8 (fun i -> 1e-6 *. Float.pow 2.0 (float_of_int i)) @ [ 2e-4; 2e-4 ])
    (List.rev !parked);
  Mpsc.Backoff.reset b;
  parked := [];
  for _ = 1 to 65 do
    Mpsc.Backoff.once b
  done;
  Alcotest.(check (list (float 0.0))) "reset restores the spin burst" [ 1e-6 ] !parked

(* A slot holds its value itself, not a [Some] box, and [pop_run]'s
   loop keeps its counters out of the heap: moving a value that already
   exists through the ring allocates nothing. *)
let consume (_ : string) = ()

let transfer_allocates_nothing () =
  let q = Mpsc.create 4 "" and v = "frame" in
  let (), words =
    Helpers.allocated_words (fun () ->
        for _ = 1 to 100 do
          ignore (Mpsc.try_push q v : bool);
          ignore (Mpsc.pop_run q consume : int)
        done)
  in
  Alcotest.(check (float 0.0)) "words for 100 transfers" 0.0 words

(* Pushes a fresh value a weak pointer follows, keeping no other
   reference to it. *)
let[@inline never] push_watched q watch =
  let v = Bytes.make 8 'x' in
  Weak.set watch 0 (Some v);
  ignore (Mpsc.try_push q v : bool)

(* Once consumed, a value is the consumer's alone: [pop_run] writes the
   placeholder back into its slot, so the ring does not keep a
   delivered frame alive until a producer laps it. *)
let popped_value_collectable () =
  let q = Mpsc.create 4 Bytes.empty and watch = Weak.create 1 in
  push_watched q watch;
  Alcotest.(check int) "consumed" 1 (Mpsc.pop_run q ignore);
  Stdlib.Gc.full_major ();
  Alcotest.(check bool) "collected" false (Weak.check watch 0);
  (* The ring itself stays reachable across the collection. *)
  Alcotest.(check int) "empty" 0 (Mpsc.length q)

let rejects_bad_capacity () =
  Alcotest.check_raises "zero"
    (Invalid_argument "Mpsc.create: capacity must be positive") (fun () ->
      ignore (Mpsc.create 0 0 : int Mpsc.t))

let tests =
  [
    Alcotest.test_case "fifo in one thread" `Quick seq_fifo;
    Alcotest.test_case "capacity is a hard bound" `Quick capacity_bound;
    Alcotest.test_case "ring wraps cleanly" `Quick wraparound;
    Alcotest.test_case "close semantics" `Quick close_semantics;
    Alcotest.test_case "multi-producer stress" `Quick multi_producer_stress;
    Alcotest.test_case "close releases blocked producers" `Quick
      close_releases_blocked_producers;
    Alcotest.test_case "pop_run basics" `Quick pop_run_basics;
    Alcotest.test_case "pop_run multi-producer stress" `Quick
      pop_run_multi_producer;
    Alcotest.test_case "backoff spin-then-park policy" `Quick backoff_policy;
    Alcotest.test_case "a push and pop_run allocate nothing" `Quick
      transfer_allocates_nothing;
    Alcotest.test_case "a popped value can be collected" `Quick
      popped_value_collectable;
    Alcotest.test_case "rejects non-positive capacity" `Quick rejects_bad_capacity;
  ]
