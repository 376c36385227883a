(* uc_sim: engine ordering, network delivery semantics, crash and
   partition behaviour, metric accounting, and what an event and an
   obs-off frame allocate. *)

open Helpers

let engine_tests =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        Engine.schedule e ~delay:5.0 (fun () -> order := 5 :: !order);
        Engine.schedule e ~delay:1.0 (fun () -> order := 1 :: !order);
        Engine.schedule e ~delay:3.0 (fun () -> order := 3 :: !order);
        Engine.run e;
        Alcotest.(check (list int)) "sorted" [ 5; 3; 1 ] !order);
    Alcotest.test_case "ties break by insertion order" `Quick (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        Engine.schedule e ~delay:1.0 (fun () -> order := `A :: !order);
        Engine.schedule e ~delay:1.0 (fun () -> order := `B :: !order);
        Engine.run e;
        Alcotest.(check bool) "A before B" true (!order = [ `B; `A ]));
    Alcotest.test_case "clock advances to event times" `Quick (fun () ->
        let e = Engine.create () in
        let seen = ref 0.0 in
        Engine.schedule e ~delay:7.5 (fun () -> seen := Engine.now e);
        Engine.run e;
        Alcotest.(check (float 1e-9)) "time" 7.5 !seen);
    Alcotest.test_case "nested scheduling works" `Quick (fun () ->
        let e = Engine.create () in
        let hits = ref 0 in
        Engine.schedule e ~delay:1.0 (fun () ->
            incr hits;
            Engine.schedule e ~delay:1.0 (fun () -> incr hits));
        Engine.run e;
        Alcotest.(check int) "both ran" 2 !hits);
    Alcotest.test_case "run ~until stops early" `Quick (fun () ->
        let e = Engine.create () in
        let hits = ref 0 in
        Engine.schedule e ~delay:1.0 (fun () -> incr hits);
        Engine.schedule e ~delay:100.0 (fun () -> incr hits);
        Engine.run ~until:10.0 e;
        Alcotest.(check int) "one ran" 1 !hits;
        Alcotest.(check int) "one pending" 1 (Engine.pending e));
    Alcotest.test_case "negative and infinite delays are rejected" `Quick (fun () ->
        let e = Engine.create () in
        let msg = "Engine.schedule: delay must be finite and non-negative" in
        Alcotest.check_raises "negative" (Invalid_argument msg) (fun () ->
            Engine.schedule e ~delay:(-1.0) ignore);
        Alcotest.check_raises "infinite" (Invalid_argument msg) (fun () ->
            Engine.schedule e ~delay:Float.infinity ignore));
    Alcotest.test_case "schedule_at in the past fires now" `Quick (fun () ->
        let e = Engine.create () in
        let at = ref (-1.0) in
        Engine.schedule e ~delay:5.0 (fun () ->
            Engine.schedule_at e ~time:1.0 (fun () -> at := Engine.now e));
        Engine.run e;
        Alcotest.(check (float 1e-9)) "not in the past" 5.0 !at);
  ]

(* A network harness capturing deliveries. *)
let net_harness ?(fifo = false) ?(partitions = []) ?envelope ~delay ~seed n =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let log = ref [] in
  let net =
    Network.create ~engine ~rng:(Prng.create seed) ~metrics ~n ~fifo ~partitions
      ?envelope ~delay
      ~wire_size:(fun (_ : int) -> 4)
      ~deliver:(fun ~dst ~src msg -> log := (Engine.now engine, src, dst, msg) :: !log)
      ()
  in
  (engine, metrics, net, log)

let network_tests =
  [
    Alcotest.test_case "messages arrive within the delay bounds" `Quick (fun () ->
        let engine, _, net, log =
          net_harness ~delay:(Network.Uniform { lo = 2.0; hi = 4.0 }) ~seed:1 2
        in
        for i = 1 to 20 do
          Network.send net ~src:0 ~dst:1 i
        done;
        Engine.run engine;
        Alcotest.(check int) "all delivered" 20 (List.length !log);
        List.iter
          (fun (t, _, _, _) -> Alcotest.(check bool) "bounds" true (t >= 2.0 && t <= 4.0))
          !log);
    Alcotest.test_case "fifo preserves per-channel order" `Quick (fun () ->
        let engine, _, net, log =
          net_harness ~fifo:true ~delay:(Network.Uniform { lo = 1.0; hi = 50.0 }) ~seed:3 2
        in
        for i = 1 to 30 do
          Network.send net ~src:0 ~dst:1 i
        done;
        Engine.run engine;
        let payloads = List.rev_map (fun (_, _, _, m) -> m) !log in
        Alcotest.(check (list int)) "in order" (List.init 30 (fun i -> i + 1)) payloads);
    Alcotest.test_case "without fifo, reordering happens" `Quick (fun () ->
        let engine, _, net, log =
          net_harness ~delay:(Network.Uniform { lo = 1.0; hi = 50.0 }) ~seed:3 2
        in
        for i = 1 to 30 do
          Network.send net ~src:0 ~dst:1 i
        done;
        Engine.run engine;
        let payloads = List.rev_map (fun (_, _, _, m) -> m) !log in
        Alcotest.(check bool) "reordered" true
          (payloads <> List.init 30 (fun i -> i + 1)));
    Alcotest.test_case "broadcast reaches everyone but the sender" `Quick (fun () ->
        let engine, metrics, net, log = net_harness ~delay:(Network.Constant 1.0) ~seed:1 4 in
        Network.broadcast net ~src:2 7;
        Engine.run engine;
        Alcotest.(check int) "three copies" 3 (List.length !log);
        Alcotest.(check bool) "not to self" true
          (List.for_all (fun (_, _, dst, _) -> dst <> 2) !log);
        Alcotest.(check int) "bytes counted" 12 metrics.Metrics.bytes_sent);
    Alcotest.test_case "messages to a crashed process are dropped" `Quick (fun () ->
        let engine, metrics, net, log = net_harness ~delay:(Network.Constant 1.0) ~seed:1 2 in
        Network.crash net 1;
        Network.send net ~src:0 ~dst:1 1;
        Engine.run engine;
        Alcotest.(check int) "no delivery" 0 (List.length !log);
        Alcotest.(check int) "dropped" 1 metrics.Metrics.messages_dropped);
    Alcotest.test_case "a crashed process cannot send" `Quick (fun () ->
        let engine, _, net, log = net_harness ~delay:(Network.Constant 1.0) ~seed:1 2 in
        Network.crash net 0;
        Network.send net ~src:0 ~dst:1 1;
        Engine.run engine;
        Alcotest.(check int) "no delivery" 0 (List.length !log));
    Alcotest.test_case "alive lists the non-crashed" `Quick (fun () ->
        let _, _, net, _ = net_harness ~delay:(Network.Constant 1.0) ~seed:1 3 in
        Network.crash net 1;
        Alcotest.(check (list int)) "alive" [ 0; 2 ] (Network.alive net));
    Alcotest.test_case "partition holds messages until it heals" `Quick (fun () ->
        let partitions = [ { Network.from_time = 0.0; to_time = 100.0; group = [ 0 ] } ] in
        let engine, _, net, log = net_harness ~partitions ~delay:(Network.Constant 1.0) ~seed:1 2 in
        Network.send net ~src:0 ~dst:1 1;
        Engine.run engine;
        (match !log with
        | [ (t, _, _, _) ] -> Alcotest.(check (float 1e-9)) "after heal" 101.0 t
        | _ -> Alcotest.fail "expected one delivery");
        Alcotest.(check bool) "reliable" true (List.length !log = 1));
    Alcotest.test_case "same-side traffic crosses a partition window" `Quick (fun () ->
        let partitions = [ { Network.from_time = 0.0; to_time = 100.0; group = [ 0; 1 ] } ] in
        let engine, _, net, log = net_harness ~partitions ~delay:(Network.Constant 1.0) ~seed:1 3 in
        Network.send net ~src:0 ~dst:1 1;
        Engine.run engine;
        match !log with
        | [ (t, _, _, _) ] -> Alcotest.(check (float 1e-9)) "immediate" 1.0 t
        | _ -> Alcotest.fail "expected one delivery");
    (* The network sums latencies in its own cell and publishes the sum
       when the engine returns: also when a delivery raised. *)
    Alcotest.test_case "the latency sum is published when a delivery raises" `Quick
      (fun () ->
        let engine = Engine.create () in
        let metrics = Metrics.create () in
        let net =
          Network.create ~engine ~rng:(Prng.create 1) ~metrics ~n:2
            ~delay:(Network.Constant 2.0)
            ~wire_size:(fun (_ : int) -> 1)
            ~deliver:(fun ~dst:_ ~src:_ msg -> if msg = 2 then failwith "planted")
            ()
        in
        Network.send net ~src:0 ~dst:1 1;
        Network.send net ~src:0 ~dst:1 2;
        Alcotest.check_raises "the delivery raises" (Failure "planted") (fun () ->
            Engine.run engine);
        Alcotest.(check (float 0.0)) "both frames summed" 4.0
          metrics.Metrics.delivery_latency_sum);
    qtest "draw_delay respects each model's support" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let c = Network.draw_delay rng (Network.Constant 3.0) in
        let u = Network.draw_delay rng (Network.Uniform { lo = 1.0; hi = 2.0 }) in
        let e = Network.draw_delay rng (Network.Exponential { mean = 5.0 }) in
        let p = Network.draw_delay rng (Network.Pareto { scale = 2.0; shape = 1.5 }) in
        c = 3.0 && u >= 1.0 && u <= 2.0 && e >= 0.0 && p >= 2.0);
  ]

let batch_tests =
  [
    Alcotest.test_case "send_batch delivers together and in order" `Quick (fun () ->
        let engine, metrics, net, log =
          net_harness ~delay:(Network.Uniform { lo = 1.0; hi = 50.0 }) ~seed:7 2
        in
        Network.send_batch net ~src:0 ~dst:1 [ 1; 2; 3 ];
        Engine.run engine;
        (* One frame: a single delay draw, so even a reordering network
           hands the batch over atomically and in order. *)
        let deliveries = List.rev !log in
        Alcotest.(check (list int)) "in order" [ 1; 2; 3 ]
          (List.map (fun (_, _, _, m) -> m) deliveries);
        let times = List.map (fun (t, _, _, _) -> t) deliveries in
        Alcotest.(check bool) "one arrival instant" true
          (List.for_all (fun t -> t = List.hd times) times);
        Alcotest.(check int) "counted per message" 3 metrics.Metrics.messages_sent;
        Alcotest.(check int) "one multi-message frame" 1 metrics.Metrics.batches_sent);
    Alcotest.test_case "singleton and empty sends are not batches" `Quick (fun () ->
        let engine, metrics, net, log =
          net_harness ~delay:(Network.Constant 1.0) ~seed:1 2
        in
        Network.send net ~src:0 ~dst:1 1;
        Network.send_batch net ~src:0 ~dst:1 [ 2 ];
        Network.send_batch net ~src:0 ~dst:1 [];
        Engine.run engine;
        Alcotest.(check int) "two deliveries" 2 (List.length !log);
        Alcotest.(check int) "no batch counted" 0 metrics.Metrics.batches_sent);
    Alcotest.test_case "envelope is charged once per frame" `Quick (fun () ->
        let engine, metrics, net, _ =
          net_harness ~envelope:10 ~delay:(Network.Constant 1.0) ~seed:1 3
        in
        (* Two frames of three 4-byte messages: 2*(10 + 12) bytes. *)
        Network.broadcast_batch net ~src:0 [ 1; 2; 3 ];
        Engine.run engine;
        Alcotest.(check int) "bytes" (2 * (10 + 12)) metrics.Metrics.bytes_sent;
        Alcotest.(check int) "two frames" 2 metrics.Metrics.batches_sent;
        Alcotest.(check int) "six messages" 6 metrics.Metrics.messages_sent);
    Alcotest.test_case "a batch to a crashed process drops whole" `Quick (fun () ->
        let engine, metrics, net, log =
          net_harness ~delay:(Network.Constant 1.0) ~seed:1 2
        in
        Network.crash net 1;
        Network.send_batch net ~src:0 ~dst:1 [ 1; 2; 3 ];
        Engine.run engine;
        Alcotest.(check int) "no delivery" 0 (List.length !log);
        Alcotest.(check int) "all dropped" 3 metrics.Metrics.messages_dropped);
  ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let metrics_tests =
  [
    Alcotest.test_case "pp prints batches and mean delivery latency" `Quick
      (fun () ->
        let m = Metrics.create () in
        m.Metrics.messages_sent <- 3;
        m.Metrics.messages_delivered <- 2;
        m.Metrics.delivery_latency_sum <- 5.0;
        m.Metrics.batches_sent <- 4;
        let s = Format.asprintf "%a" Metrics.pp m in
        Alcotest.(check bool) "batches" true (contains s "batches=4");
        Alcotest.(check bool) "mean latency" true
          (contains s "mean_delivery=2.500"));
    Alcotest.test_case "mean delivery latency guards division by zero" `Quick
      (fun () ->
        let m = Metrics.create () in
        Alcotest.(check (float 0.0)) "empty run" 0.0
          (Metrics.mean_delivery_latency m);
        let s = Format.asprintf "%a" Metrics.pp m in
        Alcotest.(check bool) "no nan in pp" true
          (not (contains s "nan")));
  ]

module P = Generic.Make (Set_spec)
module R = Runner.Make (P)

let runner_tests =
  [
    Alcotest.test_case "metrics add up" `Quick (fun () ->
        let workload =
          [|
            [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_query Set_spec.Read ];
            [ Protocol.Invoke_update (Set_spec.Insert 2) ];
          |]
        in
        let config = { (R.default_config ~n:2 ~seed:1) with R.final_read = Some Set_spec.Read } in
        let r = R.run config ~workload in
        let m = r.R.metrics in
        Alcotest.(check int) "updates" 2 m.Metrics.updates_invoked;
        (* one scripted query + two ω reads *)
        Alcotest.(check int) "queries" 3 m.Metrics.queries_invoked;
        (* each update broadcast to one other process *)
        Alcotest.(check int) "messages" 2 m.Metrics.messages_sent;
        Alcotest.(check int) "no stalls" 0 m.Metrics.ops_incomplete);
    Alcotest.test_case "history mirrors the workload structure" `Quick (fun () ->
        let workload =
          [|
            [ Protocol.Invoke_update (Set_spec.Insert 1); Protocol.Invoke_query Set_spec.Read ];
            [];
          |]
        in
        let config = { (R.default_config ~n:2 ~seed:1) with R.final_read = Some Set_spec.Read } in
        let r = R.run config ~workload in
        Alcotest.(check int) "p0 has 3 events" 3
          (List.length (History.process_events r.R.history 0));
        Alcotest.(check int) "p1 has its ω read" 1
          (List.length (History.process_events r.R.history 1)));
    Alcotest.test_case "crashed processes stop issuing and reading" `Quick (fun () ->
        let workload =
          Array.make 2 (List.init 20 (fun i -> Protocol.Invoke_update (Set_spec.Insert i)))
        in
        let config =
          {
            (R.default_config ~n:2 ~seed:1) with
            R.final_read = Some Set_spec.Read;
            crashes = [ (0.5, 1) ];
          }
        in
        let r = R.run config ~workload in
        Alcotest.(check int) "only p0 answers" 1 (List.length r.R.final_outputs);
        Alcotest.(check bool) "p0 is the survivor" true (fst (List.hd r.R.final_outputs) = 0));
    Alcotest.test_case "workload width must match n" `Quick (fun () ->
        let config = R.default_config ~n:3 ~seed:1 in
        Alcotest.check_raises "width" (Invalid_argument "Runner.run: workload width must match config.n")
          (fun () -> ignore (R.run config ~workload:[| [] |])));
    qtest ~count:25 "same seed, same run" seed_gen (fun seed ->
        let workload =
          [|
            List.init 10 (fun i -> Protocol.Invoke_update (Set_spec.Insert i));
            List.init 10 (fun i -> Protocol.Invoke_update (Set_spec.Delete i));
          |]
        in
        let config = { (R.default_config ~n:2 ~seed) with R.final_read = Some Set_spec.Read } in
        let a = R.run config ~workload and b = R.run config ~workload in
        a.R.metrics.Metrics.bytes_sent = b.R.metrics.Metrics.bytes_sent
        && a.R.sim_duration = b.R.sim_duration
        && List.for_all2
             (fun (p, o) (p', o') -> p = p' && Set_spec.equal_output o o')
             a.R.final_outputs b.R.final_outputs);
    qtest ~count:40 "a batching window preserves convergence and certificates"
      seed_gen
      (fun seed ->
        let workload =
          [|
            List.init 12 (fun i -> Protocol.Invoke_update (Set_spec.Insert i));
            List.init 12 (fun i ->
                Protocol.Invoke_update
                  (if i mod 3 = 0 then Set_spec.Delete i
                   else Set_spec.Insert (100 + i)));
            [];
          |]
        in
        let config =
          {
            (R.default_config ~n:3 ~seed) with
            R.final_read = Some Set_spec.Read;
            think = Network.Constant 0.5;
            batch_window = Some 2.0;
            envelope = 8;
          }
        in
        let r = R.run config ~workload in
        (* Back-to-back updates within the 2.0 window must have shared
           frames somewhere in the run, and batching must change no
           protocol-level outcome. *)
        r.R.converged && r.R.certificates_agree
        && r.R.metrics.Metrics.batches_sent > 0
        && List.length r.R.final_outputs = 3);
  ]

(* ------------------------- allocation guards ------------------------- *)

(* Running a thunk allocates nothing of the engine's: the box of its
   time, stored with it when it was scheduled, becomes the clock. An
   event costs what its thunk allocates, here nothing. Popping through
   the old heap's [peek]/[pop] options cost 4 words per event. *)
let engine_run_guard () =
  let e = Engine.create () in
  let hits = ref 0 in
  let thunk () = incr hits in
  let events = 10_000 in
  let fill () =
    for i = 1 to events do
      Engine.schedule e ~delay:(float_of_int (i mod 7)) thunk
    done
  in
  (* The first round grows the queue to its working size. *)
  fill ();
  Engine.run e;
  fill ();
  let words = minor_words (fun () -> Engine.run e) in
  Alcotest.(check int) "every event ran" (2 * events) !hits;
  if words > 64. then
    Alcotest.failf "Engine.run over %d events: %.0f minor words" events words

(* Telemetry off, a frame allocates its stamped message list (a pair
   and a cons, 6 words), the box of its arrival time handed to the
   engine (2) and the clock's box when its delivery runs (2): 10 words.
   The delivery is a typed event carrying the frame's slot in the
   network's frame pool, and the latency sum sits in an unboxed cell.
   With a queue record, a clamped time and a delivery thunk per frame,
   and the sum boxed per frame, this cost 26 words. *)
let network_send_guard () =
  let engine = Engine.create () in
  let metrics = Metrics.create () in
  let delivered = ref 0 in
  let net =
    Network.create ~engine ~rng:(Prng.create 1) ~metrics ~n:2
      ~delay:(Network.Constant 1.0)
      ~wire_size:(fun (_ : int) -> 4)
      ~deliver:(fun ~dst:_ ~src:_ _ -> incr delivered)
      ()
  in
  let frames = 10_000 in
  let round () =
    for i = 1 to frames do
      Network.send net ~src:0 ~dst:1 i
    done;
    Engine.run engine
  in
  round ();
  let words = minor_words round in
  Alcotest.(check int) "every frame delivered" (2 * frames) !delivered;
  let per_frame = words /. float_of_int frames in
  if per_frame > 10.1 then
    Alcotest.failf "an obs-off send and its delivery: %.2f minor words" per_frame

(* A delay draw allocates only the box of the float it returns (2
   words): the generator's state sits in a byte buffer and each draw
   inlines the mixer. With the state in an [int64] record field an
   exponential draw cost 10 words and a uniform one 12. *)
let delay_draw_guard model () =
  let rng = Prng.create 1 in
  let draws = 100_000 in
  let words =
    minor_words (fun () ->
        for _ = 1 to draws do
          ignore (Network.draw_delay rng model : float)
        done)
  in
  let per_draw = words /. float_of_int draws in
  if per_draw > 2.0 then
    Alcotest.failf "a delay draw: %.2f minor words" per_draw

(* A typed event is a kind and an int in the queue's unboxed columns:
   scheduling it allocates nothing and running it only the box of the
   clock's new value (2 words). As a thunk, the same event cost a queue
   record (4 words), the box of its time (2) and its closure. *)
let typed_event_guard () =
  let e = Engine.create () in
  let kind = Engine.kind e in
  let sum = ref 0 in
  Engine.set_handler e kind (fun i -> sum := !sum + i);
  let events = 10_000 in
  (* Boxed once, here. *)
  let times = List.init 50 (fun i -> float_of_int (i mod 7)) in
  let post_at i time = Engine.post_at e ~time kind i in
  let round () =
    for i = 1 to events / 2 do
      Engine.post e ~delay:1.5 kind i
    done;
    for _ = 1 to events / 2 / 50 do
      List.iteri post_at times
    done;
    Engine.run e
  in
  round ();
  let words = minor_words round in
  let per_event = words /. float_of_int events in
  if per_event > 2.0 then
    Alcotest.failf "a typed event scheduled and run: %.2f minor words" per_event

(* A protocol that does nothing: every operation completes at once,
   sends nothing and keeps no state, so a Runner over it costs only the
   simulator's own work per operation. *)
module Idle = struct
  include Set_spec

  type t = unit

  type message = unit

  let protocol_name = "idle"

  let empty = eval initial Read

  let create _ = ()

  let update () _ ~on_done = on_done ()

  let query () _ ~on_result = on_result empty

  let receive () ~src:_ () = ()

  let receive_batch () ~src:_ _ = ()

  let message_wire_size () = 0

  let describe_message () = "idle"

  let log_length () = 0

  let metadata_bytes () = 0

  let certificate _ _ _ = None

  let snapshot () = None

  let absorb () _ = false
end

module Idle_runner = Runner.Make (Idle)

(* The Runner's own minor words per operation, telemetry off, over
   [Idle]: 12.5. During the run, the think-time draw (2), the clock's
   box when the issue event runs (2) and the event's history label (2
   for an update, 3 for a read); at the end, what the result keeps of
   the operation: its event record (6). The columns and arrays, the
   result's interval and latency columns among them, are major-heap
   blocks. With an interval pair (7) and a latency cons and box (5)
   per operation it was 24.5; with a closure, a queue record and a
   boxed time per issued operation, a completion closure, step and
   interval lists and [History.make] it was 92.0. *)
let runner_guard () =
  let ops = 20_000 in
  let workload =
    Array.init 2 (fun p ->
        List.init ops (fun i ->
            if (i + p) mod 2 = 0 then Protocol.Invoke_query Set_spec.Read
            else Protocol.Invoke_update (Set_spec.Insert (i mod 16))))
  in
  let config =
    {
      (Idle_runner.default_config ~n:2 ~seed:1) with
      Idle_runner.final_read = Some Set_spec.Read;
    }
  in
  ignore (Idle_runner.run config ~workload : Idle_runner.result);
  let result = ref None in
  let words = minor_words (fun () -> result := Some (Idle_runner.run config ~workload)) in
  let result = Option.get !result in
  Alcotest.(check int) "every operation completed" (2 * ops)
    result.Idle_runner.metrics.Metrics.ops_completed;
  let per_op = words /. float_of_int (2 * ops) in
  if per_op > 13.0 then
    Alcotest.failf "a Runner operation over a do-nothing protocol: %.2f minor words" per_op

let alloc_tests =
  [
    Alcotest.test_case "an exponential delay draw allocates at most 2 words"
      `Quick
      (delay_draw_guard (Network.Exponential { mean = 5.0 }));
    Alcotest.test_case "a uniform delay draw allocates at most 2 words" `Quick
      (delay_draw_guard (Network.Uniform { lo = 1.0; hi = 10.0 }));
    Alcotest.test_case "Engine.run allocates nothing per event beyond its thunk"
      `Quick engine_run_guard;
    Alcotest.test_case "an obs-off send and its delivery stay within 10 words"
      `Quick network_send_guard;
    Alcotest.test_case "a typed event costs at most the clock's box" `Quick
      typed_event_guard;
    Alcotest.test_case "a Runner operation over a do-nothing protocol: 13 words"
      `Quick runner_guard;
  ]

let tests =
  engine_tests @ network_tests @ batch_tests @ metrics_tests @ runner_tests
  @ alloc_tests
