(* The multicore replica engine against its Proposition 4 oracle: for
   any OS schedule the domains produce, every replica must fold the
   identical certificate, and the log must replay through the
   sequential core to the certificate's timestamp-order fold. Each case
   runs the full [Throughput] differential. *)

module T_counter = Throughput.Bench (Counter_spec)
module T_set = Throughput.Bench (Set_spec)
module T_gset = Throughput.Bench (Gset_spec)

let counter_differential () =
  List.iter
    (fun (domains, seed) ->
      let scripts =
        T_counter.uniform_scripts ~seed ~domains ~ops:120 ~query_ratio:0.1
      in
      let v =
        T_counter.measure ~domains ~final_read:Counter_spec.Value ~scripts ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "counter d=%d seed=%d" domains seed)
        true (T_counter.ok v);
      (* Commutative: the full sequential Runner replay must have run
         and agreed, not been skipped. *)
      Alcotest.(check (option bool))
        "runner differential ran" (Some true) v.T_counter.runner_matches)
    [ (1, 3); (2, 3); (2, 17); (3, 5); (4, 11) ]

let set_differential () =
  List.iter
    (fun (domains, seed) ->
      let scripts =
        T_set.uniform_scripts ~seed ~domains ~ops:150 ~query_ratio:0.0
      in
      let v = T_set.measure ~domains ~final_read:Set_spec.Read ~scripts () in
      Alcotest.(check bool)
        (Printf.sprintf "set d=%d seed=%d" domains seed)
        true (T_set.ok v);
      Alcotest.(check (option bool))
        "non-commutative: no runner leg" None v.T_set.runner_matches)
    [ (1, 1); (2, 1); (3, 9) ]

let gset_differential () =
  let scripts =
    T_gset.uniform_scripts ~seed:2 ~domains:3 ~ops:100 ~query_ratio:0.2
  in
  let v = T_gset.measure ~domains:3 ~final_read:Gset_spec.Read ~scripts () in
  Alcotest.(check bool) "gset d=3" true (T_gset.ok v)

(* A mailbox far smaller than the broadcast traffic forces the
   full-queue slow path (stall + drain-own-mailbox); correctness must
   not depend on capacity. *)
let tiny_mailbox_backpressure () =
  let scripts =
    Throughput.set_zipf_scripts ~seed:5 ~domains:3 ~ops:300 ~skew:1.2
      ~delete_ratio:0.3
  in
  let v =
    T_set.measure ~mailbox_capacity:4 ~domains:3 ~final_read:Set_spec.Read
      ~scripts ()
  in
  Alcotest.(check bool) "differential holds under backpressure" true (T_set.ok v);
  let stalls =
    Array.fold_left
      (fun acc r -> acc + r.Parallel_engine.mailbox_stalls)
      0 v.T_set.run.T_set.E.reports
  in
  Alcotest.(check bool) "slow path actually exercised" true (stalls > 0)

let batching_differential () =
  let scripts =
    T_set.uniform_scripts ~seed:8 ~domains:3 ~ops:128 ~query_ratio:0.0
  in
  let v =
    T_set.measure ~batch_every:4 ~domains:3 ~final_read:Set_spec.Read ~scripts ()
  in
  Alcotest.(check bool) "batched run converges" true (T_set.ok v);
  let batches =
    Array.fold_left
      (fun acc r -> acc + r.Parallel_engine.batches_sent)
      0 v.T_set.run.T_set.E.reports
  in
  Alcotest.(check bool) "frames actually batched" true (batches > 0)

(* Byte accounting mirrors the sequential Network: per unbatched frame
   exactly the message wire size (envelope 0), one frame per peer per
   update. With no queries and n domains: updates * (n-1) frames. *)
let wire_accounting () =
  let domains = 3 and ops = 50 in
  let scripts = T_set.uniform_scripts ~seed:4 ~domains ~ops ~query_ratio:0.0 in
  let v = T_set.measure ~domains ~final_read:Set_spec.Read ~scripts () in
  let reports = v.T_set.run.T_set.E.reports in
  Array.iter
    (fun r ->
      Alcotest.(check int)
        "one frame per peer per update"
        (ops * (domains - 1))
        r.Parallel_engine.frames_sent;
      Alcotest.(check int)
        "messages = frames when unbatched" r.Parallel_engine.frames_sent
        r.Parallel_engine.messages_sent)
    reports;
  (* Recompute every replica's sent bytes from the converged log: the
     wire bytes of an update message are its timestamp + payload. *)
  let log = T_set.G.local_log v.T_set.run.T_set.E.replicas.(0) in
  Array.iteri
    (fun pid r ->
      let own = List.filter (fun (_, origin, _) -> origin = pid) log in
      let expect =
        (domains - 1)
        * List.fold_left
            (fun acc (ts, _, u) ->
              acc + Timestamp.wire_size ts + Set_spec.update_wire_size u)
            0 own
      in
      Alcotest.(check int)
        (Printf.sprintf "bytes of p%d" pid)
        expect r.Parallel_engine.bytes_sent)
    reports

let per_domain_reports () =
  let domains = 2 and ops = 40 in
  let scripts =
    T_counter.uniform_scripts ~seed:6 ~domains ~ops ~query_ratio:0.25
  in
  let v =
    T_counter.measure ~domains ~final_read:Counter_spec.Value ~scripts ()
  in
  let r = v.T_counter.run in
  Alcotest.(check int) "one report per domain" domains
    (Array.length r.T_counter.E.reports);
  Array.iteri
    (fun pid rep ->
      Alcotest.(check int) "pid recorded" pid rep.Parallel_engine.pid;
      (* script ops + the ω read *)
      Alcotest.(check int)
        "ops = script + omega" (ops + 1) rep.Parallel_engine.ops;
      Alcotest.(check int)
        "latency per invocation" ops
        (Array.length rep.Parallel_engine.latencies))
    r.T_counter.E.reports;
  Alcotest.(check int)
    "totals add up"
    ((ops + 1) * domains)
    r.T_counter.E.ops_total;
  Alcotest.(check bool)
    "throughput positive" true
    (r.T_counter.E.throughput > 0.0)

(* Telemetry contract: a run with no observer touches no registry; the
   same run with one attached reports per-pid rows. *)
let obs_rows () =
  let o = Obs.create () in
  let domains = 2 in
  let scripts =
    T_set.uniform_scripts ~seed:12 ~domains ~ops:60 ~query_ratio:0.0
  in
  let v = T_set.measure ~obs:o ~domains ~final_read:Set_spec.Read ~scripts () in
  Alcotest.(check bool) "observed run still converges" true (T_set.ok v);
  let rows = Obs.Registry.rows o.Obs.registry in
  let count name =
    List.length (List.filter (fun r -> r.Obs.Registry.name = name) rows)
  in
  List.iter
    (fun name -> Alcotest.(check int) (name ^ " per pid") domains (count name))
    [ "domain_ops"; "domain_updates"; "mailbox_depth"; "mailbox_stalls" ]

(* Flight recorder end to end: any schedule the OS produced must
   replay on the sequential core to the identical history fingerprint
   (the differential's journal-replay leg), with the online monitors
   staying clean over the same merged stream. *)
let record_replay_differential () =
  List.iter
    (fun (domains, seed) ->
      let ops = 80 in
      let scripts =
        T_counter.uniform_scripts ~seed ~domains ~ops ~query_ratio:0.2
      in
      let recorder = Obs.Recorder.create ~domains () in
      let v =
        T_counter.measure ~recorder
          ~monitor:[ Obs.Monitor.Uc; Obs.Monitor.Ec ]
          ~domains ~final_read:Counter_spec.Value ~scripts ()
      in
      let label fmt =
        Printf.ksprintf (fun s -> Printf.sprintf "d=%d seed=%d: %s" domains seed s) fmt
      in
      Alcotest.(check bool) (label "differential ok") true (T_counter.ok v);
      Alcotest.(check (option bool))
        (label "journal replay verdict")
        (Some true) v.T_counter.journal_replay;
      match v.T_counter.recording with
      | None -> Alcotest.fail (label "recorder attached but no recording")
      | Some r ->
        Alcotest.(check bool)
          (label "events recorded")
          true
          (List.length r.T_counter.events > 0);
        Alcotest.(check bool)
          (label "journal non-empty")
          true
          (Obs.Journal.length r.T_counter.journal > 0);
        (match r.T_counter.replay with
         | Ok fp ->
           Alcotest.(check string)
             (label "replay reproduces the recorded fingerprint")
             r.T_counter.fingerprint fp
         | Error e -> Alcotest.fail (label "replay failed: %s" e));
        (match r.T_counter.monitor with
         | None -> Alcotest.fail (label "monitor requested but absent")
         | Some m ->
           Alcotest.(check bool)
             (label "online monitors clean")
             true (T_counter.Mon.clean m);
           Alcotest.(check bool)
             (label "monitor saw events")
             true
             (T_counter.Mon.events_seen m > 0));
        (* Non-ω query outputs are captured per domain, in issue order,
           exactly one per scripted query. *)
        let queries_of script =
          List.length
            (List.filter
               (function Protocol.Invoke_query _ -> true | _ -> false)
               script)
        in
        Array.iteri
          (fun pid outs ->
            Alcotest.(check int)
              (label "query outputs of p%d" pid)
              (queries_of scripts.(pid))
              (List.length outs))
          v.T_counter.run.T_counter.E.query_outputs)
    [ (1, 3); (2, 7); (3, 5); (4, 2) ]

(* Recording must survive the slow paths: full mailboxes (stall
   records) and batched frames both replay exactly. *)
let record_replay_backpressure () =
  let domains = 3 in
  let scripts =
    Throughput.set_zipf_scripts ~seed:5 ~domains ~ops:200 ~skew:1.2
      ~delete_ratio:0.3
  in
  let recorder = Obs.Recorder.create ~domains () in
  let v =
    T_set.measure ~recorder ~mailbox_capacity:4 ~domains
      ~final_read:Set_spec.Read ~scripts ()
  in
  Alcotest.(check bool) "differential ok under backpressure" true (T_set.ok v);
  Alcotest.(check (option bool))
    "backpressured run replays" (Some true) v.T_set.journal_replay;
  let stalls =
    Array.fold_left
      (fun acc r -> acc + r.Parallel_engine.mailbox_stalls)
      0 v.T_set.run.T_set.E.reports
  in
  let recording =
    match v.T_set.recording with
    | Some r -> r
    | None -> Alcotest.fail "no recording"
  in
  let stall_events =
    List.length
      (List.filter
         (function Obs.Recorder.Stall _ -> true | _ -> false)
         recording.T_set.events)
  in
  Alcotest.(check bool) "slow path exercised" true (stalls > 0);
  Alcotest.(check bool)
    "stalls landed in the event stream" true (stall_events > 0)

let record_replay_batched () =
  let domains = 3 in
  let scripts =
    T_set.uniform_scripts ~seed:8 ~domains ~ops:128 ~query_ratio:0.1
  in
  let recorder = Obs.Recorder.create ~domains () in
  let v =
    T_set.measure ~recorder ~batch_every:4 ~domains ~final_read:Set_spec.Read
      ~scripts ()
  in
  Alcotest.(check bool) "batched recording ok" true (T_set.ok v);
  Alcotest.(check (option bool))
    "batched run replays" (Some true) v.T_set.journal_replay

(* The flush window bounds buffer residency when the batch threshold is
   too high to ever trip: with batch_every far above the op count, the
   window is the only thing (before the end-of-script flush) moving
   messages, and the differential must still close. *)
let flush_window_differential () =
  let scripts =
    T_set.uniform_scripts ~seed:11 ~domains:3 ~ops:128 ~query_ratio:0.0
  in
  let v =
    T_set.measure ~batch_every:1_000_000 ~flush_window:8 ~domains:3
      ~final_read:Set_spec.Read ~scripts ()
  in
  Alcotest.(check bool) "windowed run converges" true (T_set.ok v);
  let frames, messages =
    Array.fold_left
      (fun (f, m) r ->
        (f + r.Parallel_engine.frames_sent, m + r.Parallel_engine.messages_sent))
      (0, 0) v.T_set.run.T_set.E.reports
  in
  Alcotest.(check bool) "window actually coalesced" true (frames < messages)

(* Coalescing at 2 domains, 2,000 counter updates each, into a 64-frame
   mailbox. How often a push finds that mailbox full depends on the OS
   schedule; how many frames are pushed does not. The flush policy
   fixes it: one frame per update unbatched, one per 16-invocation
   window with batch 32 and window 16. *)
let coalescing_frame_counts () =
  let domains = 2 and ops = 2_000 in
  let scripts =
    T_counter.uniform_scripts ~seed:42 ~domains ~ops ~query_ratio:0.0
  in
  let frames ?batch_every ?flush_window () =
    let v =
      T_counter.measure ~mailbox_capacity:64 ?batch_every ?flush_window
        ~domains ~final_read:Counter_spec.Value ~scripts ()
    in
    Alcotest.(check bool) "differential holds" true (T_counter.ok v);
    Array.map
      (fun r -> r.Parallel_engine.frames_sent)
      v.T_counter.run.T_counter.E.reports
  in
  Alcotest.(check (array int))
    "unbatched: one frame per update" [| ops; ops |] (frames ());
  Alcotest.(check (array int))
    "batched: one frame per window" [| ops / 16; ops / 16 |]
    (frames ~batch_every:32 ~flush_window:16 ())

(* What a 2-domain counter run allocates per update, across both
   domains: the client loop, the frame and its mailbox push, the
   delivery and the op-log append. [Gc.quick_stat] sums every domain's
   counts, the joined ones included, and each reading follows a minor
   collection so the partly filled minor heap is counted exactly. The
   run allocates 11.5 words per update: the message (4), its list cell
   (3) and its frame (4); a quarter word for the final reads, whose
   replays leave a checkpoint every 32 entries at each replica; and
   the domains' set-up, about 9,000 words in all. The bound leaves less
   room than any regression it guards against would take: a wire-size
   fold whose closure is built per frame costs 5 words an update, a
   one-message buffer reversed into a fresh list 3, a mailbox slot that
   boxes its frame in [Some] 2, a message that keeps its timestamp in a
   second block 2, a [drain] that builds its handler closures on every
   call about 14, and an op-log that boxes a record per entry 4 at each
   of the two replicas. *)
let counter_words_per_update () =
  let domains = 2 and ops = 20_000 in
  let scripts =
    T_counter.uniform_scripts ~seed:42 ~domains ~ops ~query_ratio:0.0
  in
  let cfg =
    { (T_counter.E.default_config ~domains) with
      T_counter.E.final_read = Some Counter_spec.Value }
  in
  let words () =
    Stdlib.Gc.minor ();
    (Stdlib.Gc.quick_stat ()).Stdlib.Gc.minor_words
  in
  let before = words () in
  let r = T_counter.E.run cfg ~workload:scripts in
  let per_update = (words () -. before) /. float_of_int (domains * ops) in
  Alcotest.(check bool) "replicas agree" true
    (r.T_counter.E.outputs_agree && r.T_counter.E.certificates_agree);
  if per_update > 13. then
    Alcotest.failf "a 2-domain counter run allocated %.1f minor words per update"
      per_update

(* The universal counter, except that pid 1 raises [Failure "planted"]
   at one entry point: in [create], in [receive_batch] on frames from
   pid 0, or in [query]. *)
type site = Create | Receive_batch | Query

module Planted (S : sig
  val site : site
end) =
struct
  module G = Generic.Make (Counter_spec)
  include Counter_spec

  type t = { pid : int; g : G.t }

  type message = G.message

  let protocol_name = "planted"

  let plant pid site = if pid = 1 && site = S.site then failwith "planted"

  let create ctx =
    plant ctx.Protocol.pid Create;
    { pid = ctx.Protocol.pid; g = G.create ctx }

  let update t = G.update t.g

  let query t q ~on_result =
    plant t.pid Query;
    G.query t.g q ~on_result

  let receive t = G.receive t.g

  let receive_batch t ~src msgs =
    if src = 0 then plant t.pid Receive_batch;
    G.receive_batch t.g ~src msgs

  let message_wire_size = G.message_wire_size

  let describe_message = G.describe_message

  let log_length t = G.log_length t.g

  let metadata_bytes t = G.metadata_bytes t.g

  let certificate t = G.certificate t.g

  let snapshot t = G.snapshot t.g

  let absorb t = G.absorb t.g
end

(* A raise in pid 1 must end the run with [Domain_failed] naming pid 1
   and its exception, wherever pid 0 is waiting when it lands:
   - in [create], pid 0 waits at the start barrier for a replica that
     never arrives;
   - in [receive_batch] on pid 0's frames, pid 0 is stalled on pid 1's
     full 4-frame mailbox;
   - in [query], pid 0 has no script and waits in the quiescence loop
     for a client that never finishes.
   pid 1 plays 500 updates with a query after every ten. *)
let planted_raise site () =
  let module E = Parallel_engine.Make (Planted (struct
    let site = site
  end)) in
  let script =
    List.init 550 (fun i ->
        if i mod 11 = 10 then Protocol.Invoke_query Counter_spec.Value
        else Protocol.Invoke_update (Counter_spec.Add 1))
  in
  let where, peer, mailbox_capacity =
    match site with
    | Create -> ("create", script, 1024)
    | Receive_batch -> ("receive_batch", script, 4)
    | Query -> ("query", [], 1024)
  in
  let config =
    { (E.default_config ~domains:2) with
      E.mailbox_capacity;
      final_read = Some Counter_spec.Value }
  in
  Helpers.with_watchdog ~seconds:10. ("a run with a raise planted in " ^ where) (fun () ->
      match E.run config ~workload:[| peer; script |] with
      | _ -> Alcotest.fail "run returned although pid 1 raised"
      | exception Parallel_engine.Domain_failed { pid; exn } ->
        Alcotest.(check int) "the failing domain" 1 pid;
        Alcotest.(check string) "its exception"
          (Printexc.to_string (Failure "planted"))
          (Printexc.to_string exn))

let rejects_bad_config () =
  let scripts = T_set.uniform_scripts ~seed:1 ~domains:2 ~ops:1 ~query_ratio:0.0 in
  Alcotest.check_raises "workload width"
    (Invalid_argument "Parallel_engine.run: one workload script per domain")
    (fun () ->
      ignore (T_set.E.run (T_set.E.default_config ~domains:3) ~workload:scripts));
  Alcotest.check_raises "negative flush window"
    (Invalid_argument "Parallel_engine.run: flush_window must be non-negative")
    (fun () ->
      let cfg =
        { (T_set.E.default_config ~domains:2) with T_set.E.flush_window = -1 }
      in
      ignore (T_set.E.run cfg ~workload:scripts))

let tests =
  [
    Alcotest.test_case "counter differential (incl. sequential Runner)" `Quick
      counter_differential;
    Alcotest.test_case "or-set differential across domain counts" `Quick
      set_differential;
    Alcotest.test_case "g-set differential with queries" `Quick gset_differential;
    Alcotest.test_case "tiny mailbox: backpressure slow path" `Quick
      tiny_mailbox_backpressure;
    Alcotest.test_case "broadcast batching preserves convergence" `Quick
      batching_differential;
    Alcotest.test_case "wire accounting matches the sequential format" `Quick
      wire_accounting;
    Alcotest.test_case "per-domain reports and latencies" `Quick
      per_domain_reports;
    Alcotest.test_case "obs rows appear only when attached" `Quick obs_rows;
    Alcotest.test_case "record/replay differential (clause 6) + monitors" `Quick
      record_replay_differential;
    Alcotest.test_case "record/replay survives backpressure stalls" `Quick
      record_replay_backpressure;
    Alcotest.test_case "record/replay survives batched frames" `Quick
      record_replay_batched;
    Alcotest.test_case "flush window coalesces and converges" `Quick
      flush_window_differential;
    Alcotest.test_case "coalescing fixes the frame count at 2 domains" `Quick
      coalescing_frame_counts;
    Alcotest.test_case "a counter update allocates a bounded number of words" `Quick
      counter_words_per_update;
    Alcotest.test_case "malformed configs rejected" `Quick rejects_bad_config;
    Alcotest.test_case "a raise in create fails the run" `Quick
      (planted_raise Create);
    Alcotest.test_case "a raise in receive_batch fails the run" `Quick
      (planted_raise Receive_batch);
    Alcotest.test_case "a raise in query fails the run" `Quick
      (planted_raise Query);
  ]
