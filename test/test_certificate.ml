(* Proposition 4's check, [Protocol.Certificate.agree], and the
   convergence probe's count of classes under it, [classes], against
   planted disagreements: replicas of the oplog core and of the sharded space
   that differ in one entry's presence, origin or update, including the
   earliest entry, which the fold visits last; a protocol whose pid 1
   folds a skewed certificate, run through both engines; and what the
   check allocates.

   Then [Throughput.Oracle], the multicore runs' four clauses on top of
   the check: one planted fault per clause on both kinds of replica, and
   engine runs on which the list-built clauses it replaced must give its
   verdict and its rendered state. *)

open Helpers

module G = Generic.Make (Set_spec)
module GC = Protocol.Certificate (G)
module S = Space.Make (Set_spec) (Update_codec.For_set)
module SC = Protocol.Certificate (S)

let ctx ?(broadcast = ignore) pid : _ Protocol.ctx =
  {
    Protocol.pid;
    n = 4;
    now = (fun () -> 0.0);
    send = (fun ~dst:_ _ -> ());
    broadcast;
    broadcast_batch = List.iter broadcast;
    set_timer = (fun ~delay:_ _ -> ());
    count_replay = ignore;
    obs = None;
  }

(* ------------------------------ Generic ------------------------------ *)

(* [k] entries stamped (i, i mod 4), issued by pid i mod 4. *)
let entries k =
  List.init k (fun i ->
      let i = i + 1 in
      ( Timestamp.make ~clock:i ~pid:(i mod 4),
        i mod 4,
        if i mod 3 = 0 then Set_spec.Delete (i mod 7) else Set_spec.Insert (i mod 7) ))

let generic es =
  let r = G.create (ctx 0) in
  G.restore_log r es;
  r

let edit i f es = List.mapi (fun j e -> if j = i then f e else e) es

let flip = function Set_spec.Insert v -> Set_spec.Delete v | Delete v -> Insert v

let generic_planted () =
  let k = 40 in
  let base = entries k in
  let variants =
    [
      ("one entry short (the latest)", List.filteri (fun j _ -> j < k - 1) base);
      ("one entry short (the earliest)", List.tl base);
      ( "one origin changed (its timestamp's pid)",
        edit (k / 2)
          (fun ((ts : Timestamp.t), o, u) ->
            let pid = (o + 1) mod 4 in
            (Timestamp.make ~clock:ts.clock ~pid, pid, u))
          base );
      ("one update changed", edit (k / 2) (fun (ts, o, u) -> (ts, o, flip u)) base);
      ("only the earliest entry differs", edit 0 (fun (ts, o, u) -> (ts, o, flip u)) base);
    ]
  in
  let same () = generic base in
  Alcotest.(check bool) "identical replicas agree" true
    (GC.agree [ same (); same (); same (); same () ]);
  Alcotest.(check int) "identical replicas form one class" 1
    (GC.classes [ same (); same (); same (); same () ]);
  List.iter
    (fun (what, es) ->
      Alcotest.(check bool) (what ^ ", planted first") false
        (GC.agree [ generic es; same (); same (); same () ]);
      Alcotest.(check bool) (what ^ ", planted last") false
        (GC.agree [ same (); same (); same (); generic es ]);
      Alcotest.(check int) (what ^ ", two classes") 2
        (GC.classes [ same (); generic es; same (); generic es ]))
    variants

(* ------------------------------- Space ------------------------------- *)

(* [k <= 64] single-key updates over 64 keys, a distinct key each (7919
   is odd), so the entries spread over the map's shards and an entry is
   found again by its key. *)
let space_updates k =
  List.init k (fun i -> [ (i * 7919 mod 64, Set_spec.Insert (i mod 16)) ])

(* A replica of process [pid] (default 0) that issues [us] itself, and
   the frames it sends. *)
let issuer ?(pid = 0) us =
  let sent = ref [] in
  let r = S.create (ctx ~broadcast:(fun m -> sent := m :: !sent) pid) in
  List.iter (fun u -> S.update r u ~on_done:ignore) us;
  (r, List.rev !sent)

(* A pid-[pid] replica that receives [msgs] from pid 0. *)
let receiver pid msgs =
  let r = S.create (ctx pid) in
  List.iter (S.receive r ~src:0) msgs;
  r

(* Which of [us] the fold visits last (the earliest) and first (the
   latest): the shards' clocks interleave, so not the first and last
   issued. *)
let earliest_and_latest us reference =
  let issued_as = function
    | _, [ (key, _) ] -> Option.get (List.find_index (fun u -> fst (List.hd u) = key) us)
    | _ -> assert false
  in
  let cert = Option.get (SC.to_list reference) in
  (issued_as (List.hd cert), issued_as (List.hd (List.rev cert)))

let space_planted () =
  S.configure (S.create_map ~shards:8 ());
  let k = 40 in
  let us = space_updates k in
  let reference, msgs = issuer us in
  let earliest, latest = earliest_and_latest us reference in
  let same () = receiver 1 msgs in
  let local us = fst (issuer us) in
  let flip_at i = local (edit i (List.map (fun (key, u) -> (key, flip u))) us) in
  let without i () = receiver 2 (List.filteri (fun j _ -> j <> i) msgs) in
  (* Process 3 issuing the same updates stamps the same shards and
     clocks, with its own pid encoded in each stamp. *)
  let _, forged = issuer ~pid:3 us in
  let variants =
    [
      ("one entry short (the latest)", without latest);
      ("one entry short (the earliest)", without earliest);
      ( "one origin changed (a message's encoded pid names process 3)",
        fun () -> receiver 2 (edit (k / 2) (fun _ -> List.nth forged (k / 2)) msgs) );
      ("one update changed", fun () -> flip_at (k / 2));
      ("only the earliest entry differs", fun () -> flip_at earliest);
    ]
  in
  Alcotest.(check bool) "identical replicas agree" true
    (SC.agree [ local us; same (); same (); same () ]);
  List.iter
    (fun (what, planted) ->
      Alcotest.(check bool) (what ^ ", planted first") false
        (SC.agree [ planted (); same (); same (); local us ]);
      Alcotest.(check bool) (what ^ ", planted last") false
        (SC.agree [ local us; same (); same (); planted () ]))
    variants

(* ----------------------------- both engines ----------------------------- *)

(* The oplog core on the set, except that pid 1 folds its certificate
   with every origin one higher: the updates, the logs and every read
   are the core's own, so only the certificate check can notice. *)
module Skewed = struct
  include Set_spec

  type t = { pid : int; g : G.t }

  type message = G.message

  let protocol_name = "skewed"

  let create ctx = { pid = ctx.Protocol.pid; g = G.create ctx }

  let update t = G.update t.g

  let query t = G.query t.g

  let receive t = G.receive t.g

  let receive_batch t = G.receive_batch t.g

  let message_wire_size = G.message_wire_size

  let describe_message = G.describe_message

  let log_length t = G.log_length t.g

  let metadata_bytes t = G.metadata_bytes t.g

  let certificate t f init =
    if t.pid = 1 then G.certificate t.g (fun o u acc -> f (o + 1) u acc) init
    else G.certificate t.g f init

  let snapshot t = G.snapshot t.g

  let absorb t = G.absorb t.g
end

let skewed_runner () =
  let module R = Runner.Make (Skewed) in
  let workload =
    Workload.For_set.conflict ~rng:(Prng.create 3) ~n:3 ~ops_per_process:10 ~domain:6
      ~skew:1.0 ~delete_ratio:0.3
  in
  let config = { (R.default_config ~n:3 ~seed:3) with R.final_read = Some Set_spec.Read } in
  let r = R.run config ~workload in
  Alcotest.(check bool) "the reads still converge" true r.R.converged;
  Alcotest.(check bool) "the certificates disagree" false r.R.certificates_agree

let skewed_parallel () =
  let module E = Parallel_engine.Make (Skewed) in
  let workload =
    Array.init 2 (fun d ->
        List.init 50 (fun i ->
            Protocol.Invoke_update (Set_spec.Insert ((10 * d) + (i mod 10)))))
  in
  let config = { (E.default_config ~domains:2) with E.final_read = Some Set_spec.Read } in
  let r = E.run config ~workload in
  Alcotest.(check bool) "the reads still converge" true r.E.outputs_agree;
  Alcotest.(check bool) "the certificates disagree" false r.E.certificates_agree

(* ----------------------------- allocation ----------------------------- *)

(* Four oplog replicas of 10k entries: the copy's two arrays, sized by
   [log_length] and made straight in the major heap, and a few words per
   replica for the closures and options; nothing per entry. *)
let generic_guard () =
  let k = 10_000 in
  let base = entries k in
  let rs = List.init 4 (fun _ -> generic base) in
  let agreed, words = allocated_words (fun () -> GC.agree rs) in
  Alcotest.(check bool) "the replicas agree" true agreed;
  let arrays = float_of_int (2 * (k + 1)) in
  if words > arrays +. 64. then
    Alcotest.failf "agree over 4 x %d entries: %.0f words, %.0f beyond its two arrays" k
      words (words -. arrays)

(* Four space replicas of 10k entries over 8 shards: the singleton batch
   the fold hands over is the only allocation per entry, 3 words; the
   merge's arrays and the closures are a few dozen words per replica. *)
let space_guard () =
  S.configure (S.create_map ~shards:8 ());
  let k = 10_000 and replicas = 4 in
  let us = List.init k (fun i -> [ (i * 7919 mod 1024, Set_spec.Insert (i mod 16)) ]) in
  let rs =
    List.init replicas (fun _ ->
        let r = S.create (ctx 0) in
        List.iter (fun u -> S.update r u ~on_done:ignore) us;
        r)
  in
  let agreed = ref false in
  let words = minor_words (fun () -> agreed := SC.agree rs) in
  Alcotest.(check bool) "the replicas agree" true !agreed;
  if words > float_of_int (replicas * ((3 * k) + 64)) then
    Alcotest.failf "agree over %d x %d space entries: %.3f minor words an entry a replica"
      replicas k
      (words /. float_of_int (replicas * k))

(* ------------------------- the oracle's clauses ------------------------- *)

(* Four agreeing replicas built by [full], holding [issued] updates, and
   each ω answer replica 0's. Each planted fault must fail its own
   clause and no other: a replica missing its latest entry, one ω answer
   changed by [wrong], a restore that drops an entry, and [issued + 1]. *)
module Planted (P : Protocol.PROTOCOL) = struct
  module O = Throughput.Oracle (P)

  let answer r q =
    let out = ref None in
    P.query r q ~on_result:(fun o -> out := Some o);
    Option.get !out

  let failing o =
    List.filter_map (fun (name, holds) -> if holds then None else Some name) (Throughput.clauses o)

  let run ~final_read ~issued ~full ~short ~restore ~restore_short ~wrong =
    let outputs = List.init 4 (fun pid -> (pid, answer (full ()) final_read)) in
    let check ?(replicas = fun () -> Array.init 4 (fun _ -> full ())) ?(outputs = outputs)
        ?(restore = restore) ?(issued = issued) what expected =
      Alcotest.(check (list string)) what expected
        (failing (O.check ~restore ~final_read ~issued ~outputs (replicas ())))
    in
    check "no fault" [];
    check "a replica missing its latest entry" [ "certificates agree" ]
      ~replicas:(fun () -> [| full (); full (); full (); short () |]);
    check "a changed ω output" [ "omega = ts-fold" ]
      ~outputs:(List.map (fun (pid, o) -> (pid, if pid = 2 then wrong o else o)) outputs);
    check "a restore that drops an entry" [ "restore = ts-fold" ] ~restore:restore_short;
    check "issued + 1" [ "updates conserved" ] ~issued:(issued + 1)
end

(* The latest of the 40 entries inserts 5, which the one before it on 5
   deleted, so dropping it changes the read. *)
let generic_oracle () =
  let module T = Planted (G) in
  let k = 40 in
  let drop_latest es = List.filteri (fun j _ -> j < k - 1) es in
  T.run ~final_read:Set_spec.Read ~issued:k
    ~full:(fun () -> generic (entries k))
    ~short:(fun () -> generic (drop_latest (entries k)))
    ~restore:(fun r -> Some (generic (G.local_log r)))
    ~restore_short:(fun r -> Some (generic (drop_latest (G.local_log r))))
    ~wrong:(Support.Int_set.add 99)

(* Every update inserts into a key of its own, so dropping any entry
   changes the sweep. *)
let space_oracle () =
  S.configure (S.create_map ~shards:8 ());
  let module T = Planted (S) in
  let k = 40 in
  let us = space_updates k in
  let reference, msgs = issuer us in
  let _, latest = earliest_and_latest us reference in
  let without_latest pid = receiver pid (List.filteri (fun j _ -> j <> latest) msgs) in
  let restore r =
    Option.bind (S.snapshot r) (fun frame ->
        let fresh = S.create (ctx 0) in
        if S.absorb fresh frame then Some fresh else None)
  in
  T.run ~final_read:S.K.Sweep ~issued:k
    ~full:(fun () -> receiver 1 msgs)
    ~short:(fun () -> without_latest 1)
    ~restore
    ~restore_short:(fun _ -> restore (without_latest 2))
    ~wrong:(fun _ -> S.K.States [])

(* ------------------- the oracle against the clauses it replaced ------------------- *)

(* The list-built clauses the multicore measures ran before [Oracle]:
   every replica's [local_log] list (for the space, its non-empty
   [shard_logs]) compared with [=]; ω against the fold of replica 0's
   log, the space's shard logs merged by timestamp first; a fresh
   replica rebuilt from that log ([restore_log], or the space's
   snapshot and absorb); and conservation. With the engine's output and
   certificate agreement, they must give the oracle's verdict, and the
   fold they render must be the oracle's state. That rendering wrapped
   at the 80-column margin, so its lines are joined as the oracle's one
   line joins them. *)
let flatten s =
  match String.split_on_char '\n' s with
  | [] -> s
  | first :: rest ->
    let unindent l =
      let i = ref 0 in
      while !i < String.length l && l.[!i] = ' ' do incr i done;
      String.sub l !i (String.length l - !i)
    in
    String.concat " " (first :: List.map unindent rest)

let answers equal r query expected =
  let out = ref None in
  query r ~on_result:(fun o -> out := Some o);
  match !out with Some o -> equal o expected | None -> false

module Bench_reference (A : Uqadt.S) = struct
  module B = Throughput.Bench (A)
  module Run = Uqadt.Run (A)

  let check ~final_read (v : B.verdict) =
    let run = v.B.run in
    let logs = Array.map B.G.local_log run.B.E.replicas in
    let log0 = logs.(0) in
    let folded = Run.final_state (List.map (fun (_, _, u) -> u) log0) in
    let expected = A.eval folded final_read in
    let fresh = B.G.create (Throughput.dummy_ctx ~pid:0 ~n:1) in
    B.G.restore_log fresh log0;
    ( run.B.E.outputs_agree && run.B.E.certificates_agree
      && Array.for_all (( = ) log0) logs
      && run.B.E.outputs <> []
      && List.for_all (fun (_, o) -> A.equal_output o expected) run.B.E.outputs
      && answers A.equal_output fresh (fun r -> B.G.query r final_read) expected
      && List.length log0 = run.B.E.updates_total,
      flatten (Format.asprintf "%a" A.pp_state folded) )

  let agrees ~final_read ~seeds =
    List.iter
      (fun seed ->
        let domains = 1 + (seed mod 3) in
        let scripts = B.uniform_scripts ~seed ~domains ~ops:150 ~query_ratio:0.1 in
        let v = B.measure ~domains ~final_read ~scripts () in
        let ok, state = check ~final_read v in
        let label what = Printf.sprintf "%s seed %d, %d domains: %s" A.name seed domains what in
        Alcotest.(check bool) (label "the run passes") true ok;
        Alcotest.(check bool)
          (label "same verdict")
          ok
          (List.for_all snd (Throughput.clauses v.B.oracle));
        Alcotest.(check string) (label "same state") state v.B.oracle.Throughput.state_repr)
      seeds
end

module Sharded_reference = struct
  module B = Throughput.Sharded
  module S = B.S

  let check ~domains ~keyed_total (v : B.verdict) =
    let run = v.B.run in
    let logs_of r = List.filter (fun (_, l) -> l <> []) (S.shard_logs r) in
    let logs0 = logs_of run.B.E.replicas.(0) in
    let merged =
      List.concat_map snd logs0 |> List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b)
    in
    let folded = List.fold_left (fun m (_, _, ku) -> S.apply m [ ku ]) S.initial merged in
    let expected = S.eval folded S.K.Sweep in
    let snapshot_matches =
      match S.snapshot run.B.E.replicas.(0) with
      | None -> false
      | Some frame ->
        let fresh = S.create (Throughput.dummy_ctx ~pid:0 ~n:domains) in
        S.absorb fresh frame && answers S.equal_output fresh (fun r -> S.query r S.K.Sweep) expected
    in
    ( run.B.E.outputs_agree && run.B.E.certificates_agree
      && Array.for_all (fun r -> logs_of r = logs0) run.B.E.replicas
      && run.B.E.outputs <> []
      && List.for_all (fun (_, o) -> S.equal_output o expected) run.B.E.outputs
      && snapshot_matches
      && List.fold_left (fun acc (_, l) -> acc + List.length l) 0 logs0 = keyed_total,
      flatten (Format.asprintf "%a" S.pp_state folded) )

  let agrees ~shards ~seeds =
    List.iter
      (fun seed ->
        let domains = 2 in
        let scripts =
          B.zipf_scripts ~seed ~domains ~ops:200 ~keys:64 ~skew:1.1 ~fanout:3 ~query_ratio:0.2
        in
        S.configure (S.create_map ~shards ());
        let v = B.measure ~domains ~final_read:S.K.Sweep ~scripts () in
        let keyed_total =
          Array.fold_left
            (List.fold_left (fun acc -> function
               | Protocol.Invoke_update kus -> acc + List.length kus
               | Protocol.Invoke_query _ -> acc))
            0 scripts
        in
        let ok, state = check ~domains ~keyed_total v in
        let label what = Printf.sprintf "%d shards, seed %d: %s" shards seed what in
        Alcotest.(check bool) (label "the run passes") true ok;
        Alcotest.(check bool) (label "same verdict") ok (B.ok v);
        Alcotest.(check string) (label "same state") state v.B.oracle.Throughput.state_repr)
      seeds
end

let ten_seeds = List.init 10 (fun i -> 11 * (i + 1))

let bench_references () =
  let module C = Bench_reference (Counter_spec) in
  C.agrees ~final_read:Counter_spec.Value ~seeds:ten_seeds;
  let module St = Bench_reference (Set_spec) in
  St.agrees ~final_read:Set_spec.Read ~seeds:ten_seeds

let sharded_references () =
  List.iter (fun shards -> Sharded_reference.agrees ~shards ~seeds:ten_seeds) [ 1; 2; 4 ]

let tests =
  [
    Alcotest.test_case "planted disagreements on oplog replicas are caught" `Quick
      generic_planted;
    Alcotest.test_case "planted disagreements on space replicas are caught" `Quick
      space_planted;
    Alcotest.test_case "the Runner reports a skewed pid 1 certificate" `Quick
      skewed_runner;
    Alcotest.test_case "the parallel engine reports a skewed pid 1 certificate" `Quick
      skewed_parallel;
    Alcotest.test_case "agree allocates its two arrays and nothing per entry" `Quick
      generic_guard;
    Alcotest.test_case "agree on the space allocates 3 words per entry per replica" `Quick
      space_guard;
    Alcotest.test_case "the oracle fails each planted fault's clause alone, on oplog replicas"
      `Quick generic_oracle;
    Alcotest.test_case "the oracle fails each planted fault's clause alone, on space replicas"
      `Quick space_oracle;
    Alcotest.test_case "the oracle agrees with the list-built clauses on Bench runs" `Quick
      bench_references;
    Alcotest.test_case "the oracle agrees with the list-built clauses at 1, 2 and 4 shards"
      `Quick sharded_references;
  ]
