(* The simulator's outputs, pinned by sha256.

   - every [Runner] result field, over about twenty configurations:
     the history fingerprint, the bits of [intervals] and
     [op_latencies], every [Metrics] field but [replay_steps] (the
     bits of [delivery_latency_sum] included), [final_outputs],
     [certificates], [log_lengths] and [sim_duration];
   - each configuration's [replay_steps], as its own integer: how far
     a query replays is the cores' caching, not simulated behaviour,
     so a change to the query cache moves these counts and no digest;
   - the first 10k outputs of each [Prng] draw, and of the [split],
     [fork] and [copy] children, at seeds 0, 1, 42 and [max_int];
   - the first 10k draws of each [Network] delay model.

   The digests were first recorded before the simulator's allocation
   rework (typed engine events, byte-backed PRNG state, per-process
   operation columns), which promised to change no simulated behaviour,
   and recorded again, without [replay_steps], on the code just before
   the query cache kept its last folds: a digest that moves is a
   behaviour change. *)

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* What a configuration is there to exercise, checked on its result so
   that a pin cannot quietly stop covering it. *)
type fact =
  | Incomplete  (** some operation never completed *)
  | Update_unfinished  (** an update's interval ends at +infinity *)
  | Query_unrecorded  (** an invoked query never answered, so left no step *)
  | Batched  (** multi-message frames were sent *)
  | Caught_up  (** a joiner absorbed a peer's snapshot *)
  | Dropped  (** frames to or from a down process were dropped *)

let fact_name = function
  | Incomplete -> "an operation never completed"
  | Update_unfinished -> "an update never finished"
  | Query_unrecorded -> "a query left no step"
  | Batched -> "frames were batched"
  | Caught_up -> "a snapshot was absorbed"
  | Dropped -> "frames were dropped"

(* --------------------------- Runner digests -------------------------- *)

module Digest (P : Protocol.PROTOCOL) = struct
  module R = Runner.Make (P)

  let of_result (r : R.result) =
    let b = Buffer.create 4096 in
    let line fmt = Printf.bprintf b fmt in
    line "fp %s\n"
      (History.fingerprint P.pp_update P.pp_query P.pp_output r.R.history);
    let { Check_lin.starts; finishes } = r.R.intervals in
    Float.Array.iteri
      (fun id s -> line "iv %s %s\n" (bits s) (bits (Float.Array.get finishes id)))
      starts;
    Float.Array.iter (fun l -> line "lat %s\n" (bits l)) r.R.op_latencies;
    let m = r.R.metrics in
    line "metrics %d %d %d %d %d %d %d %d %d %s %d %d\n" m.Metrics.messages_sent
      m.Metrics.bytes_sent m.Metrics.messages_delivered m.Metrics.messages_dropped
      m.Metrics.updates_invoked m.Metrics.queries_invoked m.Metrics.ops_completed
      m.Metrics.ops_incomplete m.Metrics.batches_sent
      (bits m.Metrics.delivery_latency_sum)
      m.Metrics.snapshots_absorbed m.Metrics.catchup_bytes;
    List.iter
      (fun (pid, o) -> line "final %d %s\n" pid (Format.asprintf "%a" P.pp_output o))
      r.R.final_outputs;
    line "converged %b agree %b\n" r.R.converged r.R.certificates_agree;
    List.iter
      (fun (pid, cert) ->
        line "cert %d" pid;
        List.iter
          (fun (p, u) -> line " %d:%s" p (Format.asprintf "%a" P.pp_update u))
          cert;
        line "\n")
      (Lazy.force r.R.certificates);
    List.iter (fun (pid, len) -> line "log %d %d\n" pid len) r.R.log_lengths;
    List.iter (fun (pid, bytes) -> line "meta %d %d\n" pid bytes) r.R.metadata_bytes;
    line "duration %s\n" (bits r.R.sim_duration);
    Sha256.hex (Buffer.contents b)

  let holds (r : R.result) = function
    | Incomplete -> r.R.metrics.Metrics.ops_incomplete > 0
    | Update_unfinished ->
      Float.Array.exists (fun f -> f = Float.infinity) r.R.intervals.Check_lin.finishes
    | Query_unrecorded ->
      List.length (History.queries r.R.history) < r.R.metrics.Metrics.queries_invoked
    | Batched -> r.R.metrics.Metrics.batches_sent > 0
    | Caught_up -> r.R.metrics.Metrics.snapshots_absorbed > 0
    | Dropped -> r.R.metrics.Metrics.messages_dropped > 0

  (* The digest and the replay steps of one run. *)
  let run ?(covers = []) config workload =
    let r = R.run config ~workload in
    List.iter (fun f -> Alcotest.(check bool) (fact_name f) true (holds r f)) covers;
    (of_result r, r.R.metrics.Metrics.replay_steps)
end

module Uni = Digest (Generic.Make (Set_spec))

module Catchup =
  Digest (Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set))

module Pipe = Digest (Pipelined.Make (Set_spec))
module Abd_d = Digest (Abd)
module Smr = Digest (Tob_smr.Make (Set_spec))
module Sp = Space.Make (Set_spec) (Update_codec.For_set)
module Sharded = Digest (Sp)
module Reg = Workload.Make (Register_spec)

let set_scripts ~seed ~n ~ops =
  Workload.For_set.conflict ~rng:(Prng.create seed) ~n ~ops_per_process:ops
    ~domain:8 ~skew:1.0 ~delete_ratio:0.3

(* Conflict scripts with a read after every third operation. *)
let mixed_set_scripts ~seed ~n ~ops =
  Array.map
    (List.mapi (fun i a ->
         if i mod 3 = 2 then Protocol.Invoke_query Set_spec.Read else a))
    (set_scripts ~seed ~n ~ops)

let uni_config ~n ~seed =
  { (Uni.R.default_config ~n ~seed) with Uni.R.final_read = Some Set_spec.Read }

let catchup_config ~n ~seed =
  {
    (Catchup.R.default_config ~n ~seed) with
    Catchup.R.final_read = Some Set_spec.Read;
  }

let universal_cases =
  let w ~seed ~n ~ops = mixed_set_scripts ~seed ~n ~ops in
  [
    ( "universal, uniform delays",
      fun () -> Uni.run (uni_config ~n:3 ~seed:1) (w ~seed:1 ~n:3 ~ops:12) );
    ( "universal, exponential delays and think",
      fun () ->
        Uni.run
          {
            (uni_config ~n:4 ~seed:7) with
            Uni.R.delay = Network.Exponential { mean = 4.0 };
            think = Network.Exponential { mean = 2.0 };
          }
          (w ~seed:7 ~n:4 ~ops:15) );
    ( "universal, pareto delays, constant think",
      fun () ->
        Uni.run
          {
            (uni_config ~n:3 ~seed:11) with
            Uni.R.delay = Network.Pareto { scale = 1.0; shape = 1.5 };
            think = Network.Constant 0.75;
          }
          (w ~seed:11 ~n:3 ~ops:12) );
    ( "universal, crashes",
      fun () ->
        Uni.run ~covers:[ Dropped ]
          { (uni_config ~n:4 ~seed:3) with Uni.R.crashes = [ (20.0, 1); (45.0, 3) ] }
          (w ~seed:3 ~n:4 ~ops:14) );
    ( "universal, partition",
      fun () ->
        Uni.run
          {
            (uni_config ~n:4 ~seed:5) with
            Uni.R.partitions =
              [ { Network.from_time = 10.0; to_time = 60.0; group = [ 0; 1 ] } ];
          }
          (w ~seed:5 ~n:4 ~ops:12) );
    ( "universal, fifo",
      fun () ->
        Uni.run
          {
            (uni_config ~n:3 ~seed:13) with
            Uni.R.fifo = true;
            delay = Network.Uniform { lo = 1.0; hi = 30.0 };
          }
          (w ~seed:13 ~n:3 ~ops:12) );
    ( "universal, batch window and envelope",
      fun () ->
        Uni.run ~covers:[ Batched ]
          {
            (uni_config ~n:3 ~seed:17) with
            Uni.R.batch_window = Some 2.0;
            envelope = 8;
            think = Network.Constant 0.5;
          }
          (w ~seed:17 ~n:3 ~ops:12) );
    ( "universal, deadline cuts the scripts",
      fun () ->
        Uni.run
          { (uni_config ~n:3 ~seed:19) with Uni.R.deadline = 30.0 }
          (w ~seed:19 ~n:3 ~ops:20) );
  ]

(* p2 joins late; p1 leaves and rejoins mid-script (its script parks);
   p3 leaves for good. *)
let churn =
  [
    { Network.time = 25.0; pid = 2; action = Network.Join };
    { Network.time = 15.0; pid = 1; action = Network.Leave };
    { Network.time = 40.0; pid = 1; action = Network.Rejoin };
    { Network.time = 50.0; pid = 3; action = Network.Leave };
  ]

let churn_cases =
  [
    ( "universal with catch-up, join/leave/rejoin churn",
      fun () ->
        Catchup.run ~covers:[ Caught_up; Dropped ]
          { (catchup_config ~n:4 ~seed:23) with Catchup.R.churn }
          (mixed_set_scripts ~seed:23 ~n:4 ~ops:14) );
    ( "universal with catch-up, churn, partition and a crash",
      fun () ->
        Catchup.run ~covers:[ Caught_up; Dropped ]
          {
            (catchup_config ~n:4 ~seed:29) with
            Catchup.R.churn;
            crashes = [ (70.0, 0) ];
            partitions =
              [ { Network.from_time = 30.0; to_time = 45.0; group = [ 1 ] } ];
          }
          (mixed_set_scripts ~seed:29 ~n:4 ~ops:14) );
    ( "universal with catch-up, churn under a deadline",
      fun () ->
        Catchup.run ~covers:[ Caught_up ]
          {
            (catchup_config ~n:4 ~seed:31) with
            Catchup.R.churn;
            deadline = 45.0;
          }
          (mixed_set_scripts ~seed:31 ~n:4 ~ops:14) );
  ]

let pipelined_cases =
  let config ~seed =
    {
      (Pipe.R.default_config ~n:3 ~seed) with
      Pipe.R.final_read = Some Set_spec.Read;
      fifo = true;
      think = Network.Exponential { mean = 1.0 };
    }
  in
  [
    ( "pipelined, batch window",
      fun () ->
        Pipe.run ~covers:[ Batched ]
          { (config ~seed:37) with Pipe.R.batch_window = Some 3.0 }
          (mixed_set_scripts ~seed:37 ~n:3 ~ops:15) );
    ( "pipelined, batch window, envelope and a crash",
      fun () ->
        Pipe.run ~covers:[ Batched; Dropped ]
          {
            (config ~seed:41) with
            Pipe.R.batch_window = Some 1.5;
            envelope = 16;
            crashes = [ (12.0, 2) ];
          }
          (mixed_set_scripts ~seed:41 ~n:3 ~ops:15) );
  ]

let sharded_run ?policy ~seed ~keys () =
  let map = Sp.create_map ?policy ~shards:4 () in
  Sp.configure map;
  let scripts =
    Workload.For_space.zipf_scripts ~rng:(Prng.create seed) ~n:3
      ~ops_per_process:20 ~keys ~skew:1.1 ~fanout:3 ~query_ratio:0.25
      ~update:(fun g ->
        let v = 1 + Prng.int g 16 in
        if Prng.float g 1.0 < 0.3 then Set_spec.Delete v else Set_spec.Insert v)
      ~query:(fun _ -> Set_spec.Read)
      ~read:(fun k q -> Sp.K.Read (k, q))
  in
  let pinned =
    Sharded.run ~covers:[ Batched ]
      { (Sharded.R.default_config ~n:3 ~seed) with Sharded.R.final_read = Some Sp.K.Sweep }
      scripts
  in
  if policy <> None then
    Alcotest.(check bool) "a hot shard split" true (Sp.rebalances map > 0);
  pinned

let sharded_cases =
  [
    ("sharded, 64 keys", fun () -> sharded_run ~seed:43 ~keys:64 ());
    ( "sharded, 256 keys, rebalance",
      fun () ->
        sharded_run
          ~policy:{ Sp.interval = 10.0; hot_factor = 1.2; max_shards = 16 }
          ~seed:47 ~keys:256 () );
  ]

let register_scripts ~seed ~n ~ops =
  Reg.mixed ~rng:(Prng.create seed) ~n ~ops_per_process:ops ~query_ratio:0.5

let quorum_cases =
  let abd ~seed =
    {
      (Abd_d.R.default_config ~n:3 ~seed) with
      Abd_d.R.final_read = Some Register_spec.Read;
    }
  in
  let smr ~seed =
    {
      (Smr.R.default_config ~n:3 ~seed) with
      Smr.R.final_read = Some Set_spec.Read;
      fifo = true;
    }
  in
  [
    ("abd", fun () -> Abd_d.run (abd ~seed:53) (register_scripts ~seed:53 ~n:3 ~ops:10));
    ( "abd, a crash within the majority",
      fun () ->
        Abd_d.run ~covers:[ Incomplete ]
          { (abd ~seed:59) with Abd_d.R.crashes = [ (15.0, 2) ] }
          (register_scripts ~seed:59 ~n:3 ~ops:10) );
    ( "abd, majority crashed: operations stall",
      fun () ->
        Abd_d.run ~covers:[ Incomplete; Update_unfinished; Query_unrecorded ]
          { (abd ~seed:61) with Abd_d.R.crashes = [ (20.0, 1); (20.0, 2) ] }
          (register_scripts ~seed:61 ~n:3 ~ops:10) );
    ( "abd, partition and deadline",
      fun () ->
        Abd_d.run ~covers:[ Incomplete; Update_unfinished; Query_unrecorded ]
          {
            (abd ~seed:67) with
            Abd_d.R.partitions =
              [ { Network.from_time = 5.0; to_time = 1000.0; group = [ 0 ] } ];
            deadline = 120.0;
          }
          (register_scripts ~seed:67 ~n:3 ~ops:10) );
    ("tob-smr", fun () -> Smr.run (smr ~seed:71) (mixed_set_scripts ~seed:71 ~n:3 ~ops:10));
    ( "tob-smr, deadline",
      fun () ->
        Smr.run ~covers:[ Incomplete; Update_unfinished ]
          { (smr ~seed:73) with Smr.R.deadline = 25.0 }
          (mixed_set_scripts ~seed:73 ~n:3 ~ops:12) );
  ]

let runner_cases =
  universal_cases @ churn_cases @ pipelined_cases @ sharded_cases @ quorum_cases

(* ---------------------------- PRNG digests --------------------------- *)

let draws = 10_000

let digest_draws draw =
  let b = Buffer.create (draws * 17) in
  for _ = 1 to draws do
    Buffer.add_string b (draw ());
    Buffer.add_char b '\n'
  done;
  Sha256.hex (Buffer.contents b)

let i64 x = Printf.sprintf "%Lx" x

let prng_streams =
  [
    ("bits64", fun g () -> i64 (Prng.bits64 g));
    ("float", fun g () -> bits (Prng.float g 3.5));
    ("exponential", fun g () -> bits (Prng.exponential g ~mean:5.0));
    ("pareto", fun g () -> bits (Prng.pareto g ~scale:2.0 ~shape:1.5));
    ("int", fun g () -> string_of_int (Prng.int g 1000));
    (* A bound just above 2^61 rejects about half of the raw draws. *)
    ("int, large bound", fun g () -> string_of_int (Prng.int g ((1 lsl 61) + 12345)));
    ("int_in", fun g () -> string_of_int (Prng.int_in g (-50) 50));
    ("bool", fun g () -> string_of_bool (Prng.bool g));
    ( "split child and parent",
      fun g ->
        let child = Prng.split g in
        fun () -> i64 (Prng.bits64 child) ^ " " ^ i64 (Prng.bits64 g) );
    ( "fork child and parent",
      fun g ->
        let child = Prng.fork g in
        fun () -> i64 (Prng.bits64 child) ^ " " ^ i64 (Prng.bits64 g) );
    ( "copy and original",
      fun g ->
        ignore (Prng.bits64 g : int64);
        let twin = Prng.copy g in
        fun () -> i64 (Prng.bits64 twin) ^ " " ^ i64 (Prng.bits64 g) );
    ( "split per draw",
      fun g () ->
        let child = Prng.split g in
        i64 (Prng.bits64 child) );
    ( "fork per draw",
      fun g () ->
        let child = Prng.fork g in
        i64 (Prng.bits64 child) );
  ]

let delay_streams =
  [
    ("constant delay", Network.Constant 2.5);
    ("uniform delay", Network.Uniform { lo = 1.0; hi = 10.0 });
    ("exponential delay", Network.Exponential { mean = 5.0 });
    ("pareto delay", Network.Pareto { scale = 1.0; shape = 1.5 });
  ]

let seeds = [ 0; 1; 42; max_int ]

let seed_name seed = if seed = max_int then "max_int" else string_of_int seed

let prng_digests () =
  List.concat_map
    (fun seed ->
      List.map
        (fun (name, stream) ->
          ( Printf.sprintf "%s @ %s" name (seed_name seed),
            digest_draws (stream (Prng.create seed)) ))
        prng_streams
      @ List.map
          (fun (name, model) ->
            let g = Prng.create seed in
            ( Printf.sprintf "%s @ %s" name (seed_name seed),
              digest_draws (fun () -> bits (Network.draw_delay g model)) ))
          delay_streams)
    seeds

(* ------------------------------ recorded ----------------------------- *)

let runner_pins =
  [
    ( "universal, uniform delays",
      ("f003e6e134693de102ed20e227ef638f2e405997c0da9a732642fab9d2b2cbaf", 92) );
    ( "universal, exponential delays and think",
      ("ccd9232ae5025a48a847d10e1a349828f7154f481f9eb73bdede2c57dde91ff4", 361) );
    ( "universal, pareto delays, constant think",
      ("f13d7ca09816401879bdfad4701ddebd5e3acd60665907bcc53175ca08e6b2cf", 120) );
    ( "universal, crashes",
      ("3afe2790c7c35b9ff85c63159bd1e62550338fee9faa5425d45ef6e6b7df839e", 102) );
    ( "universal, partition",
      ("c1f0b34535d8dbfbd4ac18f93817beeb5ad880b5e3eb7fb8f7d9886e1dae7043", 244) );
    ( "universal, fifo",
      ("c1f9a09b7952441c4c28c898f8123d9898511a3e4cc22939caa3beb74ae46a01", 103) );
    ( "universal, batch window and envelope",
      ("0a01a6f55113d3772bd8ffccda34cfa4c5c69c9843bc69448bbd2a4707db7a1e", 96) );
    ( "universal with catch-up, join/leave/rejoin churn",
      ("5ca4ff8995bb97f40fe51c1c1de5bf113dcea4e5d543cf59f8e5e39eb4b8d5fc", 172) );
    ( "universal with catch-up, churn, partition and a crash",
      ("7430be7e9ac66ba22eaf808ecf8de7c9b9c6fb3626966abeecc277978d144240", 172) );
    ( "universal with catch-up, churn under a deadline",
      ("6efc54c24bfe0df7dfccffa832a23fea761352f7b79cba5dd3c10ec4897ef611", 82) );
    ( "pipelined, batch window",
      ("18de2ffd1afd498b4b1722776013a272c80204a530329c3361c2ae7710314fa5", 0) );
    ( "pipelined, batch window, envelope and a crash",
      ("876456928eb9780e94e586e2c104d32659ad15694583a51de8321641ef11d286", 0) );
    ( "sharded, 64 keys",
      ("56955b0da2b421da1894ae4698f621680c68e2b8529b50873a258aa909dadfe6", 234) );
    ( "sharded, 256 keys, rebalance",
      ("e86976059400fa49a8b81268c448ef0b26de2ebd17eafd41a72715791616f088", 288) );
    ( "abd",
      ("ddfc06d62023279a7aab47dab964509fd0b5ea3d1fe4d7542732846aa4e4185d", 0) );
    ( "abd, a crash within the majority",
      ("76377f419fa480808f9478e0bc5d14b25aa389176412ba52adfb0ad785105f48", 0) );
    ( "abd, majority crashed: operations stall",
      ("4f86a8c2141347d2d3b46dc60c6da5404de81eb20baecb6e5da0d382fd88410f", 0) );
    ( "abd, partition and deadline",
      ("524e509814ff73feea3d7cda6adadd7f16528e8a1add205ba8e53332a134b03d", 0) );
    ( "tob-smr",
      ("c579f78900ca63ac1e7d92823722efc504cd46e0330c78392dcb2b81820fc607", 0) );
    ( "tob-smr, deadline",
      ("da01fa11578a36662c997c10ceff1a9e497d2ddfbdfea516393ecf787bfff978", 0) );
    ( "universal, deadline cuts the scripts",
      ("d9241cfc6ed2d5c1aa8e9db6be2b26e57c8e3397a4d2c533ae96d796a93c32c8", 59) );
  ]

let prng_pins =
  [
    ( "bits64 @ 0",
      "e9dab47614b21b14c143828f35d84387f3a85ea7f2fde075b0455ba19feaf8a2" );
    ( "float @ 0",
      "932fae6f2ba9c75818922238e9e4b6fee0cbc852a38700c4b529fc5366510c8d" );
    ( "exponential @ 0",
      "d7b3ec1ec6c3cfeff9535e547d4f74cc50eb361d826a5ad79ba38c084f113039" );
    ( "pareto @ 0",
      "969bef3418bc1521194a55463c7ca9a108e1bbc8b0ecd69f81846133fba4db99" );
    ( "int @ 0",
      "585c7c943f9246f564865bfbad2241f4a6df719f985e504b8691b95bfe1038e8" );
    ( "int, large bound @ 0",
      "102e8458b208b9831db00b5d3f16f9b44bbfab77dc1b2488c3ffb7f9c1ffa829" );
    ( "int_in @ 0",
      "f5e9fca35db37c24b0b77551e1844dacf8537366d3fcda5f03e5a484cd527c16" );
    ( "bool @ 0",
      "0d04bcd39c2143b108c00d7156749ea3089c422ca25d5e190d91f38c36f80e2f" );
    ( "split child and parent @ 0",
      "37de61e0e74ffb2727dff2deb1c146e4f4c7e3b96aa13dd5cdea6911e011a5cf" );
    ( "fork child and parent @ 0",
      "8dbea1b7e0d723c7227646e4aed7ac222d52556e476ec3f508a7d634c0e57f62" );
    ( "copy and original @ 0",
      "c139f0a1048cbb2eeb7d0398fb6c4dee09e4f1d77d20a4115736677b106c1971" );
    ( "split per draw @ 0",
      "9e830c3b75d5f207058d8321d0026649d18217217fadcfc8c45e171f6da7c26c" );
    ( "fork per draw @ 0",
      "f432b213d538efd9370fc592903ea53a934ecc76c0718ce77845ddf576d1459c" );
    ( "constant delay @ 0",
      "18a69473185793e1ca408a9eeef1db6ecdcc2c513e073e420556a2b7ca54728f" );
    ( "uniform delay @ 0",
      "6c3af1374d5dae038bd966445eb3dce419bbfe120a9b876d84aa56a6591bbf25" );
    ( "exponential delay @ 0",
      "d7b3ec1ec6c3cfeff9535e547d4f74cc50eb361d826a5ad79ba38c084f113039" );
    ( "pareto delay @ 0",
      "2755b7614172b8bffe3d7c42616dd85061e4eb2eb8b541c1ccde4a591e5a43ba" );
    ( "bits64 @ 1",
      "d5e14fa8f558cc85d6786b1ee37c8f20326ba069c39ca49e00ea4407b181011b" );
    ( "float @ 1",
      "53123cd224a8d94a72ba04200d8d9aaeb823a615f11525788598603fc70e9ec0" );
    ( "exponential @ 1",
      "482220f076ba064cdfb9cb32ce44f2aa82383dd88ff9a0c4f517846aa905c4ad" );
    ( "pareto @ 1",
      "860c53f70899eb580d4b46a2d818618559cbc29414da23c47f89c683c7620bcf" );
    ( "int @ 1",
      "51475627c2afe69f81ad90656fa6df854d6bd75724a27278fb342bac3492cc16" );
    ( "int, large bound @ 1",
      "242eae402c5f627622c1ab65ca3f90d85d30e4dcb466ba68e0d14eeb7801e31a" );
    ( "int_in @ 1",
      "7a2dd7adf915e6466a6a0f01b302d0d5db30a7feccb9d32799d7a9081292547f" );
    ( "bool @ 1",
      "168085a1f8fcde970fb07d0c799d3f13f365f5f888a3404290fe5b7df27b6adc" );
    ( "split child and parent @ 1",
      "b497f84780fcd381c7c65c91df58d16b88e55781dc33f83520e9e6e070c7b87b" );
    ( "fork child and parent @ 1",
      "80f14ab93471440d3f289fb6231d69122f80ccc7e88158788b10249f18f2731e" );
    ( "copy and original @ 1",
      "356905295456c8d413df5351fbde452eb85c99474035e255a45fdf9155dfce81" );
    ( "split per draw @ 1",
      "e8a55220539ad0840d315d5dc26465e0ccaae819433dc701e591e1acd4d7708b" );
    ( "fork per draw @ 1",
      "0c2cab4ab8a6618a4c004d844f44eb56ef82507afcfaf42878030b04985fdf2f" );
    ( "constant delay @ 1",
      "18a69473185793e1ca408a9eeef1db6ecdcc2c513e073e420556a2b7ca54728f" );
    ( "uniform delay @ 1",
      "ea69b6118bb9c1dbf8a4aa43ae504b504f0c6d7ff3ae61d65682cd1f4b0ce593" );
    ( "exponential delay @ 1",
      "482220f076ba064cdfb9cb32ce44f2aa82383dd88ff9a0c4f517846aa905c4ad" );
    ( "pareto delay @ 1",
      "a8197662b428f5cb0fa21c92c0bfe1dc119dd06fd72c2436cb45521608a2345f" );
    ( "bits64 @ 42",
      "3bd262aed18afbb70c1fef2562b3a90ba0fad15d49e8242a9c05f0e3539d5c92" );
    ( "float @ 42",
      "4686c563ef554251739dfed6f15a2cea4d2b1caeaa6f563232fe506b564622f0" );
    ( "exponential @ 42",
      "60a25696c332bec5a1a44fb3b8d53874b8f2c9716caf42595ffaa876e0fc580b" );
    ( "pareto @ 42",
      "efba7edf4be3be2db8f2414214206c082702c1138bed036ea60004032318b01e" );
    ( "int @ 42",
      "7ae42db8a2e99402999b672fa3af1b1b10ede16e2ec3d42e048bcb73cff19b7c" );
    ( "int, large bound @ 42",
      "75f9def3662f1a8bf800d29e1d7522198a89e3277c75d7882a1d15849e3c14da" );
    ( "int_in @ 42",
      "4e8ca2cc94ee9d891d38ce83cc6efcb517b47e788427fc52a4bbdceaba8ac200" );
    ( "bool @ 42",
      "76c4e16decc48e26bb6f9d5e50d3a97ee5f34666cf2ef10e2f849752617ce812" );
    ( "split child and parent @ 42",
      "867619d2add971acab4d36435cade5d869e2627322d88cafd8e44ba512c3eb62" );
    ( "fork child and parent @ 42",
      "6e785c74a6f238c420f0775a1e2ab21bad9e59c0c97bd472432f1f7f9bf27d87" );
    ( "copy and original @ 42",
      "3ad3673bb33982bbb1574d37af7581ab9a1332230d72b04cf9bdd064e3308e5a" );
    ( "split per draw @ 42",
      "5065b5c2f6e9661a8ec4c1fe1e819f6f78517bca08a1401f0cdc7a2cca5804ca" );
    ( "fork per draw @ 42",
      "5987a73e8276d978728d9c6362d0107238eabc7cfd37eb4ed8d72913bcda80e0" );
    ( "constant delay @ 42",
      "18a69473185793e1ca408a9eeef1db6ecdcc2c513e073e420556a2b7ca54728f" );
    ( "uniform delay @ 42",
      "183809a35aec95b05f611b5910fd7b9d74e09920d5ddfe143f3f2bba1a67166b" );
    ( "exponential delay @ 42",
      "60a25696c332bec5a1a44fb3b8d53874b8f2c9716caf42595ffaa876e0fc580b" );
    ( "pareto delay @ 42",
      "cb5fda0325357968adbb52c5699e028aa5450298c0f907610719d26292b6d726" );
    ( "bits64 @ max_int",
      "0611bd5d385e2b9404dc5fc035568c15086239e3647b68655342c3b038fb7aa4" );
    ( "float @ max_int",
      "b8d76c9dc176a277824d37f7a652be4543a5f22974aebcb23e4dcd948c3b5447" );
    ( "exponential @ max_int",
      "c7580bcf16ee6eb642841963d5f8736eff9a00a3a81fd529a7ec94a2b6548585" );
    ( "pareto @ max_int",
      "ec879799958bbdf6a0b0fc5935f2d30629b5adbe439aacfaa0439cfc69978676" );
    ( "int @ max_int",
      "3896889f49430f49d4c74abb8be337fedc15f321cb63dd918c28a8e58da0347f" );
    ( "int, large bound @ max_int",
      "1c91307e98a17eea2ce25ad4d3b89781e66b56f9e88774d3f8a85f6440afdc6a" );
    ( "int_in @ max_int",
      "dbc3256e8153a7454009f6f4e0290664b45b554f94e6509b981421703c58e18c" );
    ( "bool @ max_int",
      "99015faa619ac4889fbee924d4405c76672d2e8ff310e34d92b56e89a2b2910d" );
    ( "split child and parent @ max_int",
      "1f833240c10d2233655a783087466b5bae49ace1a609708cd16513a26ba949e9" );
    ( "fork child and parent @ max_int",
      "66e794aa91010ad5771705c49bee47830789fe6ef6361a8fc03cdd61f1d719de" );
    ( "copy and original @ max_int",
      "1ac1386fcfbbe10cac25cec695430cb58657c3aae539d8532b7bd9dd545c627f" );
    ( "split per draw @ max_int",
      "9a3fa7e8d6c4d3188f81467d4e88ed28c8ceef36839639c0517f7e48da728794" );
    ( "fork per draw @ max_int",
      "526f97b867025adcfad697d27f0a838214235facf18ec4d18bdcb655b6943b91" );
    ( "constant delay @ max_int",
      "18a69473185793e1ca408a9eeef1db6ecdcc2c513e073e420556a2b7ca54728f" );
    ( "uniform delay @ max_int",
      "9e369bbc58918d994e4a2aebbaf98878d73b46f3d1ec4d5b58830f20dca40e56" );
    ( "exponential delay @ max_int",
      "c7580bcf16ee6eb642841963d5f8736eff9a00a3a81fd529a7ec94a2b6548585" );
    ( "pareto delay @ max_int",
      "17a0e04cb0a974877d185e6c721d5a86f86c1281e0b128eed50c469fdcced272" );
  ]

let tests =
  List.map
    (fun (name, run) ->
      Alcotest.test_case ("runner: " ^ name) `Quick (fun () ->
          let digest, steps = List.assoc name runner_pins in
          let got_digest, got_steps = run () in
          Alcotest.(check string) "digest" digest got_digest;
          Alcotest.(check int) "replay steps" steps got_steps))
    runner_cases
  @ [
      Alcotest.test_case "prng and delay draws at seeds 0, 1, 42 and max_int" `Quick
        (fun () ->
          List.iter
            (fun (name, digest) ->
              Alcotest.(check string) name (List.assoc name prng_pins) digest)
            (prng_digests ()));
    ]
