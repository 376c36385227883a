(* Durable log snapshots and crash recovery. *)

open Helpers

module G = Generic.Make (Set_spec)
module P = Persist.Over (G) (Update_codec.For_set)

let dummy_ctx pid : _ Protocol.ctx =
  {
    Protocol.pid;
    n = 3;
    now = (fun () -> 0.0);
    send = (fun ~dst:_ _ -> ());
    broadcast = ignore;
    broadcast_batch = ignore;
    set_timer = (fun ~delay:_ _ -> ());
    count_replay = ignore;
    obs = None;
  }

let loaded_replica seed ops =
  let r = G.create (dummy_ctx 0) in
  let rng = Prng.create seed in
  for _ = 1 to ops do
    G.update r (Set_spec.random_update rng) ~on_done:ignore
  done;
  r

let query r =
  let out = ref Set_spec.initial in
  G.query r Set_spec.Read ~on_result:(fun o -> out := o);
  !out

let tests =
  [
    qtest ~count:50 "snapshot/restore reproduces the replica" seed_gen (fun seed ->
        let original = loaded_replica seed 30 in
        let recovered = G.create (dummy_ctx 0) in
        P.restore recovered (P.snapshot original);
        Set_spec.equal_output (query original) (query recovered)
        && G.local_log original = G.local_log recovered);
    Alcotest.test_case "recovery resumes with a safe clock" `Quick (fun () ->
        let original = loaded_replica 3 10 in
        let recovered = G.create (dummy_ctx 0) in
        P.restore recovered (P.snapshot original);
        (* A post-recovery update must sort after everything restored. *)
        G.update recovered (Set_spec.Insert 99) ~on_done:ignore;
        let ts_of (ts, _, _) = ts in
        let log = G.local_log recovered in
        let last = List.nth log (List.length log - 1) in
        match List.find_opt (fun (_, _, u) -> u = Set_spec.Insert 99) log with
        | None -> Alcotest.fail "new update missing"
        | Some entry ->
          Alcotest.(check bool) "sorts last" true
            (Timestamp.equal (ts_of entry) (ts_of last)));
    Alcotest.test_case "empty log round-trips" `Quick (fun () ->
        let r = G.create (dummy_ctx 0) in
        let recovered = G.create (dummy_ctx 1) in
        P.restore recovered (P.snapshot r);
        Alcotest.(check int) "empty" 0 (List.length (G.local_log recovered)));
    Alcotest.test_case "corruption is detected" `Quick (fun () ->
        let s = P.snapshot (loaded_replica 7 10) in
        let flip i =
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
          Bytes.to_string b
        in
        List.iter
          (fun i ->
            Alcotest.(check bool)
              (Printf.sprintf "flip byte %d" i)
              true
              (try
                 ignore (P.decode_log (flip i));
                 false
               with Codec.Decode_error _ -> true))
          [ 0; 4; String.length s / 2 ]);
    Alcotest.test_case "truncation is detected" `Quick (fun () ->
        let s = P.snapshot (loaded_replica 7 10) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (P.decode_log (String.sub s 0 (String.length s - 3)));
             false
           with Codec.Decode_error _ -> true));
  ]
