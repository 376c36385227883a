type ('u, 'q) t = ('u, 'q) Protocol.invocation list array

module Make (A : Uqadt.S) = struct
  let mixed ~rng ~n ~ops_per_process ~query_ratio =
    Array.init n (fun _ ->
        List.init ops_per_process (fun _ ->
            if Prng.float rng 1.0 < query_ratio then
              Protocol.Invoke_query (A.random_query rng)
            else Protocol.Invoke_update (A.random_update rng)))

  let updates_only ~rng ~n ~ops_per_process =
    Array.init n (fun _ ->
        List.init ops_per_process (fun _ -> Protocol.Invoke_update (A.random_update rng)))

  let query_heavy ~rng ~n ~updates ~queries_per_process =
    Array.init n (fun p ->
        let reads =
          List.init queries_per_process (fun _ -> Protocol.Invoke_query (A.random_query rng))
        in
        if p = 0 then
          List.init updates (fun _ -> Protocol.Invoke_update (A.random_update rng)) @ reads
        else reads)
end

module For_set = struct
  let conflict ~rng ~n ~ops_per_process ~domain ~skew ~delete_ratio =
    let zipf = Zipf.create ~n:domain ~s:skew in
    Array.init n (fun _ ->
        List.init ops_per_process (fun _ ->
            let v = Zipf.sample zipf rng in
            if Prng.float rng 1.0 < delete_ratio then
              Protocol.Invoke_update (Set_spec.Delete v)
            else Protocol.Invoke_update (Set_spec.Insert v)))

  let insert_delete_race ~n =
    Array.init n (fun i ->
        Protocol.Invoke_update (Set_spec.Insert i)
        :: List.filter_map
             (fun j -> if j <> i then Some (Protocol.Invoke_update (Set_spec.Delete j)) else None)
             (List.init n Fun.id)
        @ [ Protocol.Invoke_query Set_spec.Read ])

  let fig2_program () =
    [|
      [
        Protocol.Invoke_update (Set_spec.Insert 1);
        Protocol.Invoke_update (Set_spec.Insert 3);
        Protocol.Invoke_query Set_spec.Read;
        Protocol.Invoke_query Set_spec.Read;
      ];
      [
        Protocol.Invoke_update (Set_spec.Insert 2);
        Protocol.Invoke_update (Set_spec.Delete 3);
        Protocol.Invoke_query Set_spec.Read;
        Protocol.Invoke_query Set_spec.Read;
      ];
    |]
end

(* Flash-crowd load shapes for the open-loop client driver (C8): a
   warm-up at the base rate, a spike at the peak rate, a cool-down back
   at base. *)
module Flash_crowd = struct
  let plan ~base ~peak ~warm ~spike ~cool =
    [
      { Clients.duration = warm; rate = base };
      { Clients.duration = spike; rate = peak };
      { Clients.duration = cool; rate = base };
    ]

  let set_mix ~domain ~skew ~delete_ratio ~query_ratio =
    let zipf = Zipf.create ~n:domain ~s:skew in
    fun rng ->
      if Prng.float rng 1.0 < query_ratio then
        Protocol.Invoke_query Set_spec.Read
      else begin
        let v = Zipf.sample zipf rng in
        if Prng.float rng 1.0 < delete_ratio then
          Protocol.Invoke_update (Set_spec.Delete v)
        else Protocol.Invoke_update (Set_spec.Insert v)
      end
end

(* Zipf-skewed multi-key operation streams for the sharded object
   space. Generic over the base ADT through callbacks (the keyed spec
   lives in the shard layer, above this library): [update]/[query] draw
   base operations, [read] wraps a keyed read into the space's query
   type. Keys are Zipf ranks shifted to [0, keys): rank 1 — the hottest
   key — is key 0, so high skew concentrates load on whatever shard
   owns key 0, which is exactly the hot-shard regime rebalancing is
   for. Explicit loops: the draw order is part of the determinism
   contract, and [List.init]'s evaluation order is not. *)
module For_space = struct
  let batch ~zipf ~fanout ~update g =
    let width = if fanout <= 1 then 1 else 1 + Prng.int g fanout in
    let acc = ref [] in
    for _ = 1 to width do
      let k = Zipf.sample zipf g - 1 in
      let u = update g in
      acc := (k, u) :: !acc
    done;
    List.rev !acc

  let zipf_scripts ~rng ~n ~ops_per_process ~keys ~skew ~fanout ~query_ratio
      ~update ~query ~read =
    let zipf = Zipf.create ~n:keys ~s:skew in
    let script () =
      let acc = ref [] in
      for _ = 1 to ops_per_process do
        let inv =
          if query_ratio > 0.0 && Prng.float rng 1.0 < query_ratio then
            Protocol.Invoke_query (read (Zipf.sample zipf rng - 1) (query rng))
          else Protocol.Invoke_update (batch ~zipf ~fanout ~update rng)
        in
        acc := inv :: !acc
      done;
      List.rev !acc
    in
    let scripts = Array.make n [] in
    for p = 0 to n - 1 do
      scripts.(p) <- script ()
    done;
    scripts
end

module For_memory = struct
  let random_writes ~rng ~n ~ops_per_process ~registers ~read_ratio =
    Array.init n (fun _ ->
        List.init ops_per_process (fun _ ->
            let x = Prng.int rng registers in
            if Prng.float rng 1.0 < read_ratio then
              Protocol.Invoke_query (Memory_spec.Read x)
            else Protocol.Invoke_update (Memory_spec.Write (x, Prng.int rng 1000))))
end

module For_text = struct
  let collaborative ~rng ~n ~edits_per_process =
    Array.init n (fun _ ->
        List.init edits_per_process (fun _ ->
            let pos = Prng.int rng 40 in
            match Prng.int rng 4 with
            | 0 -> Protocol.Invoke_update (Text_spec.Delete pos)
            | _ ->
              let c = Char.chr (Char.code 'a' + Prng.int rng 26) in
              Protocol.Invoke_update (Text_spec.Insert (pos, c))))
end

module For_counter = struct
  let deposits_and_withdrawals ~rng ~n ~ops_per_process ~max_amount =
    Array.init n (fun _ ->
        List.init ops_per_process (fun _ ->
            let amount = 1 + Prng.int rng max_amount in
            let signed = if Prng.int rng 3 = 0 then -amount else amount in
            Protocol.Invoke_update (Counter_spec.Add signed)))

  let increments_only ~rng ~n ~ops_per_process ~max_amount =
    Array.init n (fun _ ->
        List.init ops_per_process (fun _ ->
            Protocol.Invoke_update (Counter_spec.Add (1 + Prng.int rng max_amount))))
end
