module Make
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) =
struct
  module K = Keyed.Batch (A)
  module One = Keyed.One (A)
  module OneC = Keyed.One_codec (A) (C)
  module Inner = Generic.Make (One)
  module IC = Persist.Catchup (Inner) (OneC)

  type policy = { interval : float; hot_factor : float; max_shards : int }

  type gauges = {
    mutable ops_total : int array;  (* cumulative updates routed, by shard *)
    mutable ops_window : int array;  (* since the last policy check *)
    mutable splits : int array;  (* times this shard was split *)
    mutable ops_ctr : Obs.Registry.counter option array;
    mutable log_gauge : Obs.Registry.gauge option array;
    mutable split_ctr : Obs.Registry.counter option array;
  }

  type map = {
    mutable ring : Ring.t;
    mutable epoch : int;
    policy : policy option;
    obs : Obs.t option;
    g : gauges;
    mutable rebalances : int;
    mutable moved : int;
    moved_ctr : Obs.Registry.counter option;
    mutable timer_armed : bool;
    mutable idle_windows : int;
  }

  let grow_array a len fill =
    if Array.length a >= len then a
    else begin
      let a' = Array.make (max len (2 * Array.length a)) fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end

  let shard_handles obs id =
    let labels = [ ("shard", string_of_int id) ] in
    ( Obs.Registry.counter obs.Obs.registry ~labels "shard_ops",
      Obs.Registry.gauge obs.Obs.registry ~labels "shard_log_entries",
      Obs.Registry.counter obs.Obs.registry ~labels "shard_splits" )

  (* Registry handles are created here, single-threaded — during a
     parallel run the map only increments existing handles. *)
  let ensure_shard m id =
    let g = m.g in
    if id >= Array.length g.ops_total then begin
      g.ops_total <- grow_array g.ops_total (id + 1) 0;
      g.ops_window <- grow_array g.ops_window (id + 1) 0;
      g.splits <- grow_array g.splits (id + 1) 0;
      g.ops_ctr <- grow_array g.ops_ctr (id + 1) None;
      g.log_gauge <- grow_array g.log_gauge (id + 1) None;
      g.split_ctr <- grow_array g.split_ctr (id + 1) None
    end;
    match (m.obs, g.ops_ctr.(id)) with
    | Some obs, None ->
      let ops, log, split = shard_handles obs id in
      g.ops_ctr.(id) <- Some ops;
      g.log_gauge.(id) <- Some log;
      g.split_ctr.(id) <- Some split
    | _ -> ()

  let create_map ?(vnodes = 64) ?policy ?obs ~shards () =
    let ring = Ring.create ~vnodes ~shards () in
    let cap = shards in
    let m =
      {
        ring;
        epoch = 0;
        policy;
        obs = None;
        g =
          {
            ops_total = Array.make cap 0;
            ops_window = Array.make cap 0;
            splits = Array.make cap 0;
            ops_ctr = Array.make cap None;
            log_gauge = Array.make cap None;
            split_ctr = Array.make cap None;
          };
        rebalances = 0;
        moved = 0;
        moved_ctr = None;
        timer_armed = false;
        idle_windows = 0;
      }
    in
    let m =
      match obs with
      | None -> m
      | Some o ->
        {
          m with
          obs;
          moved_ctr =
            Some (Obs.Registry.counter o.Obs.registry "shard_moved_entries");
        }
    in
    List.iter (ensure_shard m) (Ring.shard_ids ring);
    m

  let ring m = m.ring

  let epoch m = m.epoch

  let rebalances m = m.rebalances

  let moved_entries m = m.moved

  let shard_ops m =
    List.map (fun s -> (s, m.g.ops_total.(s))) (Ring.shard_ids m.ring)

  (* Soak-sampler probe over the live map: cumulative routed updates
     plus the per-tick delta (the op rate) for every shard on the
     ring. Stateful — each call's delta baseline is the previous
     call's totals — so create one probe per sampler. *)
  let series_probe m =
    let last = Hashtbl.create 16 in
    fun () ->
      List.concat_map
        (fun (s, total) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt last s) in
          Hashtbl.replace last s total;
          let labels = [ ("shard", string_of_int s) ] in
          [
            ("shard_ops", labels, float_of_int total);
            ("shard_op_rate", labels, float_of_int (total - prev));
          ])
        (shard_ops m)

  let journal_event m ev =
    match m.obs with
    | Some { Obs.journal = Some j; _ } -> Obs.Journal.record j ev
    | _ -> ()

  let note_op m s =
    m.g.ops_total.(s) <- m.g.ops_total.(s) + 1;
    m.g.ops_window.(s) <- m.g.ops_window.(s) + 1;
    Option.iter (fun c -> Obs.Registry.inc c) m.g.ops_ctr.(s)

  let note_moved m count =
    m.moved <- m.moved + count;
    Option.iter (fun c -> Obs.Registry.inc ~by:count c) m.moved_ctr

  let split_hot m ~now ~hot =
    let ring', fresh = Ring.split m.ring ~hot in
    m.ring <- ring';
    m.epoch <- m.epoch + 1;
    m.rebalances <- m.rebalances + 1;
    m.g.splits.(hot) <- m.g.splits.(hot) + 1;
    Option.iter (fun c -> Obs.Registry.inc c) m.g.split_ctr.(hot);
    ensure_shard m fresh;
    journal_event m
      (Obs.Journal.Rebalance
         { time = now; hot; fresh; shards = Ring.shards ring'; moved = 0 });
    fresh

  let trigger_split m ~now ~hot = split_hot m ~now ~hot

  (* The shared map every [create] consults, set per run by
     [configure]. The map is run state, not configuration, and
     [Protocol.PROTOCOL.create] receives only its context, so a
     process-wide cell is the one way in; it is the last module-level
     ref under lib/. *)
  let current_map : map option ref = ref None

  let configure m = current_map := Some m

  include K

  type message = int * Inner.message
  (* The shard tag is the sender's routing decision; receivers re-route
     by key through the current ring, so the tag is advisory (origin
     encoding, diagnostics) and in-flight frames survive ring changes. *)

  type t = {
    ctx : message Protocol.ctx;
    map : map;
    mutable instances : Inner.t option array;
    mutable epoch_seen : int;
    outbox : (int * Inner.message) Queue.t;
  }

  let protocol_name = "sharded-universal"

  let inner_ctx t s : Inner.message Protocol.ctx =
    {
      Protocol.pid = (s * t.ctx.Protocol.n) + t.ctx.Protocol.pid;
      n = t.ctx.Protocol.n;
      now = t.ctx.Protocol.now;
      send = (fun ~dst m -> t.ctx.Protocol.send ~dst (s, m));
      broadcast = (fun m -> Queue.add (s, m) t.outbox);
      broadcast_batch =
        (fun ms -> List.iter (fun m -> Queue.add (s, m) t.outbox) ms);
      set_timer = t.ctx.Protocol.set_timer;
      count_replay = t.ctx.Protocol.count_replay;
      obs = t.ctx.Protocol.obs;
    }

  let instance t s =
    if s >= Array.length t.instances then
      t.instances <- grow_array t.instances (s + 1) None;
    match t.instances.(s) with
    | Some i -> i
    | None ->
      let i = Inner.create (inner_ctx t s) in
      t.instances.(s) <- Some i;
      i

  let live_instances t =
    let acc = ref [] in
    Array.iteri
      (fun s -> function Some i -> acc := (s, i) :: !acc | None -> ())
      t.instances;
    List.rev !acc

  let set_log_gauge t s =
    match t.instances.(s) with
    | Some i ->
      Option.iter
        (fun g -> Obs.Registry.set g (float_of_int (Inner.log_length i)))
        (if s < Array.length t.map.g.log_gauge then t.map.g.log_gauge.(s)
         else None)
    | None -> ()

  (* A migration frame is exactly the churn catch-up snapshot of the
     moved entries: the "UCS" replica frame [Persist] writes (clock +
     "UCL" log), absorbed by the target through [IC.absorb]'s
     timestamp-union merge. Shard moves ride the Join/Rejoin
     machinery, they do not reimplement it. *)
  let ucs_frame ~clock entries =
    let log = Oplog.encode_list ~encode_update:OneC.encode entries in
    let w = Codec.Writer.create ~size:(String.length log + 24) () in
    String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) "UCS";
    Codec.Writer.u8 w 1;
    Codec.Writer.varint w clock;
    Codec.Writer.byte_string w log;
    Codec.Writer.contents w

  let migrate t =
    if t.epoch_seen <> t.map.epoch then begin
      t.epoch_seen <- t.map.epoch;
      let ring = t.map.ring in
      let by_target = Hashtbl.create 8 in
      let moved_count = ref 0 in
      List.iter
        (fun (s, inst) ->
          let keep, move =
            List.partition
              (fun (_, _, (k, _)) -> Ring.route ring k = s)
              (Inner.local_log inst)
          in
          if move <> [] then begin
            Inner.restore_log inst keep;
            moved_count := !moved_count + List.length move;
            List.iter
              (fun ((_, _, (k, _)) as e) ->
                let target = Ring.route ring k in
                Hashtbl.replace by_target target
                  (e
                  :: Option.value ~default:[]
                       (Hashtbl.find_opt by_target target)))
              move
          end)
        (live_instances t);
      let targets =
        Hashtbl.fold (fun s es acc -> (s, es) :: acc) by_target []
        |> List.sort compare
      in
      List.iter
        (fun (s, entries) ->
          let clock =
            List.fold_left
              (fun acc (ts, _, _) -> max acc ts.Timestamp.clock)
              0 entries
          in
          let absorbed = IC.absorb (instance t s) (ucs_frame ~clock entries) in
          assert absorbed;
          set_log_gauge t s)
        targets;
      if !moved_count > 0 then note_moved t.map !moved_count
    end

  let force_migrate = migrate

  (* Flush the frames an operation buffered — across however many
     shards it touched — as one envelope. *)
  let flush t =
    match Queue.length t.outbox with
    | 0 -> ()
    | 1 -> t.ctx.Protocol.broadcast (Queue.pop t.outbox)
    | _ ->
      let ms = ref [] in
      while not (Queue.is_empty t.outbox) do
        ms := Queue.pop t.outbox :: !ms
      done;
      t.ctx.Protocol.broadcast_batch (List.rev !ms)

  (* Hot-shard policy: every [interval], split the hottest shard when
     its window share exceeds [hot_factor] x the mean. The timer stops
     re-arming after two idle windows so the run can quiesce. *)
  let rec arm_policy t p =
    t.ctx.Protocol.set_timer ~delay:p.interval (fun () -> policy_check t p)

  and policy_check t p =
    let m = t.map in
    let ids = Ring.shard_ids m.ring in
    let total = List.fold_left (fun acc s -> acc + m.g.ops_window.(s)) 0 ids in
    if total = 0 then begin
      m.idle_windows <- m.idle_windows + 1;
      if m.idle_windows < 2 then arm_policy t p
    end
    else begin
      m.idle_windows <- 0;
      let now = t.ctx.Protocol.now () in
      List.iter
        (fun s ->
          journal_event m
            (Obs.Journal.Shard
               {
                 time = now;
                 shard = s;
                 ops = m.g.ops_window.(s);
                 log =
                   (match
                      (if s < Array.length t.instances then t.instances.(s)
                       else None)
                    with
                   | Some i -> Inner.log_length i
                   | None -> 0);
               }))
        ids;
      let shards = Ring.shards m.ring in
      let hot =
        List.fold_left
          (fun best s ->
            if m.g.ops_window.(s) > m.g.ops_window.(best) then s else best)
          (List.hd ids) ids
      in
      let mean = float_of_int total /. float_of_int shards in
      if
        shards < p.max_shards
        && total >= 2 * shards
        && float_of_int m.g.ops_window.(hot) > p.hot_factor *. mean
      then begin
        let _fresh = split_hot m ~now ~hot in
        migrate t
      end;
      List.iter (fun s -> m.g.ops_window.(s) <- 0) ids;
      arm_policy t p
    end

  let create ctx =
    let map =
      match !current_map with
      | Some m -> m
      | None ->
        invalid_arg "Space.create: configure a shard map before replicas"
    in
    let t =
      {
        ctx;
        map;
        instances = Array.make (Ring.max_id map.ring + 1) None;
        epoch_seen = map.epoch;
        outbox = Queue.create ();
      }
    in
    (match map.policy with
    | Some p when not map.timer_armed ->
      map.timer_armed <- true;
      arm_policy t p
    | _ -> ());
    t

  let update t kus ~on_done =
    migrate t;
    List.iter
      (fun ((k, _) as ku) ->
        let s = Ring.route t.map.ring k in
        note_op t.map s;
        Inner.update (instance t s) ku ~on_done:(fun () -> ());
        set_log_gauge t s)
      kus;
    flush t;
    on_done ()

  let receive t ~src (s_tag, m) =
    migrate t;
    let k, _ = Inner.message_update m in
    let s = Ring.route t.map.ring k in
    Inner.receive (instance t s) ~src:((s_tag * t.ctx.Protocol.n) + src) m;
    set_log_gauge t s;
    flush t

  let receive_batch t ~src msgs =
    match msgs with
    | [] -> ()
    | [ m ] -> receive t ~src m
    | msgs ->
      migrate t;
      (* Route the whole envelope once, grouping by (shard, epoch tag)
         with arrival order kept inside each group, so every per-shard
         Algorithm 1 core sees one merged batch. Distinct groups
         commute — they land either on different cores or in the same
         timestamp-ordered log under distinct origin encodings — so
         regrouping preserves equivalence with per-message delivery.
         Shard gauges are settled once per touched shard and the
         outbox flushed once for the whole envelope. *)
      let groups = ref [] and touched = ref [] in
      List.iter
        (fun (s_tag, m) ->
          let k, _ = Inner.message_update m in
          let s = Ring.route t.map.ring k in
          match List.assoc_opt (s, s_tag) !groups with
          | Some r -> r := m :: !r
          | None ->
            groups := ((s, s_tag), ref [ m ]) :: !groups;
            if not (List.mem s !touched) then touched := s :: !touched)
        msgs;
      List.iter
        (fun ((s, s_tag), r) ->
          Inner.receive_batch (instance t s)
            ~src:((s_tag * t.ctx.Protocol.n) + src)
            (List.rev !r))
        (List.rev !groups);
      List.iter (fun s -> set_log_gauge t s) (List.rev !touched);
      flush t

  let merged_state t =
    List.fold_left
      (fun acc (_, inst) ->
        let m = ref Support.Int_map.empty in
        Inner.query inst () ~on_result:(fun st -> m := st);
        Support.Int_map.fold Support.Int_map.add !m acc)
      Support.Int_map.empty (live_instances t)

  let query t q ~on_result =
    migrate t;
    match q with
    | K.Read (k, bq) ->
      let s = Ring.route t.map.ring k in
      Inner.query (instance t s) () ~on_result:(fun m ->
          on_result (K.Out (K.eval_key m k bq)))
    | K.Sweep -> on_result (K.eval (merged_state t) K.Sweep)

  let message_wire_size (s, m) =
    Wire.varint_size s + Inner.message_wire_size m

  let describe_message (s, m) =
    Printf.sprintf "s%d:%s" s (Inner.describe_message m)

  let log_length t =
    List.fold_left (fun acc (_, i) -> acc + Inner.log_length i) 0
      (live_instances t)

  let metadata_bytes t =
    List.fold_left (fun acc (_, i) -> acc + Inner.metadata_bytes i) 0
      (live_instances t)

  let merged_log t =
    List.concat_map (fun (_, i) -> Inner.local_log i) (live_instances t)
    |> List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b)

  let certificate t =
    migrate t;
    Some
      (List.map
         (fun (_, origin, ku) -> (origin mod t.ctx.Protocol.n, [ ku ]))
         (merged_log t))

  let shard_log_lengths t =
    List.map (fun (s, i) -> (s, Inner.log_length i)) (live_instances t)

  let shard_logs t =
    List.map (fun (s, i) -> (s, Inner.local_log i)) (live_instances t)

  (* Churn catch-up over the whole space: the donor snapshots every
     shard ("UCX": shard id + "UCS" frame each); the absorber merges
     shard by shard through the same path migrations use. *)
  let snapshot t =
    migrate t;
    let shards = live_instances t in
    let frames =
      List.map
        (fun (s, inst) ->
          match IC.snapshot inst with
          | Some frame -> (s, frame)
          | None -> assert false)
        shards
    in
    let size =
      List.fold_left (fun a (_, f) -> a + String.length f + 16) 8 frames
    in
    let w = Codec.Writer.create ~size () in
    String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) "UCX";
    Codec.Writer.u8 w 1;
    Codec.Writer.varint w (List.length frames);
    List.iter
      (fun (s, frame) ->
        Codec.Writer.varint w s;
        Codec.Writer.byte_string w frame)
      frames;
    Some (Codec.Writer.contents w)

  let absorb t bytes =
    migrate t;
    match
      let r = Codec.Reader.of_string bytes in
      String.iter
        (fun c ->
          if Codec.Reader.u8 r <> Char.code c then
            raise (Codec.Decode_error "space snapshot: bad magic"))
        "UCX";
      if Codec.Reader.u8 r <> 1 then
        raise (Codec.Decode_error "space snapshot: unsupported version");
      let count = Codec.Reader.varint r in
      let frames =
        List.init count (fun _ ->
            let s = Codec.Reader.varint r in
            (s, Codec.Reader.byte_string r))
      in
      if not (Codec.Reader.at_end r) then
        raise (Codec.Decode_error "space snapshot: trailing bytes");
      frames
    with
    | exception Codec.Decode_error _ -> false
    | frames ->
      List.for_all
        (fun (s, frame) ->
          let ok = IC.absorb (instance t s) frame in
          if ok then set_log_gauge t s;
          ok)
        frames
end
