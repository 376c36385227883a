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

  module Keys = Hashtbl.Make (Int)

  type t = {
    ctx : message Protocol.ctx;
    map : map;
    mutable instances : Inner.t option array;
    mutable epoch_seen : int;
    outbox : (int * Inner.message) Queue.t;
    keys : (One.update, A.state) Oplog.t Keys.t;
        (* One op-log per key, holding the very entries the shard logs
           hold: a keyed read replays its key's log alone. *)
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

  (* A key's log replays with the checkpoints and query cache of the
     default core, and counts into the replica's op-log profile as the
     shard logs do. *)
  let key_log t k =
    match Keys.find t.keys k with
    | log -> log
    | exception Not_found ->
      let { Generic.checkpoint_interval; query_cache; _ } = Generic.default in
      let log = Oplog.create ~checkpoint_interval ~query_cache () in
      (match t.ctx.Protocol.obs with
      | Some r -> Oplog.set_profile log (Some r.Obs.profile)
      | None -> ());
      Keys.add t.keys k log;
      log

  (* File an entry its shard log holds under its key too: the same
     record, so the second log costs a slot, not an entry. Idempotent,
     as the shard insert is. *)
  let land_key t (e : One.update Oplog.entry) =
    ignore (Oplog.insert (key_log t (fst e.Oplog.payload)) e : int)

  (* The key logs as a function of the shard logs, after a catch-up
     landed entries the replica lacked. *)
  let rebuild_keys t =
    Keys.reset t.keys;
    Array.iter
      (function
        | Some inst ->
          for i = 0 to Inner.log_length inst - 1 do
            land_key t (Inner.log_entry inst i)
          done
        | None -> ())
      t.instances

  (* Matched, not [Option.iter]ed: a closure over the instance would be
     allocated on every update and delivery, telemetry off or not. *)
  let set_log_gauge t s =
    match t.instances.(s) with
    | Some i when s < Array.length t.map.g.log_gauge -> (
      match t.map.g.log_gauge.(s) with
      | Some g -> Obs.Registry.set g (float_of_int (Inner.log_length i))
      | None -> ())
    | _ -> ()

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
        keys = Keys.create 64;
      }
    in
    (match map.policy with
    | Some p when not map.timer_armed ->
      map.timer_armed <- true;
      arm_policy t p
    | _ -> ());
    t

  (* A top-level loop over the keyed sub-updates: a [List.iter]
     closure over [t] would be allocated on every update. *)
  let rec fan_out t = function
    | [] -> ()
    | ((k, _) as ku) :: rest ->
      let s = Ring.route t.map.ring k in
      note_op t.map s;
      let inst = instance t s in
      Inner.update inst ku ~on_done:ignore;
      (* The clock it was stamped with passed every entry the shard
         holds, so the entry landed at the tail. *)
      land_key t (Inner.log_entry inst (Inner.log_length inst - 1));
      set_log_gauge t s;
      fan_out t rest

  let update t kus ~on_done =
    migrate t;
    fan_out t kus;
    flush t;
    on_done ()

  (* One message of a frame: its entry is built once, landed in the
     shard core its key routes to through the current ring (clock
     merge and insert) and filed under its key. *)
  let deliver t ~src (s_tag, m) =
    let e = Inner.entry_of_message ~src:((s_tag * t.ctx.Protocol.n) + src) m in
    let s = Ring.route t.map.ring (fst e.Oplog.payload) in
    Inner.receive_entry (instance t s) e;
    land_key t e;
    set_log_gauge t s

  let receive t ~src m =
    migrate t;
    deliver t ~src m;
    flush t

  (* A top-level loop, like [fan_out]. Landing an envelope message by
     message is landing it whole: the logs end as the timestamp union
     either way, and the clock merge is a max. *)
  let rec deliver_all t ~src = function
    | [] -> ()
    | m :: rest ->
      deliver t ~src m;
      deliver_all t ~src rest

  let receive_batch t ~src msgs =
    match msgs with
    | [] -> ()
    | msgs ->
      migrate t;
      deliver_all t ~src msgs;
      flush t

  let key_apply state ((_, u) : One.update) = A.apply state u

  (* Lines 14-17 for one key: replay its log alone, in the timestamp
     order the shard log keeps. Keys apart from [k] never touch [k]'s
     binding, so this is the shard fold's answer for [k]. *)
  let replay_key t log =
    let state, steps = Oplog.replay log ~apply:key_apply ~initial:A.initial in
    t.ctx.Protocol.count_replay steps;
    state

  (* Line 13: a query ticks the clock of every shard core it reads. *)
  let tick inst = Inner.advance_clock inst (Inner.clock_value inst + 1)

  let query t q ~on_result =
    migrate t;
    match q with
    | K.Read (k, bq) ->
      tick (instance t (Ring.route t.map.ring k));
      let state =
        match Keys.find t.keys k with
        | log -> replay_key t log
        | exception Not_found -> A.initial
      in
      on_result (K.Out (A.eval state bq))
    | K.Sweep ->
      List.iter (fun (_, inst) -> tick inst) (live_instances t);
      let merged =
        Keys.fold
          (fun k log acc -> Support.Int_map.add k (replay_key t log) acc)
          t.keys Support.Int_map.empty
      in
      on_result (K.eval merged K.Sweep)

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

  (* Proposition 4's witness, the timestamp-ordered update sequence, is
     a merge of the per-shard logs, each sorted already: a k-way merge
     reading them in place through [Inner.log_entry], O(entries x
     shards). It runs back to front, so the list is built in order and
     only the output is allocated. A timestamp tie (none arise: each
     core stamps with its own identity) goes to the lower shard, where
     a stable sort of the concatenated logs put it. *)
  let certificate t =
    migrate t;
    let cores = Array.of_list (List.map snd (live_instances t)) in
    let left = Array.map Inner.log_length cores in
    let n = t.ctx.Protocol.n in
    let last c = Inner.log_entry cores.(c) (left.(c) - 1) in
    let rec merge acc =
      let top = ref (-1) in
      for c = 0 to Array.length cores - 1 do
        if left.(c) > 0
           && (!top < 0 || Timestamp.compare (last c).Oplog.ts (last !top).Oplog.ts >= 0)
        then top := c
      done;
      if !top < 0 then acc
      else begin
        let e = last !top in
        left.(!top) <- left.(!top) - 1;
        merge ((e.Oplog.origin mod n, [ e.Oplog.payload ]) :: acc)
      end
    in
    Some (merge [])

  let shard_log_lengths t =
    List.map (fun (s, i) -> (s, Inner.log_length i)) (live_instances t)

  let shard_logs t =
    List.map (fun (s, i) -> (s, Inner.local_log i)) (live_instances t)

  let shard_clocks t =
    List.map (fun (s, i) -> (s, Inner.clock_value i)) (live_instances t)

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

  (* Every shard core is a [Generic.Make] log, which never compacts:
     its stability watermark, at or below which it refuses an entry,
     stays 0, in a live shard or a fresh one. *)
  let watermark = 0

  (* All or nothing: every shard frame, read in place, is checked in
     full (a shard id the ring has allocated, then header, log walk,
     checksum, and no entry at or below the watermark) before any is
     merged, so a refused UCX frame leaves every shard, and the set of
     shards, as it was. *)
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
            (s, Codec.Reader.nested r))
      in
      if not (Codec.Reader.at_end r) then
        raise (Codec.Decode_error "space snapshot: trailing bytes");
      List.for_all
        (fun (s, frame) ->
          s <= Ring.max_id t.map.ring
          && IC.frame_floor (Codec.Reader.fork frame) > watermark)
        frames
      && begin
        let grew = ref false in
        List.iter
          (fun (s, frame) ->
            let inst = instance t s in
            let before = Inner.log_length inst in
            let merged = IC.absorb_frame inst frame in
            assert merged;
            if Inner.log_length inst > before then grew := true;
            set_log_gauge t s)
          frames;
        if !grew then rebuild_keys t;
        true
      end
    with
    | merged -> merged
    | exception Codec.Decode_error _ -> false
end
