module Make
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) =
struct
  module K = Keyed.Batch (A)
  module OneC = Keyed.One_codec (A) (C)

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

  let create_map ?policy ?obs ~shards () =
    let ring = Ring.create ~shards () in
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

  (* The registry row counts only replicas with a telemetry handle
     [obs], so the unobserved ones a checker replays through the same
     map (the multicore bench's journal replay) stay out of it. *)
  let note_op m (obs : Obs.replica option) s =
    m.g.ops_total.(s) <- m.g.ops_total.(s) + 1;
    m.g.ops_window.(s) <- m.g.ops_window.(s) + 1;
    if Option.is_some obs then
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

  (* One keyed sub-update, stamped (clock, pid) by its sender's shard,
     in one flat record. The shard tag is the sender's routing decision;
     receivers re-route by key through the current ring, so the tag is
     advisory (wire size, diagnostics) and in-flight frames survive ring
     changes. *)
  type message = { shard : int; clock : int; pid : int; update : int * A.update }

  module Keys = Hashtbl.Make (Int)

  (* A shard of one replica: the Lamport clock its updates are stamped
     with, and how many entries of the keys homed in it the replica
     holds. The entries themselves are in the key logs. *)
  type shard = { clock : Lamport.t; mutable entries : int }

  type t = {
    ctx : message Protocol.ctx;
    map : map;
    mutable shards : shard option array;
    mutable epoch_seen : int;
    mutable homed : Ring.t;
        (* The map's ring at [epoch_seen]: every entry is counted in the
           shard this ring routes its key to. *)
    keys : (int * A.update, A.state) Oplog.t Keys.t;
        (* The replica's one copy of every entry: an op-log per key, in
           timestamp order. *)
  }

  let protocol_name = "sharded-universal"

  let shard t s =
    if s >= Array.length t.shards then
      t.shards <- grow_array t.shards (s + 1) None;
    match t.shards.(s) with
    | Some sh -> sh
    | None ->
      let sh = { clock = Lamport.create (); entries = 0 } in
      t.shards.(s) <- Some sh;
      sh

  let live_shards t =
    let acc = ref [] in
    Array.iteri
      (fun s -> function Some sh -> acc := (s, sh) :: !acc | None -> ())
      t.shards;
    List.rev !acc

  (* A key's log replays with the checkpoints and query cache of the
     default core, and counts into the replica's op-log profile. *)
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

  (* Matched, not [Option.iter]ed: a closure over the shard would be
     allocated on every update and delivery, telemetry off or not. *)
  let set_log_gauge t s =
    match t.shards.(s) with
    | Some sh when s < Array.length t.map.g.log_gauge -> (
      match t.map.g.log_gauge.(s) with
      | Some g -> Obs.Registry.set g (float_of_int sh.entries)
      | None -> ())
    | _ -> ()

  (* File an entry under its key, counted in shard [s] unless the key's
     log held it already: timestamps are unique run-wide, so an equal
     one is the same update again. *)
  let file t s sh ~clock ~pid ((k, _) as ku) =
    let log = key_log t k in
    let before = Oplog.length log in
    ignore (Oplog.insert log ~clock ~pid ku : int);
    sh.entries <- sh.entries + Oplog.length log - before;
    set_log_gauge t s

  (* Line 9 and the insert, for an entry of any origin: the shard its
     key routes to merges the entry's clock and counts the entry. *)
  let land_entry t ~clock ~pid ((k, _) as ku) =
    let s = Ring.route t.map.ring k in
    let sh = shard t s in
    Lamport.merge sh.clock clock;
    file t s sh ~clock ~pid ku

  (* A ring change re-homes the keys whose route moved. No entry moves:
     each stays in its key's log. The key's entries are counted in its
     new shard instead of its old one, and the new shard's clock passes
     the key's last entry, so the next stamp there sorts after every
     entry of the keys it took over. *)
  let migrate t =
    if t.epoch_seen <> t.map.epoch then begin
      t.epoch_seen <- t.map.epoch;
      let homed = t.homed and ring = t.map.ring in
      t.homed <- ring;
      let moved = ref 0 in
      Keys.iter
        (fun k log ->
          let from = Ring.route homed k and into = Ring.route ring k in
          if from <> into then begin
            let len = Oplog.length log in
            let source = shard t from and target = shard t into in
            source.entries <- source.entries - len;
            target.entries <- target.entries + len;
            Lamport.merge target.clock (Oplog.clock log (len - 1));
            moved := !moved + len;
            set_log_gauge t into
          end)
        t.keys;
      if !moved > 0 then note_moved t.map !moved
    end

  let force_migrate = migrate

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
                      (if s < Array.length t.shards then t.shards.(s) else None)
                    with
                   | Some sh -> sh.entries
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
        shards = Array.make (Ring.max_id map.ring + 1) None;
        epoch_seen = map.epoch;
        homed = map.ring;
        keys = Keys.create 64;
      }
    in
    (match map.policy with
    | Some p when not map.timer_armed ->
      map.timer_armed <- true;
      arm_policy t p
    | _ -> ());
    t

  (* Lines 5-6 for one keyed sub-update: the shard its key routes to
     ticks its clock and stamps the entry with the encoded identity
     [shard * n + pid]; the entry lands at its key log's tail, since
     that clock passed every entry of the shard's keys. The message is
     the one allocation. *)
  let stamp t ((k, _) as ku) =
    let s = Ring.route t.map.ring k in
    note_op t.map t.ctx.Protocol.obs s;
    let sh = shard t s in
    let pid = (s * t.ctx.Protocol.n) + t.ctx.Protocol.pid in
    let clock = Lamport.tick sh.clock in
    file t s sh ~clock ~pid ku;
    { shard = s; clock; pid; update = ku }

  (* A top-level loop, so no closure over [t] is allocated per update:
     each sub-update is stamped before the ones after it, and the
     envelope comes out in the batch's order with one cons a message. *)
  let rec fan_out t = function
    | [] -> []
    | ku :: rest ->
      let m = stamp t ku in
      m :: fan_out t rest

  (* A single-key update broadcasts its message alone; a batch leaves
     as one envelope, whatever shards it touched. *)
  let update t kus ~on_done =
    migrate t;
    (match kus with
    | [] -> ()
    | [ ku ] -> t.ctx.Protocol.broadcast (stamp t ku)
    | kus -> t.ctx.Protocol.broadcast_batch (fan_out t kus));
    on_done ()

  let deliver t (m : message) = land_entry t ~clock:m.clock ~pid:m.pid m.update

  let receive t ~src:_ m =
    migrate t;
    deliver t m

  (* A top-level loop, like [fan_out]. Landing an envelope message by
     message is landing it whole: the logs end as the timestamp union
     either way, and the clock merge is a max. *)
  let rec deliver_all t = function
    | [] -> ()
    | m :: rest ->
      deliver t m;
      deliver_all t rest

  let receive_batch t ~src:_ msgs =
    match msgs with
    | [] -> ()
    | msgs ->
      migrate t;
      deliver_all t msgs

  let key_apply state ((_, u) : int * A.update) = A.apply state u

  (* Lines 14-17 for one key: replay its log alone, in timestamp order.
     Keys apart from [k] never touch [k]'s binding, so this is the
     whole space's fold read at [k]. *)
  let replay_key t log =
    let state, steps = Oplog.replay log ~apply:key_apply ~initial:A.initial in
    t.ctx.Protocol.count_replay steps;
    state

  (* What [K.eval] answers a [Sweep] on the keyed fold: every key's
     state, in key order, leaving out those equal to [A.initial]. The
     key ids are sorted in an int array and the answer is prepended from
     the highest key down, so no map is built and none filtered. The
     merge sort's scratch is half the array; [Array.sort]'s heap sort
     raises an exception as it sifts, and allocates more. *)
  let sweep t =
    let keys = Array.make (Keys.length t.keys) 0 in
    let filled = ref 0 in
    Keys.iter
      (fun k _ ->
        keys.(!filled) <- k;
        incr filled)
      t.keys;
    Array.stable_sort Int.compare keys;
    let states = ref [] in
    for i = Array.length keys - 1 downto 0 do
      let k = keys.(i) in
      let state = replay_key t (Keys.find t.keys k) in
      if not (A.equal_state state A.initial) then states := (k, state) :: !states
    done;
    !states

  (* Line 13: a query ticks the clock of every shard it reads. *)
  let tick sh = ignore (Lamport.tick sh.clock : int)

  let query t q ~on_result =
    migrate t;
    match q with
    | K.Read (k, bq) ->
      tick (shard t (Ring.route t.map.ring k));
      let state =
        match Keys.find t.keys k with
        | log -> replay_key t log
        | exception Not_found -> A.initial
      in
      on_result (K.Out (A.eval state bq))
    | K.Sweep ->
      Array.iter (function Some sh -> tick sh | None -> ()) t.shards;
      on_result (K.States (sweep t))

  let keyed_wire_size (k, u) = Wire.varint_size k + A.update_wire_size u

  (* A message is charged and rendered as the shard tag, the (clock,
     pid) timestamp and the keyed update: the byte counts and traces
     the pins fix. *)
  let message_wire_size (m : message) =
    Wire.varint_size m.shard + Wire.pair_size m.clock m.pid + keyed_wire_size m.update

  let describe_message (m : message) =
    let k, u = m.update in
    Printf.sprintf "s%d:%s" m.shard
      (Format.asprintf "%d:=%a%a" k A.pp_update u Timestamp.pp
         (Timestamp.make ~clock:m.clock ~pid:m.pid))

  let log_length t =
    Array.fold_left
      (fun acc -> function Some sh -> acc + sh.entries | None -> acc)
      0 t.shards

  let metadata_bytes t =
    Keys.fold
      (fun _ log acc -> acc + Oplog.footprint log ~payload_wire_size:keyed_wire_size)
      t.keys 0

  (* The key logs merged from the top ({!Oplog.fold_down_merged}): [f]
     folds over every entry the replica holds, latest first. *)
  let fold_down t f init =
    let logs = ref [||] and filled = ref 0 in
    Keys.iter
      (fun _ log ->
        if !filled = 0 then logs := Array.make (Keys.length t.keys) log;
        !logs.(!filled) <- log;
        incr filled)
      t.keys;
    Oplog.fold_down_merged f init !logs

  (* Proposition 4's witness, the timestamp-ordered update sequence:
     the key logs' merge, folded from the top. Each entry is handed to
     [f] as a singleton batch, the only allocation per entry (3
     words). *)
  let certificate t f init =
    migrate t;
    let n = t.ctx.Protocol.n in
    Some (fold_down t (fun acc _ pid ku -> f (pid mod n) [ ku ] acc) init)

  (* Every shard's entries, (timestamp, encoded pid, keyed update) in
     timestamp order: the key logs' merge, dealt to the shards the keys
     are homed in. *)
  let shard_entries t =
    let by_shard = Array.make (Array.length t.shards) [] in
    fold_down t
      (fun () clock pid ((k, _) as ku) ->
        let s = Ring.route t.homed k in
        by_shard.(s) <- (Timestamp.make ~clock ~pid, pid, ku) :: by_shard.(s))
      ();
    by_shard

  let shard_log_lengths t = List.map (fun (s, sh) -> (s, sh.entries)) (live_shards t)

  let shard_logs t =
    let entries = shard_entries t in
    List.map (fun (s, _) -> (s, entries.(s))) (live_shards t)

  let shard_clocks t =
    List.map (fun (s, sh) -> (s, Lamport.value sh.clock)) (live_shards t)

  (* Churn catch-up over the whole space: the donor writes every live
     shard's "UCS" frame (its clock and its entries' "UCL" log frame)
     into one "UCX" frame (shard id + "UCS" frame each). It migrates
     first, so every entry of a frame routes to the shard it names. *)
  let snapshot t =
    migrate t;
    let entries = shard_entries t in
    let frames =
      List.map
        (fun (s, sh) ->
          ( s,
            Persist.replica_frame ~clock:(Lamport.value sh.clock)
              (Oplog.encode_list ~encode_update:OneC.encode entries.(s)) ))
        (live_shards t)
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

  (* The key logs never compact: the stability watermark, at or below
     which a log refuses an entry, stays 0. *)
  let watermark = 0

  (* All or nothing: every shard frame, read in place, is checked in
     full (a shard id the ring has allocated, then header, log walk,
     checksum, and no entry at or below the watermark) before any is
     merged, so a refused UCX frame leaves every key log, every shard,
     and the set of shards as it was. A frame's entries then land as
     deliveries do, each under its key and in the shard its key routes
     to, and the shard the frame names raises its clock to the
     frame's. *)
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
          &&
          let _, log = Persist.open_replica (Codec.Reader.fork frame) in
          Oplog.frame_floor ~decode_update:OneC.decode log > watermark)
        frames
      && begin
        List.iter
          (fun (s, frame) ->
            let clock, log = Persist.open_replica frame in
            let named = shard t s in
            List.iter
              (fun (ts, _, ku) ->
                land_entry t ~clock:ts.Timestamp.clock ~pid:ts.Timestamp.pid ku)
              (Oplog.decode_list ~decode_update:OneC.decode log);
            Lamport.merge named.clock clock;
            set_log_gauge t s)
          frames;
        true
      end
    with
    | merged -> merged
    | exception Codec.Decode_error _ -> false
end
