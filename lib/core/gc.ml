module Make (A : Uqadt.S) = struct
  include A

  type message =
    | Update of { ts : Timestamp.t; update : A.update }
    | Heartbeat of { clock : int }

  type t = {
    ctx : message Protocol.ctx;
    clock : Lamport.t;
    tail : (A.update, A.state) Oplog.t;  (* live suffix, after the snapshot *)
    mutable snapshot : A.state;
    mutable compacted : int;
    heard : int array;  (* highest clock heard from each process *)
    mutable received_since_send : int;
  }

  let protocol_name = "universal-gc"

  let heartbeat_every = 8

  let create ctx =
    let t =
      {
        ctx;
        clock = Lamport.create ();
        tail = Oplog.create ();
        snapshot = A.initial;
        compacted = 0;
        heard = Array.make ctx.Protocol.n 0;
        received_since_send = 0;
      }
    in
    Option.iter
      (fun (r : Obs.replica) -> Oplog.set_profile t.tail (Some r.profile))
      ctx.Protocol.obs;
    t

  (* The oplog's stability watermark is this replica's snapshot clock:
     every entry with clock <= watermark has been folded out. *)
  let snapshot_clock t = Oplog.watermark t.tail

  let insert t ts origin u =
    if ts.Timestamp.clock <= snapshot_clock t then
      (* Unreachable by the stability argument; a violation would mean
         the pruning rule is wrong, so fail loudly rather than corrupt
         the linearization. *)
      invalid_arg "Gc: received an update below the stability bound";
    ignore (Oplog.insert t.tail { Oplog.ts; origin; payload = u })

  (* Fold the stable prefix of the tail into the snapshot. *)
  let compact t =
    let bound = Array.fold_left min max_int t.heard in
    if bound > snapshot_clock t then begin
      let snapshot, folded =
        Oplog.compact t.tail ~upto_clock:bound ~apply:A.apply t.snapshot
      in
      t.snapshot <- snapshot;
      t.compacted <- t.compacted + folded
    end

  let note_heard t pid clock = if clock > t.heard.(pid) then t.heard.(pid) <- clock

  let update t u ~on_done =
    let cl = Lamport.tick t.clock in
    let ts = Timestamp.make ~clock:cl ~pid:t.ctx.Protocol.pid in
    note_heard t t.ctx.Protocol.pid cl;
    insert t ts t.ctx.Protocol.pid u;
    t.ctx.Protocol.broadcast (Update { ts; update = u });
    t.received_since_send <- 0;
    compact t;
    on_done ()

  let receive t ~src msg =
    (match msg with
    | Update { ts; update = u } ->
      Lamport.merge t.clock ts.Timestamp.clock;
      note_heard t src ts.Timestamp.clock;
      insert t ts src u;
      t.received_since_send <- t.received_since_send + 1;
      if t.received_since_send >= heartbeat_every then begin
        (* Let idle processes contribute to everyone's stability bound. *)
        let cl = Lamport.value t.clock in
        note_heard t t.ctx.Protocol.pid cl;
        t.ctx.Protocol.broadcast (Heartbeat { clock = cl });
        t.received_since_send <- 0
      end
    | Heartbeat { clock } ->
      Lamport.merge t.clock clock;
      note_heard t src clock);
    compact t

  let query t q ~on_result =
    let (_ : int) = Lamport.tick t.clock in
    let state =
      Oplog.fold (fun s e -> A.apply s e.Oplog.payload) t.snapshot t.tail
    in
    t.ctx.Protocol.count_replay (Oplog.length t.tail);
    on_result (A.eval state q)

  let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

  let message_wire_size = function
    | Update { ts; update = u } -> Timestamp.wire_size ts + A.update_wire_size u
    | Heartbeat { clock } -> Wire.varint_size clock

  let describe_message = function
    | Update { ts; update = u } -> Format.asprintf "%a%a" A.pp_update u Timestamp.pp ts
    | Heartbeat { clock } -> Printf.sprintf "hb(%d)" clock

  let log_length t = Oplog.length t.tail

  let metadata_bytes t =
    Oplog.footprint t.tail ~payload_wire_size:A.update_wire_size
    + Wire.varint_size (snapshot_clock t)
    + Array.fold_left (fun acc c -> acc + Wire.varint_size c) 0 t.heard

  (* The compacted prefix is discarded, so no full linearization
     certificate can be produced. *)
  let certificate _t = None

  include Protocol.No_catchup

  let compacted t = t.compacted
end
