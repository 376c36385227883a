module Make (A : Uqadt.S) = struct
  include A

  type message =
    | Update of { ts : Timestamp.t; update : A.update }
    | Ack of { clock : int }

  type pending_entry = {
    ets : Timestamp.t;  (* its pid is the issuing process *)
    u : A.update;
    on_applied : (unit -> unit) option;  (* completion of a local update *)
  }

  type t = {
    ctx : message Protocol.ctx;
    clock : Lamport.t;
    mutable pending : pending_entry list;  (* sorted by timestamp *)
    mutable state : A.state;
    mutable applied_rev : (int * A.update) list;
    heard : int array;  (* latest clock heard from each process *)
  }

  let protocol_name = "tob-smr"

  let create ctx =
    {
      ctx;
      clock = Lamport.create ();
      pending = [];
      state = A.initial;
      applied_rev = [];
      heard = Array.make ctx.Protocol.n 0;
    }

  let insert t entry =
    let rec place = function
      | [] -> [ entry ]
      | e :: rest ->
        if Timestamp.compare entry.ets e.ets < 0 then entry :: e :: rest
        else e :: place rest
    in
    t.pending <- place t.pending

  (* An entry is stable once every other process has been heard with a
     clock ≥ its own: under FIFO channels nothing can still arrive that
     would sort before it. *)
  let stable t ets =
    let ok = ref true in
    Array.iteri
      (fun k heard -> if k <> t.ctx.Protocol.pid && heard < ets.Timestamp.clock then ok := false)
      t.heard;
    !ok

  let rec drain t =
    match t.pending with
    | entry :: rest when stable t entry.ets ->
      t.pending <- rest;
      t.state <- A.apply t.state entry.u;
      t.applied_rev <- (entry.ets.Timestamp.pid, entry.u) :: t.applied_rev;
      (match entry.on_applied with Some f -> f () | None -> ());
      drain t
    | _ :: _ | [] -> ()

  let update t u ~on_done =
    let cl = Lamport.tick t.clock in
    let ts = Timestamp.make ~clock:cl ~pid:t.ctx.Protocol.pid in
    t.heard.(t.ctx.Protocol.pid) <- cl;
    insert t { ets = ts; u; on_applied = Some on_done };
    t.ctx.Protocol.broadcast (Update { ts; update = u });
    drain t

  let receive t ~src msg =
    (match msg with
    | Update { ts; update = u } ->
      Lamport.merge t.clock ts.Timestamp.clock;
      if ts.Timestamp.clock > t.heard.(src) then t.heard.(src) <- ts.Timestamp.clock;
      insert t { ets = ts; u; on_applied = None };
      (* Echo so everyone's stability frontier can pass this update. *)
      let cl = Lamport.tick t.clock in
      t.heard.(t.ctx.Protocol.pid) <- cl;
      t.ctx.Protocol.broadcast (Ack { clock = cl })
    | Ack { clock } ->
      Lamport.merge t.clock clock;
      if clock > t.heard.(src) then t.heard.(src) <- clock);
    drain t

  (* Queries answer from the stable prefix: every replica runs the same
     sequence, so reads are sequentially consistent (but may lag). *)
  let query t q ~on_result = on_result (A.eval t.state q)

  let message_wire_size = function
    | Update { ts; update = u } -> Timestamp.wire_size ts + A.update_wire_size u
    | Ack { clock } -> Wire.varint_size clock

  let describe_message = function
    | Update { ts; update = u } -> Format.asprintf "%a%a" A.pp_update u Timestamp.pp ts
    | Ack { clock } -> Printf.sprintf "ack(%d)" clock

  let log_length t = List.length t.pending

  let metadata_bytes t =
    List.fold_left
      (fun acc { ets; u; _ } ->
        acc + Timestamp.wire_size ets + Wire.varint_size ets.Timestamp.pid + A.update_wire_size u)
      (Array.fold_left (fun acc c -> acc + Wire.varint_size c) 0 t.heard)
      t.pending

  let certificate t f init =
    Some (List.fold_left (fun acc (origin, u) -> f origin u acc) init t.applied_rev)

  include Protocol.No_catchup

  include Protocol.Receive_each (struct
    type nonrec t = t
    type nonrec message = message
    let receive = receive
  end)
end
