module Make (A : Undoable.S) = struct
  include A

  type message = { ts : Timestamp.t; update : A.update }

  (* Undo tokens are state-dependent, so they refresh on every redo. *)
  type pending = { u : A.update; mutable tok : A.undo }

  type t = {
    ctx : message Protocol.ctx;
    clock : Lamport.t;
    log : (pending, A.state) Oplog.t;
    mutable state : A.state;
    mutable repairs : int;
  }

  let protocol_name = "universal-undo"

  let create ctx =
    let t =
      {
        ctx;
        clock = Lamport.create ();
        log = Oplog.create ();
        state = A.initial;
        repairs = 0;
      }
    in
    Option.iter
      (fun (r : Obs.replica) -> Oplog.set_profile t.log (Some r.profile))
      ctx.Protocol.obs;
    t

  (* Insert a timestamped update at its place in the total order: undo
     every later entry, apply, redo them (refreshing their undo
     tokens). The oplog's binary search finds the position; repairs
     touch only the suffix behind it. A timestamp the log already holds
     is the same update delivered again, and changes nothing, as in
     [Oplog.insert]. *)
  let insert t ts u =
    if not (Oplog.holds t.log ~clock:ts.Timestamp.clock ~pid:ts.Timestamp.pid) then begin
      let before = t.repairs in
      let len = Oplog.length t.log in
      let pos = Oplog.locate t.log ts in
      let state = ref t.state in
      for i = len - 1 downto pos do
        state := A.undo !state (Oplog.payload t.log i).tok;
        t.repairs <- t.repairs + 1
      done;
      let state', tok = A.apply_with_undo !state u in
      state := state';
      ignore
        (Oplog.insert t.log ~clock:ts.Timestamp.clock ~pid:ts.Timestamp.pid { u; tok } : int);
      for i = pos + 1 to len do
        let p = Oplog.payload t.log i in
        let state', tok = A.apply_with_undo !state p.u in
        p.tok <- tok;
        state := state';
        t.repairs <- t.repairs + 1
      done;
      t.state <- !state;
      Option.iter
        (fun (r : Obs.replica) ->
          r.profile.Obs.Profile.undo_repairs <-
            r.profile.Obs.Profile.undo_repairs + t.repairs - before)
        t.ctx.Protocol.obs;
      (* One application for the newcomer plus every undo/redo repair. *)
      t.ctx.Protocol.count_replay (1 + t.repairs - before)
    end

  let update t u ~on_done =
    let cl = Lamport.tick t.clock in
    let ts = Timestamp.make ~clock:cl ~pid:t.ctx.Protocol.pid in
    insert t ts u;
    t.ctx.Protocol.broadcast { ts; update = u };
    on_done ()

  let receive t ~src:_ { ts; update = u } =
    Lamport.merge t.clock ts.Timestamp.clock;
    insert t ts u

  let query t q ~on_result =
    let (_ : int) = Lamport.tick t.clock in
    (* The current state is maintained incrementally: no replay at all. *)
    on_result (A.eval t.state q)

  let message_wire_size { ts; update = u } =
    Timestamp.wire_size ts + A.update_wire_size u

  let describe_message { ts; update = u } =
    Format.asprintf "%a%a" A.pp_update u Timestamp.pp ts

  let log_length t = Oplog.length t.log

  let metadata_bytes t =
    Oplog.footprint t.log ~payload_wire_size:(fun p -> A.update_wire_size p.u)

  let certificate t f init =
    Some (Oplog.fold_down (fun pid p acc -> f pid p.u acc) t.log init)

  let repairs t = t.repairs

  include Protocol.No_catchup

  include Protocol.Receive_each (struct
    type nonrec t = t
    type nonrec message = message
    let receive = receive
  end)
end
