module Make (A : Uqadt.S) = struct
  include A

  type message = { ts : Timestamp.t; update : A.update }

  type t = {
    ctx : message Protocol.ctx;
    clock : Lamport.t;
    (* Sorted by timestamp, ascending. Entries: (timestamp, origin, update). *)
    mutable log : (Timestamp.t * int * A.update) list;
    mutable log_len : int;
  }

  let protocol_name = "universal-list"

  let create ctx = { ctx; clock = Lamport.create (); log = []; log_len = 0 }

  (* Timestamp-sorted insert. Late messages land in the middle; fresh
     ones at the end, so we keep the list ascending and insert by scan.
     A duplicate timestamp is the same update seen again (snapshot
     catch-up racing an in-flight frame makes delivery at-least-once
     under churn) and is dropped. *)
  let insert t entry =
    let ts, _, _ = entry in
    let fresh = ref true in
    let rec place = function
      | [] -> [ entry ]
      | ((ts', _, _) as e) :: rest ->
        let c = Timestamp.compare ts ts' in
        if c = 0 then begin
          fresh := false;
          e :: rest
        end
        else if c < 0 then entry :: e :: rest
        else e :: place rest
    in
    t.log <- place t.log;
    if !fresh then t.log_len <- t.log_len + 1

  let update t u ~on_done =
    let cl = Lamport.tick t.clock in
    let ts = Timestamp.make ~clock:cl ~pid:t.ctx.Protocol.pid in
    (* Line 6: broadcast to all; the local copy is applied synchronously. *)
    insert t (ts, t.ctx.Protocol.pid, u);
    t.ctx.Protocol.broadcast { ts; update = u };
    on_done ()

  let receive t ~src { ts; update = u } =
    (* Line 9: clock_i <- max(clock_i, cl). *)
    Lamport.merge t.clock ts.Timestamp.clock;
    insert t (ts, src, u)

  let query t q ~on_result =
    (* Line 13: queries also advance the clock. *)
    let (_ : int) = Lamport.tick t.clock in
    (* Lines 14-17: replay the whole sorted log from the initial state. *)
    let state =
      List.fold_left (fun s (_, _, u) -> A.apply s u) A.initial t.log
    in
    t.ctx.Protocol.count_replay t.log_len;
    on_result (A.eval state q)

  let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

  let message_wire_size { ts; update = u } =
    Timestamp.wire_size ts + A.update_wire_size u

  let describe_message { ts; update = u } =
    Format.asprintf "%a%a" A.pp_update u Timestamp.pp ts

  let log_length t = t.log_len

  let metadata_bytes t =
    List.fold_left
      (fun acc (ts, origin, u) ->
        acc + Timestamp.wire_size ts + Wire.varint_size origin + A.update_wire_size u)
      0 t.log

  let certificate t = Some (List.map (fun (_, origin, u) -> (origin, u)) t.log)

  include Protocol.No_catchup

  let message_update { update = u; _ } = u

  let local_log t = t.log

  (* The list core has no backing array to stream from; the list path
     is the reference the fast [Oplog.encode] is pinned against. *)
  let encode_log t ~encode_update = Oplog.encode_list ~encode_update t.log

  let clock_value t = Lamport.value t.clock

  let advance_clock t v = Lamport.merge t.clock v

  let restore_log t entries =
    t.log <- List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b) entries;
    t.log_len <- List.length entries;
    List.iter (fun (ts, _, _) -> Lamport.merge t.clock ts.Timestamp.clock) entries
end
