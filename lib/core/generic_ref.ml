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

  let certificate t f init =
    Some (List.fold_right (fun (_, origin, u) acc -> f origin u acc) t.log init)

  include Protocol.No_catchup

  include Protocol.Receive_each (struct
    type nonrec t = t
    type nonrec message = message
    let receive = receive
  end)

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

  (* Union of two timestamp-sorted lists; timestamps are unique
     run-wide ((Lamport clock, pid) pairs), so entries with equal
     timestamps are the same update: the resident one is kept, and a
     repeat within the sorted incoming list is dropped against the last
     entry kept. The frame is decoded whole first, so a malformed one
     raises before anything changes. *)
  let merge_frame t ~decode_update r =
    let entries = Oplog.decode_list ~decode_update r in
    let fresh = ref 0 in
    let keep ((ts, _, _) as y) acc =
      match acc with
      | (ts', _, _) :: _ when Timestamp.compare ts ts' = 0 -> acc
      | _ ->
        incr fresh;
        y :: acc
    in
    let rec go log inc acc =
      match (log, inc) with
      | rest, [] -> List.rev_append acc rest
      | [], y :: inc' -> go [] inc' (keep y acc)
      | ((ta, _, _) as x) :: log', ((tb, _, _) as y) :: inc' ->
        let c = Timestamp.compare ta tb in
        if c < 0 then go log' inc (x :: acc)
        else if c > 0 then go log inc' (keep y acc)
        else go log inc' acc
    in
    t.log <-
      go t.log
        (List.stable_sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b) entries)
        [];
    t.log_len <- t.log_len + !fresh;
    List.iter (fun (ts, _, _) -> Lamport.merge t.clock ts.Timestamp.clock) entries;
    true
end
