include Register_spec

type message =
  | Collect_req of { rid : int }
  | Collect_ack of { rid : int; ts : Timestamp.t; value : int }
  | Store_req of { rid : int; ts : Timestamp.t; value : int }
  | Store_ack of { rid : int }

(* One in-flight two-phase operation. *)
type op_kind = Write_op of int | Read_op

type in_flight = {
  kind : op_kind;
  mutable phase : int;  (* 1 = collect, 2 = store *)
  mutable acks : int;
  mutable best_ts : Timestamp.t;
  mutable best_value : int;
  finish : int -> unit;  (* called with the linearized value *)
}

type t = {
  ctx : message Protocol.ctx;
  mutable current_ts : Timestamp.t;
  mutable current_value : int;
  mutable next_rid : int;
  pending : (int, in_flight) Hashtbl.t;
}

let protocol_name = "abd-register"

let create ctx =
  {
    ctx;
    current_ts = Timestamp.make ~clock:0 ~pid:0;
    current_value = Register_spec.initial;
    next_rid = 0;
    pending = Hashtbl.create 8;
  }

let majority t = (t.ctx.Protocol.n / 2) + 1

let to_everyone t msg =
  (* Including self: quorums count the local replica too. *)
  for dst = 0 to t.ctx.Protocol.n - 1 do
    t.ctx.Protocol.send ~dst msg
  done

let begin_op t kind finish =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  let op =
    {
      kind;
      phase = 1;
      acks = 0;
      best_ts = Timestamp.make ~clock:0 ~pid:0;
      best_value = Register_spec.initial;
      finish;
    }
  in
  Hashtbl.replace t.pending rid op;
  to_everyone t (Collect_req { rid })

let update t (Register_spec.Write v) ~on_done =
  begin_op t (Write_op v) (fun _ -> on_done ())

let query t Register_spec.Read ~on_result = begin_op t Read_op on_result

let start_phase2 t rid op =
  op.phase <- 2;
  op.acks <- 0;
  let ts, value =
    match op.kind with
    | Write_op v ->
      (* A new timestamp dominating every one seen in the collect. *)
      (Timestamp.make ~clock:(op.best_ts.Timestamp.clock + 1) ~pid:t.ctx.Protocol.pid, v)
    | Read_op ->
      (* Write back the freshest pair so later reads cannot go backward. *)
      (op.best_ts, op.best_value)
  in
  op.best_ts <- ts;
  op.best_value <- value;
  to_everyone t (Store_req { rid; ts; value })

let receive t ~src msg =
  match msg with
  | Collect_req { rid } ->
    t.ctx.Protocol.send ~dst:src
      (Collect_ack { rid; ts = t.current_ts; value = t.current_value })
  | Store_req { rid; ts; value } ->
    if Timestamp.compare ts t.current_ts > 0 then begin
      t.current_ts <- ts;
      t.current_value <- value
    end;
    t.ctx.Protocol.send ~dst:src (Store_ack { rid })
  | Collect_ack { rid; ts; value } -> (
    match Hashtbl.find_opt t.pending rid with
    | Some op when op.phase = 1 ->
      if Timestamp.compare ts op.best_ts > 0 then begin
        op.best_ts <- ts;
        op.best_value <- value
      end;
      op.acks <- op.acks + 1;
      if op.acks >= majority t then start_phase2 t rid op
    | Some _ | None -> ())
  | Store_ack { rid } -> (
    match Hashtbl.find_opt t.pending rid with
    | Some op when op.phase = 2 ->
      op.acks <- op.acks + 1;
      if op.acks >= majority t then begin
        Hashtbl.remove t.pending rid;
        op.finish op.best_value
      end
    | Some _ | None -> ())

let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

let message_wire_size = function
  | Collect_req { rid } -> 1 + Wire.varint_size rid
  | Collect_ack { rid; ts; value } ->
    1 + Wire.varint_size rid + Timestamp.wire_size ts + Wire.varint_size (abs value)
  | Store_req { rid; ts; value } ->
    1 + Wire.varint_size rid + Timestamp.wire_size ts + Wire.varint_size (abs value)
  | Store_ack { rid } -> 1 + Wire.varint_size rid

let describe_message = function
  | Collect_req { rid } -> Printf.sprintf "collect?%d" rid
  | Collect_ack { rid; value; _ } -> Printf.sprintf "collect!%d=%d" rid value
  | Store_req { rid; value; _ } -> Printf.sprintf "store?%d=%d" rid value
  | Store_ack { rid } -> Printf.sprintf "store!%d" rid

let log_length _t = 0

let metadata_bytes t = Timestamp.wire_size t.current_ts + Wire.varint_size (abs t.current_value)

let certificate _t = None

include Protocol.No_catchup
