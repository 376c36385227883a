module Make (A : Uqadt.S) = struct
  include A

  type message = A.update

  type t = { ctx : message Protocol.ctx; mutable state : A.state }

  let protocol_name = "pipelined"

  let create ctx = { ctx; state = A.initial }

  let update t u ~on_done =
    t.state <- A.apply t.state u;
    t.ctx.Protocol.broadcast u;
    on_done ()

  let receive t ~src:_ u = t.state <- A.apply t.state u

  let query t q ~on_result = on_result (A.eval t.state q)

  let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

  let message_wire_size = A.update_wire_size

  let describe_message u = Format.asprintf "%a" A.pp_update u

  let log_length _t = 0

  let metadata_bytes _t = 0

  let certificate _t = None

  include Protocol.No_catchup

  let current_state t = t.state
end
