module Make (A : Uqadt.S) = struct
  include A

  type message = A.update

  type t = { ctx : message Protocol.ctx; mutable state : A.state; mutable applied : int }

  let protocol_name = "crdt-fastpath"

  let create ctx =
    if not A.commutative then
      invalid_arg
        (Printf.sprintf
           "Commutative.Make: %s is not a commutative type; apply-on-receive would \
            not converge (use the universal construction)"
           A.name);
    { ctx; state = A.initial; applied = 0 }

  let update t u ~on_done =
    t.state <- A.apply t.state u;
    t.applied <- t.applied + 1;
    t.ctx.Protocol.broadcast u;
    on_done ()

  let receive t ~src:_ u =
    t.state <- A.apply t.state u;
    t.applied <- t.applied + 1

  let query t q ~on_result = on_result (A.eval t.state q)

  let message_wire_size = A.update_wire_size

  let describe_message u = Format.asprintf "%a" A.pp_update u

  let log_length _t = 0

  let metadata_bytes _t = 0

  let certificate _ _ _ = None

  include Protocol.No_catchup

  include Protocol.Receive_each (struct
    type nonrec t = t
    type nonrec message = message
    let receive = receive
  end)
end
