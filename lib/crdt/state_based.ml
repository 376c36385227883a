module type LATTICE = sig
  module A : Uqadt.S

  type payload

  val name : string

  val empty : payload

  val join : payload -> payload -> payload

  val mutate : pid:int -> payload -> A.update -> payload

  val read : payload -> A.query -> A.output

  val payload_bytes : payload -> int
end

module Make (L : LATTICE) = struct
  include L.A

  type message = L.payload

  type t = { ctx : message Protocol.ctx; mutable payload : L.payload }

  let protocol_name = L.name

  let create ctx = { ctx; payload = L.empty }

  let update t u ~on_done =
    t.payload <- L.mutate ~pid:t.ctx.Protocol.pid t.payload u;
    t.ctx.Protocol.broadcast t.payload;
    on_done ()

  let receive t ~src:_ payload = t.payload <- L.join t.payload payload

  let query t q ~on_result = on_result (L.read t.payload q)

  let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

  let message_wire_size = L.payload_bytes

  let describe_message p = Printf.sprintf "state(%dB)" (L.payload_bytes p)

  let log_length _t = 0

  let metadata_bytes t = L.payload_bytes t.payload

  let certificate _t = None

  include Protocol.No_catchup

  let payload t = t.payload
end
