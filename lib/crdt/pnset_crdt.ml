include Set_spec

type message = { element : int; delta : int }

type t = { ctx : message Protocol.ctx; mutable counts : int Support.Int_map.t }

let protocol_name = "pn-set"

let create ctx = { ctx; counts = Support.Int_map.empty }

let bump t element delta =
  let current = Option.value ~default:0 (Support.Int_map.find_opt element t.counts) in
  t.counts <- Support.Int_map.add element (current + delta) t.counts

let delta_of = function Set_spec.Insert _ -> 1 | Set_spec.Delete _ -> -1

let element_of = function Set_spec.Insert v | Set_spec.Delete v -> v

let update t u ~on_done =
  let element = element_of u and delta = delta_of u in
  bump t element delta;
  t.ctx.Protocol.broadcast { element; delta };
  on_done ()

let receive t ~src:_ { element; delta } = bump t element delta

let query t Set_spec.Read ~on_result =
  let present =
    Support.Int_map.fold
      (fun v c acc -> if c > 0 then Support.Int_set.add v acc else acc)
      t.counts Support.Int_set.empty
  in
  on_result present

let message_wire_size { element; delta } = Wire.varint_size (abs element) + 1 + abs delta

let describe_message { element; delta } = Printf.sprintf "Δ(%d,%+d)" element delta

let log_length _t = 0

let metadata_bytes t =
  Support.Int_map.fold
    (fun v c acc -> acc + Wire.varint_size (abs v) + Wire.varint_size (abs c))
    t.counts 0

let certificate _ _ _ = None

include Protocol.No_catchup

include Protocol.Receive_each (struct
  type nonrec t = t
  type nonrec message = message
  let receive = receive
end)

let count t element = Option.value ~default:0 (Support.Int_map.find_opt element t.counts)
