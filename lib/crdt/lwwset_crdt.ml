include Set_spec

type message = { ts : Timestamp.t; element : int; adding : bool }

type slot = { add_ts : Timestamp.t option; rem_ts : Timestamp.t option }

type t = { ctx : message Protocol.ctx; clock : Lamport.t; mutable slots : slot Support.Int_map.t }

let protocol_name = "lww-set"

let create ctx = { ctx; clock = Lamport.create (); slots = Support.Int_map.empty }

let newer a b =
  match (a, b) with
  | None, ts -> ts
  | ts, None -> ts
  | Some x, Some y -> if Timestamp.compare x y >= 0 then Some x else Some y

let absorb t { ts; element; adding } =
  let slot =
    Option.value ~default:{ add_ts = None; rem_ts = None }
      (Support.Int_map.find_opt element t.slots)
  in
  let slot =
    if adding then { slot with add_ts = newer slot.add_ts (Some ts) }
    else { slot with rem_ts = newer slot.rem_ts (Some ts) }
  in
  t.slots <- Support.Int_map.add element slot t.slots

let update t u ~on_done =
  let cl = Lamport.tick t.clock in
  let ts = Timestamp.make ~clock:cl ~pid:t.ctx.Protocol.pid in
  let msg =
    match u with
    | Set_spec.Insert v -> { ts; element = v; adding = true }
    | Set_spec.Delete v -> { ts; element = v; adding = false }
  in
  absorb t msg;
  t.ctx.Protocol.broadcast msg;
  on_done ()

let receive t ~src:_ msg =
  Lamport.merge t.clock msg.ts.Timestamp.clock;
  absorb t msg

let present slot =
  match (slot.add_ts, slot.rem_ts) with
  | None, _ -> false
  | Some _, None -> true
  | Some a, Some r -> Timestamp.compare a r > 0

let query t Set_spec.Read ~on_result =
  let s =
    Support.Int_map.fold
      (fun v slot acc -> if present slot then Support.Int_set.add v acc else acc)
      t.slots Support.Int_set.empty
  in
  on_result s

let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

let message_wire_size { ts; element; adding = _ } =
  Timestamp.wire_size ts + Wire.varint_size (abs element) + 1

let describe_message { ts; element; adding } =
  Format.asprintf "%s(%d)%a" (if adding then "I" else "D") element Timestamp.pp ts

let log_length _t = 0

let metadata_bytes t =
  let ts_bytes = function None -> 1 | Some ts -> Timestamp.wire_size ts in
  Support.Int_map.fold
    (fun v slot acc ->
      acc + Wire.varint_size (abs v) + ts_bytes slot.add_ts + ts_bytes slot.rem_ts)
    t.slots 0

let certificate _t = None

include Protocol.No_catchup
