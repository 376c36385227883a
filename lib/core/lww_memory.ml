include Memory_spec

type message = { ts : Timestamp.t; x : int; v : int }

type t = {
  ctx : message Protocol.ctx;
  clock : Lamport.t;
  mutable mem : (Timestamp.t * int) Support.Int_map.t;  (* x -> (ts, v) *)
}

let protocol_name = "lww-memory"

let create ctx = { ctx; clock = Lamport.create (); mem = Support.Int_map.empty }

(* Line 11-13 of Algorithm 2: keep the write with the larger timestamp. *)
let consider t ts x v =
  match Support.Int_map.find_opt x t.mem with
  | Some (ts', _) when Timestamp.compare ts ts' < 0 -> ()
  | Some _ | None -> t.mem <- Support.Int_map.add x (ts, v) t.mem

let update t (Memory_spec.Write (x, v)) ~on_done =
  let cl = Lamport.tick t.clock in
  let ts = Timestamp.make ~clock:cl ~pid:t.ctx.Protocol.pid in
  consider t ts x v;
  t.ctx.Protocol.broadcast { ts; x; v };
  on_done ()

let receive t ~src:_ { ts; x; v } =
  Lamport.merge t.clock ts.Timestamp.clock;
  consider t ts x v

let query t (Memory_spec.Read x) ~on_result =
  let (_ : int) = Lamport.tick t.clock in
  (* Reads are O(1): no replay (count 0 for experiment C2). *)
  match Support.Int_map.find_opt x t.mem with
  | Some (_, v) -> on_result v
  | None -> on_result Memory_spec.initial_value

let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

let message_wire_size { ts; x; v } =
  Timestamp.wire_size ts + Wire.pair_size (abs x) (abs v)

let describe_message { ts; x; v } = Format.asprintf "w(%d,%d)%a" x v Timestamp.pp ts

(* No update log at all: the whole point of Algorithm 2. *)
let log_length _t = 0

let metadata_bytes t =
  Support.Int_map.fold
    (fun x (ts, v) acc ->
      acc + Wire.varint_size (abs x) + Timestamp.wire_size ts + Wire.varint_size (abs v))
    t.mem 0

let certificate _t = None

include Protocol.No_catchup

let register_count t = Support.Int_map.cardinal t.mem
