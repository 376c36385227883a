include Set_spec

type tag = { origin : int; serial : int }

type op = Add of { element : int; tag : tag } | Remove of { element : int; tags : tag list }

type message = { vc : Vector_clock.t; op : op }

module Tag_set = Set.Make (struct
  type t = tag

  let compare a b =
    let c = Int.compare a.origin b.origin in
    if c <> 0 then c else Int.compare a.serial b.serial
end)

type t = {
  ctx : message Protocol.ctx;
  causal : op Causal.t;
  mutable serial : int;
  mutable tags : Tag_set.t Support.Int_map.t;  (* element -> live tags *)
}

let protocol_name = "or-set"

let create ctx =
  {
    ctx;
    causal = Causal.create ~n:ctx.Protocol.n ~pid:ctx.Protocol.pid;
    serial = 0;
    tags = Support.Int_map.empty;
  }

let tags_of t element =
  Option.value ~default:Tag_set.empty (Support.Int_map.find_opt element t.tags)

let apply_op t = function
  | Add { element; tag } ->
    t.tags <- Support.Int_map.add element (Tag_set.add tag (tags_of t element)) t.tags
  | Remove { element; tags } ->
    let live = List.fold_left (fun s tag -> Tag_set.remove tag s) (tags_of t element) tags in
    t.tags <-
      (if Tag_set.is_empty live then Support.Int_map.remove element t.tags
       else Support.Int_map.add element live t.tags)

let update t u ~on_done =
  let op =
    match u with
    | Set_spec.Insert v ->
      t.serial <- t.serial + 1;
      Add { element = v; tag = { origin = t.ctx.Protocol.pid; serial = t.serial } }
    | Set_spec.Delete v ->
      (* Black-list exactly the tags this replica observes now. *)
      Remove { element = v; tags = Tag_set.elements (tags_of t v) }
  in
  apply_op t op;
  let vc = Causal.stamp t.causal in
  t.ctx.Protocol.broadcast { vc; op };
  on_done ()

let receive t ~src { vc; op } =
  List.iter (fun (_, op) -> apply_op t op) (Causal.receive t.causal ~src vc op)

let query t Set_spec.Read ~on_result =
  on_result
    (Support.Int_map.fold (fun v _ acc -> Support.Int_set.add v acc) t.tags
       Support.Int_set.empty)

let tag_bytes { origin; serial } = Wire.pair_size origin serial

let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

let message_wire_size { vc; op } =
  Vector_clock.wire_size vc
  +
  match op with
  | Add { element; tag } -> Wire.varint_size (abs element) + tag_bytes tag
  | Remove { element; tags } -> Wire.varint_size (abs element) + Wire.list_size tag_bytes tags

let describe_message { op; _ } =
  match op with
  | Add { element; tag } -> Printf.sprintf "add(%d)#%d.%d" element tag.origin tag.serial
  | Remove { element; tags } -> Printf.sprintf "rem(%d)×%d" element (List.length tags)

let log_length _t = 0

let metadata_bytes t =
  Support.Int_map.fold
    (fun v tags acc ->
      acc + Wire.varint_size (abs v) + Tag_set.fold (fun tag acc -> acc + tag_bytes tag) tags 0)
    t.tags 0

let certificate _t = None

include Protocol.No_catchup

let live_tags t = Support.Int_map.fold (fun _ s acc -> acc + Tag_set.cardinal s) t.tags 0
