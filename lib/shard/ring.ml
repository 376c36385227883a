(* Points live on a 62-bit circle: hashes are masked to 62 bits so they
   fit a non-negative OCaml int and compare with plain (<). The hash is
   the SplitMix64 finalizer — already the repo's PRNG mixing function —
   applied to a golden-ratio spread of the input, so routing is a pure
   function of the construction sequence. *)

let mask = 0x3FFF_FFFF_FFFF_FFFF (* 2^62 - 1 *)

(* Inlined into [hash2] so the [Int64] values stay unboxed: out of
   line, its argument and result are boxed, 6 words a route. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hash2 a b =
  let open Int64 in
  let x = add (mul (of_int a) 0x9E3779B97F4A7C15L) (of_int b) in
  to_int (mix64 x) land mask

let key_point key = hash2 key 0x5bd1e995

let vnode_point ~shard ~vnode = hash2 shard (0x1000000 + vnode)

(* Points planted per shard by [create] and [add]. *)
let vnodes = 64

type t = {
  points : (int * int) array;  (* (position, shard), sorted by position *)
  ids : int list;  (* sorted shard ids *)
  next : int;  (* next fresh id; removed ids are not reused *)
}

let shards t = List.length t.ids

let shard_ids t = t.ids

let max_id t = t.next - 1

(* Positions must be distinct or routing would depend on sort
   stability; collisions (astronomically rare at 62 bits) probe
   linearly to the next free position. *)
let place taken pos =
  let pos = ref pos in
  while Hashtbl.mem taken !pos do
    pos := (!pos + 1) land mask
  done;
  Hashtbl.add taken !pos ();
  !pos

let rebuild ~ids ~next assoc =
  let points = Array.of_list assoc in
  Array.sort (fun (a, _) (b, _) -> compare a b) points;
  { points; ids; next }

let taken_of points =
  let taken = Hashtbl.create (Array.length points * 2) in
  Array.iter (fun (pos, _) -> Hashtbl.add taken pos ()) points;
  taken

let standard_points taken ~shard =
  List.init vnodes (fun v ->
      (place taken (vnode_point ~shard ~vnode:v), shard))

let create ~shards () =
  if shards < 1 then invalid_arg "Ring.create: need at least one shard";
  let taken = Hashtbl.create (shards * vnodes * 2) in
  let assoc =
    List.concat_map (fun shard -> standard_points taken ~shard) (List.init shards Fun.id)
  in
  rebuild ~ids:(List.init shards Fun.id) ~next:shards assoc

let route t key =
  let p = key_point key in
  (* successor: first point with position > p, wrapping to points.(0) *)
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) <= p then lo := mid + 1 else hi := mid
  done;
  snd t.points.(if !lo = n then 0 else !lo)

let add t =
  let id = t.next in
  let taken = taken_of t.points in
  let fresh = standard_points taken ~shard:id in
  let assoc = Array.to_list t.points @ fresh in
  ( rebuild
      ~ids:(List.sort compare (id :: t.ids))
      ~next:(id + 1) assoc,
    id )

let remove t id =
  if not (List.mem id t.ids) then invalid_arg "Ring.remove: unknown shard";
  if shards t = 1 then invalid_arg "Ring.remove: cannot remove the last shard";
  let assoc =
    Array.to_list t.points |> List.filter (fun (_, s) -> s <> id)
  in
  rebuild
    ~ids:(List.filter (( <> ) id) t.ids)
    ~next:t.next assoc

let split t ~hot =
  if not (List.mem hot t.ids) then invalid_arg "Ring.split: unknown shard";
  let id = t.next in
  let n = Array.length t.points in
  let taken = taken_of t.points in
  (* For each of hot's points, the arc it owns runs from its predecessor
     (exclusive) to it (inclusive); planting the new shard's point at
     the arc midpoint hands the first half of that arc — and nothing
     else — to the new shard. *)
  let fresh = ref [] in
  Array.iteri
    (fun i (pos, shard) ->
      if shard = hot then begin
        let pred = fst t.points.((i + n - 1) mod n) in
        let len = (pos - pred) land mask in
        if len > 1 then begin
          let mid = (pred + (len / 2)) land mask in
          fresh := (place taken mid, id) :: !fresh
        end
      end)
    t.points;
  let assoc = Array.to_list t.points @ !fresh in
  ( rebuild
      ~ids:(List.sort compare (id :: t.ids))
      ~next:(id + 1) assoc,
    id )

let owned_share t ~keys =
  let counts = Hashtbl.create 16 in
  for k = 0 to keys - 1 do
    let s = route t k in
    Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))
  done;
  List.map
    (fun s -> (s, Option.value ~default:0 (Hashtbl.find_opt counts s)))
    t.ids

let pp ppf t =
  Format.fprintf ppf "ring(%d shards, %d vnodes, %d points)" (shards t) vnodes
    (Array.length t.points)
