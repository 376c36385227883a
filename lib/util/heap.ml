type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;  (** insertion rank: the tie-break *)
  mutable items : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = Float.Array.create 0; seqs = [||]; items = [||]; size = 0; next_seq = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = max 16 (2 * Array.length h.items) in
  let times = Float.Array.create cap in
  Float.Array.blit h.times 0 times 0 h.size;
  let seqs = Array.make cap 0 in
  Array.blit h.seqs 0 seqs 0 h.size;
  let items = Array.make cap 0 in
  Array.blit h.items 0 items 0 h.size;
  h.times <- times;
  h.seqs <- seqs;
  h.items <- items

(* Entry [i] sorts before the key (time, seq): earlier, or as early and
   inserted first. *)
let[@inline] before h i time seq =
  let ti = Float.Array.unsafe_get h.times i in
  ti < time || (ti = time && Array.unsafe_get h.seqs i < seq)

let[@inline] move h ~from ~into =
  Float.Array.unsafe_set h.times into (Float.Array.unsafe_get h.times from);
  Array.unsafe_set h.seqs into (Array.unsafe_get h.seqs from);
  Array.unsafe_set h.items into (Array.unsafe_get h.items from)

let[@inline] place h i time seq item =
  Float.Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.items i item

(* Hole-based sifts, written as loops so that the moving key's time
   stays unboxed: the entries on the path move into the hole, and the
   new entry is written once, where the hole comes to rest. *)
let[@inline] insert h time item =
  if h.size = Array.length h.items then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let hole = ref h.size in
  h.size <- h.size + 1;
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if before h parent time seq then rising := false
    else begin
      move h ~from:parent ~into:!hole;
      hole := parent
    end
  done;
  place h !hole time seq item

let push h ~time item = insert h time item

let push_after h ~now ~delay item = insert h (now +. delay) item

let check_nonempty h name = if h.size = 0 then invalid_arg ("Heap." ^ name ^ ": empty heap")

let min_item h =
  check_nonempty h "min_item";
  h.items.(0)

let min_time h =
  check_nonempty h "min_time";
  Float.Array.get h.times 0

let min_later_than h bound =
  check_nonempty h "min_later_than";
  Float.Array.get h.times 0 > bound

let remove_min h =
  check_nonempty h "remove_min";
  let last = h.size - 1 in
  h.size <- last;
  (* Re-seat the last entry from the root down. *)
  let time = Float.Array.unsafe_get h.times last in
  let seq = Array.unsafe_get h.seqs last in
  let item = Array.unsafe_get h.items last in
  let hole = ref 0 in
  let sinking = ref (last > 0) in
  while !sinking do
    let l = (2 * !hole) + 1 in
    if l >= last then sinking := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < last
          && before h r (Float.Array.unsafe_get h.times l) (Array.unsafe_get h.seqs l)
        then r
        else l
      in
      if before h c time seq then begin
        move h ~from:c ~into:!hole;
        hole := c
      end
      else sinking := false
    end
  done;
  if last > 0 then place h !hole time seq item

let clear h = h.size <- 0
