type 'u entry = { ts : Timestamp.t; origin : int; payload : 'u }

(* Interval checkpoints, deepest first: [Ckpt (k, s, rest)] holds the
   fold of the first [k] entries, and every checkpoint in [rest] is
   shallower. An insert at [pos] invalidates exactly the checkpoints
   above [pos], which form the head of the chain: dropping them costs
   O(dropped), and an append (nothing above it) costs one test. *)
type 's checkpoints = Nil | Ckpt of int * 's * 's checkpoints

(* The query cache cell: made by the first replay and overwritten by
   every later one, so recording it allocates nothing. [k = 0] marks it
   empty (the fold of no entries is [initial] anyway). *)
type 's memo = { mutable k : int; mutable s : 's }

type ('u, 's) t = {
  mutable arr : 'u entry array;
  mutable len : int;
  interval : int;
  mutable checkpoints : 's checkpoints;
  mutable watermark : int;
  mutable profile : Obs.Profile.t option;
  query_cache : bool;
  mutable qcache : 's memo option;
      (* (k, fold of the first k entries) from the latest replay; like a
         checkpoint but free-floating: re-recorded at the log tail on
         every replay, so a query after a run of appends folds only the
         suffix that arrived since the previous query. *)
}

let create ?(checkpoint_interval = 0) ?(query_cache = false) () =
  if checkpoint_interval < 0 then
    invalid_arg "Oplog.create: checkpoint interval must be non-negative";
  {
    arr = [||];
    len = 0;
    interval = checkpoint_interval;
    checkpoints = Nil;
    watermark = 0;
    profile = None;
    query_cache;
    qcache = None;
  }

(* The insert and replay paths test [t.profile] inline. A
   [fun p -> ...] helper would allocate its closure on every call,
   profile or not: this compiler does not inline it away. *)
let set_profile t p = t.profile <- p

let checkpoint_interval t = t.interval

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Oplog.get: index out of bounds";
  t.arr.(i)

(* First position whose timestamp is greater than (clock, pid).
   Timestamps are (clock, pid) pairs and strictly totally ordered, so
   <= vs > is the only split that matters. Taking the two fields lets
   the frame walker ask without building a [Timestamp.t]. *)
let locate_fields t clock pid =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let ts = t.arr.(mid).ts in
    if ts.Timestamp.clock < clock || (ts.Timestamp.clock = clock && ts.Timestamp.pid <= pid)
    then lo := mid + 1
    else hi := mid
  done;
  !lo

let locate t ts = locate_fields t ts.Timestamp.clock ts.Timestamp.pid

(* Whether the log holds the entry stamped (clock, pid). *)
let holds t clock pid =
  let pos = locate_fields t clock pid in
  pos > 0
  &&
  let ts = t.arr.(pos - 1).ts in
  ts.Timestamp.clock = clock && ts.Timestamp.pid = pid

let grow t entry =
  if t.len = Array.length t.arr then begin
    let arr = Array.make (max 8 (2 * t.len)) entry in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end

let rec drop_checkpoints_above t pos =
  match t.checkpoints with
  | Ckpt (k, _, rest) when k > pos ->
    t.checkpoints <- rest;
    (match t.profile with
    | None -> ()
    | Some p ->
      p.Obs.Profile.checkpoints_dropped <- p.Obs.Profile.checkpoints_dropped + 1);
    drop_checkpoints_above t pos
  | _ -> ()

(* An entry landing at [pos] changes the fold of every prefix longer
   than [pos]: the checkpoints above it die, and so does the query
   cache if it lies above it. At or below [pos] they stay valid. *)
let invalidate_above t pos =
  drop_checkpoints_above t pos;
  match t.qcache with Some m when pos < m.k -> m.k <- 0 | _ -> ()

let insert_at t entry pos =
  Array.blit t.arr pos t.arr (pos + 1) (t.len - pos);
  t.arr.(pos) <- entry;
  (match t.profile with
  | None -> ()
  | Some p ->
    let shift = t.len - pos in
    p.Obs.Profile.inserts <- p.Obs.Profile.inserts + 1;
    if shift = 0 then p.Obs.Profile.appends <- p.Obs.Profile.appends + 1
    else p.Obs.Profile.shift_distance <- p.Obs.Profile.shift_distance + shift);
  t.len <- t.len + 1;
  invalidate_above t pos;
  pos

let stale () =
  invalid_arg "Oplog.insert: timestamp at or below the stability watermark"

(* Whether [ts] sorts above every entry: the one comparison an append
   costs. *)
let above_tail t ts =
  t.len = 0
  ||
  let top = t.arr.(t.len - 1).ts in
  top.Timestamp.clock < ts.Timestamp.clock
  || (top.Timestamp.clock = ts.Timestamp.clock && top.Timestamp.pid < ts.Timestamp.pid)

(* An entry above the tail shifts nothing and invalidates nothing:
   every checkpoint and the query cache cover a prefix of what is
   already there. *)
let append t entry =
  let pos = t.len in
  t.arr.(pos) <- entry;
  t.len <- pos + 1;
  (match t.profile with
  | None -> ()
  | Some p ->
    p.Obs.Profile.inserts <- p.Obs.Profile.inserts + 1;
    p.Obs.Profile.appends <- p.Obs.Profile.appends + 1);
  pos

let insert t entry =
  if entry.ts.Timestamp.clock <= t.watermark then stale ();
  grow t entry;
  if above_tail t entry.ts then append t entry
  else begin
    let pos = locate t entry.ts in
    (* Timestamps are unique run-wide, so an equal timestamp is the same
       update seen again — snapshot catch-up racing an in-flight frame
       makes delivery at-least-once under churn. Keep insert idempotent. *)
    if pos > 0 && Timestamp.compare t.arr.(pos - 1).ts entry.ts = 0 then pos - 1
    else insert_at t entry pos
  end

(* Stable sort, then drop repeats in place keeping the first — the
   order the sequential inserts would have kept. Returns how many
   entries are left at the front of [inc]. *)
let sort_unique inc =
  Array.stable_sort (fun a b -> Timestamp.compare a.ts b.ts) inc;
  let kept = ref (min 1 (Array.length inc)) in
  for i = 1 to Array.length inc - 1 do
    if Timestamp.compare inc.(i).ts inc.(!kept - 1).ts <> 0 then begin
      inc.(!kept) <- inc.(i);
      incr kept
    end
  done;
  !kept

(* Index of the first entry of [inc.(i .. n - 1)] that the log does
   not hold yet; [n] if none. *)
let rec first_fresh t inc i n =
  if i >= n then i
  else if holds t inc.(i).ts.Timestamp.clock inc.(i).ts.Timestamp.pid then
    first_fresh t inc (i + 1) n
  else i

(* Batch insertion: one capacity check and one back-to-front merge
   pass over the backing array, O(n + k) for k incoming entries against
   n resident ones, plus a stable sort of the batch unless it already
   ascends (a sender's envelope and a snapshot frame both do). The
   sequential path pays k binary searches plus up to k suffix memmoves.
   Semantically identical to folding [insert] over the batch in order:
   duplicate timestamps (within the batch or against the log) are the
   same update delivered again and are skipped; checkpoints and the
   query cache are invalidated exactly as the sequence of single
   inserts would have invalidated them (every checkpoint above the
   lowest fresh landing position dies). *)
let rec insert_batch t entries =
  match entries with
  | [] -> 0
  | [ e ] ->
    let len0 = t.len in
    ignore (insert t e : int);
    t.len - len0
  | _ ->
    let inc = Array.of_list entries in
    let ascending = ref true in
    for i = 0 to Array.length inc - 1 do
      if inc.(i).ts.Timestamp.clock <= t.watermark then stale ();
      if i > 0 && Timestamp.compare inc.(i - 1).ts inc.(i).ts >= 0 then
        ascending := false
    done;
    land_sorted t inc (if !ascending then Array.length inc else sort_unique inc)

(* Land the strictly ascending [inc.(0 .. n - 1)], none of them at or
   below the watermark; returns how many were fresh. *)
and land_sorted t inc n =
  let first = first_fresh t inc 0 n in
  if first = n then 0 (* every entry already resident *)
  else begin
    (* [locate] is monotone in the timestamp, so the first fresh
       entry lands lowest. *)
    invalidate_above t (locate t inc.(first).ts);
    merge_batch t inc first n
  end

(* Merge [inc.(first) .. inc.(stop - 1)] (everything below [first] is
   resident). Grow once to worst-case room, then merge from the back
   so every resident entry above the first fresh one moves at most
   once. Duplicates against the log are skipped during the merge,
   leaving one contiguous gap (the write pointer stands still while a
   duplicate is consumed) closed by a single blit. *)
and merge_batch t inc first stop =
    let len0 = t.len in
    let k = stop - first in
    let need = len0 + k in
    if need > Array.length t.arr then begin
      let arr = Array.make (max 8 (max need (2 * len0))) inc.(first) in
      Array.blit t.arr 0 arr 0 len0;
      t.arr <- arr
    end;
    let i = ref (len0 - 1) and j = ref (stop - 1) and w = ref (need - 1) in
    let dups = ref 0 and appended = ref 0 and moved = ref 0 in
    while !j >= first do
      if !i >= 0 then begin
        let c = Timestamp.compare t.arr.(!i).ts inc.(!j).ts in
        if c > 0 then begin
          t.arr.(!w) <- t.arr.(!i);
          incr moved;
          decr i;
          decr w
        end
        else if c = 0 then begin
          incr dups;
          decr j
        end
        else begin
          t.arr.(!w) <- inc.(!j);
          if !moved = 0 then incr appended;
          decr j;
          decr w
        end
      end
      else begin
        t.arr.(!w) <- inc.(!j);
        decr j;
        decr w
      end
    done;
    let fresh = k - !dups in
    if !dups > 0 then
      (* Close the gap the skipped duplicates left between the resident
         prefix [0 .. i] and the merged region above it. *)
      Array.blit t.arr (!i + 1 + !dups) t.arr (!i + 1)
        (need - !dups - (!i + 1));
    t.len <- len0 + fresh;
    (match t.profile with
    | None -> ()
    | Some p ->
      p.Obs.Profile.inserts <- p.Obs.Profile.inserts + fresh;
      p.Obs.Profile.appends <- p.Obs.Profile.appends + !appended;
      p.Obs.Profile.shift_distance <- p.Obs.Profile.shift_distance + !moved);
    fresh

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.arr.(i)
  done;
  !acc

let fold_down f t init =
  let acc = ref init in
  for i = t.len - 1 downto 0 do
    acc := f t.arr.(i) !acc
  done;
  !acc

(* The merge [fold_down_merged] runs: a loser tree over the logs. Leaf
   [j] (node [k + j] of [k] leaves) stands for log [j]'s next entry
   down, [next.(j)], whose timestamp is cached in [clock] and [pid] so
   that a match reads no entry ([min_int] once the log is spent). Inner
   node [n], with children [2n] and [2n + 1], keeps the loser of its
   match, and node 0 the winner. *)
type merge = { next : int array; clock : int array; pid : int array; tree : int array }

let[@inline] beats m a b =
  let ca = Array.unsafe_get m.clock a and cb = Array.unsafe_get m.clock b in
  ca > cb || (ca = cb && Array.unsafe_get m.pid a > Array.unsafe_get m.pid b)

let load m logs j =
  let i = m.next.(j) in
  if i < 0 then begin
    m.clock.(j) <- min_int;
    m.pid.(j) <- min_int
  end
  else begin
    let ts = logs.(j).arr.(i).ts in
    m.clock.(j) <- ts.Timestamp.clock;
    m.pid.(j) <- ts.Timestamp.pid
  end

let fold_down_merged f init logs =
  let k = Array.length logs in
  let m =
    {
      next = Array.map (fun t -> t.len - 1) logs;
      clock = Array.make k 0;
      pid = Array.make k 0;
      tree = Array.make (max 1 k) 0;
    }
  in
  let winner = Array.make (2 * k) 0 in
  let total = ref 0 in
  for j = 0 to k - 1 do
    total := !total + logs.(j).len;
    load m logs j;
    winner.(k + j) <- j
  done;
  for n = k - 1 downto 1 do
    let a = winner.(2 * n) and b = winner.((2 * n) + 1) in
    if beats m a b then begin
      winner.(n) <- a;
      m.tree.(n) <- b
    end
    else begin
      winner.(n) <- b;
      m.tree.(n) <- a
    end
  done;
  if k > 0 then m.tree.(0) <- winner.(1);
  let acc = ref init in
  for _ = 1 to !total do
    (* Take the winner's entry, then replay the matches on its leaf's
       path against the log's next entry: one comparison a level. *)
    let j = m.tree.(0) in
    acc := f !acc logs.(j).arr.(m.next.(j));
    m.next.(j) <- m.next.(j) - 1;
    load m logs j;
    let cand = ref j and n = ref ((k + j) / 2) in
    while !n > 0 do
      let l = Array.unsafe_get m.tree !n in
      if beats m l !cand then begin
        Array.unsafe_set m.tree !n !cand;
        cand := l
      end;
      n := !n / 2
    done;
    m.tree.(0) <- !cand
  done;
  !acc

let to_list t =
  List.init t.len (fun i ->
      let e = t.arr.(i) in
      (e.ts, e.origin, e.payload))

let load t entries =
  let entries =
    List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b) entries
  in
  t.arr <-
    Array.of_list
      (List.map (fun (ts, origin, payload) -> { ts; origin; payload }) entries);
  t.len <- Array.length t.arr;
  t.checkpoints <- Nil;
  t.qcache <- None;
  t.watermark <- 0

(* Fold the entries from [base] on onto [state], the fold of the first
   [base]. States are recorded on the way so the next replay starts
   close to the end of the log; the head checkpoint is the deepest, so
   [i + 1 > base] never duplicates one. *)
let replay_from t ~apply base state =
  (match t.profile with
  | None -> ()
  | Some p ->
    p.Obs.Profile.replays <- p.Obs.Profile.replays + 1;
    p.Obs.Profile.replay_steps <- p.Obs.Profile.replay_steps + t.len - base;
    if base > 0 then
      p.Obs.Profile.checkpoint_hits <- p.Obs.Profile.checkpoint_hits + 1
    else if t.interval > 0 then
      p.Obs.Profile.checkpoint_misses <- p.Obs.Profile.checkpoint_misses + 1);
  let state = ref state in
  for i = base to t.len - 1 do
    state := apply !state t.arr.(i).payload;
    if t.interval > 0 && (i + 1) mod t.interval = 0 then begin
      t.checkpoints <- Ckpt (i + 1, !state, t.checkpoints);
      match t.profile with
      | None -> ()
      | Some p ->
        p.Obs.Profile.checkpoints_taken <- p.Obs.Profile.checkpoints_taken + 1
    end
  done;
  if t.query_cache then begin
    match t.qcache with
    | Some m ->
      m.k <- t.len;
      m.s <- !state
    | None -> t.qcache <- Some { k = t.len; s = !state }
  end;
  (!state, t.len - base)

(* Start from the deeper of the head checkpoint and the query cache.
   The cache is re-recorded at the tail of every replay, so it is at
   least as deep as any checkpoint unless an insert landed below it
   since the last query. *)
let replay t ~apply ~initial =
  match (t.qcache, t.checkpoints) with
  | Some m, Ckpt (k, _, _) when m.k >= k -> replay_from t ~apply m.k m.s
  | Some m, Nil when m.k > 0 -> replay_from t ~apply m.k m.s
  | _, Ckpt (k, s, _) -> replay_from t ~apply k s
  | _, Nil -> replay_from t ~apply 0 initial

let rec count_checkpoints n = function
  | Nil -> n
  | Ckpt (_, _, rest) -> count_checkpoints (n + 1) rest

let checkpoints_live t = count_checkpoints 0 t.checkpoints

let checkpoints t =
  let rec go = function Nil -> [] | Ckpt (k, s, rest) -> (k, s) :: go rest in
  go t.checkpoints

let watermark t = t.watermark

let compact t ~upto_clock ~apply snapshot =
  if upto_clock <= t.watermark then (snapshot, 0)
  else begin
    (* Entries sort by (clock, pid), so the stable prefix ends where an
       entry with clock > upto_clock would sort: below (upto_clock + 1, 0). *)
    let stop = locate t (Timestamp.make ~clock:upto_clock ~pid:max_int) in
    let state = ref snapshot in
    for i = 0 to stop - 1 do
      state := apply !state t.arr.(i).payload
    done;
    Array.blit t.arr stop t.arr 0 (t.len - stop);
    t.len <- t.len - stop;
    (match t.profile with
    | None -> ()
    | Some p ->
      p.Obs.Profile.compactions <- p.Obs.Profile.compactions + 1;
      p.Obs.Profile.compacted_entries <- p.Obs.Profile.compacted_entries + stop;
      p.Obs.Profile.checkpoints_dropped <-
        p.Obs.Profile.checkpoints_dropped + checkpoints_live t);
    (* Checkpoint bases shifted by [stop]; simplest safe move is to
       drop the cache (compacting protocols do not use it). The query
       cache goes with them for the same reason: its base index and
       its folded-in prefix both moved out from under it. *)
    t.checkpoints <- Nil;
    t.qcache <- None;
    t.watermark <- upto_clock;
    (!state, stop)
  end

(* A loop, not a [fold]: its closure over [payload_wire_size] would be
   allocated on every call, once per key log on the sharded space. *)
let footprint t ~payload_wire_size =
  let bytes = ref 0 in
  for i = 0 to t.len - 1 do
    let e = t.arr.(i) in
    bytes :=
      !bytes + Timestamp.wire_size e.ts + Wire.varint_size e.origin
      + payload_wire_size e.payload
  done;
  !bytes

(* Codec: byte-for-byte the frame the seed Persist wrote. *)

let magic = "UCL"

let version = 1

(* The trailer: the sum of every byte before it, modulo 2^30, summed
   where the writer holds them. *)
let checksum_mask = 0x3FFFFFFF

let write_checksum w = Codec.Writer.varint w (Codec.Writer.byte_sum w land checksum_mask)

let encode_list ~encode_update entries =
  (* Capacity hint only (16 bytes/entry); the frame is identical either
     way, the writer just skips the doubling-realloc ladder. *)
  let w = Codec.Writer.create ~size:(8 + (16 * List.length entries)) () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.u8 w version;
  Codec.Writer.varint w (List.length entries);
  List.iter
    (fun (ts, origin, u) ->
      Codec.Writer.varint w ts.Timestamp.clock;
      Codec.Writer.varint w ts.Timestamp.pid;
      Codec.Writer.varint w origin;
      encode_update w u)
    entries;
  write_checksum w;
  Codec.Writer.contents w

let corrupt what = raise (Codec.Decode_error ("log snapshot: " ^ what))

(* The one parser of the frame. It walks a frame off [r], which must
   end where the frame does, calling [f clock pid origin update] on each
   entry in frame order, then checks the trailer against the bytes it
   walked, in place. It builds nothing itself, so each consumer builds
   only what it keeps. *)
let walk ~decode_update r f =
  let start = Codec.Reader.pos r in
  String.iter (fun c -> if Codec.Reader.u8 r <> Char.code c then corrupt "bad magic") magic;
  if Codec.Reader.u8 r <> version then corrupt "unsupported version";
  (* Entries are read one by one, never pre-sized from [count]: a
     hostile count runs into the end of the frame instead. *)
  let count = Codec.Reader.varint r in
  for _ = 1 to count do
    let clock = Codec.Reader.varint r in
    let pid = Codec.Reader.varint r in
    let origin = Codec.Reader.varint r in
    f clock pid origin (decode_update r)
  done;
  let sum = Codec.Reader.byte_sum r ~from:start land checksum_mask in
  let declared = Codec.Reader.varint r in
  if not (Codec.Reader.at_end r) then corrupt "trailing bytes";
  if declared <> sum then corrupt "checksum mismatch"

let frame_floor ~decode_update r =
  let floor = ref max_int in
  walk ~decode_update r (fun clock _ _ _ -> if clock < !floor then floor := clock);
  !floor

let decode_list ~decode_update r =
  let entries = ref [] in
  walk ~decode_update r (fun clock pid origin u ->
      entries := (Timestamp.make ~clock ~pid, origin, u) :: !entries);
  List.rev !entries

(* What [merge_frame] keeps of a frame while walking it: the entries
   the log does not hold, in frame order. *)
type 'u gathered = {
  mutable fresh : 'u entry array;
  mutable n : int;
  mutable ascending : bool;  (* [fresh.(0 .. n - 1)] strictly ascends *)
  mutable top : int;  (* the highest clock in the frame *)
  mutable refused : bool;  (* an entry at or below the watermark *)
}

(* Nothing lands until the whole frame has been walked and its trailer
   checked, so a frame that raises or is refused leaves the log as it
   was. An entry the log already holds costs a binary search on its
   (clock, pid) and its payload decode, no more. *)
let merge_frame t ~decode_update r =
  let g = { fresh = [||]; n = 0; ascending = true; top = 0; refused = false } in
  walk ~decode_update r (fun clock pid origin payload ->
      if clock > g.top then g.top <- clock;
      if clock <= t.watermark then g.refused <- true
      else if not (holds t clock pid) then begin
        let e = { ts = Timestamp.make ~clock ~pid; origin; payload } in
        if g.n = Array.length g.fresh then begin
          let grown = Array.make (max 8 (2 * g.n)) e in
          Array.blit g.fresh 0 grown 0 g.n;
          g.fresh <- grown
        end;
        if g.n > 0 && Timestamp.compare g.fresh.(g.n - 1).ts e.ts >= 0 then
          g.ascending <- false;
        g.fresh.(g.n) <- e;
        g.n <- g.n + 1
      end);
  if g.refused then None
  else begin
    (if g.ascending then ignore (land_sorted t g.fresh g.n : int)
     else
       (* An unsorted frame, or one repeating a fresh timestamp. *)
       let inc = Array.sub g.fresh 0 g.n in
       ignore (land_sorted t inc (sort_unique inc) : int));
    Some g.top
  end

(* Same frame as [encode_list], produced straight off the backing
   array: no [to_list] materialisation, and with [update_wire_size]
   available the buffer is pre-sized to the exact frame length so the
   writer never reallocates. This is the hot path for [Persist]
   snapshots of array-core replicas. *)
let encode ?update_wire_size ~encode_update t =
  let header_size = String.length magic + 1 + Wire.varint_size t.len in
  let body_size =
    match update_wire_size with
    | None -> header_size + (16 * t.len) (* capacity hint only *)
    | Some size ->
      let acc = ref header_size in
      for i = 0 to t.len - 1 do
        let e = t.arr.(i) in
        acc :=
          !acc + Timestamp.wire_size e.ts + Wire.varint_size e.origin
          + size e.payload
      done;
      !acc
  in
  (* + 5: room for the trailing checksum varint (<= 2^30 fits in 5). *)
  let w = Codec.Writer.create ~size:(body_size + 5) () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.u8 w version;
  Codec.Writer.varint w t.len;
  for i = 0 to t.len - 1 do
    let e = t.arr.(i) in
    Codec.Writer.varint w e.ts.Timestamp.clock;
    Codec.Writer.varint w e.ts.Timestamp.pid;
    Codec.Writer.varint w e.origin;
    encode_update w e.payload
  done;
  write_checksum w;
  Codec.Writer.contents w
