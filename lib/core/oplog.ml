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

(* First position whose timestamp is greater than [ts]. Timestamps are
   (clock, pid) pairs and strictly totally ordered, so <= 0 vs > 0 is
   the only split that matters. *)
let locate t ts =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Timestamp.compare t.arr.(mid).ts ts <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

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

let insert t entry =
  if entry.ts.Timestamp.clock <= t.watermark then stale ();
  grow t entry;
  let pos = locate t entry.ts in
  (* Timestamps are unique run-wide, so an equal timestamp is the same
     update seen again — snapshot catch-up racing an in-flight frame
     makes delivery at-least-once under churn. Keep insert idempotent. *)
  if pos > 0 && Timestamp.compare t.arr.(pos - 1).ts entry.ts = 0 then pos - 1
  else insert_at t entry pos

let rec check_watermark watermark = function
  | [] -> ()
  | e :: rest ->
    if e.ts.Timestamp.clock <= watermark then stale ();
    check_watermark watermark rest

(* Whether [prev] and the entries after it ascend strictly. Either way
   every entry is checked against the watermark, so a stale one raises
   before the log is touched. *)
let rec ascending_from watermark prev = function
  | [] -> true
  | e :: rest ->
    if e.ts.Timestamp.clock <= watermark then stale ();
    if Timestamp.compare prev.ts e.ts < 0 then ascending_from watermark e rest
    else begin
      check_watermark watermark rest;
      false
    end

(* [kept] (reversed, headed by [last]) plus the entries of a sorted
   list that do not repeat the timestamp before them. *)
let rec drop_repeats kept last = function
  | [] -> kept
  | e :: rest ->
    if Timestamp.compare e.ts last.ts = 0 then drop_repeats kept last rest
    else drop_repeats (e :: kept) e rest

(* Stable sort, then drop in-batch duplicates keeping the first — the
   order the sequential inserts would have kept. *)
let sorted_unique entries =
  match List.stable_sort (fun a b -> Timestamp.compare a.ts b.ts) entries with
  | [] -> [||]
  | first :: rest -> Array.of_list (List.rev (drop_repeats [ first ] first rest))

(* Index of the first entry of the sorted batch [inc], from [i] on,
   that the log does not hold yet; [Array.length inc] if none. *)
let rec first_fresh t inc i =
  if i >= Array.length inc then i
  else
    let pos = locate t inc.(i).ts in
    if pos > 0 && Timestamp.compare t.arr.(pos - 1).ts inc.(i).ts = 0 then
      first_fresh t inc (i + 1)
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
  | first :: rest ->
    if first.ts.Timestamp.clock <= t.watermark then stale ();
    let inc =
      if ascending_from t.watermark first rest then Array.of_list entries
      else sorted_unique entries
    in
    let first = first_fresh t inc 0 in
    if first = Array.length inc then 0 (* every entry already resident *)
    else begin
      (* [locate] is monotone in the timestamp, so the first fresh
         entry lands lowest. *)
      invalidate_above t (locate t inc.(first).ts);
      merge_batch t inc first
    end

(* Merge [inc.(first) ..] (everything below [first] is resident). Grow
   once to worst-case room, then merge from the back so every resident
   entry above the first fresh one moves at most once. Duplicates
   against the log are skipped during the merge, leaving one
   contiguous gap (the write pointer stands still while a duplicate is
   consumed) closed by a single blit. *)
and merge_batch t inc first =
    let len0 = t.len in
    let k = Array.length inc - first in
    let need = len0 + k in
    if need > Array.length t.arr then begin
      let arr = Array.make (max 8 (max need (2 * len0))) inc.(first) in
      Array.blit t.arr 0 arr 0 len0;
      t.arr <- arr
    end;
    let i = ref (len0 - 1) and j = ref (Array.length inc - 1) and w = ref (need - 1) in
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

let iter f t =
  for i = 0 to t.len - 1 do
    f t.arr.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.arr.(i)
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

let footprint t ~payload_wire_size =
  fold
    (fun acc e ->
      acc + Timestamp.wire_size e.ts + Wire.varint_size e.origin
      + payload_wire_size e.payload)
    0 t

(* Codec: byte-for-byte the frame the seed Persist wrote. *)

let magic = "UCL"

let version = 1

let checksum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc + Char.code c) land 0x3FFFFFFF) s;
  !acc

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
  let body = Codec.Writer.contents w in
  let tail = Codec.Writer.create () in
  Codec.Writer.varint tail (checksum body);
  body ^ Codec.Writer.contents tail

let decode_list ~decode_update s =
  (* The frame is self-delimiting: decode the body first, then the
     trailing varint is the checksum of everything before it. *)
  let r = Codec.Reader.of_string s in
  String.iter
    (fun c ->
      if Codec.Reader.u8 r <> Char.code c then
        raise (Codec.Decode_error "log snapshot: bad magic"))
    magic;
  if Codec.Reader.u8 r <> version then
    raise (Codec.Decode_error "log snapshot: unsupported version");
  let count = Codec.Reader.varint r in
  let entries =
    List.init count (fun _ ->
        let clock = Codec.Reader.varint r in
        let pid = Codec.Reader.varint r in
        let origin = Codec.Reader.varint r in
        let u = decode_update r in
        (Timestamp.make ~clock ~pid, origin, u))
  in
  let body_len =
    String.length s
    - (let probe = Codec.Writer.create () in
       Codec.Writer.varint probe (Codec.Reader.varint r);
       if not (Codec.Reader.at_end r) then
         raise (Codec.Decode_error "log snapshot: trailing bytes");
       Codec.Writer.length probe)
  in
  let body = String.sub s 0 body_len in
  let declared =
    Codec.Reader.varint
      (Codec.Reader.of_string (String.sub s body_len (String.length s - body_len)))
  in
  if checksum body <> declared then
    raise (Codec.Decode_error "log snapshot: checksum mismatch");
  entries

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
  let body = Codec.Writer.contents w in
  Codec.Writer.varint w (checksum body);
  Codec.Writer.contents w

let decode ~decode_update t s = load t (decode_list ~decode_update s)
