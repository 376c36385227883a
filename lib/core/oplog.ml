(* The entries live in three parallel columns: [clock] and [pid]
   unboxed in int arrays, and [payload]. The pid is the issuing
   process, so no column repeats it. The columns are cut into pages of
   [page_size] entries. Page 0 is held directly and doubles from 8
   entries up to one page; every later page is allocated whole into a
   page table that grows by doubling. So no column longer than one page
   is ever copied or freed, and a full page (1,025 words a column) is
   allocated straight into the major heap instead of being promoted
   from the minor one. *)

let page_bits = 10

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

(* A run of entries in column form: a page of the log, or the scratch
   a batch is gathered into. *)
type 'u columns = {
  clock : int array;
  pid : int array;
  payload : 'u array;
}

(* No entries: page 0 of an empty log, and the unallocated slots of a
   page table. *)
let empty = { clock = [||]; pid = [||]; payload = [||] }

(* [filler] initialises the payload slots: a payload of the log's own
   type, so a float payload column is a flat float array throughout. *)
let columns n filler =
  { clock = Array.make n 0; pid = Array.make n 0; payload = Array.make n filler }

let blit_columns a i b j n =
  Array.blit a.clock i b.clock j n;
  Array.blit a.pid i b.pid j n;
  Array.blit a.payload i b.payload j n

(* Timestamp order on (clock, pid) fields. *)
let[@inline] compare_fields c1 p1 c2 p2 =
  if c1 <> c2 then Int.compare c1 c2 else Int.compare p1 p2

(* Interval checkpoints, deepest first: [Ckpt (k, s, rest)] holds the
   fold of the first [k] entries, and every checkpoint in [rest] is
   shallower. An insert at [pos] invalidates exactly the checkpoints
   above [pos], which form the head of the chain: dropping them costs
   O(dropped), and an append (nothing above it) costs one test. *)
type 's checkpoints = Nil | Ckpt of int * 's * 's checkpoints

(* The query cache: the folds at consecutive positions [lo .. hi] of
   the latest replay, the fold of the first [p] entries in slot
   [p land (width - 1)] of [ring]; [hi = -1] marks it empty. The ring
   has one slot, or [wide] once a landing fell below [lo] but fewer
   than [wide] entries below [hi]: a late arrival the wider ring would
   have caught. [width] is the slot count the next replay makes [ring]
   hold, allocating it then, once. *)
type 's folds = {
  mutable ring : 's array;
  mutable width : int;
  mutable lo : int;
  mutable hi : int;
}

(* The widened ring's slots. A late arrival on sim-mixed lands 2.3
   entries below the tail on average, and 8 slots cut its allocation
   per operation as far as 16 or 32 do (DESIGN.md, the query cache). *)
let wide = 8

type ('u, 's) t = {
  mutable page0 : 'u columns;  (* entries [0 .. page_size - 1] *)
  mutable pages : 'u columns array;
      (* [[||]] while the log fits page 0. Then slot [p] holds page [p]
         (slot 0 is [page0]): the allocated pages are a prefix of the
         table, and [empty] fills the slots past them. *)
  mutable len : int;
  interval : int;
  mutable checkpoints : 's checkpoints;
  mutable watermark : int;
  mutable profile : Obs.Profile.t option;
  query_cache : bool;
  mutable qcache : 's folds option;
      (* The last folds of the latest replay, made by the first one;
         like checkpoints but free-floating: re-recorded up to the log
         tail on every replay, so a query after a run of appends folds
         only the suffix that arrived since the previous query, and one
         after a late arrival near the tail folds only from where it
         landed. *)
}

let create ?(checkpoint_interval = 0) ?(query_cache = false) () =
  if checkpoint_interval < 0 then
    invalid_arg "Oplog.create: checkpoint interval must be non-negative";
  {
    page0 = empty;
    pages = [||];
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

let length t = t.len

(* The page holding entry [i], at offset [i land page_mask]. *)
let[@inline] page t i = if i < page_size then t.page0 else t.pages.(i lsr page_bits)

let[@inline] clock_at t i = (page t i).clock.(i land page_mask)

let[@inline] pid_at t i = (page t i).pid.(i land page_mask)

let[@inline] payload_at t i = (page t i).payload.(i land page_mask)

let set t i clock pid payload =
  let p = page t i and o = i land page_mask in
  p.clock.(o) <- clock;
  p.pid.(o) <- pid;
  p.payload.(o) <- payload

(* Entry [i] of [b] into slot [w] of the log. *)
let set_from t w b i = set t w b.clock.(i) b.pid.(i) b.payload.(i)

(* Room for [n] entries. Page 0 doubles up to a full page; past it,
   whole pages join the table, which doubles as a table of pointers,
   never of entries. [filler] fills the fresh payload slots. *)
let reserve t n filler =
  let cap0 = Array.length t.page0.clock in
  if n > cap0 then begin
    if cap0 < page_size then begin
      let cap = ref (max 8 cap0) in
      while !cap < n && !cap < page_size do
        cap := 2 * !cap
      done;
      let p = columns !cap filler in
      blit_columns t.page0 0 p 0 t.len;
      t.page0 <- p
    end;
    if n > page_size then begin
      let used = (n + page_mask) lsr page_bits in
      let slots = Array.length t.pages in
      if used > slots then begin
        let table = Array.make (max 2 (max used (2 * slots))) empty in
        Array.blit t.pages 0 table 0 slots;
        table.(0) <- t.page0;
        t.pages <- table
      end;
      let p = ref (used - 1) in
      while t.pages.(!p) == empty do
        t.pages.(!p) <- columns page_size filler;
        decr p
      done
    end
  end

(* Move entries [src .. src + n - 1] to [dst ..] (the ranges may
   overlap), one blit per column for each stretch that crosses no page
   boundary on either side: back to front when moving up, front to back
   when moving down, so no entry is overwritten before it has moved. *)
let move t ~src ~dst n =
  if dst > src then begin
    let rem = ref n in
    while !rem > 0 do
      let s = src + !rem - 1 and d = dst + !rem - 1 in
      let run = min !rem (min ((s land page_mask) + 1) ((d land page_mask) + 1)) in
      blit_columns (page t s)
        ((s - run + 1) land page_mask)
        (page t d)
        ((d - run + 1) land page_mask)
        run;
      rem := !rem - run
    done
  end
  else if dst < src then begin
    let moved = ref 0 in
    while !moved < n do
      let s = src + !moved and d = dst + !moved in
      let run =
        min (n - !moved)
          (min (page_size - (s land page_mask)) (page_size - (d land page_mask)))
      in
      blit_columns (page t s) (s land page_mask) (page t d) (d land page_mask) run;
      moved := !moved + run
    done
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Oplog.get: index out of bounds";
  let pid = pid_at t i in
  (Timestamp.make ~clock:(clock_at t i) ~pid, pid, payload_at t i)

let clock t i =
  if i < 0 || i >= t.len then invalid_arg "Oplog.clock: index out of bounds";
  clock_at t i

let payload t i =
  if i < 0 || i >= t.len then invalid_arg "Oplog.payload: index out of bounds";
  payload_at t i

(* First position whose timestamp is greater than (clock, pid).
   Timestamps are (clock, pid) pairs and strictly totally ordered, so
   <= vs > is the only split that matters. *)
let locate_fields t clock pid =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = clock_at t mid in
    if c < clock || (c = clock && pid_at t mid <= pid) then lo := mid + 1
    else hi := mid
  done;
  !lo

let locate t ts = locate_fields t ts.Timestamp.clock ts.Timestamp.pid

(* Whether the log holds the entry stamped (clock, pid). *)
let holds t ~clock ~pid =
  let pos = locate_fields t clock pid in
  pos > 0 && clock_at t (pos - 1) = clock && pid_at t (pos - 1) = pid

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
   than [pos]: the checkpoints above it die, and so do the cached folds
   above it. At or below [pos] they stay valid, so the cache keeps
   [lo .. pos]; a landing below [lo] empties it. *)
let invalidate_above t pos =
  drop_checkpoints_above t pos;
  match t.qcache with
  | Some c when pos < c.hi ->
    if pos >= c.lo then c.hi <- pos
    else begin
      if c.hi - pos < wide then c.width <- wide;
      c.hi <- -1
    end
  | _ -> ()

let insert_at t pos clock pid payload =
  move t ~src:pos ~dst:(pos + 1) (t.len - pos);
  set t pos clock pid payload;
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

(* Whether (clock, pid) sorts above every entry: the one comparison an
   append costs. *)
let above_tail t clock pid =
  t.len = 0
  ||
  let top = clock_at t (t.len - 1) in
  top < clock || (top = clock && pid_at t (t.len - 1) < pid)

(* An entry above the tail shifts nothing and invalidates nothing:
   every checkpoint and the query cache cover a prefix of what is
   already there. *)
let append t clock pid payload =
  let pos = t.len in
  set t pos clock pid payload;
  t.len <- pos + 1;
  (match t.profile with
  | None -> ()
  | Some p ->
    p.Obs.Profile.inserts <- p.Obs.Profile.inserts + 1;
    p.Obs.Profile.appends <- p.Obs.Profile.appends + 1);
  pos

let insert t ~clock ~pid payload =
  if clock <= t.watermark then stale ();
  reserve t (t.len + 1) payload;
  if above_tail t clock pid then append t clock pid payload
  else begin
    let pos = locate_fields t clock pid in
    (* Timestamps are unique run-wide, so an equal timestamp is the same
       update seen again — snapshot catch-up racing an in-flight frame
       makes delivery at-least-once under churn. Keep insert idempotent. *)
    if pos > 0 && clock_at t (pos - 1) = clock && pid_at t (pos - 1) = pid then pos - 1
    else insert_at t pos clock pid payload
  end

(* Stable sort of [b.(0 .. n - 1)] by timestamp, then drop repeats
   keeping the first — the one the sequential inserts would have kept.
   Returns the sorted columns and how many entries they hold. *)
let sort_unique b n =
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j -> compare_fields b.clock.(i) b.pid.(i) b.clock.(j) b.pid.(j))
    order;
  let s = columns n b.payload.(0) in
  let kept = ref 0 in
  Array.iter
    (fun i ->
      if
        !kept = 0
        || compare_fields s.clock.(!kept - 1) s.pid.(!kept - 1) b.clock.(i) b.pid.(i)
           <> 0
      then begin
        blit_columns b i s !kept 1;
        incr kept
      end)
    order;
  (s, !kept)

(* Index of the first entry of [b.(i .. n - 1)] that the log does not
   hold yet; [n] if none. *)
let rec first_fresh t b i n =
  if i >= n then i
  else if holds t ~clock:b.clock.(i) ~pid:b.pid.(i) then first_fresh t b (i + 1) n
  else i

(* Merge [b.(first) .. b.(stop - 1)] (everything below [first] is
   resident). Reserve worst-case room once, then merge from the back
   so every resident entry above the first fresh one moves at most
   once. Duplicates against the log are skipped during the merge,
   leaving one contiguous gap (the write pointer stands still while a
   duplicate is consumed) closed by a single move. *)
let merge_batch t b first stop =
  let len0 = t.len in
  let k = stop - first in
  let need = len0 + k in
  reserve t need b.payload.(first);
  let i = ref (len0 - 1) and j = ref (stop - 1) and w = ref (need - 1) in
  let dups = ref 0 and appended = ref 0 and moved = ref 0 in
  while !j >= first do
    if !i >= 0 then begin
      let c = compare_fields (clock_at t !i) (pid_at t !i) b.clock.(!j) b.pid.(!j) in
      if c > 0 then begin
        set t !w (clock_at t !i) (pid_at t !i) (payload_at t !i);
        incr moved;
        decr i;
        decr w
      end
      else if c = 0 then begin
        incr dups;
        decr j
      end
      else begin
        set_from t !w b !j;
        if !moved = 0 then incr appended;
        decr j;
        decr w
      end
    end
    else begin
      set_from t !w b !j;
      decr j;
      decr w
    end
  done;
  let fresh = k - !dups in
  if !dups > 0 then
    (* Close the gap the skipped duplicates left between the resident
       prefix [0 .. i] and the merged region above it. *)
    move t ~src:(!i + 1 + !dups) ~dst:(!i + 1) (need - !dups - (!i + 1));
  t.len <- len0 + fresh;
  (match t.profile with
  | None -> ()
  | Some p ->
    p.Obs.Profile.inserts <- p.Obs.Profile.inserts + fresh;
    p.Obs.Profile.appends <- p.Obs.Profile.appends + !appended;
    p.Obs.Profile.shift_distance <- p.Obs.Profile.shift_distance + !moved);
  fresh

(* Land the gathered [b.(0 .. n - 1)], none of them at or below the
   watermark, sorting them first unless they already ascend strictly;
   returns how many were fresh. *)
let land_batch t b n ~ascending =
  let b, n = if ascending then (b, n) else sort_unique b n in
  let first = first_fresh t b 0 n in
  if first = n then 0 (* every entry already resident *)
  else begin
    (* [locate] is monotone in the timestamp, so the first fresh
       entry lands lowest. *)
    invalidate_above t (locate_fields t b.clock.(first) b.pid.(first));
    merge_batch t b first n
  end

(* A top-level loop: a [List.iteri] closure would be allocated per
   batch. *)
let rec gather b ~ts ~payload i = function
  | [] -> ()
  | m :: rest ->
    let stamp = ts m in
    b.clock.(i) <- stamp.Timestamp.clock;
    b.pid.(i) <- stamp.Timestamp.pid;
    b.payload.(i) <- payload m;
    gather b ~ts ~payload (i + 1) rest

(* Batch insertion: the batch is gathered into column scratch, then
   landed with one capacity check and one back-to-front merge pass over
   the pages, O(n + k) for k incoming entries against n resident ones,
   plus a stable sort of the batch unless it already ascends (a
   sender's envelope and a snapshot frame both do). The sequential
   path pays k binary searches plus up to k suffix moves. Semantically
   identical to folding [insert] over the batch in order: duplicate
   timestamps (within the batch or against the log) are the same
   update delivered again and are skipped; checkpoints and the query
   cache are invalidated exactly as the sequence of single inserts
   would have invalidated them (every checkpoint above the lowest fresh
   landing position dies). *)
let insert_batch t ~ts ~payload items =
  match items with
  | [] -> 0
  | [ m ] ->
    let len0 = t.len and stamp = ts m in
    ignore
      (insert t ~clock:stamp.Timestamp.clock ~pid:stamp.Timestamp.pid (payload m) : int);
    t.len - len0
  | m :: _ ->
    let n = List.length items in
    let b = columns n (payload m) in
    gather b ~ts ~payload 0 items;
    let ascending = ref true in
    for i = 0 to n - 1 do
      if b.clock.(i) <= t.watermark then stale ();
      if i > 0 && compare_fields b.clock.(i - 1) b.pid.(i - 1) b.clock.(i) b.pid.(i) >= 0
      then ascending := false
    done;
    land_batch t b n ~ascending:!ascending

let fold_down f t init =
  let acc = ref init in
  for i = t.len - 1 downto 0 do
    acc := f (pid_at t i) (payload_at t i) !acc
  done;
  !acc

(* The merge [fold_down_merged] runs: a loser tree over the logs. Leaf
   [j] (node [k + j] of [k] leaves) stands for log [j]'s next entry
   down, [next.(j)], whose timestamp is cached in [next_clock] and
   [next_pid] so that a match reads no column ([min_int] once the log
   is spent). Inner node [n], with children [2n] and [2n + 1], keeps
   the loser of its match, and node 0 the winner. *)
type merge = {
  next : int array;
  next_clock : int array;
  next_pid : int array;
  tree : int array;
}

let[@inline] beats (m : merge) a b =
  let ca = Array.unsafe_get m.next_clock a and cb = Array.unsafe_get m.next_clock b in
  ca > cb || (ca = cb && Array.unsafe_get m.next_pid a > Array.unsafe_get m.next_pid b)

let load_leaf (m : merge) logs j =
  let i = m.next.(j) in
  if i < 0 then begin
    m.next_clock.(j) <- min_int;
    m.next_pid.(j) <- min_int
  end
  else begin
    m.next_clock.(j) <- clock_at logs.(j) i;
    m.next_pid.(j) <- pid_at logs.(j) i
  end

let fold_down_merged f init logs =
  let k = Array.length logs in
  let m =
    {
      next = Array.map (fun t -> t.len - 1) logs;
      next_clock = Array.make k 0;
      next_pid = Array.make k 0;
      tree = Array.make (max 1 k) 0;
    }
  in
  let winner = Array.make (2 * k) 0 in
  let total = ref 0 in
  for j = 0 to k - 1 do
    total := !total + logs.(j).len;
    load_leaf m logs j;
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
    let log = logs.(j) and i = m.next.(j) in
    acc := f !acc m.next_clock.(j) m.next_pid.(j) (payload_at log i);
    m.next.(j) <- i - 1;
    load_leaf m logs j;
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

let to_list t = List.init t.len (get t)

let empty_cache t = match t.qcache with Some c -> c.hi <- -1 | None -> ()

let load t entries =
  List.iter
    (fun (ts, origin, _) ->
      if origin <> ts.Timestamp.pid then
        invalid_arg "Oplog.load: an entry's origin differs from its timestamp's pid")
    entries;
  let entries =
    List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b) entries
  in
  let n = List.length entries in
  t.page0 <- empty;
  t.pages <- [||];
  t.len <- 0;
  (match entries with [] -> () | (_, _, filler) :: _ -> reserve t n filler);
  List.iteri
    (fun i (ts, _, payload) -> set t i ts.Timestamp.clock ts.Timestamp.pid payload)
    entries;
  t.len <- n;
  t.checkpoints <- Nil;
  empty_cache t;
  t.watermark <- 0

(* The query cache's ring for a replay from [base], whose fold is
   [state]: allocated at the cache's width if it has not that many
   slots yet (the cache is empty then), and [[||]] without a cache.
   The cache comes out holding [lo .. len], [lo] as deep as the ring
   reaches: the folds it held up to [base] still count if [base] is its
   [hi], the replay's start, and the replay records the rest. A log
   that is never replayed pays no cache: the first replay makes it. *)
let rec cache_ring t base state =
  match t.qcache with
  | None when t.query_cache ->
    t.qcache <- Some { ring = [||]; width = 1; lo = 0; hi = -1 };
    cache_ring t base state
  | None -> [||]
  | Some c ->
    if Array.length c.ring <> c.width then c.ring <- Array.make c.width state;
    let lo = if c.hi = base then c.lo else base in
    c.lo <- max lo (t.len - c.width + 1);
    c.hi <- t.len;
    c.ring

(* Fold the entries from [base] on onto [state], the fold of the first
   [base]. States are recorded on the way so the next replay starts
   close to the end of the log: a checkpoint every [interval] entries
   (the head checkpoint is the deepest, so [i + 1 > base] never
   duplicates one), and each of the last folds the query cache's ring
   holds, one array store apiece. *)
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
  let ring = cache_ring t base state in
  let mask = Array.length ring - 1 in
  (* The ring keeps the folds of the first [keep + 1 ..] entries. *)
  let keep = t.len - Array.length ring in
  if base > keep then ring.(base land mask) <- state;
  let state = ref state in
  for i = base to t.len - 1 do
    state := apply !state (payload_at t i);
    if i >= keep then ring.((i + 1) land mask) <- !state;
    if t.interval > 0 && (i + 1) mod t.interval = 0 then begin
      t.checkpoints <- Ckpt (i + 1, !state, t.checkpoints);
      match t.profile with
      | None -> ()
      | Some p ->
        p.Obs.Profile.checkpoints_taken <- p.Obs.Profile.checkpoints_taken + 1
    end
  done;
  (!state, t.len - base)

(* Start from the deeper of the head checkpoint and the query cache's
   [hi]. The cache is re-recorded up to the tail on every replay, so it
   is at least as deep as any checkpoint unless an entry landed below
   [lo] since the last query. *)
let replay t ~apply ~initial =
  let deepest = match t.checkpoints with Ckpt (k, _, _) -> k | Nil -> 0 in
  match t.qcache with
  | Some c when c.hi >= deepest ->
    replay_from t ~apply c.hi c.ring.(c.hi land (Array.length c.ring - 1))
  | _ -> (
    match t.checkpoints with
    | Ckpt (k, s, _) -> replay_from t ~apply k s
    | Nil -> replay_from t ~apply 0 initial)

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
    let stop = locate_fields t upto_clock max_int in
    let state = ref snapshot in
    for i = 0 to stop - 1 do
      state := apply !state (payload_at t i)
    done;
    move t ~src:stop ~dst:0 (t.len - stop);
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
    empty_cache t;
    t.watermark <- upto_clock;
    (!state, stop)
  end

(* Wire bytes of entry [i] without its payload: the two timestamp
   varints and the origin varint, which repeats the pid. *)
let entry_overhead t i =
  let pid = pid_at t i in
  Wire.pair_size (clock_at t i) pid + Wire.varint_size pid

(* A loop, not a [fold]: its closure over [payload_wire_size] would be
   allocated on every call, once per key log on the sharded space. *)
let footprint t ~payload_wire_size =
  let bytes = ref 0 in
  for i = 0 to t.len - 1 do
    bytes := !bytes + entry_overhead t i + payload_wire_size (payload_at t i)
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
    (fun (ts, _, u) ->
      Codec.Writer.varint w ts.Timestamp.clock;
      Codec.Writer.varint w ts.Timestamp.pid;
      Codec.Writer.varint w ts.Timestamp.pid;
      encode_update w u)
    entries;
  write_checksum w;
  Codec.Writer.contents w

let corrupt what = raise (Codec.Decode_error ("log snapshot: " ^ what))

(* The one parser of the frame. It walks a frame off [r], which must
   end where the frame does, calling [f clock pid update] on each entry
   in frame order, then checks the trailer against the bytes it walked,
   in place. An entry's origin varint must repeat its pid: the issuing
   process is the timestamp's. It builds nothing itself, so each
   consumer builds only what it keeps. *)
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
    if Codec.Reader.varint r <> pid then corrupt "origin differs from pid";
    f clock pid (decode_update r)
  done;
  let sum = Codec.Reader.byte_sum r ~from:start land checksum_mask in
  let declared = Codec.Reader.varint r in
  if not (Codec.Reader.at_end r) then corrupt "trailing bytes";
  if declared <> sum then corrupt "checksum mismatch"

let frame_floor ~decode_update r =
  let floor = ref max_int in
  walk ~decode_update r (fun clock _ _ -> if clock < !floor then floor := clock);
  !floor

let decode_list ~decode_update r =
  let entries = ref [] in
  walk ~decode_update r (fun clock pid u ->
      entries := (Timestamp.make ~clock ~pid, pid, u) :: !entries);
  List.rev !entries

(* What [merge_frame] keeps of a frame while walking it: the entries
   the log does not hold, in frame order, in column scratch. *)
type 'u gathered = {
  mutable fresh : 'u columns;
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
  let g = { fresh = empty; n = 0; ascending = true; top = 0; refused = false } in
  walk ~decode_update r (fun clock pid payload ->
      if clock > g.top then g.top <- clock;
      if clock <= t.watermark then g.refused <- true
      else if not (holds t ~clock ~pid) then begin
        let i = g.n in
        if i = Array.length g.fresh.clock then begin
          let grown = columns (max 8 (2 * i)) payload in
          blit_columns g.fresh 0 grown 0 i;
          g.fresh <- grown
        end;
        let b = g.fresh in
        if i > 0 && compare_fields b.clock.(i - 1) b.pid.(i - 1) clock pid >= 0 then
          (* An unsorted frame, or one repeating a fresh timestamp. *)
          g.ascending <- false;
        b.clock.(i) <- clock;
        b.pid.(i) <- pid;
        b.payload.(i) <- payload;
        g.n <- i + 1
      end);
  if g.refused then None
  else begin
    ignore (land_batch t g.fresh g.n ~ascending:g.ascending : int);
    Some g.top
  end

(* Same frame as [encode_list], produced straight off the columns: no
   [to_list] materialisation, and with [update_wire_size] available the
   buffer is pre-sized to the exact frame length so the writer never
   reallocates. This is the hot path for [Persist] snapshots of
   array-core replicas. *)
let encode ?update_wire_size ~encode_update t =
  let header_size = String.length magic + 1 + Wire.varint_size t.len in
  let body_size =
    match update_wire_size with
    | None -> header_size + (16 * t.len) (* capacity hint only *)
    | Some size ->
      let acc = ref header_size in
      for i = 0 to t.len - 1 do
        acc := !acc + entry_overhead t i + size (payload_at t i)
      done;
      !acc
  in
  (* + 5: room for the trailing checksum varint (<= 2^30 fits in 5). *)
  let w = Codec.Writer.create ~size:(body_size + 5) () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) magic;
  Codec.Writer.u8 w version;
  Codec.Writer.varint w t.len;
  for i = 0 to t.len - 1 do
    let pid = pid_at t i in
    Codec.Writer.varint w (clock_at t i);
    Codec.Writer.varint w pid;
    Codec.Writer.varint w pid;
    encode_update w (payload_at t i)
  done;
  write_checksum w;
  Codec.Writer.contents w
