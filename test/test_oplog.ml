(* QCheck properties for the shared oplog substrate (lib/core/oplog.ml):
   insertion of any permutation equals the timestamp sort, checkpointed
   replay at every interval equals the full replay, compaction folds
   exactly the stable prefix, a merge of several logs is the timestamp
   sort, and the persistence codec round-trips at its declared wire
   size and refuses an entry whose origin is not its pid. *)

open Helpers

(* A random batch of entries with pairwise-distinct timestamps (clock
   collisions are disambiguated by pid, exactly as the protocol's
   (Lamport clock, pid) pairs are), in a shuffled insertion order. *)
let entry_batch rng =
  let n = Prng.int rng 80 in
  let raw = List.init n (fun _ -> (1 + Prng.int rng 50, Prng.int rng 4)) in
  let uniq = List.sort_uniq compare raw in
  let entries =
    List.map
      (fun (clock, pid) ->
        (Timestamp.make ~clock ~pid, pid, Set_spec.random_update rng))
      uniq
  in
  let arr = Array.of_list entries in
  for i = Array.length arr - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let by_timestamp entries =
  List.sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b) entries

(* Entries are [(timestamp, pid, payload)] triples, the shape of
   [Oplog.to_list]. *)
let ts_of (ts, _, _) = ts

let insert log ((ts : Timestamp.t), _, payload) =
  Oplog.insert log ~clock:ts.clock ~pid:ts.pid payload

let insert_batch log entries =
  Oplog.insert_batch log ~ts:ts_of ~payload:(fun (_, _, payload) -> payload) entries

let insert_all log entries = List.iter (fun e -> ignore (insert log e : int)) entries

let fold_states entries =
  List.fold_left (fun s (_, _, u) -> Set_spec.apply s u) Set_spec.initial entries

(* Minor words per insert of [entries.(live) ..] into a log that holds
   [entries.(0 .. live - 1)] and, if [checkpointed], one live checkpoint
   per entry. The entries are built before the count starts, so only
   the log's own work is measured. *)
let words_per_insert ~checkpointed ~profile ~live entries =
  let log =
    Oplog.create ~checkpoint_interval:(if checkpointed then 1 else 0) ()
  in
  if profile then Oplog.set_profile log (Some (Obs.Profile.create ()));
  for i = 0 to live - 1 do
    ignore (insert log entries.(i) : int)
  done;
  ignore (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial);
  Alcotest.(check int)
    "live checkpoints" (if checkpointed then live else 0)
    (Oplog.checkpoints_live log);
  let inserted = Array.length entries - live in
  let words =
    minor_words (fun () ->
        for i = live to Array.length entries - 1 do
          ignore (insert log entries.(i) : int)
        done)
  in
  words /. float_of_int inserted

let entry ~clock ~pid = (Timestamp.make ~clock ~pid, pid, Set_spec.Insert (clock mod 16))

(* Appends drop no checkpoint, so carrying hundreds of them must cost
   an append nothing: a checkpoint list rebuilt on every insert showed
   up as ~2.4x the allocation of whole simulated runs. *)
let append_guard ~profile () =
  let live = 600 and appended = 10_000 in
  let entries = Array.init (live + appended) (fun i -> entry ~clock:(i + 1) ~pid:0) in
  let plain = words_per_insert ~checkpointed:false ~profile ~live entries in
  let checkpointed = words_per_insert ~checkpointed:true ~profile ~live entries in
  if checkpointed > plain then
    Alcotest.failf "append with %d live checkpoints: %.2f words/insert, without: %.2f"
      live checkpointed plain

(* A late insert just below the tail drops one checkpoint; what it
   allocates must not grow with the hundreds that survive. *)
let late_insert_guard () =
  let live = 600 and late = 100 in
  let resident = Array.init live (fun i -> entry ~clock:(i + 1) ~pid:0) in
  (* (c, 1) lands right after (c, 0), at position c: above exactly one
     checkpoint, the head one, as c counts down from the tail. *)
  let entries =
    Array.append resident
      (Array.init late (fun j -> entry ~clock:(live - 1 - j) ~pid:1))
  in
  let plain = words_per_insert ~checkpointed:false ~profile:false ~live entries in
  let checkpointed = words_per_insert ~checkpointed:true ~profile:false ~live entries in
  if checkpointed > plain then
    Alcotest.failf "late insert with %d live checkpoints: %.2f words/insert, without: %.2f"
      live checkpointed plain;
  let log = Oplog.create ~checkpoint_interval:1 () in
  let p = Obs.Profile.create () in
  Oplog.set_profile log (Some p);
  Array.iteri (fun i e -> if i < live then ignore (insert log e : int)) entries;
  ignore (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial);
  for i = live to Array.length entries - 1 do
    ignore (insert log entries.(i) : int)
  done;
  Alcotest.(check int) "one drop per late insert" late p.Obs.Profile.checkpoints_dropped;
  Alcotest.(check int) "survivors" (live - late) (Oplog.checkpoints_live log)

(* Checkpoint invalidation against the rule it implements, kept here
   as the reference: on every insert or batch, filter the checkpoint
   positions down to those at or below the lowest fresh landing
   position and count what the filter removed. Replays record new
   positions at the multiples of the interval they fold past. Batches
   ascend half the time (the sort-free path a snapshot frame takes)
   and are shuffled, with repeats, otherwise. Every surviving
   checkpoint must still hold the fold of its prefix. *)
let dropped_reference =
  qtest ~count:300 "checkpoints_dropped counts what the List.filter reference drops"
    seed_gen
    (fun seed ->
      let rng = Prng.create seed in
      let interval = 1 + Prng.int rng 6 in
      let log =
        Oplog.create ~checkpoint_interval:interval
          ~query_cache:(Prng.int rng 2 = 0) ()
      in
      let p = Obs.Profile.create () in
      Oplog.set_profile log (Some p);
      let ks = ref [] and dropped = ref 0 in
      let invalidate pos =
        let before = List.length !ks in
        ks := List.filter (fun k -> k <= pos) !ks;
        dropped := !dropped + before - List.length !ks
      in
      let random_entry () =
        entry ~clock:(1 + Prng.int rng 40) ~pid:(Prng.int rng 3)
      in
      let resident e =
        List.exists (fun (ts, _, _) -> Timestamp.equal ts (ts_of e)) (Oplog.to_list log)
      in
      let step () =
        match Prng.int rng 3 with
        | 0 ->
          let len = Oplog.length log in
          let _, steps =
            Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
          in
          for m = ((len - steps) / interval) + 1 to len / interval do
            ks := (m * interval) :: !ks
          done
        | 1 ->
          let e = random_entry () in
          let fresh = not (resident e) and pos = Oplog.locate log (ts_of e) in
          ignore (insert log e : int);
          if fresh then invalidate pos
        | _ ->
          let batch = List.init (Prng.int rng 12) (fun _ -> random_entry ()) in
          let batch =
            if Prng.int rng 2 = 0 then
              List.sort_uniq (fun a b -> Timestamp.compare (ts_of a) (ts_of b)) batch
            else batch
          in
          let lowest =
            List.fold_left
              (fun acc e ->
                if resident e then acc else min acc (Oplog.locate log (ts_of e)))
              max_int batch
          in
          ignore (insert_batch log batch : int);
          if lowest < max_int then invalidate lowest
      in
      List.for_all
        (fun _ ->
          step ();
          let prefix k = List.filteri (fun i _ -> i < k) (Oplog.to_list log) in
          p.Obs.Profile.checkpoints_dropped = !dropped
          && Oplog.checkpoints_live log = List.length !ks
          && List.map fst (Oplog.checkpoints log) = !ks
          && List.for_all
               (fun (k, s) -> Set_spec.equal_state s (fold_states (prefix k)))
               (Oplog.checkpoints log))
        (List.init 40 Fun.id))

(* The three places an insert can land relative to the tail, which
   [Oplog.insert] tells apart with one comparison before any binary
   search: above it (an append, keeping every checkpoint and the query
   cache), on it (the same update again, a no-op), and just below it
   (a shift of one, dropping the cached states above). *)
let edge_inserts () =
  let log = Oplog.create ~checkpoint_interval:1 ~query_cache:true () in
  let profile = Obs.Profile.create () in
  Oplog.set_profile log (Some profile);
  let entry clock pid v = (Timestamp.make ~clock ~pid, pid, Set_spec.Insert v) in
  let replay () = snd (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial) in
  insert_all log [ entry 1 0 1; entry 2 0 2; entry 3 0 3 ];
  ignore (replay () : int);
  Alcotest.(check int) "above the tail lands at the end" 3 (insert log (entry 5 1 4));
  Alcotest.(check int) "an append drops no checkpoint" 3 (Oplog.checkpoints_live log);
  Alcotest.(check (pair int int)) "counted as an append, nothing shifted" (4, 0)
    (profile.Obs.Profile.appends, profile.Obs.Profile.shift_distance);
  Alcotest.(check int) "the query cache survived the append" 1 (replay ());
  Alcotest.(check int) "a tail duplicate returns the tail" 3 (insert log (entry 5 1 9));
  Alcotest.(check (pair int int)) "a tail duplicate adds nothing" (4, 4)
    (Oplog.length log, profile.Obs.Profile.inserts);
  Alcotest.(check int) "just below the tail lands under it" 3 (insert log (entry 5 0 5));
  Alcotest.(check (pair int int)) "one entry shifted" (5, 1)
    (profile.Obs.Profile.inserts, profile.Obs.Profile.shift_distance);
  Alcotest.(check int) "the checkpoint above it dropped" 3 (Oplog.checkpoints_live log);
  Alcotest.(check int) "replay resumes below it" 2 (replay ());
  Alcotest.(check (list (pair int int))) "timestamp order"
    [ (1, 0); (2, 0); (3, 0); (5, 0); (5, 1) ]
    (List.map (fun (ts, _, _) -> (ts.Timestamp.clock, ts.Timestamp.pid)) (Oplog.to_list log));
  Alcotest.(check bool) "the resident tail entry was kept" true
    (Set_spec.equal_update (Oplog.payload log 4) (Set_spec.Insert 4))

(* The query cache after one near miss. An arrival landing just below
   the last replay's tail, under the one-slot cache, makes the next
   replay start from the interval checkpoint and keep the last 8 folds
   from then on. Then an arrival that lands with [d] entries at and
   above it, itself included, costs a replay of exactly those [d] when
   [d <= 8], wherever the checkpoint lies; at [d >= 9] it lands below
   the ring and the replay falls back to the checkpoint. Each round
   first appends 16 entries and replays, so the arrival lands among
   fresh entries, and [d = 1] is an append. *)
let near_tail_replay () =
  let log = Oplog.create ~checkpoint_interval:32 ~query_cache:true () in
  let top = ref 0 in
  let append () =
    top := !top + 100;
    ignore (Oplog.insert log ~clock:!top ~pid:0 (Set_spec.Insert (!top mod 7)) : int)
  in
  let replay () = snd (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial) in
  let arrive d =
    let pos = Oplog.length log + 1 - d in
    let clock = if d = 1 then !top + 1 else Oplog.clock log pos - 1 in
    Alcotest.(check int)
      (Printf.sprintf "%d at and above the arrival" d)
      pos
      (Oplog.insert log ~clock ~pid:1 (Set_spec.Delete (clock mod 7)))
  in
  let deepest () = match Oplog.checkpoints log with (k, _) :: _ -> k | [] -> 0 in
  for _ = 1 to 100 do
    append ()
  done;
  Alcotest.(check int) "the first replay folds the log" 100 (replay ());
  arrive 2;
  Alcotest.(check int) "a near miss on the one-slot cache replays from the checkpoint"
    (101 - 96) (replay ());
  for d = 1 to 12 do
    for _ = 1 to 16 do
      append ()
    done;
    ignore (replay () : int);
    arrive d;
    let expected = if d <= 8 then d else Oplog.length log - deepest () in
    Alcotest.(check int) (Printf.sprintf "replay steps, %d at and above" d) expected (replay ())
  done;
  Alcotest.(check bool) "the cached folds answer as the full fold" true
    (Set_spec.equal_state
       (fst (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial))
       (fold_states (Oplog.to_list log)))

(* What the query cache holds resident: the words a log with the cache
   holds beyond an identical log without it, on int payloads and
   states. Appends, replays and landings 20 entries below the tail
   leave it one fold (the option, its four-field record and a one-slot
   ring, 9 words); one landing just below the tail widens it to the
   8-slot ring. *)
let cache_resident_guard () =
  let cached : (int, int) Oplog.t = Oplog.create ~query_cache:true () in
  let plain : (int, int) Oplog.t = Oplog.create () in
  let insert clock =
    List.iter (fun log -> ignore (Oplog.insert log ~clock ~pid:0 1 : int)) [ cached; plain ]
  in
  let replay () =
    List.iter (fun log -> ignore (Oplog.replay log ~apply:( + ) ~initial:0)) [ cached; plain ]
  in
  let cache_words () =
    Obj.reachable_words (Obj.repr cached) - Obj.reachable_words (Obj.repr plain)
  in
  for i = 1 to 300 do
    insert (100 * i);
    if i mod 10 = 0 then replay ();
    if i mod 50 = 0 then insert ((100 * (i - 20)) + 1)
  done;
  replay ();
  let words = cache_words () in
  if words > 9 then Alcotest.failf "without a near miss the query cache holds %d words" words;
  insert ((100 * 300) - 1);
  replay ();
  let widened = cache_words () in
  if widened <= words then
    Alcotest.failf "a near miss left the query cache at %d words (%d before)" widened words

(* A replay from the widened ring on a counter log, whose [apply] is
   integer addition and allocates nothing: each replay allocates its
   (state, steps) pair, 3 words, and each checkpoint it records a
   4-word cell, and nothing a step. The replays counted start from the
   ring: after a round of appends, and after an arrival landing 2 to 8
   entries from the tail. *)
let ring_replay_guard () =
  let log : (int, int) Oplog.t = Oplog.create ~checkpoint_interval:32 ~query_cache:true () in
  let profile = Obs.Profile.create () in
  Oplog.set_profile log (Some profile);
  let top = ref 0 in
  let append () =
    top := !top + 100;
    ignore (Oplog.insert log ~clock:!top ~pid:0 1 : int)
  in
  let arrive d =
    let pos = Oplog.length log + 1 - d in
    ignore (Oplog.insert log ~clock:(Oplog.clock log pos - 1) ~pid:1 1 : int)
  in
  let replays = ref 0 and steps = ref 0 and words = ref 0. in
  let replay () =
    let counted = ref 0 in
    words :=
      !words
      +. Helpers.minor_words (fun () ->
             counted := snd (Oplog.replay log ~apply:( + ) ~initial:0));
    incr replays;
    steps := !steps + !counted
  in
  for _ = 1 to 100 do
    append ()
  done;
  ignore (Oplog.replay log ~apply:( + ) ~initial:0);
  arrive 2;
  ignore (Oplog.replay log ~apply:( + ) ~initial:0);
  let taken = profile.Obs.Profile.checkpoints_taken in
  for round = 0 to 69 do
    for _ = 1 to 16 do
      append ()
    done;
    replay ();
    arrive (2 + (round mod 7));
    replay ()
  done;
  Alcotest.(check int) "every counted replay started from the ring"
    ((70 * 16) + (10 * (2 + 3 + 4 + 5 + 6 + 7 + 8)))
    !steps;
  let cells = profile.Obs.Profile.checkpoints_taken - taken in
  if !words > float_of_int ((3 * !replays) + (4 * cells)) then
    Alcotest.failf "%d replays of %d steps from the ring, recording %d checkpoints, allocated %.0f words"
      !replays !steps cells !words

(* Section VII.C's query cost on the three cores of the universal
   construction: the list core, the array core with checkpoints off,
   and the array core at its default interval of 32. *)
module List_core = Generic_ref.Make (Set_spec)

module Array_core =
  Generic.Configured
    (struct
      let config = { Generic.default with checkpoint_interval = 0 }
    end)
    (Set_spec)

module Ckpt_core = Generic.Make (Set_spec)

(* The replay steps of one warm query, and its answer, on a replica of
   [P] that holds [size] random set updates and has answered one query
   already; [profile] attaches a replica telemetry handle. *)
let warm_query (type t)
    (module P : Protocol.PROTOCOL
      with type t = t
       and type update = Set_spec.update
       and type query = Set_spec.query
       and type output = Set_spec.output) ~profile ~size =
  let steps = ref 0 in
  let ctx =
    {
      (Throughput.dummy_ctx ~pid:0 ~n:3) with
      Protocol.count_replay = (fun k -> steps := !steps + k);
      obs = (if profile then Some (Obs.make_replica 0) else None);
    }
  in
  let r = P.create ctx in
  let rng = Prng.create 99 in
  for _ = 1 to size do
    P.update r (Set_spec.random_update rng) ~on_done:ignore
  done;
  let read () =
    let out = ref None in
    P.query r Set_spec.Read ~on_result:(fun o -> out := Some o);
    Option.get !out
  in
  ignore (read ());
  steps := 0;
  let out = read () in
  (!steps, out)

let warm_replay () =
  List.iter
    (fun size ->
      List.iter
        (fun profile ->
          let label core =
            Printf.sprintf "%s at %d%s" core size (if profile then ", profiled" else "")
          in
          let list_steps, list_out = warm_query (module List_core) ~profile ~size in
          let array_steps, array_out = warm_query (module Array_core) ~profile ~size in
          let ckpt_steps, ckpt_out = warm_query (module Ckpt_core) ~profile ~size in
          Alcotest.(check int) (label "list core replays its whole log") size list_steps;
          Alcotest.(check int) (label "array core replays nothing") 0 array_steps;
          Alcotest.(check int) (label "array+ckpt core replays nothing") 0 ckpt_steps;
          Alcotest.(check bool) (label "the three cores answer alike") true
            (Set_spec.equal_output list_out array_out
            && Set_spec.equal_output list_out ckpt_out))
        [ false; true ])
    [ 64; 128; 256; 512; 1024 ]

(* The model the paged log is checked against: its entries in
   timestamp order, as a list. [model_insert model e] is the model with
   [e] in it, the position [e]'s timestamp stands at, and whether it was
   fresh; a timestamp already there keeps its resident entry, as
   {!Oplog.insert} does. *)
let model_insert model e =
  let ts = ts_of e in
  let rec go i = function
    | [] -> ([ e ], i, true)
    | x :: rest as l ->
      let c = Timestamp.compare (ts_of x) ts in
      if c < 0 then
        let rest, pos, fresh = go (i + 1) rest in
        (x :: rest, pos, fresh)
      else if c = 0 then (l, i, false)
      else (e :: l, i, true)
  in
  go 0 model

(* How many model entries sort below [ts]: where a fresh entry lands. *)
let model_position model ts =
  List.length (List.filter (fun e -> Timestamp.compare (ts_of e) ts < 0) model)

(* Whether every checkpoint [(k, s)] holds the fold of the first [k]
   model entries: one pass up the model. *)
let checkpoints_hold checkpoints model =
  let rec go state i ks model =
    match ks with
    | [] -> true
    | (k, s) :: rest when k = i -> Set_spec.equal_state s state && go state i rest model
    | _ -> (
      match model with
      | [] -> false
      | (_, _, u) :: tl -> go (Set_spec.apply state u) (i + 1) ks tl)
  in
  go Set_spec.initial 0 (List.rev checkpoints) model

(* The paged log against the sorted-list model on logs of three or more
   pages (over 2,048 entries; a page holds 1,024). The log is filled by
   appends, by one ascending batch, or by [load]; then single appends,
   mid-log inserts (most land below the second page boundary, so their
   shift crosses at least one), duplicates, ascending, shuffled and
   repeating batches (repeats far apart or adjacent), [merge_frame] of
   the same batches and of stale frames, [compact] (whose move down crosses pages too) and
   checkpointed replays are interleaved at random. After every step the
   entries and the watermark must match the model; at the end so must
   both folds from the top, the checkpoints (positions, by the rule
   [dropped_reference] checks, and states) and the frame bytes. *)
let paged_differential =
  qtest ~count:25 "a log of three or more pages matches a sorted-list model" seed_gen
    (fun seed ->
      let rng = Prng.create seed in
      let interval = if Prng.int rng 4 = 0 then 0 else Prng.int_in rng 16 128 in
      let log =
        Oplog.create ~checkpoint_interval:interval ~query_cache:(Prng.bool rng) ()
      in
      let payload () = Set_spec.random_update rng in
      let fill = Prng.int_in rng 2_100 3_200 in
      let initial =
        List.init fill (fun i -> (Timestamp.make ~clock:(2 * (i + 1)) ~pid:0, 0, payload ()))
      in
      (match Prng.int rng 3 with
      | 0 -> insert_all log initial
      | 1 -> ignore (insert_batch log initial : int)
      | _ -> Oplog.load log initial);
      let model = ref initial and ks = ref [] and watermark = ref 0 in
      let top () =
        List.fold_left (fun acc e -> max acc (ts_of e).Timestamp.clock) !watermark !model
      in
      let invalidate pos = ks := List.filter (fun k -> k <= pos) !ks in
      let stamped clock =
        let pid = Prng.int rng 4 in
        (Timestamp.make ~clock ~pid, pid, payload ())
      in
      let above () = stamped (top () + Prng.int_in rng 1 3) in
      let within () = stamped (Prng.int_in rng (!watermark + 1) (top ())) in
      let resident () =
        let ts, pid, _ = List.nth !model (Prng.int rng (List.length !model)) in
        (ts, pid, payload ())
      in
      let pick () =
        match Prng.int rng 4 with 0 -> above () | 1 -> resident () | _ -> within ()
      in
      (* A batch as [Oplog.insert_batch] and [merge_frame] take it: the
         model lands it entry by entry, and the checkpoints above the
         lowest fresh landing position die. *)
      let land_model batch =
        let lowest =
          List.fold_left
            (fun acc e ->
              if List.exists (fun x -> Timestamp.equal (ts_of x) (ts_of e)) !model then acc
              else min acc (model_position !model (ts_of e)))
            max_int batch
        in
        List.iter (fun e -> let m, _, _ = model_insert !model e in model := m) batch;
        if lowest < max_int then invalidate lowest
      in
      let batch () =
        let entries = List.init (Prng.int_in rng 2 40) (fun _ -> pick ()) in
        let ascending =
          List.sort_uniq (fun a b -> Timestamp.compare (ts_of a) (ts_of b)) entries
        in
        let again (ts, o, _) = (ts, o, payload ()) in
        match Prng.int rng 4 with
        | 0 -> ascending
        | 1 ->
          let a = Array.of_list entries in
          Prng.shuffle rng a;
          Array.to_list a
        | 2 ->
          (* Repeats within the batch, with payloads of their own. *)
          entries @ List.map again entries
        | _ ->
          (* Ascending but for each entry's repeat right behind it. *)
          List.concat_map (fun e -> [ e; again e ]) ascending
      in
      let encode entries =
        Oplog.encode_list ~encode_update:Update_codec.For_set.encode entries
      in
      let step () =
        match Prng.int rng 7 with
        | 0 | 1 ->
          let e = if Prng.bool rng then above () else pick () in
          let m, pos, fresh = model_insert !model e in
          let landed = insert log e in
          model := m;
          if fresh then invalidate pos;
          landed = pos
        | 2 ->
          let b = batch () in
          let before = List.length !model in
          let fresh = insert_batch log b in
          land_model b;
          fresh = List.length !model - before
        | 3 -> (
          let b = batch () in
          let stale = !watermark > 0 && Prng.int rng 4 = 0 in
          let frame =
            encode
              (if stale then (Timestamp.make ~clock:!watermark ~pid:0, 0, payload ()) :: b
               else b)
          in
          match
            Oplog.merge_frame log ~decode_update:Update_codec.For_set.decode
              (Codec.Reader.of_string frame)
          with
          | None -> stale
          | Some top ->
            land_model b;
            (not stale)
            && top = List.fold_left (fun acc e -> max acc (ts_of e).Timestamp.clock) 0 b)
        | 4 ->
          let len = List.length !model in
          len <= 2_100
          ||
          let bound =
            (ts_of (List.nth !model (Prng.int rng (min 600 (len - 2_100))))).Timestamp.clock
          in
          let prefix, suffix =
            List.partition (fun e -> (ts_of e).Timestamp.clock <= bound) !model
          in
          let state, folded =
            Oplog.compact log ~upto_clock:bound ~apply:Set_spec.apply Set_spec.initial
          in
          model := suffix;
          ks := [];
          watermark := max !watermark bound;
          folded = List.length prefix && Set_spec.equal_state state (fold_states prefix)
        | _ ->
          let len = List.length !model in
          let state, steps =
            Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
          in
          if interval > 0 then
            for m = ((len - steps) / interval) + 1 to len / interval do
              ks := (m * interval) :: !ks
            done;
          Set_spec.equal_state state (fold_states !model)
      in
      List.for_all
        (fun _ ->
          step ()
          && Oplog.length log = List.length !model
          && Oplog.watermark log = !watermark
          && Oplog.to_list log = !model)
        (List.init 30 Fun.id)
      && Oplog.length log > 2 * 1_024
      && Oplog.fold_down (fun pid u acc -> (pid, u) :: acc) log []
         = List.map (fun (_, pid, u) -> (pid, u)) !model
      && Oplog.fold_down_merged
           (fun acc clock pid u -> (Timestamp.make ~clock ~pid, pid, u) :: acc)
           [] [| log; Oplog.create () |]
         = !model
      && List.map fst (Oplog.checkpoints log) = !ks
      && checkpoints_hold (Oplog.checkpoints log) !model
      && Oplog.encode ~update_wire_size:Set_spec.update_wire_size
           ~encode_update:Update_codec.For_set.encode log
         = encode !model)

(* What the columns cost resident: [Obj.reachable_words] of a log whose
   payloads are immediate ints, so every word counted is the log's own.
   A 100,000-entry log fills 98 pages of three 1,025-word columns plus
   the page table, about 3.02 words an entry; boxing each entry as a
   record with a timestamp cost 8 and the slack of a doubling array.
   The one-entry log pins the fixed cost every key log of the sharded
   space pays: the log record, page 0's column record, and three
   8-entry columns, 42 words (a boxed-entry log paid 25). *)
let resident_words () =
  let n = 100_000 in
  let log : (int, unit) Oplog.t = Oplog.create () in
  for i = 1 to n do
    ignore (Oplog.insert log ~clock:i ~pid:(i mod 4) i : int)
  done;
  let per_entry = float_of_int (Obj.reachable_words (Obj.repr log)) /. float_of_int n in
  if per_entry > 3.2 then
    Alcotest.failf "a %d-entry log holds %.2f words per entry" n per_entry;
  let one : (int, unit) Oplog.t = Oplog.create () in
  ignore (Oplog.insert one ~clock:1 ~pid:0 7 : int);
  let words = Obj.reachable_words (Obj.repr one) in
  if words > 42 then Alcotest.failf "a one-entry log holds %d words" words

(* A frame holding, between two entries the log lacks, one whose
   origin varint names process 3 while its pid is 2: the frame's only
   defect. Each reader of the frame refuses it whole. [merge_frame]
   raises before anything lands, so the entries that would have landed
   below both checkpoints and the query cache leave all three as they
   were: the next replay takes no step. *)
let origin_mismatch () =
  let frame origin =
    ucl_frame ~encode_update:Update_codec.For_set.encode
      [ entry ~clock:3 ~pid:1; (Timestamp.make ~clock:5 ~pid:2, origin, Set_spec.Insert 5);
        entry ~clock:7 ~pid:1 ]
  in
  let decode_list f =
    Oplog.decode_list ~decode_update:Update_codec.For_set.decode (Codec.Reader.of_string f)
  in
  Alcotest.(check int) "with its pid as origin, the frame decodes" 3
    (List.length (decode_list (frame 2)));
  let refused what f =
    match f (frame 3) with
    | _ -> Alcotest.failf "%s accepted an origin other than its entry's pid" what
    | exception Codec.Decode_error _ -> ()
  in
  refused "decode_list" (fun f -> ignore (decode_list f));
  refused "frame_floor" (fun f ->
      ignore
        (Oplog.frame_floor ~decode_update:Update_codec.For_set.decode
           (Codec.Reader.of_string f)));
  let log = Oplog.create ~checkpoint_interval:4 ~query_cache:true () in
  insert_all log (List.init 10 (fun i -> entry ~clock:(2 * (i + 1)) ~pid:0));
  ignore (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial);
  let entries = Oplog.to_list log and checkpoints = Oplog.checkpoints log in
  refused "merge_frame" (fun f ->
      ignore
        (Oplog.merge_frame log ~decode_update:Update_codec.For_set.decode
           (Codec.Reader.of_string f)));
  Alcotest.(check bool) "entries untouched" true (Oplog.to_list log = entries);
  Alcotest.(check (list int)) "checkpoints untouched" (List.map fst checkpoints)
    (List.map fst (Oplog.checkpoints log));
  Alcotest.(check bool) "checkpoint states untouched" true
    (List.for_all2
       (fun (_, a) (_, b) -> Set_spec.equal_state a b)
       checkpoints (Oplog.checkpoints log));
  Alcotest.(check int) "query cache untouched: a replay takes no step" 0
    (snd (Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial))

(* [load] and [Generic.restore_log] on top of it refuse a triple whose
   origin is not its timestamp's pid, leaving the log (and the
   replica's clock) as it was. *)
let load_origin_mismatch () =
  let refusal =
    Invalid_argument "Oplog.load: an entry's origin differs from its timestamp's pid"
  in
  let bad =
    [ entry ~clock:8 ~pid:1; (Timestamp.make ~clock:9 ~pid:1, 2, Set_spec.Insert 9) ]
  in
  let log = Oplog.create () in
  insert_all log [ entry ~clock:1 ~pid:0; entry ~clock:2 ~pid:3 ];
  let before = Oplog.to_list log in
  Alcotest.check_raises "Oplog.load" refusal (fun () -> Oplog.load log bad);
  Alcotest.(check bool) "log untouched" true (Oplog.to_list log = before);
  let module G = Generic.Make (Set_spec) in
  let r = G.create (Throughput.dummy_ctx ~pid:0 ~n:4) in
  G.restore_log r before;
  let clock = G.clock_value r in
  Alcotest.check_raises "Generic.restore_log" refusal (fun () -> G.restore_log r bad);
  Alcotest.(check bool) "replica log untouched" true (G.local_log r = before);
  Alcotest.(check int) "replica clock untouched" clock (G.clock_value r)

let tests =
  [
    Alcotest.test_case "a warm query replays the list core's log, none of the array cores'"
      `Quick warm_replay;
    Alcotest.test_case "appends cost the same with hundreds of checkpoints (profile off)"
      `Quick (append_guard ~profile:false);
    Alcotest.test_case "appends cost the same with hundreds of checkpoints (profile on)"
      `Quick (append_guard ~profile:true);
    Alcotest.test_case "a late insert pays only for the checkpoints it drops" `Quick
      late_insert_guard;
    dropped_reference;
    paged_differential;
    Alcotest.test_case "a paged log holds about three words an entry" `Quick
      resident_words;
    Alcotest.test_case "a frame whose origin is not its pid is refused on every read path"
      `Quick origin_mismatch;
    Alcotest.test_case "load and restore_log refuse an origin other than the pid" `Quick
      load_origin_mismatch;
    qtest ~count:300 "inserting any permutation equals the timestamp sort"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create () in
        insert_all log entries;
        Oplog.length log = List.length entries
        && Oplog.to_list log = by_timestamp entries);
    qtest ~count:300 "a merge of logs from the top equals the timestamp sort" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let logs = Array.init (Prng.int rng 12) (fun _ -> Oplog.create ()) in
        if Array.length logs > 0 then
          List.iter
            (fun e -> ignore (insert logs.(Prng.int rng (Array.length logs)) e : int))
            entries;
        let merged =
          Oplog.fold_down_merged
            (fun acc clock pid payload -> (Timestamp.make ~clock ~pid, pid, payload) :: acc)
            [] logs
        in
        merged = by_timestamp (if Array.length logs = 0 then [] else entries));
    Alcotest.test_case "above-tail, tail-duplicate and just-below-tail inserts" `Quick
      edge_inserts;
    Alcotest.test_case
      "after a near miss, a late arrival among the last 8 folds replays from where it landed"
      `Quick near_tail_replay;
    Alcotest.test_case "a log without a near miss keeps a one-slot query cache" `Quick
      cache_resident_guard;
    Alcotest.test_case "a replay from the widened ring allocates nothing a step" `Quick
      ring_replay_guard;
    qtest ~count:300 "insert returns the landing position" seed_gen (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create () in
        List.for_all
          (fun e ->
            let pos = insert log e in
            Timestamp.equal (ts_of (Oplog.get log pos)) (ts_of e)
            && pos = Oplog.locate log (ts_of e) - 1)
          entries);
    (* With the query cache on and off. Besides the shuffled batch, a
       third of the steps add an arrival landing 1 to 12 entries below
       the tail (just below the entry there, under a pid of its own), so
       the cache's last folds are cut short, emptied and widened. *)
    qtest ~count:200
      "checkpointed replay equals full replay at every interval" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        List.for_all
          (fun (interval, query_cache) ->
            let log = Oplog.create ~checkpoint_interval:interval ~query_cache () in
            let inserted = ref [] and near = ref 0 in
            let add e =
              ignore (insert log e : int);
              inserted := e :: !inserted
            in
            let land_near () =
              let len = Oplog.length log in
              let d = min len (1 + Prng.int rng 12) in
              if d > 0 && Oplog.clock log (len - d) > 1 then begin
                incr near;
                let clock = Oplog.clock log (len - d) - 1 and pid = 3 + !near in
                add (Timestamp.make ~clock ~pid, pid, Set_spec.random_update rng)
              end
            in
            let replay_matches () =
              let state, _ =
                Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
              in
              Set_spec.equal_state state (fold_states (by_timestamp !inserted))
            in
            List.for_all
              (fun e ->
                add e;
                if Prng.int rng 3 = 0 then land_near ();
                (* Replay mid-stream at random points, so checkpoints
                   and cached folds recorded by one replay get
                   invalidated by the next late insert. *)
                Prng.int rng 3 > 0 || replay_matches ())
              entries
            && replay_matches ())
          (List.concat_map
             (fun interval -> [ (interval, false); (interval, true) ])
             [ 1; 2; 3; 4; 5; 7; 8; 16; 32; 0 ]));
    qtest ~count:200 "warm checkpoints bound replay work to one interval"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let interval = 1 + Prng.int rng 16 in
        let n = Prng.int rng 120 in
        let log = Oplog.create ~checkpoint_interval:interval () in
        (* In-order arrivals: nothing invalidates, so after one replay a
           second one starts at the deepest recorded checkpoint. *)
        for i = 1 to n do
          ignore
            (Oplog.insert log ~clock:i ~pid:0 (Set_spec.random_update rng)
              : int)
        done;
        let _, steps1 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        let _, steps2 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        steps1 = n && steps2 = n mod interval
        && Oplog.checkpoints_live log = n / interval);
    qtest ~count:300 "compaction folds exactly the stable prefix" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let bound = Prng.int rng 60 in
        let log = Oplog.create () in
        insert_all log entries;
        let sorted = by_timestamp entries in
        let prefix, suffix =
          List.partition (fun (ts, _, _) -> ts.Timestamp.clock <= bound) sorted
        in
        let state, folded =
          Oplog.compact log ~upto_clock:bound ~apply:Set_spec.apply
            Set_spec.initial
        in
        folded = List.length prefix
        && Set_spec.equal_state state (fold_states prefix)
        && Oplog.to_list log = suffix
        && Oplog.watermark log = max bound 0
        && (bound <= 0
           ||
           match
             Oplog.insert log ~clock:bound ~pid:9 (Set_spec.random_update rng)
           with
           | _ -> false
           | exception Invalid_argument _ -> true));
    qtest ~count:300 "codec round-trips at the declared wire size" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = by_timestamp (entry_batch rng) in
        let s =
          Oplog.encode_list ~encode_update:Update_codec.For_set.encode entries
        in
        let body_len =
          3 + 1
          + Wire.varint_size (List.length entries)
          + List.fold_left
              (fun acc (ts, origin, u) ->
                acc + Timestamp.wire_size ts + Wire.varint_size origin
                + Set_spec.update_wire_size u)
              0 entries
        in
        let declared_trailer =
          Wire.varint_size (frame_checksum (String.sub s 0 body_len))
        in
        String.length s = body_len + declared_trailer
        && Oplog.decode_list ~decode_update:Update_codec.For_set.decode
             (Codec.Reader.of_string s)
           = entries);
    qtest ~count:200 "codec rejects any single corrupted byte" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = by_timestamp (entry_batch rng) in
        let s =
          Bytes.of_string
            (Oplog.encode_list ~encode_update:Update_codec.For_set.encode entries)
        in
        let i = Prng.int rng (Bytes.length s) in
        Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
        match
          Oplog.decode_list ~decode_update:Update_codec.For_set.decode
            (Codec.Reader.of_string (Bytes.to_string s))
        with
        | decoded ->
          (* A flip inside an update payload can decode to a different
             valid frame only if the checksum also matched — never. *)
          decoded <> entries && false
        | exception Codec.Decode_error _ -> true);
    qtest ~count:300 "load accepts any order and resets the cache" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create ~checkpoint_interval:4 () in
        insert_all log entries;
        let _ =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        Oplog.load log entries;
        Oplog.checkpoints_live log = 0
        && Oplog.watermark log = 0
        && Oplog.to_list log = by_timestamp entries
        &&
        let state, steps =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        steps = List.length entries
        && Set_spec.equal_state state (fold_states (by_timestamp entries)));
    Alcotest.test_case "negative checkpoint interval is rejected" `Quick
      (fun () ->
        Alcotest.check_raises "create"
          (Invalid_argument
             "Oplog.create: checkpoint interval must be non-negative")
          (fun () -> ignore (Oplog.create ~checkpoint_interval:(-1) () : (int, int) Oplog.t)));
    (* The persistence hot path: [encode] streams the columns into a
       pre-sized buffer instead of materialising [to_list]. The
       frame must stay byte-for-byte the [encode_list] frame — with the
       exact-size hint, without it, and after mid-log insertions. *)
    qtest ~count:300 "encode streams the array byte-identically to the list path"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create () in
        insert_all log entries;
        let reference =
          Oplog.encode_list ~encode_update:Update_codec.For_set.encode
            (Oplog.to_list log)
        in
        Oplog.encode ~encode_update:Update_codec.For_set.encode log = reference
        && Oplog.encode ~update_wire_size:Set_spec.update_wire_size
             ~encode_update:Update_codec.For_set.encode log
           = reference);
    Alcotest.test_case "encode of an empty log matches the list path" `Quick
      (fun () ->
        let log : (Set_spec.update, Set_spec.state) Oplog.t = Oplog.create () in
        Alcotest.(check string)
          "empty frame"
          (Oplog.encode_list ~encode_update:Update_codec.For_set.encode [])
          (Oplog.encode ~update_wire_size:Set_spec.update_wire_size
             ~encode_update:Update_codec.For_set.encode log));
    (* The trailer is summed over the writer's bytes where they lie:
       encoding allocates the pre-sized buffer and the frame, two
       frame-sized blocks. A copy of the body taken to checksum it made
       three. The blocks go straight to the major heap, which
       [Gc.counters] reads exactly for this domain ([quick_stat] may
       not count them until the next minor collection); the minor heap
       is emptied first, so no minor collection falls in the window. *)
    Alcotest.test_case "encode allocates two frame-sized blocks" `Quick (fun () ->
        let log = Oplog.create () in
        for i = 1 to 30_000 do
          ignore (insert log (entry ~clock:i ~pid:(i mod 4)) : int)
        done;
        Stdlib.Gc.minor ();
        let minor0, promoted0, major0 = Stdlib.Gc.counters () in
        let frame =
          Oplog.encode ~update_wire_size:Set_spec.update_wire_size
            ~encode_update:Update_codec.For_set.encode log
        in
        let minor1, promoted1, major1 = Stdlib.Gc.counters () in
        let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
        let frame_words = float_of_int (String.length frame) /. 8. in
        if words > (2. *. frame_words) +. 256. then
          Alcotest.failf "encoding a %.0f-word frame allocated %.0f words" frame_words
            words);
    (* The one-pass batch merge: any chunking of any arrival order —
       duplicate timestamps included, within a chunk and against the
       resident log — must leave the log, the surviving checkpoints,
       the watermark, and the frame bytes exactly as one-at-a-time
       insertion does, with replays interleaved so there are live
       checkpoints for the batch path to invalidate (or wrongly keep). *)
    qtest ~count:300 "insert_batch of any chunking equals sequential inserts"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let n = Prng.int rng 60 in
        let entries =
          List.init n (fun _ ->
              let pid = Prng.int rng 3 in
              (Timestamp.make ~clock:(1 + Prng.int rng 12) ~pid, pid, Set_spec.random_update rng))
        in
        let chunks =
          let rec go acc cur = function
            | [] -> List.rev (List.rev cur :: acc)
            | e :: tl ->
              if Prng.int rng 4 = 0 then go (List.rev cur :: acc) [ e ] tl
              else go acc (e :: cur) tl
          in
          go [] [] entries
        in
        let interval = Prng.int rng 6 in
        let seq = Oplog.create ~checkpoint_interval:interval () in
        let bat = Oplog.create ~checkpoint_interval:interval () in
        List.for_all
          (fun chunk ->
            let len0 = Oplog.length seq in
            insert_all seq chunk;
            let fresh = insert_batch bat chunk in
            (if Prng.int rng 2 = 0 then begin
               ignore
                 (Oplog.replay seq ~apply:Set_spec.apply
                    ~initial:Set_spec.initial);
               ignore
                 (Oplog.replay bat ~apply:Set_spec.apply
                    ~initial:Set_spec.initial)
             end);
            fresh = Oplog.length seq - len0
            && Oplog.to_list bat = Oplog.to_list seq
            && Oplog.watermark bat = Oplog.watermark seq
            && Oplog.checkpoints_live bat = Oplog.checkpoints_live seq)
          chunks
        && Oplog.encode_list ~encode_update:Update_codec.For_set.encode
             (Oplog.to_list bat)
           = Oplog.encode_list ~encode_update:Update_codec.For_set.encode
               (Oplog.to_list seq)
        &&
        let sb, _ =
          Oplog.replay bat ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        let ss, _ =
          Oplog.replay seq ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        Set_spec.equal_state sb ss);
    qtest ~count:300 "insert_batch is idempotent on re-delivered batches"
      seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let entries = entry_batch rng in
        let log = Oplog.create () in
        let first = insert_batch log entries in
        let again = insert_batch log entries in
        first = List.length entries
        && again = 0
        && Oplog.to_list log = by_timestamp entries);
    Alcotest.test_case "insert_batch below the watermark is all-or-nothing"
      `Quick
      (fun () ->
        let log : (Set_spec.update, Set_spec.state) Oplog.t = Oplog.create () in
        let entry clock = (Timestamp.make ~clock ~pid:0, 0, Set_spec.Insert clock) in
        ignore (insert log (entry 5) : int);
        let _ = Oplog.compact log ~upto_clock:3 ~apply:Set_spec.apply Set_spec.initial in
        let before = Oplog.to_list log in
        Alcotest.check_raises "stale entry rejected"
          (Invalid_argument
             "Oplog.insert: timestamp at or below the stability watermark")
          (fun () -> ignore (insert_batch log [ entry 9; entry 2 ] : int));
        Alcotest.(check bool) "log unchanged" true (Oplog.to_list log = before);
        Alcotest.(check int) "valid batch still lands" 1
          (insert_batch log [ entry 9 ]));
    qtest ~count:200 "query cache folds only the unstable suffix" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let n = 2 + Prng.int rng 80 in
        let log = Oplog.create ~query_cache:true () in
        for i = 1 to n do
          ignore
            (Oplog.insert log ~clock:(i * 2) ~pid:0 (Set_spec.random_update rng)
              : int)
        done;
        let expect () = fold_states (Oplog.to_list log) in
        let s1, steps1 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        let s2, steps2 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        (* Tail append leaves the cache valid; a late insert before it
           must invalidate. *)
        ignore
          (Oplog.insert log ~clock:((n + 1) * 2) ~pid:0 (Set_spec.random_update rng) : int);
        let s3, steps3 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        let e3 = expect () in
        ignore
          (Oplog.insert log ~clock:3 ~pid:1 (Set_spec.random_update rng) : int);
        let s4, steps4 =
          Oplog.replay log ~apply:Set_spec.apply ~initial:Set_spec.initial
        in
        steps1 = n && steps2 = 0 && steps3 = 1
        && steps4 = n + 2
        && Set_spec.equal_state s1 s2
        && Set_spec.equal_state s3 e3
        && Set_spec.equal_state s4 (expect ()));
    (* The fold hands over pid and payload only, so each entry's pid
       here encodes its whole timestamp (the order of (clock, 4 x clock +
       pid) is that of (clock, pid)): the order is checked in full. *)
    qtest ~count:300 "a fold from the top, prepending, is the log in order" seed_gen
      (fun seed ->
        let rng = Prng.create seed in
        let log = Oplog.create () in
        insert_all log
          (List.map
             (fun ((ts : Timestamp.t), _, u) ->
               let pid = (ts.clock * 4) + ts.pid in
               (Timestamp.make ~clock:ts.clock ~pid, pid, u))
             (entry_batch rng));
        Oplog.fold_down (fun pid payload acc -> (pid, payload) :: acc) log []
        = List.map (fun (_, pid, payload) -> (pid, payload)) (Oplog.to_list log));
  ]
