(* Churn catch-up. [Persist.Catchup.absorb] merges a snapshot frame
   into the live log in place, and the runner's churn quiescence is one
   gather-scatter pass. Each is checked against the procedure it
   replaced, kept here as the reference:
   - absorb against the whole-log rebuild [restore_log (merge_logs
     local peer)], on both log cores and every op-log configuration;
   - the gather-scatter pass against the all-pairs snapshot exchange to
     a fixpoint, over random churn and partition schedules.
   Mutated frames, and frames holding an origin other than its entry's
   pid, must be merged or refused untouched, never raise, and two
   allocation guards keep the frame streaming into the log. A
   whole-space UCX frame is merged all or nothing, and the certificate,
   built back to front off the log, equals the reversed fold it
   replaced at 6 words an entry. *)

open Helpers

module type CORE =
  Generic.S
    with type state = Set_spec.state
     and type update = Set_spec.update
     and type query = Set_spec.query
     and type output = Set_spec.output

let configured ~checkpoint_interval ~query_cache : (module CORE) =
  let module C = struct
    let config =
      {
        Generic.name = "universal";
        replay = Checkpoints { interval = checkpoint_interval; query_cache };
      }
  end in
  (module Generic.Configured (C) (Set_spec))

let cores : (string * (module CORE)) list =
  [
    ("interval 0", configured ~checkpoint_interval:0 ~query_cache:false);
    ("interval 0, query cache", configured ~checkpoint_interval:0 ~query_cache:true);
    ("interval 32", configured ~checkpoint_interval:32 ~query_cache:false);
    ("interval 32, query cache", configured ~checkpoint_interval:32 ~query_cache:true);
    ("interval 3, query cache", configured ~checkpoint_interval:3 ~query_cache:true);
    ("list core", (module Generic_ref.Make (Set_spec)));
  ]

(* A detached replica context that records the replay steps of the
   latest query and carries a profile, so checkpoint upkeep shows. *)
let ctx ~steps pid : _ Protocol.ctx =
  {
    Protocol.pid;
    n = 4;
    now = (fun () -> 0.0);
    send = (fun ~dst:_ _ -> ());
    broadcast = ignore;
    broadcast_batch = ignore;
    set_timer = (fun ~delay:_ _ -> ());
    count_replay = (fun s -> steps := s);
    obs = Some (Obs.make_replica pid);
  }

(* Checkpoints still live: every one a replay took and no insert has
   dropped since. *)
let live_checkpoints (c : _ Protocol.ctx) =
  match c.Protocol.obs with
  | Some { Obs.profile = p; _ } ->
    p.Obs.Profile.checkpoints_taken - p.Obs.Profile.checkpoints_dropped
  | None -> 0

(* A "UCS" replica frame, written from the frame spec: magic, version,
   clock varint, then the "UCL" log frame as a byte string. The log
   frame encodes entries in the order given, so hostile frames can be
   unsorted or repeat a timestamp. *)
let ucs_frame ~clock entries =
  let log = Oplog.encode_list ~encode_update:Update_codec.For_set.encode entries in
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) "UCS";
  Codec.Writer.u8 w 1;
  Codec.Writer.varint w clock;
  Codec.Writer.byte_string w log;
  Codec.Writer.contents w

(* The reference absorb: decode, merge the two sorted lists (equal
   timestamps are the same update; the resident copy wins), and
   rebuild the log from the merged list. *)
let merge_logs a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | ((ta, _, _) as x) :: a', ((tb, _, _) as y) :: b' ->
      let c = Timestamp.compare ta tb in
      if c < 0 then go a' b (x :: acc)
      else if c > 0 then go a b' (y :: acc)
      else go a' b' (x :: acc)
  in
  go a b []

let reference_absorb (type r) (module G : CORE with type t = r) (r : r) frame =
  let module O = Persist.Over (G) (Update_codec.For_set) in
  match O.decode_replica frame with
  | exception Codec.Decode_error _ -> false
  | clock, log ->
    G.restore_log r (merge_logs (G.local_log r) log);
    G.advance_clock r clock;
    true

(* What any absorb must leave: the resident log plus every incoming
   timestamp it lacks (the first copy of a repeat), in timestamp
   order. *)
let union resident incoming =
  let seen = Hashtbl.create 64 in
  List.iter (fun (ts, _, _) -> Hashtbl.replace seen ts ()) resident;
  let fresh =
    List.filter
      (fun (ts, _, _) ->
        (not (Hashtbl.mem seen ts))
        && begin
          Hashtbl.replace seen ts ();
          true
        end)
      incoming
  in
  List.stable_sort (fun (a, _, _) (b, _, _) -> Timestamp.compare a b) (resident @ fresh)

let fold entries =
  List.fold_left (fun s (_, _, u) -> Set_spec.apply s u) Set_spec.initial entries

(* A pool of updates from pids 1..3 with distinct timestamps, in
   timestamp order; replicas under test issue their own as pid 0. *)
let pool rng =
  List.init (40 + Prng.int rng 160) (fun _ ->
      (1 + Prng.int rng 90, 1 + Prng.int rng 3))
  |> List.sort_uniq compare
  |> List.map (fun (clock, pid) ->
         (Timestamp.make ~clock ~pid, pid, Set_spec.random_update rng))

let sample rng entries = List.filter (fun _ -> Prng.int rng 3 > 0) entries

let max_clock entries =
  List.fold_left (fun acc (ts, _, _) -> max acc ts.Timestamp.clock) 0 entries

let read (type r) (module G : CORE with type t = r) (r : r) =
  let out = ref None in
  G.query r Set_spec.Read ~on_result:(fun o -> out := Some o);
  Option.get !out

(* Two replicas driven through the same random mix of local updates,
   queries and peer frames; one absorbs in place, its twin through the
   reference rebuild. After every step their logs, clocks and answers
   must agree, and the answer must be the fold of the log. *)
let differential (module G : CORE) seed =
  let module K = Persist.Catchup (G) (Update_codec.For_set) in
  let rng = Prng.create seed in
  let pool = pool rng in
  let steps_x = ref 0 and steps_y = ref 0 in
  let x = G.create (ctx ~steps:steps_x 0) and y = G.create (ctx ~steps:steps_y 0) in
  let start = sample rng pool in
  G.restore_log x start;
  G.restore_log y start;
  List.for_all
    (fun _ ->
      (match Prng.int rng 3 with
      | 0 ->
        let u = Set_spec.random_update rng in
        G.update x u ~on_done:ignore;
        G.update y u ~on_done:ignore
      | 1 -> ignore (read (module G) x, read (module G) y)
      | _ ->
        let peer = sample rng pool in
        let frame = ucs_frame ~clock:(max_clock peer + Prng.int rng 4) peer in
        if not (K.absorb x frame && reference_absorb (module G) y frame) then
          failwith "a well-formed frame was refused");
      G.local_log x = G.local_log y
      && G.clock_value x = G.clock_value y
      &&
      let ox = read (module G) x and oy = read (module G) y in
      Set_spec.equal_output ox oy
      && Set_spec.equal_output ox (Set_spec.eval (fold (G.local_log x)) Set_spec.Read))
    (List.init 12 Fun.id)

(* A frame whose entries the replica already holds changes nothing,
   the cached states included: the next query replays exactly as many
   steps as on a twin that never saw the frame. *)
let absorb_nothing (module G : CORE) seed =
  let module K = Persist.Catchup (G) (Update_codec.For_set) in
  let rng = Prng.create seed in
  let start = sample rng (pool rng) in
  let steps_x = ref 0 and steps_y = ref 0 in
  let cx = ctx ~steps:steps_x 0 and cy = ctx ~steps:steps_y 0 in
  let x = G.create cx and y = G.create cy in
  List.iter
    (fun r ->
      G.restore_log r start;
      ignore (read (module G) r);
      G.update r (Set_spec.Insert 3) ~on_done:ignore;
      ignore (read (module G) r))
    [ x; y ];
  let held = sample rng (G.local_log x) in
  K.absorb x (ucs_frame ~clock:(max_clock held) held)
  && live_checkpoints cx = live_checkpoints cy
  && G.local_log x = G.local_log y
  && G.clock_value x = G.clock_value y
  &&
  let ox = read (module G) x and oy = read (module G) y in
  Set_spec.equal_output ox oy && !steps_x = !steps_y

(* Hostile frames: shuffled, with repeated timestamps (some carrying a
   different update), clock-0 entries no replica stamps, truncated, or
   with a byte flipped. Absorb either merges exactly what the frame
   decodes to, or returns [false] and leaves log and clock alone; it
   refuses a frame that decodes only when the core refuses an entry
   (the array core's stability watermark refuses clock 0). *)
let hostile (module G : CORE) seed =
  let module K = Persist.Catchup (G) (Update_codec.For_set) in
  let module O = Persist.Over (G) (Update_codec.For_set) in
  let rng = Prng.create seed in
  let pool = pool rng in
  let steps = ref 0 in
  let x = G.create (ctx ~steps 0) in
  G.restore_log x (sample rng pool);
  ignore (read (module G) x);
  let entries = Array.of_list (sample rng pool) in
  for i = Array.length entries - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = entries.(i) in
    entries.(i) <- entries.(j);
    entries.(j) <- tmp
  done;
  let entries = Array.to_list entries in
  let repeats =
    List.filter_map
      (fun (ts, origin, u) ->
        match Prng.int rng 6 with
        | 0 -> Some (ts, origin, u)
        | 1 -> Some (ts, origin, Set_spec.random_update rng)
        | _ -> None)
      entries
  in
  let zero =
    if Prng.int rng 4 = 0 then [ (Timestamp.make ~clock:0 ~pid:2, 2, Set_spec.Insert 1) ]
    else []
  in
  let frame = ucs_frame ~clock:(Prng.int rng 100) (entries @ repeats @ zero) in
  let frame =
    match Prng.int rng 3 with
    | 0 -> String.sub frame 0 (Prng.int rng (String.length frame))
    | 1 ->
      let b = Bytes.of_string frame in
      let i = Prng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int rng 255)));
      Bytes.to_string b
    | _ -> frame
  in
  let log0 = G.local_log x and clock0 = G.clock_value x in
  let decoded =
    match O.decode_replica frame with
    | d -> Some d
    | exception Codec.Decode_error _ -> None
  in
  let merged = K.absorb x frame in
  let untouched = G.local_log x = log0 && G.clock_value x = clock0 in
  match decoded with
  | None -> (not merged) && untouched
  | Some (clock, log) ->
    if merged then
      G.local_log x = union log0 log
      && G.clock_value x = max clock0 (max clock (max_clock log))
      && Set_spec.equal_output (read (module G) x)
           (Set_spec.eval (fold (G.local_log x)) Set_spec.Read)
    else untouched && List.exists (fun (ts, _, _) -> ts.Timestamp.clock = 0) log

(* ------------------------ frame mutation fuzz ------------------------ *)

(* [ucs_frame] again, but written one varint field at a time, in this
   order: the UCL entry count; each entry's clock, pid, origin and
   payload magnitude (the set codec's tag byte before it carries the
   constructor and the sign); the UCL checksum; the UCS clock and log
   length. [splice i] may replace the bytes of field [i]. The checksum
   and the log length are computed over what was written, so a spliced
   field is the frame's only defect. Returns the frame and its number
   of varint fields. *)
let spliced_frame ~clock entries ~splice =
  let fields = ref 0 in
  let raw w s = String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) s in
  let varint w n =
    (match splice !fields with Some bytes -> raw w bytes | None -> Codec.Writer.varint w n);
    incr fields
  in
  let log = Codec.Writer.create () in
  raw log "UCL\x01";
  varint log (List.length entries);
  List.iter
    (fun (ts, origin, u) ->
      varint log ts.Timestamp.clock;
      varint log ts.Timestamp.pid;
      varint log origin;
      let ctor, v =
        match u with Set_spec.Insert v -> (0, v) | Set_spec.Delete v -> (1, v)
      in
      Codec.Writer.u8 log ((ctor lsl 3) lor if v < 0 then 1 else 0);
      varint log (abs v))
    entries;
  varint log (frame_checksum (Codec.Writer.contents log));
  let log = Codec.Writer.contents log in
  let w = Codec.Writer.create () in
  raw w "UCS\x01";
  varint w clock;
  varint w (String.length log);
  raw w log;
  (Codec.Writer.contents w, !fields)

(* Byte flips, truncation, inserted and deleted bytes. *)
let mutate rng frame =
  let n = String.length frame in
  let at = Prng.int rng (n + 1) in
  match Prng.int rng 4 with
  | 0 ->
    let b = Bytes.of_string frame in
    let i = Prng.int rng n in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int rng 255)));
    Bytes.to_string b
  | 1 -> String.sub frame 0 (Prng.int rng n)
  | 2 ->
    String.sub frame 0 at
    ^ String.init (1 + Prng.int rng 4) (fun _ -> Char.chr (Prng.int rng 256))
    ^ String.sub frame at (n - at)
  | _ ->
    let k = min (n - at) (1 + Prng.int rng 4) in
    String.sub frame 0 at ^ String.sub frame (at + k) (n - at - k)

(* A valid frame, or one mutated: an overflowing varint spliced into any
   varint field, a declared entry count of 2^40 (or 2^20), or random
   byte damage. [decode_replica] either decodes it or raises
   [Decode_error], never anything else, within an allocation budget
   linear in the frame's length, so no count read off the wire sizes
   anything. [absorb] either accepts it and leaves the union, or refuses
   it and leaves the replica exactly as its twin, which never saw the
   frame: log, clock, live checkpoints, and the query cache (the next
   query replays as many steps). *)
let mutated (module G : CORE) seed =
  let module K = Persist.Catchup (G) (Update_codec.For_set) in
  let module O = Persist.Over (G) (Update_codec.For_set) in
  let rng = Prng.create seed in
  let pool = pool rng in
  let start = sample rng pool in
  let steps_x = ref 0 and steps_y = ref 0 in
  let cx = ctx ~steps:steps_x 0 and cy = ctx ~steps:steps_y 0 in
  let x = G.create cx and y = G.create cy in
  List.iter
    (fun r ->
      G.restore_log r start;
      ignore (read (module G) r);
      G.update r (Set_spec.Insert 3) ~on_done:ignore;
      ignore (read (module G) r))
    [ x; y ];
  let entries = sample rng pool in
  let clock = max_clock entries + Prng.int rng 4 in
  let frame, fields = spliced_frame ~clock entries ~splice:(fun _ -> None) in
  if frame <> ucs_frame ~clock entries then failwith "spliced_frame differs from the codec";
  let splice field bytes =
    fst (spliced_frame ~clock entries ~splice:(fun i -> if i = field then Some bytes else None))
  in
  let frame =
    match Prng.int rng 8 with
    | 0 -> frame
    | 1 | 2 -> splice (Prng.int rng fields) overflow_varint
    | 3 -> splice 0 (varint_bytes (1 lsl if Prng.bool rng then 40 else 20))
    | _ -> mutate rng frame
  in
  let decoded, decode_words =
    allocated_words (fun () ->
        match O.decode_replica frame with
        | d -> Some d
        | exception Codec.Decode_error _ -> None)
  in
  let log0 = G.local_log x and clock0 = G.clock_value x in
  let merged = K.absorb x frame in
  decode_words <= float_of_int ((8 * String.length frame) + 512)
  &&
  match (merged, decoded) with
  | true, None -> false
  | true, Some (clock, log) ->
    G.local_log x = union log0 log
    && G.clock_value x = max clock0 (max clock (max_clock log))
  | false, _ ->
    G.local_log x = G.local_log y
    && G.clock_value x = G.clock_value y
    && live_checkpoints cx = live_checkpoints cy
    && (match decoded with
       | None -> true
       | Some (_, log) -> List.exists (fun (ts, _, _) -> ts.Timestamp.clock = 0) log)
    &&
    let ox = read (module G) x and oy = read (module G) y in
    Set_spec.equal_output ox oy && !steps_x = !steps_y

(* ------------------------- allocation guards ------------------------- *)

module Uni = Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set)

(* A replica of the default array core holding [n] entries from pids
   1..3, its caches warm. *)
let replica_of_length n =
  let r = Uni.create (ctx ~steps:(ref 0) 0) in
  Uni.restore_log r
    (List.init n (fun i ->
         let pid = 1 + (i mod 3) in
         (Timestamp.make ~clock:(1 + (i / 3)) ~pid, pid, Set_spec.Insert (i mod 16))));
  ignore (read (module Uni) r);
  r

(* A frame streams into the log: an entry the replica already holds
   costs its payload decode and nothing else. Decoding the frame into a
   list first, then into entries, cost about 40 words per entry. *)
let resident_absorb_guard () =
  let n = 10_000 in
  let r = replica_of_length n in
  let frame = Option.get (Uni.snapshot r) in
  let merged = ref false in
  let words = minor_words (fun () -> merged := Uni.absorb r frame) in
  Alcotest.(check bool) "absorbed" true !merged;
  Alcotest.(check int) "nothing added" n (Uni.log_length r);
  let per_entry = words /. float_of_int n in
  if per_entry >= 8. then
    Alcotest.failf "absorbing a resident %d-entry frame: %.1f minor words per entry" n
      per_entry

(* A snapshot writes the frame straight from the log into one buffer:
   its minor allocation is a constant, whatever the log's length. A
   closure per varint cost about 15 words per entry. *)
let snapshot_guard () =
  let words n =
    let r = replica_of_length n in
    minor_words (fun () -> ignore (Uni.snapshot r : string option))
  in
  let short = words 1_000 and long = words 10_000 in
  if long > short +. 64. then
    Alcotest.failf "snapshot minor words: %.0f at 1k entries, %.0f at 10k" short long

(* [certificate] folds down the log, latest entry first, so prepending
   builds it in timestamp order; the reference is the log read forward,
   a reversed list reversed again. *)
let certificate_law (module G : CORE) seed =
  let module K = Persist.Catchup (G) (Update_codec.For_set) in
  let module Cert = Protocol.Certificate (G) in
  let rng = Prng.create seed in
  let pool = pool rng in
  let x = G.create (ctx ~steps:(ref 0) 0) in
  G.restore_log x (sample rng pool);
  for _ = 1 to Prng.int rng 8 do
    match Prng.int rng 3 with
    | 0 -> G.update x (Set_spec.random_update rng) ~on_done:ignore
    | 1 -> ignore (read (module G) x)
    | _ ->
      let peer = sample rng pool in
      ignore (K.absorb x (ucs_frame ~clock:(max_clock peer) peer) : bool)
  done;
  Cert.to_list x
  = Some
      (List.rev
         (List.fold_left (fun acc (_, origin, u) -> (origin, u) :: acc) [] (G.local_log x)))

(* The list a certificate folds into: a pair and a cons per entry, 6
   words, and nothing from the fold itself. A reversed fold and its
   [List.rev] cost 9. *)
let certificate_guard () =
  let module Cert = Protocol.Certificate (Uni) in
  let n = 10_000 in
  let r = replica_of_length n in
  let words = minor_words (fun () -> ignore (Sys.opaque_identity (Cert.to_list r))) in
  if words > float_of_int ((6 * n) + 16) then
    Alcotest.failf "certificate of %d entries: %.2f minor words per entry" n
      (words /. float_of_int n)

let per_core name count law =
  List.map
    (fun (core, m) -> qtest ~count (Printf.sprintf "%s (%s)" name core) seed_gen (law m))
    cores

(* ------------------------- quiescence pass -------------------------- *)

(* The runner's protocol, instrumented from outside: it records every
   replica the runner creates, and once [absorbs_left] successful
   absorbs have run it stops snapshotting and absorbing. Budgeted to
   the run's join-time catch-ups, it ends the run with the state the
   quiescence pass starts from. *)
module Gated (P : Protocol.PROTOCOL) = struct
  include P

  let made : (int, P.t) Hashtbl.t = Hashtbl.create 8

  let absorbs_left = ref max_int

  let create ctx =
    let r = P.create ctx in
    Hashtbl.replace made ctx.Protocol.pid r;
    r

  let snapshot r = if !absorbs_left > 0 then P.snapshot r else None

  let absorb r s =
    !absorbs_left > 0
    && P.absorb r s
    && begin
      decr absorbs_left;
      true
    end
end

(* The exchange the gather-scatter pass replaced: every present replica
   absorbs every other one's snapshot, in pid order, until a round in
   which no log grew (at most n + 1 rounds). *)
let fixpoint (type r) (module P : Protocol.PROTOCOL with type t = r) ~n
    (present : r list) =
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    List.iter
      (fun r ->
        List.iter
          (fun donor ->
            if donor != r then
              match P.snapshot donor with
              | None -> ()
              | Some s ->
                let before = P.log_length r in
                if P.absorb r s && P.log_length r <> before then changed := true)
          present)
      present
  done

(* Random membership: each pid gets up to three events at distinct
   times, starting with a join half the time; up to two partition
   windows. *)
let schedule rng ~n =
  let times = Hashtbl.create 16 in
  let rec fresh_time () =
    let t = float_of_int (1 + Prng.int rng 200) in
    if Hashtbl.mem times t then fresh_time ()
    else begin
      Hashtbl.replace times t ();
      t
    end
  in
  let churn =
    List.concat_map
      (fun pid ->
        let k = Prng.int rng 4 in
        let ts = List.sort compare (List.init k (fun _ -> fresh_time ())) in
        List.mapi
          (fun i time ->
            let action =
              if i = 0 && Prng.int rng 2 = 0 then Network.Join
              else if Prng.int rng 2 = 0 then Network.Leave
              else Network.Rejoin
            in
            { Network.time; pid; action })
          ts)
      (List.init n Fun.id)
  in
  let partitions =
    List.init (Prng.int rng 3) (fun _ ->
        let from_time = float_of_int (Prng.int rng 150) in
        {
          Network.from_time;
          to_time = from_time +. float_of_int (10 + Prng.int rng 60);
          group = [ Prng.int rng n ];
        })
  in
  (churn, partitions)

let events_of churn pid =
  List.filter (fun (ce : Network.churn_event) -> ce.Network.pid = pid) churn

(* A pid is present at the end unless its last membership event is a
   leave: every event fires (the deadline is far) and no pid crashes. *)
let present_at_end churn pid =
  match List.rev (events_of churn pid) with
  | { Network.action = Network.Leave; _ } :: _ -> false
  | _ -> true

(* The runner exchanges snapshots at quiescence only if some replica
   spent time detached: it started absent (its first event is a join)
   or it left. *)
let ever_offline churn pid =
  match events_of churn pid with
  | { Network.action = Network.Join; _ } :: _ -> true
  | events ->
    List.exists
      (fun (ce : Network.churn_event) -> ce.Network.action = Network.Leave)
      events

(* Run the schedule twice: as is, and gated to stop at the start of
   quiescence, then bring the gated run's replicas to the fixpoint.
   Every replica must end with the same snapshot (log and clock) in
   both. *)
module Quiescence (P : Protocol.PROTOCOL) = struct
  module G = Gated (P)
  module R = Runner.Make (G)

  let agrees ~reset ~workload seed =
    let rng = Prng.create seed in
    let n = 3 + Prng.int rng 3 in
    let churn, partitions = schedule rng ~n in
    let config =
      {
        (R.default_config ~n ~seed) with
        R.delay = Network.Exponential { mean = 10.0 };
        churn;
        partitions;
        final_read = None;
      }
    in
    let scripts = workload ~seed ~n in
    let run budget =
      reset ();
      Hashtbl.reset G.made;
      G.absorbs_left := budget;
      let r = R.run config ~workload:scripts in
      G.absorbs_left := max_int;
      (r, Hashtbl.copy G.made)
    in
    let snapshots made =
      List.init n (fun pid -> Option.map P.snapshot (Hashtbl.find_opt made pid))
    in
    let r, quiesced = run max_int in
    let after = snapshots quiesced in
    let _, gated = run r.R.metrics.Metrics.snapshots_absorbed in
    let pids = List.init n Fun.id in
    if List.exists (ever_offline churn) pids then
      fixpoint (module P) ~n
        (List.filter_map
           (fun pid ->
             if present_at_end churn pid then Hashtbl.find_opt gated pid else None)
           pids);
    after = snapshots gated
end

let set_scripts ~seed ~n =
  Workload.For_set.conflict ~rng:(Prng.create seed) ~n ~ops_per_process:6
    ~domain:8 ~skew:1.0 ~delete_ratio:0.3

module Universal =
  Quiescence (Persist.Catchup (Generic.Make (Set_spec)) (Update_codec.For_set))

module Universal_list =
  Quiescence (Persist.Catchup (Generic_ref.Make (Set_spec)) (Update_codec.For_set))

module S = Space.Make (Set_spec) (Update_codec.For_set)
module Sharded = Quiescence (S)

let sharded_scripts ~seed ~n =
  Workload.For_space.zipf_scripts ~rng:(Prng.create seed) ~n ~ops_per_process:6
    ~keys:64 ~skew:1.1 ~fanout:3 ~query_ratio:0.25
    ~update:(fun g ->
      let v = 1 + Prng.int g 16 in
      if Prng.int g 10 < 3 then Set_spec.Delete v else Set_spec.Insert v)
    ~query:(fun _ -> Set_spec.Read)
    ~read:(fun k q -> S.K.Read (k, q))

(* ------------------------ whole-space frames ------------------------ *)

module OneC = Keyed.One_codec (Set_spec) (Update_codec.For_set)

(* A shard's "UCS" frame: its clock and its entries, in frame order. *)
let shard_frame f =
  let clock, log = Persist.open_replica (Codec.Reader.of_string f) in
  (clock, Oplog.decode_list ~decode_update:OneC.decode log)

(* A "UCX" frame's shard frames, (shard id, "UCS" frame) in frame
   order, parsed from the frame spec; and the frame they make. *)
let ucx_parts frame =
  let r = Codec.Reader.of_string frame in
  String.iter
    (fun c -> if Codec.Reader.u8 r <> Char.code c then raise (Codec.Decode_error "magic"))
    "UCX";
  if Codec.Reader.u8 r <> 1 then raise (Codec.Decode_error "version");
  let count = Codec.Reader.varint r in
  let parts =
    List.init count (fun _ ->
        let s = Codec.Reader.varint r in
        (s, Codec.Reader.byte_string r))
  in
  if not (Codec.Reader.at_end r) then raise (Codec.Decode_error "trailing bytes");
  parts

let ucx_frame parts =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) "UCX";
  Codec.Writer.u8 w 1;
  Codec.Writer.varint w (List.length parts);
  List.iter
    (fun (s, f) ->
      Codec.Writer.varint w s;
      Codec.Writer.byte_string w f)
    parts;
  Codec.Writer.contents w

(* Batches of one to three keyed set updates over 64 keys. *)
let space_updates rng count =
  List.init count (fun _ ->
      List.init (1 + Prng.int rng 3) (fun _ -> (Prng.int rng 64, Set_spec.random_update rng)))

let space_replica pid updates =
  let r = S.create (ctx ~steps:(ref 0) pid) in
  List.iter (fun kus -> S.update r kus ~on_done:ignore) updates;
  r

(* Each shard's clock, as the replica's own snapshot records it. *)
let shard_clocks r =
  List.map
    (fun (s, f) -> (s, fst (shard_frame f)))
    (ucx_parts (Option.get (S.snapshot r)))

(* The second of four shard frames is damaged by [damage]. The first
   merged into the replica before the second was refused, leaving a
   fresh one holding its entries. *)
let second_shard_refused damage () =
  S.configure (S.create_map ~shards:4 ());
  let rng = Prng.create 7 in
  let frame = Option.get (S.snapshot (space_replica 1 (space_updates rng 40))) in
  let parts = ucx_parts frame in
  Alcotest.(check string) "the frame spec parses the snapshot" frame (ucx_frame parts);
  Alcotest.(check int) "four shard frames" 4 (List.length parts);
  let bad = ucx_frame (List.mapi (fun i (s, f) -> (s, if i = 1 then damage f else f)) parts) in
  let fresh = S.create (ctx ~steps:(ref 0) 0) in
  Alcotest.(check bool) "a fresh replica refuses it" false (S.absorb fresh bad);
  Alcotest.(check int) "and holds nothing" 0 (S.log_length fresh);
  Alcotest.(check (list (pair int int))) "no shard created" [] (S.shard_log_lengths fresh);
  let mine = space_updates rng 30 in
  let x = space_replica 0 mine and twin = space_replica 0 mine in
  Alcotest.(check bool) "a populated replica refuses it" false (S.absorb x bad);
  Alcotest.(check bool) "per-shard logs kept" true (S.shard_logs x = S.shard_logs twin);
  Alcotest.(check (list (pair int int))) "per-shard clocks kept" (shard_clocks twin)
    (shard_clocks x);
  Alcotest.(check bool) "the intact frame merges" true (S.absorb x frame)

(* The checksum fails: the low bit of the last byte, the checksum
   varint's, flipped. *)
let flip_last f =
  let b = Bytes.of_string f in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* The shard frame rewritten from the frame spec with its first entry's
   origin one above its encoded pid, under a checksum that holds. *)
let forge_origin f =
  let clock, entries = shard_frame f in
  let ucl = ucl_frame ~encode_update:OneC.encode in
  if Persist.replica_frame ~clock (ucl entries) <> f then
    Alcotest.fail "the frame spec does not rewrite the shard frame";
  Persist.replica_frame ~clock
    (ucl (List.mapi (fun i (ts, o, ku) -> (ts, (if i = 0 then o + 1 else o), ku)) entries))

(* A replica frame holding three entries the replica lacks, the second
   with an origin other than its pid: every core refuses it, log and
   clock untouched; with that pid as its origin, every core merges it. *)
let origin_mismatch () =
  let frame origin =
    Persist.replica_frame ~clock:200
      (ucl_frame ~encode_update:Update_codec.For_set.encode
         [
           (Timestamp.make ~clock:95 ~pid:1, 1, Set_spec.Insert 1);
           (Timestamp.make ~clock:96 ~pid:2, origin, Set_spec.Insert 2);
           (Timestamp.make ~clock:97 ~pid:3, 3, Set_spec.Insert 3);
         ])
  in
  List.iter
    (fun (core, (module G : CORE)) ->
      let module K = Persist.Catchup (G) (Update_codec.For_set) in
      let rng = Prng.create 11 in
      let x = G.create (ctx ~steps:(ref 0) 0) in
      G.restore_log x (sample rng (pool rng));
      ignore (read (module G) x);
      let log0 = G.local_log x and clock0 = G.clock_value x in
      Alcotest.(check bool) (core ^ ": refused") false (K.absorb x (frame 3));
      Alcotest.(check bool) (core ^ ": log untouched") true (G.local_log x = log0);
      Alcotest.(check int) (core ^ ": clock untouched") clock0 (G.clock_value x);
      Alcotest.(check bool) (core ^ ": the pid as origin merges") true (K.absorb x (frame 2)))
    cores

(* A whole-space snapshot, valid or damaged: one shard frame mutated
   under intact framing, a declared shard count of 2^40 (or 2^20), or
   the whole frame mutated. [absorb] merges exactly the frames the spec
   decodes (each entry filed under its key unless the key holds its
   timestamp already, and counted in the shard its key routes to, whose
   clock rises to the entry's; each named shard's clock raised to its
   frame's), or, if any shard frame fails to decode, names a shard the
   ring never allocated, or holds a clock-0 entry, refuses the whole
   frame, allocating at most linearly in its length and leaving the
   replica as its twin, which never saw it: logs, clocks and the set of
   shards. A frame [snapshot] writes holds only entries whose key
   routes to the shard it names. *)
let ucx_mutated seed =
  let rng = Prng.create seed in
  let map = S.create_map ~shards:(1 + Prng.int rng 4) () in
  S.configure map;
  let frame = Option.get (S.snapshot (space_replica 1 (space_updates rng (Prng.int rng 40)))) in
  let mine = space_updates rng (Prng.int rng 30) in
  let x = space_replica 0 mine and y = space_replica 0 mine in
  let parts = ucx_parts frame in
  let frame =
    match Prng.int rng 8 with
    | 0 -> frame
    | (1 | 2) when parts <> [] ->
      let k = Prng.int rng (List.length parts) in
      ucx_frame (List.mapi (fun i (s, f) -> (s, if i = k then mutate rng f else f)) parts)
    | 3 ->
      (* The count is the one byte after "UCX" and the version. *)
      "UCX\x01"
      ^ varint_bytes (1 lsl if Prng.bool rng then 40 else 20)
      ^ String.sub frame 5 (String.length frame - 5)
    | _ -> mutate rng frame
  in
  let decoded =
    match List.map (fun (s, f) -> (s, shard_frame f)) (ucx_parts frame) with
    | exception Codec.Decode_error _ -> None
    | shards ->
      if
        List.exists
          (fun (s, (_, log)) ->
            s > Ring.max_id (S.ring map)
            || List.exists (fun (ts, _, _) -> ts.Timestamp.clock = 0) log)
          shards
      then None
      else Some shards
  in
  let merged, words = allocated_words (fun () -> S.absorb x frame) in
  match decoded with
  | None ->
    (not merged)
    && words <= float_of_int ((8 * String.length frame) + 1024)
    && S.shard_logs x = S.shard_logs y
    && shard_clocks x = shard_clocks y
  | Some shards ->
    let route (_, _, (k, _)) = Ring.route (S.ring map) k in
    let decoded = List.concat_map (fun (_, (_, log)) -> log) shards in
    (* What x must hold: y's entries and the decoded ones, each kept
       unless its key holds its timestamp already. *)
    let held = Hashtbl.create 64 in
    let fresh (ts, _, (k, _)) =
      (not (Hashtbl.mem held (k, ts))) && (Hashtbl.replace held (k, ts) (); true)
    in
    let kept = List.filter fresh (List.concat_map snd (S.shard_logs y) @ decoded) in
    let live =
      List.sort_uniq compare
        (List.map fst (shard_clocks y) @ List.map fst shards @ List.map route decoded)
    in
    let clock s =
      List.fold_left max
        (Option.value ~default:0 (List.assoc_opt s (shard_clocks y)))
        (List.filter_map (fun (s', (c, _)) -> if s' = s then Some c else None) shards
        @ List.filter_map
            (fun ((ts, _, _) as e) -> if route e = s then Some ts.Timestamp.clock else None)
            decoded)
    in
    (* Entries of distinct keys that share a timestamp (a damaged frame
       can hold them) have no order between them: each shard's entries
       are compared as a set, and checked to ascend. *)
    let as_set (s, l) = (s, List.sort compare l) in
    let rec ascending = function
      | (a, _, _) :: ((b, _, _) :: _ as rest) -> Timestamp.compare a b <= 0 && ascending rest
      | _ -> true
    in
    merged
    && List.for_all (fun (_, l) -> ascending l) (S.shard_logs x)
    && List.map as_set (S.shard_logs x)
       = List.map (fun s -> as_set (s, List.filter (fun e -> route e = s) kept)) live
    && shard_clocks x = List.map (fun s -> (s, clock s)) live

let tests =
  per_core "absorb matches the whole-log rebuild" 60 differential
  @ per_core "an absorb that adds nothing keeps the cached states" 60 absorb_nothing
  @ per_core "a hostile frame merges correctly or is refused untouched" 150 hostile
  @ per_core "a mutated frame is merged or refused untouched, never raises" 300 mutated
  @ per_core "certificate equals the reversed fold" 100 certificate_law
  @ [
      Alcotest.test_case "absorbing a resident frame allocates < 8 words per entry"
        `Quick resident_absorb_guard;
      Alcotest.test_case "a snapshot's minor words do not grow with the log" `Quick
        snapshot_guard;
      Alcotest.test_case "a certificate allocates 6 words per entry" `Quick
        certificate_guard;
      Alcotest.test_case "a UCX frame with a corrupt shard frame is refused whole"
        `Quick (second_shard_refused flip_last);
      Alcotest.test_case "a replica frame whose origin is not its pid is refused untouched"
        `Quick origin_mismatch;
      Alcotest.test_case "a UCX frame whose origin is not its pid is refused whole" `Quick
        (second_shard_refused forge_origin);
      qtest ~count:300 "a mutated UCX frame is merged or refused whole" seed_gen
        ucx_mutated;
      qtest ~count:40 "gather-scatter quiescence = all-pairs fixpoint (universal)"
        seed_gen
        (Universal.agrees ~reset:ignore ~workload:set_scripts);
      qtest ~count:40 "gather-scatter quiescence = all-pairs fixpoint (universal-list)"
        seed_gen
        (Universal_list.agrees ~reset:ignore ~workload:set_scripts);
      qtest ~count:30 "gather-scatter quiescence = all-pairs fixpoint (sharded)"
        seed_gen
        (Sharded.agrees
           ~reset:(fun () -> S.configure (S.create_map ~shards:4 ()))
           ~workload:sharded_scripts);
    ]
