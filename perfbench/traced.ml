(* Protocol wrapper the benchmark times every layer boundary through.

   [Make (P)] is a [Protocol.PROTOCOL] that delegates every function to
   [P]. Around the calls it records, per replica:

   - the wall time from each update/query invocation to its completion
     callback (the end-to-end invocation latencies);
   - each message's send time, both simulated ([ctx.now]) and wall
     clock, carried beside the payload so the receiver can measure
     visibility latency — wire sizes are the payload's own, so byte
     metrics are unchanged;
   - counts of frames handed to the transport, messages received,
     delivery runs, replay steps, snapshots and absorbs.

   In a traced session it additionally keeps a span for every call into
   the layer below ([update], [query], [receive], [receive_batch],
   [snapshot], [absorb]) and for every callback that layer makes into the
   transport or engine ([broadcast], [broadcast_batch], [send],
   [count_replay], and the completion callbacks), and gives the core an
   [Obs.make_replica] handle so the op-log's [Obs.Profile] counters fill
   in. Spans live in per-replica growable arrays (kind, start, end,
   parent, invocation id) until the run ends.

   Replicas register in the current {!session} by pid. A parallel engine
   creates its replicas inside their domains; each writes only its own
   slot, and the slots are read after the joins. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable unboxed buffers: per-sample recording must not allocate
   beyond the occasional doubling. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let length b = b.n

  let get b i = b.a.(i)

  let set b i x = b.a.(i) <- x

  let to_array b = Array.sub b.a 0 b.n
end

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

type kind =
  | Update
  | Query
  | Receive
  | Receive_batch
  | Snapshot
  | Absorb
  | Broadcast
  | Broadcast_batch
  | Send
  | Count_replay
  | Callback

let kinds =
  [|
    Update;
    Query;
    Receive;
    Receive_batch;
    Snapshot;
    Absorb;
    Broadcast;
    Broadcast_batch;
    Send;
    Count_replay;
    Callback;
  |]

let kind_index = function
  | Update -> 0
  | Query -> 1
  | Receive -> 2
  | Receive_batch -> 3
  | Snapshot -> 4
  | Absorb -> 5
  | Broadcast -> 6
  | Broadcast_batch -> 7
  | Send -> 8
  | Count_replay -> 9
  | Callback -> 10

let kind_name = function
  | Update -> "update"
  | Query -> "query"
  | Receive -> "receive"
  | Receive_batch -> "receive_batch"
  | Snapshot -> "snapshot"
  | Absorb -> "absorb"
  | Broadcast -> "broadcast"
  | Broadcast_batch -> "broadcast_batch"
  | Send -> "send"
  | Count_replay -> "count_replay"
  | Callback -> "callback"

(* One replica's span log: parallel arrays indexed by span id, plus the
   id of the innermost open span ([-1] at top level). *)
module Spans = struct
  type t = {
    kind : Ibuf.t;
    start : Ibuf.t;
    stop : Ibuf.t;
    parent : Ibuf.t;
    inv : Ibuf.t;
    mutable top : int;
  }

  let create () =
    {
      kind = Ibuf.create ();
      start = Ibuf.create ();
      stop = Ibuf.create ();
      parent = Ibuf.create ();
      inv = Ibuf.create ();
      top = -1;
    }

  let length s = Ibuf.length s.kind

  let open_ s k ~inv ~at =
    let id = Ibuf.length s.kind in
    Ibuf.push s.kind (kind_index k);
    Ibuf.push s.start at;
    Ibuf.push s.stop at;
    Ibuf.push s.parent s.top;
    Ibuf.push s.inv inv;
    s.top <- id;
    id

  let close s id ~at =
    Ibuf.set s.stop id at;
    s.top <- Ibuf.get s.parent id

  (* Self time of every span: its duration minus the durations of its
     direct children (which are nested inside it by construction). *)
  let self_ns s =
    let n = length s in
    let self = Array.init n (fun i -> Ibuf.get s.stop i - Ibuf.get s.start i) in
    for i = 0 to n - 1 do
      let p = Ibuf.get s.parent i in
      if p >= 0 then self.(p) <- self.(p) - (Ibuf.get s.stop i - Ibuf.get s.start i)
    done;
    self
end

(* Everything one replica records. *)
module Rec = struct
  type t = {
    pid : int;
    traced : bool;
    upd_ns : Ibuf.t;  (* invocation -> completion callback, per update *)
    qry_ns : Ibuf.t;
    vis_t : Fbuf.t;  (* receive-time [ctx.now] minus send-time [ctx.now] *)
    vis_ns : Ibuf.t;  (* same on the wall clock; traced sessions only *)
    mutable first_ns : int;  (* start of the first invocation; max_int before *)
    mutable updates : int;
    mutable queries : int;
    mutable frames : int;  (* frames handed to the transport *)
    mutable messages_in : int;
    mutable drains : int;  (* maximal runs of consecutive deliveries *)
    mutable receiving : bool;
    mutable replay_steps : int;
    mutable snapshots : int;
    mutable snapshot_bytes : int;
    mutable absorbs : int;
    mutable inv_seq : int;
    mutable cur_inv : int;  (* invocation the replica is working for *)
    spans : Spans.t;
    handle : Obs.replica option;
  }

  let create ~pid ~traced =
    {
      pid;
      traced;
      upd_ns = Ibuf.create ();
      qry_ns = Ibuf.create ();
      vis_t = Fbuf.create ();
      vis_ns = Ibuf.create ();
      first_ns = max_int;
      updates = 0;
      queries = 0;
      frames = 0;
      messages_in = 0;
      drains = 0;
      receiving = false;
      replay_steps = 0;
      snapshots = 0;
      snapshot_bytes = 0;
      absorbs = 0;
      inv_seq = 0;
      cur_inv = -1;
      spans = Spans.create ();
      handle = (if traced then Some (Obs.make_replica pid) else None);
    }

  let profile r = Option.map (fun (h : Obs.replica) -> h.Obs.profile) r.handle

  (* Invocation ids are unique run-wide: pid in the low byte. *)
  let fresh_inv r =
    r.inv_seq <- r.inv_seq + 1;
    r.cur_inv <- (r.inv_seq lsl 8) lor r.pid
end

type session = { traced : bool; recs : Rec.t option array }

let current = ref { traced = false; recs = [||] }

let start ~traced ~n =
  let s = { traced; recs = Array.make n None } in
  current := s;
  s

let recs s = Array.to_list s.recs |> List.filter_map Fun.id

(* Write the session's spans as TSV: pid, span id, kind, start and end
   (ns, monotonic clock), parent span id, invocation id. Only each
   replica's first [per_replica] spans are written: a 2-domain run keeps
   millions, and a prefix is enough to inspect nesting and costs. *)
let per_replica = 100_000

let write_spans s path =
  let oc = open_out path in
  output_string oc "pid\tspan\tkind\tstart_ns\tend_ns\tparent\tinvocation\n";
  List.iter
    (fun (r : Rec.t) ->
      let sp = r.Rec.spans in
      for i = 0 to min per_replica (Spans.length sp) - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" r.Rec.pid i
          (kind_name kinds.(Ibuf.get sp.Spans.kind i))
          (Ibuf.get sp.Spans.start i) (Ibuf.get sp.Spans.stop i)
          (Ibuf.get sp.Spans.parent i) (Ibuf.get sp.Spans.inv i)
      done)
    (recs s);
  close_out oc

module Make (P : Protocol.PROTOCOL) = struct
  include (
    P :
      Uqadt.S
        with type state = P.state
         and type update = P.update
         and type query = P.query
         and type output = P.output)

  type message = { m : P.message; sent_t : float; sent_ns : int; sent_inv : int }

  type t = { p : P.t; r : Rec.t; now : unit -> float }

  let protocol_name = P.protocol_name

  let inner t = t.p

  (* Run [f] inside a span of kind [k] when tracing. *)
  let span r k ~inv f =
    if r.Rec.traced then begin
      let sp = r.Rec.spans in
      let id = Spans.open_ sp k ~inv ~at:(now_ns ()) in
      let x = f () in
      Spans.close sp id ~at:(now_ns ());
      x
    end
    else f ()

  let create (ctx : message Protocol.ctx) =
    let s = !current in
    let r = Rec.create ~pid:ctx.Protocol.pid ~traced:s.traced in
    s.recs.(ctx.Protocol.pid) <- Some r;
    let peers = ctx.Protocol.n - 1 in
    let stamp m =
      {
        m;
        sent_t = ctx.Protocol.now ();
        sent_ns = (if r.Rec.traced then now_ns () else 0);
        sent_inv = r.Rec.cur_inv;
      }
    in
    let outgoing () = r.Rec.receiving <- false in
    let pctx =
      {
        Protocol.pid = ctx.Protocol.pid;
        n = ctx.Protocol.n;
        now = ctx.Protocol.now;
        send =
          (fun ~dst m ->
            outgoing ();
            r.Rec.frames <- r.Rec.frames + 1;
            span r Send ~inv:r.Rec.cur_inv (fun () ->
                ctx.Protocol.send ~dst (stamp m)));
        broadcast =
          (fun m ->
            outgoing ();
            r.Rec.frames <- r.Rec.frames + peers;
            span r Broadcast ~inv:r.Rec.cur_inv (fun () ->
                ctx.Protocol.broadcast (stamp m)));
        broadcast_batch =
          (fun ms ->
            outgoing ();
            if ms <> [] then r.Rec.frames <- r.Rec.frames + peers;
            span r Broadcast_batch ~inv:r.Rec.cur_inv (fun () ->
                ctx.Protocol.broadcast_batch (List.map stamp ms)));
        set_timer = ctx.Protocol.set_timer;
        count_replay =
          (fun k ->
            r.Rec.replay_steps <- r.Rec.replay_steps + k;
            span r Count_replay ~inv:r.Rec.cur_inv (fun () ->
                ctx.Protocol.count_replay k));
        obs = (if r.Rec.traced then r.Rec.handle else ctx.Protocol.obs);
      }
    in
    { p = P.create pctx; r; now = ctx.Protocol.now }

  let invoked r =
    let t0 = now_ns () in
    if t0 < r.Rec.first_ns then r.Rec.first_ns <- t0;
    r.Rec.receiving <- false;
    Rec.fresh_inv r;
    t0

  let completed buf t0 = Ibuf.push buf (now_ns () - t0)

  let update t u ~on_done =
    let r = t.r in
    let t0 = invoked r in
    r.Rec.updates <- r.Rec.updates + 1;
    let inv = r.Rec.cur_inv in
    span r Update ~inv (fun () ->
        P.update t.p u ~on_done:(fun () ->
            completed r.Rec.upd_ns t0;
            span r Callback ~inv on_done))

  let query t q ~on_result =
    let r = t.r in
    let t0 = invoked r in
    r.Rec.queries <- r.Rec.queries + 1;
    let inv = r.Rec.cur_inv in
    span r Query ~inv (fun () ->
        P.query t.p q ~on_result:(fun o ->
            completed r.Rec.qry_ns t0;
            span r Callback ~inv (fun () -> on_result o)))

  let arrived t msg =
    let r = t.r in
    r.Rec.messages_in <- r.Rec.messages_in + 1;
    Fbuf.push r.Rec.vis_t (t.now () -. msg.sent_t);
    if r.Rec.traced then Ibuf.push r.Rec.vis_ns (now_ns () - msg.sent_ns)

  let delivery r =
    if not r.Rec.receiving then begin
      r.Rec.receiving <- true;
      r.Rec.drains <- r.Rec.drains + 1
    end

  let receive t ~src msg =
    let r = t.r in
    delivery r;
    arrived t msg;
    r.Rec.cur_inv <- msg.sent_inv;
    span r Receive ~inv:msg.sent_inv (fun () -> P.receive t.p ~src msg.m)

  let receive_batch t ~src msgs =
    let r = t.r in
    delivery r;
    List.iter (arrived t) msgs;
    let inv = match msgs with m :: _ -> m.sent_inv | [] -> -1 in
    r.Rec.cur_inv <- inv;
    span r Receive_batch ~inv (fun () ->
        P.receive_batch t.p ~src (List.map (fun msg -> msg.m) msgs))

  let message_wire_size msg = P.message_wire_size msg.m

  let describe_message msg = P.describe_message msg.m

  let log_length t = P.log_length t.p

  let metadata_bytes t = P.metadata_bytes t.p

  let certificate t = P.certificate t.p

  let snapshot t =
    let r = t.r in
    let s = span r Snapshot ~inv:(-1) (fun () -> P.snapshot t.p) in
    Option.iter
      (fun b ->
        r.Rec.snapshots <- r.Rec.snapshots + 1;
        r.Rec.snapshot_bytes <- r.Rec.snapshot_bytes + String.length b)
      s;
    s

  let absorb t b =
    let r = t.r in
    r.Rec.absorbs <- r.Rec.absorbs + 1;
    span r Absorb ~inv:(-1) (fun () -> P.absorb t.p b)
end
