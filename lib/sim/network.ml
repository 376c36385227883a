type delay_model =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Pareto of { scale : float; shape : float }

let draw_delay rng = function
  | Constant d -> d
  | Uniform { lo; hi } -> Prng.uniform rng ~lo ~hi
  | Exponential { mean } -> Prng.exponential rng ~mean
  | Pareto { scale; shape } -> Prng.pareto rng ~scale ~shape

type partition = { from_time : float; to_time : float; group : int list }

(* Dynamic membership: a replica can be scheduled to join the run late,
   leave it mid-flight and rejoin later. [Join] covers both the fresh
   joiner (no prior state) and is distinguished from [Rejoin] only in
   what the runner journals; the network treats both as "attach". *)
type churn_action = Join | Leave | Rejoin

type churn_event = { time : float; pid : int; action : churn_action }

let churn_action_name = function
  | Join -> "join"
  | Leave -> "leave"
  | Rejoin -> "rejoin"

let churn_action_of_name = function
  | "join" -> Some Join
  | "leave" -> Some Leave
  | "rejoin" -> Some Rejoin
  | _ -> None

(* Per-replica telemetry handles, resolved once at creation so the hot
   path never looks anything up by name. *)
type net_obs = {
  o : Obs.t;
  sent : Obs.Registry.counter array;
  bytes : Obs.Registry.counter array;
  delivered : Obs.Registry.counter array;
  dropped : Obs.Registry.counter array;
  batches : Obs.Registry.counter array;
  latency : Obs.Registry.hist array;
}

type 'msg t = {
  engine : Engine.t;
  rng : Prng.t;
  metrics : Metrics.t;
  n : int;
  fifo : bool;
  partitions : partition list;
  envelope : int;  (** per-frame wire overhead, amortised by batching *)
  delay : delay_model;
  record_delivery :
    (sent:float -> received:float -> src:int -> dst:int -> 'msg -> unit) option;
  wire_size : 'msg -> int;
  deliver : dst:int -> src:int -> 'msg -> unit;
  crashed : bool array;
  offline : bool array;
      (** detached by churn: drops frames like a crash, but reversible *)
  last_delivery : float array array;  (** per (src, dst), for FIFO channels *)
  obs : net_obs option;
  frame_kind : Engine.kind;  (** a frame's delivery event; carries its slot *)
  frames : 'msg frames;
  latency : latency_sum;
}

(* In-flight frames, one slot per frame, in columns: a frame's delivery
   is a typed engine event carrying its slot, so sending one builds no
   closure and no record. A slot is reused once its frame is delivered
   or dropped. *)
and 'msg frames = {
  mutable src : int array;
  mutable dst : int array;
  mutable count : int array;
  mutable sent : Float.Array.t;
  mutable arrival : Float.Array.t;
  mutable msgs : ('msg * Obs.Span.id option) list array;
  mutable free : int array;  (** stack of unused slots *)
  mutable free_count : int;
}

(* The running sum of delivery latencies, unboxed (a record of floats
   only is stored flat); published to [Metrics] whenever the engine
   returns. *)
and latency_sum = { mutable sum : float }

let make_net_obs o n =
  let per name =
    Array.init n (fun pid ->
        Obs.Registry.counter o.Obs.registry
          ~labels:[ ("pid", string_of_int pid) ]
          name)
  in
  {
    o;
    sent = per "messages_sent";
    bytes = per "bytes_sent";
    delivered = per "messages_delivered";
    dropped = per "messages_dropped";
    batches = per "batches_sent";
    latency =
      Array.init n (fun pid ->
          Obs.Registry.hist o.Obs.registry
            ~labels:[ ("pid", string_of_int pid) ]
            "delivery_latency");
  }

let frames_create () =
  {
    src = [||];
    dst = [||];
    count = [||];
    sent = Float.Array.create 0;
    arrival = Float.Array.create 0;
    msgs = [||];
    free = [||];
    free_count = 0;
  }

let grow_int a cap =
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a cap =
  let b = Float.Array.create cap in
  Float.Array.blit a 0 b 0 (Float.Array.length a);
  b

(* A free slot, doubling the columns when every slot is in flight. *)
let take_slot f =
  if f.free_count = 0 then begin
    let cap = Array.length f.src in
    let grown = max 16 (2 * cap) in
    f.src <- grow_int f.src grown;
    f.dst <- grow_int f.dst grown;
    f.count <- grow_int f.count grown;
    f.sent <- grow_float f.sent grown;
    f.arrival <- grow_float f.arrival grown;
    let msgs = Array.make grown [] in
    Array.blit f.msgs 0 msgs 0 cap;
    f.msgs <- msgs;
    let free = Array.make grown 0 in
    for i = 0 to grown - cap - 1 do
      free.(i) <- grown - 1 - i
    done;
    f.free <- free;
    f.free_count <- grown - cap
  end;
  f.free_count <- f.free_count - 1;
  f.free.(f.free_count)

let release_slot f slot =
  f.msgs.(slot) <- [];
  f.free.(f.free_count) <- slot;
  f.free_count <- f.free_count + 1

let ambient t =
  match t.obs with None -> None | Some no -> Obs.Span.active no.o.Obs.spans

(* The journal, when telemetry carries one. Call sites match on it and
   build their event inside the [Some] branch: a [record (fun () ->
   event)] helper would allocate that closure on every frame, telemetry
   off or not. *)
let journal t = match t.obs with None -> None | Some no -> no.o.Obs.journal

(* Each message leaves stamped with the span that was ambient when it
   was handed to the network (not when a buffered batch flushes). *)
let rec stamp_with span = function
  | [] -> []
  | m :: rest -> (m, span) :: stamp_with span rest

let stamp t msgs = stamp_with (ambient t) msgs

let rec separating ~src ~dst ~at = function
  | [] -> None
  | p :: rest ->
    if
      p.from_time <= at && at < p.to_time
      && List.mem src p.group <> List.mem dst p.group
    then Some p
    else separating ~src ~dst ~at rest

let separated t ~src ~dst ~at = separating ~src ~dst ~at t.partitions

(* Earliest time >= [at] when src and dst are connected: partitions only
   delay messages (the network stays reliable). *)
let rec connected_time t ~src ~dst ~at =
  match separated t ~src ~dst ~at with
  | None -> at
  | Some p -> connected_time t ~src ~dst ~at:p.to_time

let rec payload_bytes wire_size acc = function
  | [] -> acc
  | (m, _) :: rest -> payload_bytes wire_size (acc + wire_size m) rest

(* A delivered frame's messages, in order. The frame's times are read
   from its slot only where an observer needs them, so an unobserved
   delivery boxes none. *)
let rec deliver_each t slot ~src ~dst = function
  | [] -> ()
  | (msg, span) :: rest ->
    t.metrics.Metrics.messages_delivered <- t.metrics.Metrics.messages_delivered + 1;
    let f = t.frames in
    (match t.record_delivery with
    | Some record ->
      record ~sent:(Float.Array.get f.sent slot)
        ~received:(Float.Array.get f.arrival slot) ~src ~dst msg
    | None -> ());
    (match t.obs with
    | None -> t.deliver ~dst ~src msg
    | Some no ->
      let sent = Float.Array.get f.sent slot in
      let arrival = Float.Array.get f.arrival slot in
      Obs.Registry.inc no.delivered.(dst);
      Obs.Registry.observe no.latency.(dst) (arrival -. sent);
      Obs.Span.record_deliver no.o.Obs.spans ~span ~src ~dst ~sent ~received:arrival;
      (* Restore the ambient span afterwards so relays triggered by
         this delivery stamp with the delivered span only while
         processing it. *)
      let saved = Obs.Span.active no.o.Obs.spans in
      Obs.Span.set_active no.o.Obs.spans span;
      t.deliver ~dst ~src msg;
      Obs.Span.record_apply no.o.Obs.spans ~span ~pid:dst ~time:arrival;
      Obs.Span.set_active no.o.Obs.spans saved);
    deliver_each t slot ~src ~dst rest

(* The frame in [slot] reaching its destination: dropped whole if the
   destination is down by then, delivered message by message otherwise.
   The slot is released last, so the deliveries may send (into other
   slots) while this frame is still being read. *)
let arrive t slot =
  let f = t.frames in
  let m = t.metrics in
  let src = f.src.(slot) and dst = f.dst.(slot) and count = f.count.(slot) in
  if t.crashed.(dst) || t.offline.(dst) then begin
    m.Metrics.messages_dropped <- m.Metrics.messages_dropped + count;
    (match journal t with
    | Some j ->
      Obs.Journal.record j
        (Obs.Journal.Drop { pid = dst; count; time = Float.Array.get f.arrival slot })
    | None -> ());
    match t.obs with
    | None -> ()
    | Some no -> Obs.Registry.inc ~by:count no.dropped.(dst)
  end
  else begin
    (match journal t with
    | Some j ->
      Obs.Journal.record j
        (Obs.Journal.Deliver
           { src; dst; count; time = Float.Array.get f.arrival slot })
    | None -> ());
    (* One addition per message, in message order, as per-message
       accounting summed it, into the unboxed cell. *)
    let latency = Float.Array.get f.arrival slot -. Float.Array.get f.sent slot in
    let sum = ref t.latency.sum in
    for _ = 1 to count do
      sum := !sum +. latency
    done;
    t.latency.sum <- !sum;
    deliver_each t slot ~src ~dst f.msgs.(slot)
  end;
  release_slot f slot

let create ~engine ~rng ~metrics ~n ?(fifo = false) ?(partitions = [])
    ?(envelope = 0) ?record_delivery ?obs ~delay ~wire_size ~deliver () =
  if envelope < 0 then invalid_arg "Network.create: envelope must be non-negative";
  let latency = { sum = metrics.Metrics.delivery_latency_sum } in
  Engine.at_return engine (fun () -> metrics.Metrics.delivery_latency_sum <- latency.sum);
  let t =
    {
      engine;
      rng;
      metrics;
      n;
      fifo;
      partitions;
      envelope;
      delay;
      record_delivery;
      wire_size;
      deliver;
      crashed = Array.make n false;
      offline = Array.make n false;
      last_delivery = Array.init n (fun _ -> Array.make n 0.0);
      obs = Option.map (fun o -> make_net_obs o n) obs;
      frame_kind = Engine.kind engine;
      frames = frames_create ();
      latency;
    }
  in
  Engine.set_handler engine t.frame_kind (arrive t);
  t

(* One wire frame from [src] to [dst] carrying [msgs] in order: one
   delay draw, one envelope, one delivery event. A singleton frame is
   exactly the seed's per-message [enqueue] (with the default zero
   envelope the metrics are bit-identical). [msgs] are (message, span)
   pairs; the span stamps cost no wire bytes. *)
let enqueue t ~src ~dst msgs =
  let now = Engine.now t.engine in
  let count = List.length msgs in
  let frame_bytes = payload_bytes t.wire_size t.envelope msgs in
  t.metrics.Metrics.messages_sent <- t.metrics.Metrics.messages_sent + count;
  t.metrics.Metrics.bytes_sent <- t.metrics.Metrics.bytes_sent + frame_bytes;
  if count > 1 then
    t.metrics.Metrics.batches_sent <- t.metrics.Metrics.batches_sent + 1;
  (match t.obs with
  | None -> ()
  | Some no ->
    Obs.Registry.inc ~by:count no.sent.(src);
    Obs.Registry.inc ~by:frame_bytes no.bytes.(src);
    if count > 1 then Obs.Registry.inc no.batches.(src);
    List.iter
      (fun (_, span) -> Obs.Span.record_send no.o.Obs.spans ~span ~src ~time:now)
      msgs);
  let arrival =
    if src = dst then now (* a process receives its own broadcast instantly *)
    else begin
      let departure = connected_time t ~src ~dst ~at:now in
      let arrival = departure +. draw_delay t.rng t.delay in
      if t.fifo then Float.max arrival t.last_delivery.(src).(dst) else arrival
    end
  in
  if t.fifo then t.last_delivery.(src).(dst) <- arrival;
  (match journal t with
  | Some j ->
    Obs.Journal.record j
      (Obs.Journal.Frame
         {
           src;
           dst;
           count;
           bytes = frame_bytes;
           sent = now;
           arrival;
           spans = List.map snd msgs;
         })
  | None -> ());
  let f = t.frames in
  let slot = take_slot f in
  f.src.(slot) <- src;
  f.dst.(slot) <- dst;
  f.count.(slot) <- count;
  Float.Array.set f.sent slot now;
  Float.Array.set f.arrival slot arrival;
  f.msgs.(slot) <- msgs;
  Engine.post_at t.engine ~time:arrival t.frame_kind slot

let drop_from_src t ~src count =
  t.metrics.Metrics.messages_dropped <-
    t.metrics.Metrics.messages_dropped + count;
  (match journal t with
  | Some j ->
    Obs.Journal.record j
      (Obs.Journal.Drop { pid = src; count; time = Engine.now t.engine })
  | None -> ());
  match t.obs with
  | None -> ()
  | Some no -> Obs.Registry.inc ~by:count no.dropped.(src)

let send t ~src ~dst msg =
  if dst < 0 || dst >= t.n then invalid_arg "Network.send: bad destination";
  if t.crashed.(src) || t.offline.(src) then drop_from_src t ~src 1
  else enqueue t ~src ~dst [ (msg, ambient t) ]

let send_stamped_batch t ~src ~dst msgs =
  if dst < 0 || dst >= t.n then invalid_arg "Network.send_batch: bad destination";
  match msgs with
  | [] -> ()
  | msgs ->
    if t.crashed.(src) || t.offline.(src) then
      drop_from_src t ~src (List.length msgs)
    else enqueue t ~src ~dst msgs

let send_batch t ~src ~dst msgs = send_stamped_batch t ~src ~dst (stamp t msgs)

(* The stamped list is built once and shared by every destination's
   frame: frames never mutate it. *)
let broadcast_stamped_batch t ~src msgs =
  if msgs <> [] then
    for dst = 0 to t.n - 1 do
      if dst <> src then send_stamped_batch t ~src ~dst msgs
    done

let broadcast_batch t ~src msgs = broadcast_stamped_batch t ~src (stamp t msgs)

(* A singleton frame per destination: exactly [send] to each, the
   stamped message shared. *)
let broadcast t ~src msg = broadcast_stamped_batch t ~src [ (msg, ambient t) ]

let crash t pid = t.crashed.(pid) <- true

(* Churn: an offline replica behaves like a crashed one on the wire
   (frames to and from it are dropped) but can come back. In-flight
   frames scheduled before the detach are judged at delivery time, so
   a frame that arrives during the offline window is lost — exactly
   the semantics a rejoiner must repair via catch-up. *)
let detach t pid = t.offline.(pid) <- true

let attach t pid = t.offline.(pid) <- false

(* Whether src and dst are on opposite sides of some partition at [at];
   catch-up transfers consult this so a joiner cannot sync across a
   partition it could not have talked through. *)
let separated_at t ~src ~dst ~at = separated t ~src ~dst ~at <> None

let alive t =
  let rec collect i acc =
    if i < 0 then acc else collect (i - 1) (if t.crashed.(i) then acc else i :: acc)
  in
  collect (t.n - 1) []
