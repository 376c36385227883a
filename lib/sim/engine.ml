(* A queue item is [(payload lsl kind_bits) lor kind]. Kind 0 is a
   thunk, whose payload is its slot in the thunk pool; every other kind
   is typed, and its payload is the int the event carries. *)
let kind_bits = 16

let kind_mask = (1 lsl kind_bits) - 1

let thunk_kind = 0

type kind = int

(* A pending thunk and its time, kept boxed: the box the caller (or
   [schedule]) made becomes the clock when the thunk runs, so running a
   thunk allocates nothing of the engine's. *)
type slot = { mutable thunk : unit -> unit; mutable time : float }

let idle () = ()

type t = {
  mutable clock : float;
  queue : Heap.t;
  mutable slots : slot array;
  mutable free : int array;  (** stack of unused slot indices *)
  mutable free_count : int;
  mutable handlers : (int -> unit) array;  (** by kind; 0 is unused *)
  mutable kinds : int;
  mutable at_return : (unit -> unit) list;
}

let create () =
  {
    clock = 0.0;
    queue = Heap.create ();
    slots = [||];
    free = [||];
    free_count = 0;
    handlers = [| ignore |];
    kinds = 1;
    at_return = [];
  }

let now t = t.clock

let kind t =
  let k = t.kinds in
  if k > kind_mask then invalid_arg "Engine.kind: too many event kinds";
  t.kinds <- k + 1;
  if k = Array.length t.handlers then begin
    let handlers = Array.make (2 * k) ignore in
    Array.blit t.handlers 0 handlers 0 k;
    t.handlers <- handlers
  end;
  k

let set_handler t k handler =
  if k <= thunk_kind || k >= t.kinds then invalid_arg "Engine.set_handler: unknown kind";
  t.handlers.(k) <- handler

let at_return t f = t.at_return <- t.at_return @ [ f ]

let returning t = List.iter (fun f -> f ()) t.at_return

(* The hooks run even when an event raises, so what they publish is
   never left behind the events that ran. *)
let returning_raise t e =
  let bt = Printexc.get_raw_backtrace () in
  returning t;
  Printexc.raise_with_backtrace e bt

let check_time time =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time"

let check_delay delay =
  if Float.is_nan delay || delay < 0.0 || delay = Float.infinity then
    invalid_arg "Engine.schedule: delay must be finite and non-negative"

(* [Float.max time t.clock] that returns one of its two arguments as it
   is instead of boxing a new float; [time] is not NaN. *)
let not_before t time =
  let c = t.clock in
  if c > time || ((not (Float.sign_bit c)) && Float.sign_bit time) then c else time

let take_slot t =
  if t.free_count = 0 then begin
    let cap = Array.length t.slots in
    let grown = max 16 (2 * cap) in
    let slots = Array.make grown { thunk = idle; time = 0.0 } in
    Array.blit t.slots 0 slots 0 cap;
    for i = cap to grown - 1 do
      slots.(i) <- { thunk = idle; time = 0.0 }
    done;
    t.slots <- slots;
    (* Every old slot is taken; the stack holds the new ones. *)
    let free = Array.make grown 0 in
    for i = 0 to grown - cap - 1 do
      free.(i) <- grown - 1 - i
    done;
    t.free <- free;
    t.free_count <- grown - cap
  end;
  t.free_count <- t.free_count - 1;
  t.free.(t.free_count)

let schedule_at t ~time thunk =
  check_time time;
  let time = not_before t time in
  let i = take_slot t in
  let s = t.slots.(i) in
  s.thunk <- thunk;
  s.time <- time;
  Heap.push t.queue ~time ((i lsl kind_bits) lor thunk_kind)

let schedule t ~delay thunk =
  check_delay delay;
  schedule_at t ~time:(t.clock +. delay) thunk

let check_payload payload =
  if payload < 0 then invalid_arg "Engine.post: negative payload"

let post_at t ~time k payload =
  check_time time;
  check_payload payload;
  Heap.push t.queue ~time:(not_before t time) ((payload lsl kind_bits) lor k)

(* [now + delay >= now] for a valid delay: no clamp to apply. *)
let post t ~delay k payload =
  check_delay delay;
  check_payload payload;
  Heap.push_after t.queue ~now:t.clock ~delay ((payload lsl kind_bits) lor k)

let pending t = Heap.length t.queue

(* Pop the next event, set the clock to its time, and run it. A thunk's
   time is the box stored with it; a typed event's is boxed here, once:
   the one allocation the engine makes per typed event. *)
let run_next t =
  let q = t.queue in
  let item = Heap.min_item q in
  let k = item land kind_mask in
  let payload = item lsr kind_bits in
  if k = thunk_kind then begin
    let s = t.slots.(payload) in
    let thunk = s.thunk in
    Heap.remove_min q;
    t.clock <- s.time;
    s.thunk <- idle;
    t.free.(t.free_count) <- payload;
    t.free_count <- t.free_count + 1;
    thunk ()
  end
  else begin
    t.clock <- Heap.min_time q;
    Heap.remove_min q;
    t.handlers.(k) payload
  end

let step t =
  if Heap.is_empty t.queue then false
  else begin
    (match run_next t with () -> returning t | exception e -> returning_raise t e);
    true
  end

let run ?(until = Float.infinity) t =
  match
    while (not (Heap.is_empty t.queue)) && not (Heap.min_later_than t.queue until) do
      run_next t
    done
  with
  | () -> returning t
  | exception e -> returning_raise t e
