type entry = { time : float; seq : int; thunk : unit -> unit }

type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : entry Heap.t;
}

let compare_entry a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () = { clock = 0.0; next_seq = 0; queue = Heap.create ~cmp:compare_entry }

let now t = t.clock

let schedule_at t ~time thunk =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  let time = Float.max time t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.queue { time; seq; thunk }

let schedule t ~delay thunk =
  if Float.is_nan delay || delay < 0.0 || delay = Float.infinity then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  schedule_at t ~time:(t.clock +. delay) thunk

let pending t = Heap.length t.queue

(* Both loops read the queue through [Heap.is_empty]/[top_exn]/[pop_exn]:
   the option-returning [peek]/[pop] would allocate a [Some] per event. *)
let step t =
  if Heap.is_empty t.queue then false
  else begin
    let e = Heap.pop_exn t.queue in
    t.clock <- e.time;
    e.thunk ();
    true
  end

let run ?(until = Float.infinity) t =
  while (not (Heap.is_empty t.queue)) && not ((Heap.top_exn t.queue).time > until) do
    ignore (step t : bool)
  done
