module type S = sig
  include Protocol.PROTOCOL

  val message_update : message -> update

  val local_log : t -> (Timestamp.t * int * update) list

  val encode_log :
    t -> encode_update:(Codec.Writer.t -> update -> unit) -> string

  val restore_log : t -> (Timestamp.t * int * update) list -> unit

  val merge_frame :
    t -> decode_update:(Codec.Reader.t -> update) -> Codec.Reader.t -> bool

  val clock_value : t -> int

  val advance_clock : t -> int -> unit
end

type replay = Checkpoints of { interval : int; query_cache : bool } | Stable_prefix

type config = { name : string; replay : replay }

let default =
  { name = "universal"; replay = Checkpoints { interval = 32; query_cache = true } }

let memo =
  { name = "universal-memo"; replay = Checkpoints { interval = 32; query_cache = false } }

let gc = { name = "universal-gc"; replay = Stable_prefix }

let create_log c =
  match c.replay with
  | Checkpoints { interval; query_cache } ->
    Oplog.create ~checkpoint_interval:(max 0 interval) ~query_cache ()
  | Stable_prefix -> Oplog.create ()

module type CONFIG = sig
  val config : config
end

module Configured (C : CONFIG) (A : Uqadt.S) = struct
  include A

  (* The triple (cl, i, u) of line 6, flat: one block of 4 words, the
     timestamp built only to print it. *)
  type message =
    | Update of { clock : int; pid : int; update : A.update }
    | Heartbeat of { clock : int }  (* the stability mode's only *)

  (* [base], [heard] and [silent] serve the stability mode: the fold of
     the compacted prefix, the highest clock heard from each process,
     and the receives since this replica last sent. *)
  type t = {
    ctx : message Protocol.ctx;
    clock : Lamport.t;
    log : (A.update, A.state) Oplog.t;
    mutable base : A.state;
    heard : int array;
    mutable silent : int;
  }

  let protocol_name = C.config.name

  let stable = C.config.replay = Stable_prefix

  let create ctx =
    let log = create_log C.config in
    Option.iter
      (fun (r : Obs.replica) -> Oplog.set_profile log (Some r.profile))
      ctx.Protocol.obs;
    let heard = Array.make (if stable then ctx.Protocol.n else 0) 0 in
    { ctx; clock = Lamport.create (); log; base = A.initial; heard; silent = 0 }

  (* Under FIFO channels, once every process has been heard from at
     clock [c] or above, no update at or below [c] is still to come, so
     that prefix folds into [base]. An idle process raises nobody's
     bound unless it speaks: after 8 receives without a send, a replica
     broadcasts its clock. *)
  let hear t pid clock ~silent =
    if clock > t.heard.(pid) then t.heard.(pid) <- clock;
    t.silent <- silent;
    if silent >= 8 then begin
      let cl = Lamport.value t.clock in
      t.heard.(t.ctx.Protocol.pid) <- cl;
      t.ctx.Protocol.broadcast (Heartbeat { clock = cl });
      t.silent <- 0
    end;
    let bound = Array.fold_left min max_int t.heard in
    if bound > Oplog.watermark t.log then
      t.base <- fst (Oplog.compact t.log ~upto_clock:bound ~apply:A.apply t.base)

  let update t u ~on_done =
    let cl = Lamport.tick t.clock and pid = t.ctx.Protocol.pid in
    (* Line 6: broadcast to all; the local copy is applied synchronously. *)
    ignore (Oplog.insert t.log ~clock:cl ~pid u : int);
    t.ctx.Protocol.broadcast (Update { clock = cl; pid; update = u });
    if stable then hear t pid cl ~silent:0;
    on_done ()

  let receive t ~src = function
    | Update { clock; pid; update = u } ->
      (* Line 9: clock_i <- max(clock_i, cl). *)
      Lamport.merge t.clock clock;
      ignore (Oplog.insert t.log ~clock ~pid u : int);
      if stable then hear t src clock ~silent:(t.silent + 1)
    | Heartbeat { clock } ->
      Lamport.merge t.clock clock;
      hear t src clock ~silent:t.silent

  let no_update () = invalid_arg "Generic: a heartbeat carries no update"

  let message_clock = function Update m -> m.clock | Heartbeat _ -> no_update ()

  let message_pid = function Update m -> m.pid | Heartbeat _ -> no_update ()

  let message_update = function Update m -> m.update | Heartbeat _ -> no_update ()

  let receive_batch t ~src msgs =
    (* A coalesced envelope: merge the clock once against the batch
       maximum (Lamport merge is a max, so folding it message-by-message
       lands on the same value) and merge the whole envelope into the
       log in one pass. The stability mode takes it message by message. *)
    match msgs with
    | [] -> ()
    | [ m ] -> receive t ~src m
    | msgs when stable -> List.iter (receive t ~src) msgs
    | msgs ->
      let cl = List.fold_left (fun acc m -> max acc (message_clock m)) 0 msgs in
      Lamport.merge t.clock cl;
      ignore
        (Oplog.insert_batch t.log ~clock:message_clock ~pid:message_pid
           ~payload:message_update msgs
          : int)

  let query t q ~on_result =
    (* Line 13: queries also advance the clock. *)
    let (_ : int) = Lamport.tick t.clock in
    (* Lines 14-17: replay the sorted log — from the deepest valid
       checkpoint, per Section VII.C, or from the compacted prefix. *)
    let state, steps = Oplog.replay t.log ~apply:A.apply ~initial:t.base in
    t.ctx.Protocol.count_replay steps;
    on_result (A.eval state q)

  let message_wire_size = function
    | Update { clock; pid; update = u } -> Wire.pair_size clock pid + A.update_wire_size u
    | Heartbeat { clock } -> Wire.varint_size clock

  let describe_message = function
    | Update { clock; pid; update = u } ->
      Format.asprintf "%a%a" A.pp_update u Timestamp.pp (Timestamp.make ~clock ~pid)
    | Heartbeat { clock } -> Printf.sprintf "hb(%d)" clock

  let log_length t = Oplog.length t.log

  (* The stability mode adds its watermark and heard clocks. *)
  let metadata_bytes t =
    Oplog.footprint t.log ~payload_wire_size:A.update_wire_size
    + (if stable then Wire.varint_size (Oplog.watermark t.log) else 0)
    + Array.fold_left (fun acc c -> acc + Wire.varint_size c) 0 t.heard

  (* The stability mode has folded its prefix away: it holds no whole
     linearization to offer. *)
  let certificate t f init = if stable then None else Some (Oplog.fold_down f t.log init)

  (* Snapshot transfer needs an update codec the universal construction
     is parametric over; {!Persist.Catchup} supplies real implementations
     on top of the log/clock view below. *)
  include Protocol.No_catchup

  let local_log t = Oplog.to_list t.log

  let encode_log t ~encode_update =
    Oplog.encode ~update_wire_size:A.update_wire_size ~encode_update t.log

  let clock_value t = Lamport.value t.clock

  let advance_clock t v = Lamport.merge t.clock v

  let restore_log t entries =
    Oplog.load t.log entries;
    List.iter (fun (ts, _, _) -> Lamport.merge t.clock ts.Timestamp.clock) entries

  (* The frame streams into the live log ([Oplog.merge_frame]):
     checkpoints and the query cache below the lowest fresh entry
     survive. The log refuses only entries at or below its stability
     watermark, which stays 0 unless the stability mode compacts: a
     clock-0 entry no replica ever stamped. *)
  let merge_frame t ~decode_update r =
    match Oplog.merge_frame t.log ~decode_update r with
    | Some top ->
      Lamport.merge t.clock top;
      true
    | None -> false
end

module Make (A : Uqadt.S) = Configured (struct let config = default end) (A)
