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

type config = { name : string; checkpoint_interval : int; query_cache : bool }

let default = { name = "universal"; checkpoint_interval = 32; query_cache = true }

let memo = { name = "universal-memo"; checkpoint_interval = 32; query_cache = false }

module type CONFIG = sig
  val config : config
end

module Configured (C : CONFIG) (A : Uqadt.S) = struct
  include A

  type message = { ts : Timestamp.t; update : A.update }

  type t = {
    ctx : message Protocol.ctx;
    clock : Lamport.t;
    log : (A.update, A.state) Oplog.t;
  }

  let protocol_name = C.config.name

  let checkpoint_interval = max 0 C.config.checkpoint_interval

  let query_cache = C.config.query_cache

  let create ctx =
    let t =
      {
        ctx;
        clock = Lamport.create ();
        log = Oplog.create ~checkpoint_interval ~query_cache ();
      }
    in
    Option.iter
      (fun (r : Obs.replica) -> Oplog.set_profile t.log (Some r.profile))
      ctx.Protocol.obs;
    t

  let update t u ~on_done =
    let cl = Lamport.tick t.clock and pid = t.ctx.Protocol.pid in
    (* Line 6: broadcast to all; the local copy is applied synchronously. *)
    ignore (Oplog.insert t.log ~clock:cl ~pid u : int);
    t.ctx.Protocol.broadcast { ts = Timestamp.make ~clock:cl ~pid; update = u };
    on_done ()

  let receive t ~src:_ { ts; update = u } =
    (* Line 9: clock_i <- max(clock_i, cl). *)
    Lamport.merge t.clock ts.Timestamp.clock;
    ignore (Oplog.insert t.log ~clock:ts.Timestamp.clock ~pid:ts.Timestamp.pid u : int)

  let message_ts m = m.ts

  let message_update { update = u; _ } = u

  let receive_batch t ~src msgs =
    (* A coalesced envelope: merge the clock once against the batch
       maximum (Lamport merge is a max, so folding it message-by-message
       lands on the same value) and merge the whole envelope into the
       log in one pass. *)
    match msgs with
    | [] -> ()
    | [ m ] -> receive t ~src m
    | msgs ->
      let cl =
        List.fold_left (fun acc m -> max acc m.ts.Timestamp.clock) 0 msgs
      in
      Lamport.merge t.clock cl;
      ignore (Oplog.insert_batch t.log ~ts:message_ts ~payload:message_update msgs : int)

  let query t q ~on_result =
    (* Line 13: queries also advance the clock. *)
    let (_ : int) = Lamport.tick t.clock in
    (* Lines 14-17: replay the sorted log — from the deepest valid
       checkpoint, per Section VII.C. *)
    let state, steps = Oplog.replay t.log ~apply:A.apply ~initial:A.initial in
    t.ctx.Protocol.count_replay steps;
    on_result (A.eval state q)

  let message_wire_size { ts; update = u } =
    Timestamp.wire_size ts + A.update_wire_size u

  let describe_message { ts; update = u } =
    Format.asprintf "%a%a" A.pp_update u Timestamp.pp ts

  let log_length t = Oplog.length t.log

  let metadata_bytes t = Oplog.footprint t.log ~payload_wire_size:A.update_wire_size

  let certificate t f init = Some (Oplog.fold_down f t.log init)

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
     watermark, which stays 0 on this core (it never compacts): a
     clock-0 entry no replica ever stamped. *)
  let merge_frame t ~decode_update r =
    match Oplog.merge_frame t.log ~decode_update r with
    | Some top ->
      Lamport.merge t.clock top;
      true
    | None -> false
end

module Make (A : Uqadt.S) = Configured (struct let config = default end) (A)
