module type LOG_VIEW = sig
  type t

  type update

  val local_log : t -> (Timestamp.t * int * update) list

  val encode_log :
    t -> encode_update:(Codec.Writer.t -> update -> unit) -> string

  val restore_log : t -> (Timestamp.t * int * update) list -> unit

  val clock_value : t -> int

  val advance_clock : t -> int -> unit
end

(* The "UCS" replica frame: magic, version, the Lamport clock as a
   varint, then the embedded "UCL" log frame as a byte string. Written
   and parsed here alone, for every replica that snapshots one. *)
let replica_magic = "UCS"

let replica_version = 1

let replica_frame ~clock log =
  (* magic + version + clock varint + length varint + log, pre-sized
     so the writer never reallocates under a large log. *)
  let w = Codec.Writer.create ~size:(String.length log + 24) () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) replica_magic;
  Codec.Writer.u8 w replica_version;
  Codec.Writer.varint w clock;
  Codec.Writer.byte_string w log;
  Codec.Writer.contents w

let open_replica r =
  String.iter
    (fun c ->
      if Codec.Reader.u8 r <> Char.code c then
        raise (Codec.Decode_error "replica snapshot: bad magic"))
    replica_magic;
  if Codec.Reader.u8 r <> replica_version then
    raise (Codec.Decode_error "replica snapshot: unsupported version");
  let clock = Codec.Reader.varint r in
  let log = Codec.Reader.nested r in
  if not (Codec.Reader.at_end r) then
    raise (Codec.Decode_error "replica snapshot: trailing bytes");
  (clock, log)

module Over (G : LOG_VIEW) (C : Update_codec.S with type update = G.update) =
struct
  (* The log frame itself ("UCL", version, entries, checksum) is the
     oplog substrate's single codec path; the replica picks the fastest
     encoder for its storage (array cores stream the log's columns). *)
  let encode_log entries = Oplog.encode_list ~encode_update:C.encode entries

  let decode_log s =
    Oplog.decode_list ~decode_update:C.decode (Codec.Reader.of_string s)

  let snapshot replica = G.encode_log replica ~encode_update:C.encode

  let restore replica s = G.restore_log replica (decode_log s)

  (* Full-fidelity replica snapshots: the log frame plus the exact
     Lamport clock. [restore] alone under-restores the clock (queries
     tick it without logging anything), which is fine for crash
     recovery — the clock only needs to move forward — but not for the
     model checker's checkpointed replay, where a rewound replica must
     be bit-identical to the one that was snapshotted. *)
  let snapshot_replica replica =
    replica_frame ~clock:(G.clock_value replica)
      (G.encode_log replica ~encode_update:C.encode)

  let decode_replica s =
    let clock, log = open_replica (Codec.Reader.of_string s) in
    (clock, Oplog.decode_list ~decode_update:C.decode log)

  let restore_replica replica s =
    let clock, log = decode_replica s in
    G.restore_log replica log;
    G.advance_clock replica clock
end

(* Churn catch-up for Algorithm 1-shaped replicas: the {!Protocol}
   [snapshot]/[absorb] stubs replaced by real implementations over the
   "UCS" replica frame. [absorb] merges by timestamp union rather than
   replacing, so a rejoiner keeps its crash-time log and absorbing is
   idempotent and commutative — Proposition 4 guarantees the merged
   replica converges to the same state as if it had received every
   frame it missed. The merge streams the frame into the live log
   ([G.merge_frame]): the header is parsed in place, no decoded copy of
   the log is built, and the cached states below the lowest fresh
   entry survive the catch-up. *)
module Catchup
    (G : Generic.S)
    (C : Update_codec.S with type update = G.update) =
struct
  include G
  module P = Over (G) (C)

  let snapshot replica = Some (P.snapshot_replica replica)

  let absorb replica s =
    match
      let peer_clock, log = open_replica (Codec.Reader.of_string s) in
      G.merge_frame replica ~decode_update:C.decode log
      && begin
        G.advance_clock replica peer_clock;
        true
      end
    with
    | merged -> merged
    | exception Codec.Decode_error _ -> false
end
