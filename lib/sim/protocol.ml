type ('u, 'q) invocation = Invoke_update of 'u | Invoke_query of 'q

type 'msg ctx = {
  pid : int;
  n : int;
  now : unit -> float;
  send : dst:int -> 'msg -> unit;
  broadcast : 'msg -> unit;
  broadcast_batch : 'msg list -> unit;
  set_timer : delay:float -> (unit -> unit) -> unit;
  count_replay : int -> unit;
  obs : Obs.replica option;
}

module type PROTOCOL = sig
  include Uqadt.S

  type t

  type message

  val protocol_name : string

  val create : message ctx -> t

  val update : t -> update -> on_done:(unit -> unit) -> unit

  val query : t -> query -> on_result:(output -> unit) -> unit

  val receive : t -> src:int -> message -> unit

  val receive_batch : t -> src:int -> message list -> unit
  (** Deliver a coalesced envelope from one peer, observably equivalent
      to [List.iter (receive t ~src)] in list order. Protocols with a
      batch-aware core (one clock merge, one log merge pass) override
      the default per-message iteration; for the rest the equivalence
      is literal. *)

  val message_wire_size : message -> int

  val describe_message : message -> string

  val log_length : t -> int

  val metadata_bytes : t -> int

  val certificate : t -> (int -> update -> 'a -> 'a) -> 'a -> 'a option

  val snapshot : t -> string option
  (** Serialized state for churn catch-up ([None] when the protocol has
      no persistence codec — such replicas skip snapshot transfer and
      rely on the normal message flow to converge). *)

  val absorb : t -> string -> bool
  (** Merge a peer's {!snapshot} into this replica, keeping any local
      state (a rejoiner's crash-time log survives the merge). Returns
      [false] when unsupported or the payload does not decode. *)
end

module Certificate (P : PROTOCOL) = struct
  let to_list r = P.certificate r (fun origin u acc -> (origin, u) :: acc) []

  (* The first certificate, copied in fold order (latest entry first):
     [origins.(i)] and [updates.(i)] are its [i]-th entry from the top.
     The update array is made from the first update the fold visits, so
     it needs no placeholder. *)
  type copy = {
    mutable origins : int array;
    mutable updates : P.update array;
    mutable len : int;
  }

  let copy r =
    let hint = P.log_length r in
    let c = { origins = [||]; updates = [||]; len = 0 } in
    let put origin u i =
      if i = Array.length c.updates then begin
        let cap = max hint ((2 * i) + 1) in
        let origins = Array.make cap 0 and updates = Array.make cap u in
        Array.blit c.origins 0 origins 0 i;
        Array.blit c.updates 0 updates 0 i;
        c.origins <- origins;
        c.updates <- updates
      end;
      c.origins.(i) <- origin;
      c.updates.(i) <- u;
      i + 1
    in
    match P.certificate r put 0 with
    | None -> None
    | Some len ->
      c.len <- len;
      Some c

  (* [r]'s fold against the copy, the index as the accumulator: [-1]
     from the first entry that differs, or that the copy lacks, on. *)
  let matches c r =
    let check origin u i =
      if i < 0 || i >= c.len || c.origins.(i) <> origin
         || not (P.equal_update c.updates.(i) u)
      then -1
      else i + 1
    in
    match P.certificate r check 0 with None -> true | Some i -> i = c.len

  let rec agree = function
    | [] -> true
    | r :: rest -> (
      match copy r with None -> agree rest | Some c -> List.for_all (matches c) rest)

  (* One copy per class met so far; a replica joins the first class
     whose copy it matches, or opens a class of its own. A protocol
     keeps a certificate on every replica or on none, so a replica
     without one meets no copy and is classed by its log length. *)
  let classes rs =
    let copies = ref [] and lengths = ref [] in
    List.iter
      (fun r ->
        if not (List.exists (fun c -> matches c r) !copies) then
          match copy r with
          | Some c -> copies := c :: !copies
          | None ->
            let len = P.log_length r in
            if not (List.mem len !lengths) then lengths := len :: !lengths)
      rs;
    List.length !copies + List.length !lengths
end

module No_catchup = struct
  let snapshot _t = None

  let absorb _t _s = false
end

module Receive_each (R : sig
  type t

  type message

  val receive : t -> src:int -> message -> unit
end) =
struct
  let receive_batch t ~src msgs = List.iter (R.receive t ~src) msgs
end
