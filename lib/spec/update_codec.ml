module type S = sig
  type update

  val encode : Codec.Writer.t -> update -> unit

  val decode : Codec.Reader.t -> update

  val to_string : update -> string

  val of_string : string -> update
end

(* Derive whole-frame helpers from the streaming pair. *)
module Complete (X : sig
  type update

  val encode : Codec.Writer.t -> update -> unit

  val decode : Codec.Reader.t -> update
end) : S with type update = X.update = struct
  include X

  let to_string u =
    let w = Codec.Writer.create () in
    encode w u;
    Codec.Writer.contents w

  let of_string s =
    let r = Codec.Reader.of_string s in
    let u = decode r in
    if not (Codec.Reader.at_end r) then raise (Codec.Decode_error "trailing bytes");
    u
end

(* The tag byte carries the constructor in its high bits and one sign
   bit per integer argument in its low bits, so magnitudes go on the
   wire as plain varints and the frame length matches the
   [update_wire_size] formulas (1 + Σ varint(abs …)). Decoders read
   both straight off the byte ([ctor], [signed]): a decoded
   (constructor, signs) pair would be allocated on every update. *)
let tag ~ctor ~signs = (ctor lsl 3) lor signs

let ctor b = b lsr 3

let sign_bit i n = if n < 0 then 1 lsl i else 0

(* The varint magnitude of argument [i], signed by bit [i] of tag [b]. *)
let signed r b i =
  let magnitude = Codec.Reader.varint r in
  if (b lsr i) land 1 = 1 then -magnitude else magnitude

let bad name = raise (Codec.Decode_error ("unknown tag for " ^ name))

module For_set = Complete (struct
  type update = Set_spec.update

  let encode w u =
    let ctor, v = match u with Set_spec.Insert v -> (0, v) | Set_spec.Delete v -> (1, v) in
    Codec.Writer.u8 w (tag ~ctor ~signs:(sign_bit 0 v));
    Codec.Writer.varint w (abs v)

  let decode r =
    let b = Codec.Reader.u8 r in
    let v = signed r b 0 in
    match ctor b with
    | 0 -> Set_spec.Insert v
    | 1 -> Set_spec.Delete v
    | _ -> bad "set"
end)

module For_gset = Complete (struct
  type update = Gset_spec.update

  let encode w (Gset_spec.Insert v) =
    Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 v));
    Codec.Writer.varint w (abs v)

  let decode r =
    let b = Codec.Reader.u8 r in
    if ctor b <> 0 then bad "gset";
    Gset_spec.Insert (signed r b 0)
end)

module Signed_scalar (X : sig
  type update

  val name : string

  val proj : update -> int

  val inj : int -> update
end) =
Complete (struct
  type update = X.update

  let encode w u =
    let v = X.proj u in
    Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 v));
    Codec.Writer.varint w (abs v)

  let decode r =
    let b = Codec.Reader.u8 r in
    if ctor b <> 0 then bad X.name;
    X.inj (signed r b 0)
end)

module For_counter = Signed_scalar (struct
  type update = Counter_spec.update

  let name = "counter"

  let proj (Counter_spec.Add n) = n

  let inj n = Counter_spec.Add n
end)

module For_register = Signed_scalar (struct
  type update = Register_spec.update

  let name = "register"

  let proj (Register_spec.Write v) = v

  let inj v = Register_spec.Write v
end)

module For_maxreg = Signed_scalar (struct
  type update = Maxreg_spec.update

  let name = "maxreg"

  let proj (Maxreg_spec.Propose v) = v

  let inj v = Maxreg_spec.Propose v
end)

module For_log = Signed_scalar (struct
  type update = Log_spec.update

  let name = "log"

  let proj (Log_spec.Append v) = v

  let inj v = Log_spec.Append v
end)

module For_memory = Complete (struct
  type update = Memory_spec.update

  let encode w (Memory_spec.Write (x, v)) =
    Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 x lor sign_bit 1 v));
    Codec.Writer.varint w (abs x);
    Codec.Writer.varint w (abs v)

  let decode r =
    let b = Codec.Reader.u8 r in
    if ctor b <> 0 then bad "memory";
    let x = signed r b 0 in
    let v = signed r b 1 in
    Memory_spec.Write (x, v)
end)

module For_flag = Complete (struct
  type update = Flag_spec.update

  let encode w u =
    Codec.Writer.u8 w
      (tag ~ctor:(match u with Flag_spec.Enable -> 0 | Flag_spec.Disable -> 1) ~signs:0)

  let decode r =
    match ctor (Codec.Reader.u8 r) with
    | 0 -> Flag_spec.Enable
    | 1 -> Flag_spec.Disable
    | _ -> bad "flag"
end)

module For_queue = Complete (struct
  type update = Queue_spec.update

  let encode w = function
    | Queue_spec.Enqueue v ->
      Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 v));
      Codec.Writer.varint w (abs v)
    | Queue_spec.Dequeue -> Codec.Writer.u8 w (tag ~ctor:1 ~signs:0)

  let decode r =
    let b = Codec.Reader.u8 r in
    match ctor b with
    | 0 -> Queue_spec.Enqueue (signed r b 0)
    | 1 -> Queue_spec.Dequeue
    | _ -> bad "queue"
end)

module For_stack = Complete (struct
  type update = Stack_spec.update

  let encode w = function
    | Stack_spec.Push v ->
      Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 v));
      Codec.Writer.varint w (abs v)
    | Stack_spec.Pop -> Codec.Writer.u8 w (tag ~ctor:1 ~signs:0)

  let decode r =
    let b = Codec.Reader.u8 r in
    match ctor b with
    | 0 -> Stack_spec.Push (signed r b 0)
    | 1 -> Stack_spec.Pop
    | _ -> bad "stack"
end)

module For_map = Complete (struct
  type update = Map_spec.update

  let encode w = function
    | Map_spec.Put (k, v) ->
      Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 k lor sign_bit 1 v));
      Codec.Writer.varint w (abs k);
      Codec.Writer.varint w (abs v)
    | Map_spec.Del k ->
      Codec.Writer.u8 w (tag ~ctor:1 ~signs:(sign_bit 0 k));
      Codec.Writer.varint w (abs k)

  let decode r =
    let b = Codec.Reader.u8 r in
    match ctor b with
    | 0 ->
      let k = signed r b 0 in
      let v = signed r b 1 in
      Map_spec.Put (k, v)
    | 1 -> Map_spec.Del (signed r b 0)
    | _ -> bad "map"
end)

module For_text = Complete (struct
  type update = Text_spec.update

  let encode w = function
    | Text_spec.Insert (p, c) ->
      Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 p));
      Codec.Writer.u8 w (Char.code c);
      Codec.Writer.varint w (abs p)
    | Text_spec.Delete p ->
      Codec.Writer.u8 w (tag ~ctor:1 ~signs:(sign_bit 0 p));
      Codec.Writer.varint w (abs p)

  let decode r =
    let b = Codec.Reader.u8 r in
    match ctor b with
    | 0 ->
      let c = Char.chr (Codec.Reader.u8 r) in
      let p = signed r b 0 in
      Text_spec.Insert (p, c)
    | 1 -> Text_spec.Delete (signed r b 0)
    | _ -> bad "text"
end)

module For_bank = Complete (struct
  type update = Bank_spec.update

  let encode w = function
    | Bank_spec.Deposit (a, n) ->
      Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 a lor sign_bit 1 n));
      Codec.Writer.varint w (abs a);
      Codec.Writer.varint w (abs n)
    | Bank_spec.Withdraw (a, n) ->
      Codec.Writer.u8 w (tag ~ctor:1 ~signs:(sign_bit 0 a lor sign_bit 1 n));
      Codec.Writer.varint w (abs a);
      Codec.Writer.varint w (abs n)
    | Bank_spec.Transfer (x, y, n) ->
      Codec.Writer.u8 w
        (tag ~ctor:2 ~signs:(sign_bit 0 x lor sign_bit 1 y lor sign_bit 2 n));
      Codec.Writer.varint w (abs x);
      Codec.Writer.varint w (abs y);
      Codec.Writer.varint w (abs n)

  let decode r =
    let b = Codec.Reader.u8 r in
    match ctor b with
    | 0 ->
      let a = signed r b 0 in
      let n = signed r b 1 in
      Bank_spec.Deposit (a, n)
    | 1 ->
      let a = signed r b 0 in
      let n = signed r b 1 in
      Bank_spec.Withdraw (a, n)
    | 2 ->
      let x = signed r b 0 in
      let y = signed r b 1 in
      let n = signed r b 2 in
      Bank_spec.Transfer (x, y, n)
    | _ -> bad "bank"
end)

module For_pqueue = Complete (struct
  type update = Pqueue_spec.update

  let encode w = function
    | Pqueue_spec.Insert v ->
      Codec.Writer.u8 w (tag ~ctor:0 ~signs:(sign_bit 0 v));
      Codec.Writer.varint w (abs v)
    | Pqueue_spec.Extract_min -> Codec.Writer.u8 w (tag ~ctor:1 ~signs:0)

  let decode r =
    let b = Codec.Reader.u8 r in
    match ctor b with
    | 0 -> Pqueue_spec.Insert (signed r b 0)
    | 1 -> Pqueue_spec.Extract_min
    | _ -> bad "pqueue"
end)
