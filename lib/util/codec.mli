(** Binary encoding primitives: unsigned LEB128 varints plus tag bytes,
    the concrete encoding whose sizes {!Wire} accounts for. The update
    codecs ({!Update_codec}) are built on these, and the tests assert
    that every encoded update occupies exactly the bytes its ADT's
    [update_wire_size] claims — so the message-complexity experiment
    (C1) measures a real wire format, not an estimate.

    Writing or reading a varint allocates nothing (a writer allocates
    only when its buffer grows), so encoding and decoding a log frame
    costs no minor words per field. *)

exception Decode_error of string

(** Append-only binary writer. *)
module Writer : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] pre-allocates the underlying buffer (default 16 bytes) —
      callers that can compute an exact frame size with {!Wire} avoid
      every growth copy. *)

  val u8 : t -> int -> unit
  (** One byte; must be in [0, 255]. *)

  val varint : t -> int -> unit
  (** LEB128; must be non-negative. Any non-negative int fits in at
      most 9 bytes ([max_int] takes 9). *)

  val byte_string : t -> string -> unit
  (** Varint length prefix followed by the bytes. *)

  val contents : t -> string

  val length : t -> int

  val byte_sum : t -> int
  (** The sum of every byte written so far, read in place (no
      {!contents} copy): what an additive frame checksum is computed
      over. *)
end

(** Sequential binary reader over a string, or over a length-prefixed
    range of one ({!nested}). Every malformation raises
    {!Decode_error}, whatever the bytes: a length or count read off the
    wire is never negative, so no decoder built on these can fail with
    [Invalid_argument]. *)
module Reader : sig
  type t

  val of_string : string -> t

  val u8 : t -> int

  val varint : t -> int
  (** A non-negative int. A varint whose value does not fit (a ninth
      byte above [0x3F], or a tenth byte) raises {!Decode_error}
      rather than wrapping to a negative int. *)

  val byte_string : t -> string
  (** The bytes of a {!Writer.byte_string}, copied out. *)

  val nested : t -> t
  (** The bytes of a {!Writer.byte_string} as a reader of their own,
      sharing the underlying string (no copy); [t] moves past them.
      The nested reader's {!at_end} is the end of that range. *)

  val fork : t -> t
  (** A second reader over the bytes [t] has left, starting where [t]
      stands and ending where it ends; the two advance independently.
      Lets a frame be checked in full before it is read again. *)

  val pos : t -> int
  (** The offset in the underlying string of the next byte to read. *)

  val byte_sum : t -> from:int -> int
  (** The sum of the bytes from offset [from] up to {!pos}, read in
      place: what an additive frame checksum is computed over.
      @raise Invalid_argument unless [0 <= from <= pos t]. *)

  val at_end : t -> bool
  (** All input consumed — decoders check this for canonical frames.
      @raise Decode_error on truncated input in the functions above. *)
end
