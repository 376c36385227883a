exception Decode_error of string

module Writer = struct
  type t = Buffer.t

  let create ?(size = 16) () = Buffer.create size

  let u8 t b =
    if b < 0 || b > 255 then invalid_arg "Codec.Writer.u8: out of range";
    Buffer.add_char t (Char.chr b)

  (* A top-level loop taking the buffer as an argument: a local [go]
     closing over [t] would be allocated on every call (this compiler
     does not lift it), four times per log entry. *)
  let rec varint_groups t n =
    if n < 128 then Buffer.add_char t (Char.chr n)
    else begin
      Buffer.add_char t (Char.chr (128 lor (n land 127)));
      varint_groups t (n lsr 7)
    end

  let varint t n =
    if n < 0 then invalid_arg "Codec.Writer.varint: negative";
    varint_groups t n

  let byte_string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let contents = Buffer.contents

  let length = Buffer.length

  let byte_sum t =
    let acc = ref 0 in
    for i = 0 to Buffer.length t - 1 do
      acc := !acc + Char.code (Buffer.nth t i)
    done;
    !acc
end

module Reader = struct
  (* [stop] bounds the bytes this reader may consume: the end of the
     string, or of the length-prefixed range a {!nested} reader
     covers. *)
  type t = { data : string; mutable pos : int; stop : int }

  let of_string data = { data; pos = 0; stop = String.length data }

  let u8 t =
    if t.pos >= t.stop then raise (Decode_error "u8: truncated");
    let b = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    b

  (* Groups of 7 bits, least significant first. A non-negative int has
     62 value bits, so the ninth group (shift 56) may carry only 6: a
     larger one would set the sign bit, and a continuation past it
     cannot fit at all. No writer emits either. *)
  let rec varint_groups t shift acc =
    let b = u8 t in
    if shift = 56 && b > 63 then raise (Decode_error "varint: overflows an int");
    let acc = acc lor ((b land 127) lsl shift) in
    if b < 128 then acc else varint_groups t (shift + 7) acc

  let varint t = varint_groups t 0 0

  (* [len] is a varint, hence non-negative; compare it against what is
     left rather than adding it to [pos], which could overflow. *)
  let length_prefix t =
    let len = varint t in
    if len > t.stop - t.pos then raise (Decode_error "byte_string: truncated");
    len

  let byte_string t =
    let len = length_prefix t in
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let nested t =
    let len = length_prefix t in
    let r = { data = t.data; pos = t.pos; stop = t.pos + len } in
    t.pos <- t.pos + len;
    r

  let fork t = { t with pos = t.pos }

  let pos t = t.pos

  let byte_sum t ~from =
    if from < 0 || from > t.pos then invalid_arg "Codec.Reader.byte_sum: out of range";
    let acc = ref 0 in
    for i = from to t.pos - 1 do
      acc := !acc + Char.code (String.unsafe_get t.data i)
    done;
    !acc

  let at_end t = t.pos = t.stop
end
