(* Shared test plumbing. *)

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* Minor-heap words [f] allocates. *)
let minor_words f =
  let before = Stdlib.Gc.minor_words () in
  f ();
  Stdlib.Gc.minor_words () -. before

(* Words allocated, minor and major, while [f] runs. The minor heap is
   emptied first: on this runtime a minor collection inside the window
   skews the counters by about a minor heap's worth. *)
let allocated_words f =
  let total () =
    let s = Stdlib.Gc.quick_stat () in
    s.Stdlib.Gc.minor_words +. s.Stdlib.Gc.major_words -. s.Stdlib.Gc.promoted_words
  in
  Stdlib.Gc.minor ();
  let before = total () in
  let result = f () in
  (result, total () -. before)

(* FF x8 7F: a varint whose ninth 7-bit group sets an int's sign bit.
   It once decoded to -1. *)
let overflow_varint = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

(* The log frame's checksum, reimplemented from the frame spec to pin
   the format rather than the implementation: additive byte sum modulo
   2^30. *)
let frame_checksum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc + Char.code c) land 0x3FFFFFFF) s;
  !acc

let varint_bytes n =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w n;
  Codec.Writer.contents w
