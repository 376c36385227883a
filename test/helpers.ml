(* Shared test plumbing. *)

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* Minor-heap words [f] allocates. *)
let minor_words f =
  let before = Stdlib.Gc.minor_words () in
  f ();
  Stdlib.Gc.minor_words () -. before

(* Words allocated, minor and major, while [f] runs. Minor words are
   read exactly, with [Gc.minor_words]: on OCaml 5.1 [Gc.quick_stat] and
   [Gc.counters] account the minor heap only at a minor collection.
   Major words are those allocated there directly, [Gc.counters]' major
   words less the promoted ones. *)
let allocated_words f =
  let direct_major () =
    let _, promoted, major = Stdlib.Gc.counters () in
    major -. promoted
  in
  let major = direct_major () in
  let minor = Stdlib.Gc.minor_words () in
  let result = f () in
  let minor = Stdlib.Gc.minor_words () -. minor in
  (result, minor +. direct_major () -. major)

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
