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

(* A "UCL" log frame written from the frame spec, its entries in the
   order given, each origin varint taken from its triple:
   [Oplog.encode_list] writes the pid there, so only this can write a
   frame whose origin is not its entry's pid. *)
let ucl_frame ~encode_update entries =
  let w = Codec.Writer.create () in
  String.iter (fun c -> Codec.Writer.u8 w (Char.code c)) "UCL\x01";
  Codec.Writer.varint w (List.length entries);
  List.iter
    (fun ((ts : Timestamp.t), origin, u) ->
      Codec.Writer.varint w ts.clock;
      Codec.Writer.varint w ts.pid;
      Codec.Writer.varint w origin;
      encode_update w u)
    entries;
  Codec.Writer.varint w (frame_checksum (Codec.Writer.contents w));
  Codec.Writer.contents w

let varint_bytes n =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w n;
  Codec.Writer.contents w

(* The test binary's stderr as it was at start-up, before Alcotest
   redirects each test's output into a file. *)
let console = Unix.dup Unix.stderr

(* Run [f], but end the whole test binary with exit status 2 if it has
   not returned within [seconds], saying so on the console: a test of a
   run that could hang fails loudly instead of stalling the suite.
   The watchdog is a domain polling a flag every 10 ms. *)
let with_watchdog ~seconds what f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while not (Atomic.get finished) do
          if Unix.gettimeofday () > deadline then begin
            let msg =
              Printf.sprintf "\nwatchdog: %s did not return within %.0f s\n" what seconds
            in
            ignore (Unix.write_substring console msg 0 (String.length msg) : int);
            Unix._exit 2
          end;
          Unix.sleepf 0.01
        done)
  in
  Fun.protect f ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
