(* Binary codecs: primitive round trips, per-ADT update round trips, and
   the frame-length ↔ update_wire_size agreement that makes the C1 byte
   accounting real. *)

open Helpers

let primitive_tests =
  [
    (* Every length from 1 to 9 bytes: a uniform draw up to [max_int]
       shifted right by a uniform amount. *)
    qtest "varint round-trips"
      QCheck2.Gen.(map2 (fun n k -> n lsr k) (int_range 0 max_int) (int_range 0 62))
      (fun n ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w n;
        Codec.Reader.varint (Codec.Reader.of_string (Codec.Writer.contents w)) = n);
    qtest "varint length matches Wire.varint_size" QCheck2.Gen.(int_range 0 10_000_000)
      (fun n ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w n;
        Codec.Writer.length w = Wire.varint_size n);
    qtest "byte_string round-trips" QCheck2.Gen.(string_size (int_range 0 40)) (fun s ->
        let w = Codec.Writer.create () in
        Codec.Writer.byte_string w s;
        Codec.Reader.byte_string (Codec.Reader.of_string (Codec.Writer.contents w)) = s);
    Alcotest.test_case "u8 bounds are enforced" `Quick (fun () ->
        let w = Codec.Writer.create () in
        Alcotest.check_raises "256" (Invalid_argument "Codec.Writer.u8: out of range")
          (fun () -> Codec.Writer.u8 w 256));
    Alcotest.test_case "truncated input raises Decode_error" `Quick (fun () ->
        let r = Codec.Reader.of_string "\x80" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Codec.Reader.varint r);
             false
           with Codec.Decode_error _ -> true));
    Alcotest.test_case "a varint past max_int is a Decode_error" `Quick (fun () ->
        let decode s = Codec.Reader.varint (Codec.Reader.of_string s) in
        Alcotest.(check int) "max_int" max_int (decode "\xff\xff\xff\xff\xff\xff\xff\xff\x3f");
        List.iter
          (fun (name, s) ->
            match decode s with
            | n -> Alcotest.failf "%s decoded to %d" name n
            | exception Codec.Decode_error _ -> ())
          [ ("FF x8 7F", overflow_varint); ("FF x8 40", "\xff\xff\xff\xff\xff\xff\xff\xff\x40");
            ("ten bytes", "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01") ]);
    Alcotest.test_case "varints allocate nothing" `Quick (fun () ->
        (* 2^k - 1 for k = 0 .. 62: every encoded length, max_int last. *)
        let values = Array.init 63 (fun k -> (1 lsl k) - 1) in
        let w = Codec.Writer.create ~size:(100 * 63 * 9) () in
        let encode_words =
          minor_words (fun () ->
              for _ = 1 to 100 do
                for i = 0 to Array.length values - 1 do
                  Codec.Writer.varint w values.(i)
                done
              done)
        in
        let r = Codec.Reader.of_string (Codec.Writer.contents w) in
        let mismatches = ref 0 in
        let decode_words =
          minor_words (fun () ->
              for _ = 1 to 100 do
                for i = 0 to Array.length values - 1 do
                  if Codec.Reader.varint r <> values.(i) then incr mismatches
                done
              done)
        in
        Alcotest.(check int) "read back" 0 !mismatches;
        Alcotest.(check (float 0.)) "encode words" 0. encode_words;
        Alcotest.(check (float 0.)) "decode words" 0. decode_words);
    Alcotest.test_case "sequenced fields read back in order" `Quick (fun () ->
        let w = Codec.Writer.create () in
        Codec.Writer.u8 w 7;
        Codec.Writer.varint w 300;
        Codec.Writer.byte_string w "ab";
        let r = Codec.Reader.of_string (Codec.Writer.contents w) in
        Alcotest.(check int) "u8" 7 (Codec.Reader.u8 r);
        Alcotest.(check int) "varint" 300 (Codec.Reader.varint r);
        Alcotest.(check string) "string" "ab" (Codec.Reader.byte_string r);
        Alcotest.(check bool) "consumed" true (Codec.Reader.at_end r));
  ]

(* Per-ADT: round trip, exact frame length, and a damaged frame — one
   byte flipped, cut short anywhere, or one byte appended — either
   decoding or raising [Decode_error], driven by each type's own
   generator. *)
let adt_case (type u) name
    (module A : Uqadt.S with type update = u)
    (module C : Update_codec.S with type update = u) =
  [
    qtest (name ^ " updates round-trip") seed_gen (fun seed ->
        let rng = Prng.create seed in
        let u = A.random_update rng in
        A.equal_update u (C.of_string (C.to_string u)));
    qtest (name ^ " frame length = update_wire_size") seed_gen (fun seed ->
        let rng = Prng.create seed in
        let u = A.random_update rng in
        String.length (C.to_string u) = A.update_wire_size u);
    qtest (name ^ " a damaged frame decodes or raises Decode_error") seed_gen (fun seed ->
        let rng = Prng.create seed in
        let frame = C.to_string (A.random_update rng) in
        let n = String.length frame in
        let damaged =
          match Prng.int rng 3 with
          | 0 when n > 0 ->
            let b = Bytes.of_string frame in
            let i = Prng.int rng n in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int rng 255)));
            Bytes.to_string b
          | 1 when n > 0 -> String.sub frame 0 (Prng.int rng n)
          | _ -> frame ^ String.make 1 (Char.chr (Prng.int rng 256))
        in
        match C.of_string damaged with _ -> true | exception Codec.Decode_error _ -> true);
  ]

let adt_tests =
  List.concat
    [
      adt_case "set" (module Set_spec) (module Update_codec.For_set);
      adt_case "gset" (module Gset_spec) (module Update_codec.For_gset);
      adt_case "counter" (module Counter_spec) (module Update_codec.For_counter);
      adt_case "register" (module Register_spec) (module Update_codec.For_register);
      adt_case "memory" (module Memory_spec) (module Update_codec.For_memory);
      adt_case "maxreg" (module Maxreg_spec) (module Update_codec.For_maxreg);
      adt_case "flag" (module Flag_spec) (module Update_codec.For_flag);
      adt_case "log" (module Log_spec) (module Update_codec.For_log);
      adt_case "queue" (module Queue_spec) (module Update_codec.For_queue);
      adt_case "stack" (module Stack_spec) (module Update_codec.For_stack);
      adt_case "map" (module Map_spec) (module Update_codec.For_map);
      adt_case "text" (module Text_spec) (module Update_codec.For_text);
      adt_case "bank" (module Bank_spec) (module Update_codec.For_bank);
      adt_case "pqueue" (module Pqueue_spec) (module Update_codec.For_pqueue);
    ]

let negative_tests =
  [
    Alcotest.test_case "a set decode allocates only the update" `Quick (fun () ->
        (* Insert and Delete are two words each. Reading the tag byte
           through a (constructor, signs) pair cost three more. *)
        let updates =
          Array.init 1000 (fun i ->
              let v = (i * 37) - 18_000 in
              if i mod 3 = 0 then Set_spec.Delete v else Set_spec.Insert v)
        in
        let w = Codec.Writer.create () in
        Array.iter (Update_codec.For_set.encode w) updates;
        let r = Codec.Reader.of_string (Codec.Writer.contents w) in
        let decoded = Array.make (Array.length updates) (Set_spec.Insert 0) in
        let words =
          minor_words (fun () ->
              for i = 0 to Array.length decoded - 1 do
                decoded.(i) <- Update_codec.For_set.decode r
              done)
        in
        Alcotest.(check bool) "read back" true (decoded = updates);
        Alcotest.(check (float 0.)) "minor words" (2. *. 1000.) words);
    Alcotest.test_case "negative values survive the sign-bit tags" `Quick (fun () ->
        let u = Set_spec.Insert (-5) in
        Alcotest.(check bool) "round trip" true
          (Set_spec.equal_update u
             (Update_codec.For_set.of_string (Update_codec.For_set.to_string u))));
    Alcotest.test_case "unknown tags are rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Update_codec.For_set.of_string "\xff\x01");
             false
           with Codec.Decode_error _ -> true));
    Alcotest.test_case "trailing bytes are rejected" `Quick (fun () ->
        let frame = Update_codec.For_counter.to_string (Counter_spec.Add 3) ^ "\x00" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Update_codec.For_counter.of_string frame);
             false
           with Codec.Decode_error _ -> true));
  ]

(* Two frames carrying [overflow_varint] where a count or a length goes: the
   "UCL" entry count, and the length of the log inside a "UCS" replica
   frame. As -1 they made [List.init] and [String.sub] raise
   [Invalid_argument] out of [Persist.Catchup.absorb]; both must now be
   refused as malformed. *)
let hostile_frames =
  let ucl_body = "UCL\x01" ^ overflow_varint in
  let ucl = ucl_body ^ varint_bytes (frame_checksum ucl_body) in
  ( ucl,
    [
      ("UCL count FF x8 7F", "UCS\x01\x05" ^ varint_bytes (String.length ucl) ^ ucl);
      ("UCS log length FF x8 7F", "UCS\x01\x05" ^ overflow_varint ^ ucl);
    ] )

let refused_by (type r) name
    (module G : Generic.S
      with type t = r
       and type update = Set_spec.update) (r : r) =
  let module K = Persist.Catchup (G) (Update_codec.For_set) in
  let module O = Persist.Over (G) (Update_codec.For_set) in
  let _, frames = hostile_frames in
  List.iter
    (fun (frame_name, frame) ->
      (match O.decode_replica frame with
      | _ -> Alcotest.failf "%s: decode_replica accepted %s" name frame_name
      | exception Codec.Decode_error _ -> ());
      let log0 = G.local_log r and clock0 = G.clock_value r in
      if K.absorb r frame then Alcotest.failf "%s: absorb accepted %s" name frame_name;
      if G.local_log r <> log0 || G.clock_value r <> clock0 then
        Alcotest.failf "%s: refusing %s changed the replica" name frame_name)
    frames

let frame_tests =
  let ctx : _ Protocol.ctx =
    {
      Protocol.pid = 0;
      n = 2;
      now = (fun () -> 0.0);
      send = (fun ~dst:_ _ -> ());
      broadcast = ignore;
      broadcast_batch = ignore;
      set_timer = (fun ~delay:_ _ -> ());
      count_replay = ignore;
      obs = None;
    }
  in
  [
    Alcotest.test_case "an overflowing UCL count is a Decode_error" `Quick (fun () ->
        let ucl, _ = hostile_frames in
        match
          Oplog.decode_list ~decode_update:Update_codec.For_set.decode
            (Codec.Reader.of_string ucl)
        with
        | _ -> Alcotest.fail "decoded"
        | exception Codec.Decode_error _ -> ());
    Alcotest.test_case "overflowing UCS frames are refused, replica untouched" `Quick
      (fun () ->
        let module A = Generic.Make (Set_spec) in
        let module L = Generic_ref.Make (Set_spec) in
        let a = A.create ctx and l = L.create ctx in
        A.update a (Set_spec.Insert 1) ~on_done:ignore;
        L.update l (Set_spec.Insert 1) ~on_done:ignore;
        refused_by "array core" (module A) a;
        refused_by "list core" (module L) l);
  ]

let tests = primitive_tests @ adt_tests @ negative_tests @ frame_tests
