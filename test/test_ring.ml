(* Consistent-hash ring laws (satellite of the sharded object space).

   Three families, all QCheck-driven:

   - routing is total and always lands on a live shard, whatever the
     add/remove/split history;
   - ownership is balanced: with the default vnode count no shard owns
     more than a small factor of the ideal share;
   - membership changes cause minimal disruption — the consistent-
     hashing contract. [add] moves keys only onto the fresh shard and
     not too many of them; [remove] moves only the removed shard's
     keys; [split ~hot] sheds keys only from [hot].

   The ring is deterministic (no randomness, no clock), so every law
   doubles as a cross-platform stability check. Two plain cases pin
   [route] itself: digests of its answers on three rings, and an
   allocation guard (a route allocates nothing). *)

open QCheck2

let keys = 4096

let routing_table ring =
  Array.init keys (Ring.route ring)

(* ---------------------------------------------------------------- *)

let route_lands_on_live_shard =
  Helpers.qtest "ring: route is total and lands on a live shard"
    Gen.(pair (int_range 1 16) (list_size (int_range 0 8) (int_range 0 2)))
    (fun (shards, opcodes) ->
      (* Drive an arbitrary membership history: 0 = add, 1 = split the
         currently heaviest shard, 2 = remove the lightest (kept live
         by never removing the last). *)
      let ring = ref (Ring.create ~shards ()) in
      List.iter
        (fun opcode ->
          match opcode with
          | 0 -> ring := fst (Ring.add !ring)
          | 1 ->
            let share = Ring.owned_share !ring ~keys in
            let hot, _ =
              List.fold_left
                (fun (h, c) (s, n) -> if n > c then (s, n) else (h, c))
                (List.hd share) (List.tl share)
            in
            ring := fst (Ring.split !ring ~hot)
          | _ ->
            if Ring.shards !ring > 1 then
              let share = Ring.owned_share !ring ~keys in
              let cold, _ =
                List.fold_left
                  (fun (h, c) (s, n) -> if n < c then (s, n) else (h, c))
                  (List.hd share) (List.tl share)
              in
              ring := Ring.remove !ring cold)
        opcodes;
      let live = Ring.shard_ids !ring in
      Array.for_all (fun s -> List.mem s live) (routing_table !ring)
      && List.length live = Ring.shards !ring
      && List.for_all (fun s -> s <= Ring.max_id !ring) live)

let balance_within_factor =
  (* With 64 vnodes the classic consistent-hashing bound puts the max
     share within a small constant of ideal; 3x is a loose envelope
     that still catches a broken hash or placement. *)
  Helpers.qtest ~count:40 "ring: ownership within 3x of ideal share"
    (Gen.oneofl [ 1; 2; 4; 8; 16 ])
    (fun shards ->
      let ring = Ring.create ~shards () in
      let share = Ring.owned_share ring ~keys:20_000 in
      let ideal = 20_000. /. float_of_int shards in
      List.length share = shards
      && List.for_all
           (fun (_, c) -> float_of_int c <= (3. *. ideal) +. 1.)
           share)

let add_moves_only_to_fresh =
  Helpers.qtest ~count:60 "ring: add moves keys only onto the fresh shard"
    (Gen.int_range 1 12)
    (fun shards ->
      let ring = Ring.create ~shards () in
      let before = routing_table ring in
      let ring', fresh = Ring.add ring in
      let after = routing_table ring' in
      let moved = ref 0 in
      let ok = ref true in
      Array.iteri
        (fun k s ->
          if s <> before.(k) then begin
            incr moved;
            if s <> fresh then ok := false
          end)
        after;
      (* The fresh shard takes about 1/(N+1) of the keyspace; 2x that
         plus slack bounds the disruption. *)
      let bound =
        (2. *. float_of_int keys /. float_of_int (shards + 1)) +. 64.
      in
      !ok && float_of_int !moved <= bound)

let remove_moves_only_removed_keys =
  Helpers.qtest ~count:60 "ring: remove moves only the removed shard's keys"
    Gen.(pair (int_range 2 12) (int_range 0 1000))
    (fun (shards, pick) ->
      let ring = Ring.create ~shards () in
      let victim = List.nth (Ring.shard_ids ring) (pick mod shards) in
      let before = routing_table ring in
      let after = routing_table (Ring.remove ring victim) in
      let ok = ref true in
      Array.iteri
        (fun k s ->
          if before.(k) = victim then begin
            if s = victim then ok := false
          end
          else if s <> before.(k) then ok := false)
        after;
      !ok)

let split_sheds_only_from_hot =
  Helpers.qtest ~count:60 "ring: split sheds keys only from the hot shard"
    Gen.(pair (int_range 1 12) (int_range 0 1000))
    (fun (shards, pick) ->
      let ring = Ring.create ~shards () in
      let hot = List.nth (Ring.shard_ids ring) (pick mod shards) in
      let before = routing_table ring in
      let ring', fresh = Ring.split ring ~hot in
      let after = routing_table ring' in
      let ok = ref true in
      let shed = ref 0 in
      Array.iteri
        (fun k s ->
          if s <> before.(k) then begin
            incr shed;
            (* Every moved key left [hot] for the fresh shard. *)
            if not (before.(k) = hot && s = fresh) then ok := false
          end)
        after;
      (* Midpoint placement halves hot's arcs, so something moves
         whenever hot owned anything at this key density. *)
      let owned_before =
        Array.fold_left (fun n s -> if s = hot then n + 1 else n) 0 before
      in
      !ok && (owned_before < 2 || !shed > 0))

let ids_never_reused =
  Helpers.qtest ~count:60 "ring: shard ids are never reused"
    Gen.(pair (int_range 2 8) (int_range 0 1000))
    (fun (shards, pick) ->
      let ring = Ring.create ~shards () in
      let victim = List.nth (Ring.shard_ids ring) (pick mod shards) in
      let ring = Ring.remove ring victim in
      let ring, fresh_a = Ring.add ring in
      let ring, fresh_b = Ring.split ring ~hot:fresh_a in
      fresh_a <> victim && fresh_b <> victim
      && fresh_a > Ring.max_id (Ring.create ~shards ()) - 1
      && fresh_b > fresh_a
      && not (List.mem victim (Ring.shard_ids ring)))

(* Routing is a pure function of the key and the ring's construction
   sequence: these digests of [route] over keys 0..4095 were recorded
   before [route] stopped allocating, so a change to the hash that
   moves a key fails here. *)
let route_digest ring =
  Sha256.hex (String.concat "," (List.init keys (fun k -> string_of_int (Ring.route ring k))))

let routes_pinned =
  Alcotest.test_case "ring: routes over keys 0..4095 are pinned" `Quick (fun () ->
      let eight = Ring.create ~shards:8 () in
      List.iter
        (fun (name, ring, pinned) ->
          Alcotest.(check string) name pinned (route_digest ring))
        [
          ( "1 shard",
            Ring.create ~shards:1 (),
            "363ac4b75fc9bb8039c0098c18e301c595bb7a51b9b8abc34598ef62dd1b2107" );
          ( "8 shards",
            eight,
            "ec98b7e06b892e21c4c1a0c4c6b87fd3c7bfb92ac274957bce442e11dab89500" );
          ( "8 shards, shard 3 split",
            fst (Ring.split eight ~hot:3),
            "d4e04b0c2a1b851a41d9c2834c41e119a42758d1fa059036f5af652109aa9a86" );
        ])

(* [route] keeps its 64-bit hash arithmetic unboxed: 100k routes
   allocate nothing. With the mixer called out of line, its [Int64]
   argument and result were boxed, 6 words a route. *)
let route_allocates_nothing =
  Alcotest.test_case "ring: 100k routes allocate 0 minor words" `Quick (fun () ->
      let ring = Ring.create ~shards:8 () in
      let sink = ref 0 in
      let words =
        Helpers.minor_words (fun () ->
            for k = 0 to 99_999 do
              sink := !sink + Ring.route ring k
            done)
      in
      ignore (Sys.opaque_identity !sink);
      if words > 0. then Alcotest.failf "100k routes allocated %.0f minor words" words)

let tests =
  [
    routes_pinned;
    route_allocates_nothing;
    route_lands_on_live_shard;
    balance_within_factor;
    add_moves_only_to_fresh;
    remove_moves_only_removed_keys;
    split_sheds_only_from_hot;
    ids_never_reused;
  ]
