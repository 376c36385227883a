(* The protocol table, run through the driver. Every protocol `ucsim
   list` prints records a journal at -n 3 --ops 6 on FIFO channels (gc
   needs them), and the journal's header alone replays it: no event
   diverges and the fingerprints are equal. CI's "Replay determinism"
   step runs the same loop through the binary. *)

let journal_of (e : Driver.entry) spec =
  let journal = Obs.Journal.create () in
  ignore (e.run (Run_spec.observe ~journal spec) spec);
  journal

let replays (e : Driver.entry) () =
  let spec =
    { Run_spec.default with protocol = e.name; n = 3; ops = 6; fifo = true }
  in
  let recorded = journal_of e spec in
  let header =
    match Run_spec.of_header (Obs.Journal.header recorded) with
    | Ok (Sequential s) -> s
    | Ok (Parallel _) -> Alcotest.fail "a sequential run wrote a parallel header"
    | Error msg -> Alcotest.fail msg
  in
  let entry =
    match Driver.find ~fifo:header.fifo header.protocol with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let replayed = journal_of entry header in
  Alcotest.(check (option (triple int string string)))
    "no event diverges" None
    (Obs.Journal.diff recorded replayed);
  Alcotest.(check bool) "the journal is sealed" true
    (Obs.Journal.fingerprint recorded <> None);
  Alcotest.(check (option string))
    "fingerprint"
    (Obs.Journal.fingerprint recorded)
    (Obs.Journal.fingerprint replayed)

let names select =
  List.filter_map
    (fun (e : Driver.entry) -> if select e then Some e.name else None)
    Driver.protocols

let tests =
  [
    Alcotest.test_case "one table: 31 protocols, four of them model-checked"
      `Quick (fun () ->
        Alcotest.(check int) "protocols" 31 (List.length Driver.protocols);
        Alcotest.(check (list string))
          "modelcheck" [ "universal"; "pipelined"; "orset"; "counter" ]
          (names (fun e -> e.explore <> None));
        Alcotest.(check (list string))
          "set protocols"
          [ "universal"; "memo"; "gc"; "undo"; "pipelined"; "orset"; "2pset";
            "lwwset"; "pnset" ]
          (names (fun e -> e.set <> None)));
    Alcotest.test_case "unknown and FIFO-only names are refused in the CLI's words"
      `Quick (fun () ->
        let refusal fifo name =
          match Driver.find ~fifo name with Ok _ -> "" | Error msg -> msg
        in
        Alcotest.(check string) "unknown" "unknown protocol \"nope\""
          (refusal true "nope");
        Alcotest.(check string) "fifo" "gc needs FIFO channels (--fifo)"
          (refusal false "gc");
        Alcotest.(check string) "fifo given" "" (refusal true "gc"));
  ]
  @ List.map
      (fun (e : Driver.entry) ->
        Alcotest.test_case (e.name ^ " journals and replays") `Quick (replays e))
      Driver.protocols
