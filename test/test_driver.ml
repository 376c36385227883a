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
    match Driver.find header with
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

let refusal spec = match Driver.find spec with Ok _ -> "" | Error msg -> msg

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
        let refusal fifo protocol =
          refusal { Run_spec.default with protocol; fifo }
        in
        Alcotest.(check string) "unknown" "unknown protocol \"nope\""
          (refusal true "nope");
        Alcotest.(check string) "fifo" "gc needs FIFO channels (--fifo)"
          (refusal false "gc");
        Alcotest.(check string) "fifo given" "" (refusal true "gc"));
    Alcotest.test_case "a field the protocol never reads is refused" `Quick (fun () ->
        let d = Run_spec.default in
        let algorithm1 = "universal, counter, register and universal-<object>" in
        Alcotest.(check (list string))
          "log core readers"
          (List.map (fun (name, _) -> "universal-" ^ name) Registry.all_specs
          @ [ "universal"; "counter"; "register" ])
          (names (fun e -> e.reads = Log_core));
        Alcotest.(check (list string))
          "shard readers" [ "sharded" ] (names (fun e -> e.reads = Shards));
        Alcotest.(check string) "log core on orset"
          ("log_core: not read by orset, only by " ^ algorithm1)
          (refusal { d with protocol = "orset"; log_core = `List });
        Alcotest.(check string) "checkpoint interval on gc"
          ("checkpoint_interval: not read by gc, only by " ^ algorithm1)
          (refusal { d with protocol = "gc"; fifo = true; checkpoint_interval = Some 8 });
        Alcotest.(check string) "shards on universal"
          "shards: not read by universal, only by sharded"
          (refusal { d with shards = 4 });
        Alcotest.(check string) "rebalance on counter"
          "rebalance: not read by counter, only by sharded"
          (refusal { d with protocol = "counter"; rebalance = Some 5.0 });
        Alcotest.(check string) "read where read" ""
          (refusal { d with protocol = "universal-bank"; checkpoint_interval = Some 4 }
          ^ refusal { d with protocol = "sharded"; shards = 4; keys = 16 });
        Alcotest.(check bool) "modelcheck refuses it too" true
          (Result.is_error
             (Driver.modelcheck
                {
                  Driver.por = false;
                  dedup = false;
                  domains = 1;
                  checkpoint = 4;
                  max_crashes = 0;
                  limit = 1;
                }
                { d with protocol = "orset"; log_core = `List })));
  ]
  @ List.map
      (fun (e : Driver.entry) ->
        Alcotest.test_case (e.name ^ " journals and replays") `Quick (replays e))
      Driver.protocols
