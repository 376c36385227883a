(* The run description and its codec, the journal header: every header
   the command line writes re-encodes byte for byte, decoding inverts
   encoding on generated specs of both engines, and the one validator
   rejects each invalid description with an error naming its field. *)

open Helpers
module Json = Obs.Json

let header_line fields =
  Json.to_string
    (Json.Obj (("journal", Json.Str "ucsim") :: ("version", Json.Num 1.0) :: fields))

(* The fields of a header line as `ucsim` writes it. *)
let fields_of_line line =
  match Json.of_string line with
  | Json.Obj fields ->
    List.filter (fun (k, _) -> k <> "journal" && k <> "version") fields
  | _ -> Alcotest.fail "header line is not an object"

let decode fields =
  match Run_spec.of_header fields with
  | Ok t -> t
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let sequential fields =
  match decode fields with
  | Run_spec.Sequential s -> s
  | Run_spec.Parallel _ -> Alcotest.fail "decoded a parallel spec"

(* Headers written by `run universal`, `run sharded --shards 2`, a
   batched and probed `run pipelined`, a `soak` with a rule, `bench` on
   the counter, on the Zipf set and on the sharded set, and `shrink`. *)
let written_headers =
  [
    {|{"journal":"ucsim","version":1,"protocol":"universal","seed":42,"n":4,"ops":100,"mean_delay":10,"fifo":false,"crashes":[],"log_core":"array","checkpoint_interval":null,"batch_window":null,"probe_interval":null,"monitors":[],"partitions":[],"churn":[],"scripts":null}|};
    {|{"journal":"ucsim","version":1,"protocol":"sharded","seed":42,"n":4,"ops":100,"mean_delay":10,"fifo":false,"crashes":[],"log_core":"array","checkpoint_interval":null,"batch_window":null,"probe_interval":null,"monitors":[],"partitions":[],"churn":[],"scripts":null,"shards":2,"keys":64,"rebalance":null}|};
    {|{"journal":"ucsim","version":1,"protocol":"pipelined","seed":1,"n":3,"ops":8,"mean_delay":10,"fifo":false,"crashes":[],"log_core":"array","checkpoint_interval":null,"batch_window":2,"probe_interval":5,"monitors":["pc"],"partitions":[],"churn":[],"scripts":null}|};
    {|{"journal":"ucsim","version":1,"protocol":"universal","seed":42,"n":3,"ops":30,"mean_delay":10,"fifo":false,"crashes":[],"log_core":"array","checkpoint_interval":null,"batch_window":null,"probe_interval":null,"monitors":[],"partitions":[],"churn":[],"scripts":null,"sample_interval":20,"duration":200,"rules":["growth:log_len:4"]}|};
    {|{"journal":"ucsim","version":1,"engine":"parallel","spec":"counter","seed":42,"domains":2,"ops":200,"query_ratio":0,"zipf":0,"batch":1,"flush_window":0,"mailbox":1024}|};
    {|{"journal":"ucsim","version":1,"engine":"parallel","spec":"set","seed":42,"domains":2,"ops":200,"query_ratio":0,"zipf":1,"batch":1,"flush_window":0,"mailbox":1024}|};
    {|{"journal":"ucsim","version":1,"engine":"parallel","spec":"set","seed":42,"domains":2,"ops":200,"query_ratio":0,"zipf":1.1,"batch":1,"flush_window":0,"mailbox":1024,"shards":2,"keys":1024,"fanout":3}|};
    {|{"journal":"ucsim","version":1,"protocol":"pipelined","seed":3,"n":2,"ops":1,"mean_delay":10,"fifo":false,"crashes":[],"log_core":"array","checkpoint_interval":null,"batch_window":null,"probe_interval":null,"monitors":["pc"],"partitions":[],"churn":[{"t":30,"pid":1,"action":"join"}],"scripts":[["I(1)"],[]]}|};
  ]

(* ------------------------------ generators ----------------------------- *)

(* Floats the header prints exactly: quarters in [0, 200]. *)
let quarter = QCheck2.Gen.(map (fun k -> float_of_int k /. 4.0) (int_bound 800))

let rule = Obs.Alert.rule_of_string

let gen_sequential =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let pid = int_bound (n - 1) in
  let* seed = int_bound 1_000_000 in
  let* ops = int_bound 50 in
  let* mean_delay = quarter in
  let* fifo = bool in
  let* batch_window = opt quarter in
  let* crashes = list_size (int_bound 2) (pair quarter pid) in
  let* partitions =
    list_size (int_bound 2)
      (let* from_time = quarter in
       let* width = quarter in
       let* group = list_size (int_range 1 n) pid in
       return { Network.from_time; to_time = from_time +. width; group })
  in
  let* churn =
    list_size (int_bound 3)
      (let* time = quarter in
       let* pid = pid in
       let* action = oneofl Network.[ Join; Leave; Rejoin ] in
       return { Network.time; pid; action })
  in
  let* log_core = oneofl [ `List; `Array ] in
  let* checkpoint_interval = opt (int_bound 64) in
  let* shards, keys, rebalance =
    oneof
      [
        return (1, 64, None);
        triple (int_range 2 8) (int_range 1 256)
          (opt (map (fun q -> q +. 1.0) quarter));
      ]
  in
  let* scripts =
    let op =
      oneof
        [
          map (fun v -> Protocol.Invoke_update (Set_spec.Insert v)) (int_bound 20);
          map (fun v -> Protocol.Invoke_update (Set_spec.Delete v)) (int_bound 20);
          return (Protocol.Invoke_query Set_spec.Read);
        ]
    in
    opt
      (list_repeat n (list_size (int_bound 4) (map Run_spec.print_op op)))
  in
  let* monitors =
    list_size (int_bound 3) (oneofl Obs.Monitor.[ Uc; Ec; Pc ])
  in
  let* probe_interval = opt quarter in
  let* soak =
    opt
      (let* sample_interval = map (fun q -> q +. 1.0) quarter in
       let* duration = opt quarter in
       let* rules =
         list_size (int_bound 2)
           (oneof
              [
                map
                  (fun k -> rule (Printf.sprintf "growth:log_len:%d" k))
                  (int_range 2 9);
                map
                  (fun v -> rule (Printf.sprintf "above:queue_depth:%d" v))
                  (int_bound 1000);
              ])
       in
       return { Run_spec.sample_interval; duration; rules })
  in
  let* protocol = oneofl [ "universal"; "pipelined"; "sharded"; "counter" ] in
  return
    (Run_spec.Sequential
       {
         Run_spec.protocol;
         seed;
         n;
         ops;
         mean_delay;
         fifo;
         batch_window;
         crashes;
         partitions;
         churn;
         log_core;
         checkpoint_interval;
         shards;
         keys;
         rebalance;
         scripts;
         monitors;
         probe_interval;
         soak;
       })

let gen_parallel =
  let open QCheck2.Gen in
  let* spec = oneofl Registry.names in
  let* seed = int_bound 1_000_000 in
  let* domains = int_range 1 8 in
  let* ops = int_bound 10_000 in
  let* query_ratio = map (fun k -> float_of_int k /. 8.0) (int_bound 8) in
  (* only set draws a skewed workload *)
  let* zipf = if spec = "set" then quarter else return 0.0 in
  let* batch = int_range 1 64 in
  let* flush_window = int_bound 32 in
  let* mailbox = int_range 1 4096 in
  let* space =
    if spec <> "set" then return None
    else
      opt
        (map3
           (fun shards keys fanout -> { Run_spec.shards; keys; fanout })
           (int_range 1 16) (int_range 1 2048) (int_range 1 8))
  in
  (* the contended set workload draws no queries *)
  let query_ratio =
    if spec = "set" && zipf > 0.0 && space = None then 0.0 else query_ratio
  in
  return
    (Run_spec.Parallel
       {
         Run_spec.spec;
         seed;
         domains;
         ops;
         query_ratio;
         zipf;
         batch;
         flush_window;
         mailbox;
         space;
       })

(* ------------------------------ validation ----------------------------- *)

let field_of_error = function
  | Ok _ -> None
  | Error msg -> (
    match String.index_opt msg ':' with
    | Some i when not (String.contains msg '\n') -> Some (String.sub msg 0 i)
    | _ -> Some msg)

let s = Run_spec.default

(* `bench`'s defaults at 2 domains of 200 ops, and its sharded set. *)
let bench =
  {
    Run_spec.spec = "counter";
    seed = 42;
    domains = 2;
    ops = 200;
    query_ratio = 0.0;
    zipf = 0.0;
    batch = 1;
    flush_window = 0;
    mailbox = 1024;
    space = None;
  }

let sharded =
  { bench with spec = "set"; zipf = 1.1; space = Some { shards = 2; keys = 1024; fanout = 3 } }

(* Each invalid description, from flags and from headers, with the field
   its error must name. *)
let invalid_specs =
  [
    ("ops -1", Run_spec.Sequential { s with ops = -1 }, "ops");
    ( "churn pid 9 at n 3",
      Run_spec.Sequential
        {
          s with
          n = 3;
          churn = [ { Network.time = 5.0; pid = 9; action = Network.Leave } ];
        },
      "churn" );
    ("shards 0", Run_spec.Sequential { s with shards = 0 }, "shards");
    ("keys 0", Run_spec.Sequential { s with keys = 0 }, "keys");
    ( "batch window -1",
      Run_spec.Sequential { s with batch_window = Some (-1.0) },
      "batch_window" );
    ( "sample interval 0",
      Run_spec.Sequential
        {
          s with
          soak = Some { sample_interval = 0.0; duration = None; rules = [] };
        },
      "sample_interval" );
    ("n 0", Run_spec.Sequential { s with n = 0 }, "n");
    ("delay -5", Run_spec.Sequential { s with mean_delay = -5.0 }, "mean_delay");
    ( "checkpoint interval -3",
      Run_spec.Sequential { s with checkpoint_interval = Some (-3) },
      "checkpoint_interval" );
    ( "partition of pid 9 at n 3",
      Run_spec.Sequential
        {
          s with
          n = 3;
          partitions =
            [ { Network.from_time = 5.0; to_time = 9.0; group = [ 9 ] } ];
        },
      "partitions" );
    ( "crash pid 7 at n 3",
      Run_spec.Sequential { s with n = 3; crashes = [ (50.0, 7) ] },
      "crashes" );
    ( "one script for n 3",
      Run_spec.Sequential { s with n = 3; scripts = Some [ [ "I(1)" ] ] },
      "scripts" );
    ( "unparsable script op",
      Run_spec.Sequential { s with n = 3; scripts = Some [ [ "Q(6)" ]; []; [] ] },
      "scripts" );
    ("parallel domains 0", Run_spec.Parallel { bench with domains = 0 }, "domains");
    ( "sharded shards 0",
      Run_spec.Parallel { sharded with space = Some { shards = 0; keys = 64; fanout = 3 } },
      "shards" );
    ("sharded counter", Run_spec.Parallel { sharded with spec = "counter" }, "spec");
    ( "queries on the contended set",
      Run_spec.Parallel { bench with spec = "set"; zipf = 1.0; query_ratio = 0.5 },
      "query_ratio" );
    ("a skew on the counter", Run_spec.Parallel { bench with zipf = 1.5 }, "zipf");
    ("parallel zipf -1", Run_spec.Parallel { bench with spec = "set"; zipf = -1.0 }, "zipf");
    ("sharded zipf -1", Run_spec.Parallel { sharded with zipf = -1.0 }, "zipf");
  ]

let universal_header = List.hd written_headers

(* Header edits of `run universal`'s line, with the field the decode
   error must name. *)
let invalid_headers =
  [
    ({|"n":4|}, {|"n":-2|}, "n");
    ({|"ops":100|}, {|"ops":-1|}, "ops");
    ({|"crashes":[]|}, {|"crashes":[{"t":50,"pid":7}]|}, "crashes");
    ({|"churn":[]|}, {|"churn":[{"t":5,"pid":7,"action":"leave"}]|}, "churn");
    ({|"scripts":null|}, {|"scripts":[["I(1)"]]|}, "scripts");
    ({|"scripts":null|}, {|"scripts":[["Q(6)"],[],[],[]]|}, "scripts");
    ({|"n":4|}, {|"n":2.5|}, "n");
    ({|"seed":42|}, {|"seed":1e300|}, "seed");
    ({|"fifo":false|}, {|"fifo":0|}, "fifo");
    ({|"log_core":"array"|}, {|"log_core":"tree"|}, "log_core");
    ({|"monitors":[]|}, {|"monitors":["lin"]|}, "monitors");
    ( {|"partitions":[]|},
      {|"partitions":[{"from":1,"group":[0]}]|},
      "partitions" );
  ]

let replace_once ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not in header" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(* A generated spec is valid, and decoding its header gives it back. *)
let round_trips t =
  Run_spec.validate t = Ok t && Run_spec.of_header (Run_spec.to_header t) = Ok t

let required_sequential =
  [ "protocol"; "seed"; "n"; "ops"; "mean_delay"; "fifo"; "log_core" ]

let required_parallel =
  [
    "spec";
    "seed";
    "domains";
    "ops";
    "query_ratio";
    "zipf";
    "batch";
    "flush_window";
    "mailbox";
  ]

let tests =
  [
    Alcotest.test_case "every header the CLI writes re-encodes byte for byte" `Quick
      (fun () ->
        List.iter
          (fun line ->
            Alcotest.(check string)
              "re-encoded" line
              (header_line (Run_spec.to_header (decode (fields_of_line line)))))
          written_headers);
    Alcotest.test_case "the default spec and the bench defaults are valid" `Quick
      (fun () ->
        List.iter
          (fun line ->
            match Run_spec.validate (decode (fields_of_line line)) with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "rejected: %s" msg)
          written_headers;
        match Run_spec.validate (Run_spec.Sequential Run_spec.default) with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "default rejected: %s" msg);
    Alcotest.test_case "each invalid description is rejected naming its field" `Quick
      (fun () ->
        List.iter
          (fun (name, spec, field) ->
            Alcotest.(check (option string))
              name (Some field)
              (field_of_error (Run_spec.validate spec)))
          invalid_specs);
    Alcotest.test_case "each invalid header is rejected naming its field" `Quick
      (fun () ->
        List.iter
          (fun (sub, by, field) ->
            let line = replace_once ~sub ~by universal_header in
            Alcotest.(check (option string))
              by (Some field)
              (field_of_error (Run_spec.of_header (fields_of_line line))))
          invalid_headers);
    Alcotest.test_case "a missing or mistyped required field is named" `Quick
      (fun () ->
        let check_fields line required =
          let fields = fields_of_line line in
          List.iter
            (fun k ->
              let without = List.remove_assoc k fields in
              Alcotest.(check (option string))
                ("missing " ^ k) (Some k)
                (field_of_error (Run_spec.of_header without));
              let mistyped =
                List.map
                  (fun (k', v) ->
                    if k' <> k then (k', v)
                    else
                      match v with
                      | Json.Str _ -> (k', Json.Num 1.0)
                      | _ -> (k', Json.Str "x"))
                  fields
              in
              Alcotest.(check (option string))
                ("mistyped " ^ k) (Some k)
                (field_of_error (Run_spec.of_header mistyped)))
            required
        in
        check_fields universal_header required_sequential;
        check_fields (List.nth written_headers 4) required_parallel);
    Alcotest.test_case "a legacy crash flag decodes to pid n-1 at t=50" `Quick
      (fun () ->
        let fields =
          List.remove_assoc "crashes" (fields_of_line universal_header)
          @ [ ("crash", Json.Bool true) ]
        in
        Alcotest.(check (list (pair (float 0.0) int)))
          "crashes" [ (50.0, 3) ] (sequential fields).crashes;
        let fields =
          List.remove_assoc "crashes" (fields_of_line universal_header)
          @ [ ("crash", Json.Bool false) ]
        in
        Alcotest.(check int) "no crash" 0 (List.length (sequential fields).crashes));
    Alcotest.test_case "keys and rebalance survive on one shard" `Quick (fun () ->
        let spec = { s with protocol = "sharded"; keys = 16; rebalance = Some 10.0 } in
        match Run_spec.of_header (Run_spec.to_header (Sequential spec)) with
        | Ok (Sequential back) ->
          Alcotest.(check int) "keys" 16 back.keys;
          Alcotest.(check (option (float 0.0))) "rebalance" (Some 10.0) back.rebalance
        | _ -> Alcotest.fail "did not decode");
    Alcotest.test_case "the shard group is written only for the sharded space" `Quick
      (fun () ->
        let header t = Run_spec.to_header (Parallel t) in
        Alcotest.(check bool) "sharded round trip" true
          (Run_spec.of_header (header sharded) = Ok (Parallel sharded));
        List.iter
          (fun k ->
            Alcotest.(check bool) ("no " ^ k ^ " unsharded") false
              (List.mem_assoc k (header bench)))
          [ "shards"; "keys"; "fanout" ];
        List.iter
          (fun k ->
            Alcotest.(check (option string))
              ("without " ^ k) (Some k)
              (field_of_error (Run_spec.of_header (List.remove_assoc k (header sharded)))))
          [ "keys"; "fanout" ]);
    qtest ~count:300 "sequential specs: of_header (to_header s) = Ok s"
      gen_sequential round_trips;
    qtest ~count:300 "parallel specs: of_header (to_header s) = Ok s"
      gen_parallel round_trips;
  ]
