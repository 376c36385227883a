(* One description of a run and its one codec, the journal header. The
   encoder fixes the key order every journal written so far uses; the
   decoder ends in the same [validate] the command line applies, and
   both report the first offending field as an [Error]. *)

module Json = Obs.Json

type soak = {
  sample_interval : float;
  duration : float option;
  rules : Obs.Alert.rule list;
}

type space = { shards : int; keys : int; fanout : int }

type parallel = {
  spec : string;
  seed : int;
  domains : int;
  ops : int;
  query_ratio : float;
  zipf : float;
  batch : int;
  flush_window : int;
  mailbox : int;
  space : space option;
}

type sequential = {
  protocol : string;
  seed : int;
  n : int;
  ops : int;
  mean_delay : float;
  fifo : bool;
  batch_window : float option;
  crashes : (float * int) list;
  partitions : Network.partition list;
  churn : Network.churn_event list;
  log_core : [ `List | `Array ];
  checkpoint_interval : int option;
  shards : int;
  keys : int;
  rebalance : float option;
  scripts : string list list option;
  monitors : Obs.Monitor.criterion list;
  probe_interval : float option;
  soak : soak option;
}

type t = Sequential of sequential | Parallel of parallel

let default =
  {
    protocol = "universal";
    seed = 42;
    n = 4;
    ops = 100;
    mean_delay = 10.0;
    fifo = false;
    batch_window = None;
    crashes = [];
    partitions = [];
    churn = [];
    log_core = `Array;
    checkpoint_interval = None;
    shards = 1;
    keys = 64;
    rebalance = None;
    scripts = None;
    monitors = [];
    probe_interval = None;
    soak = None;
  }

(* ------------------------- explicit set scripts ------------------------ *)

let print_op = function
  | Protocol.Invoke_update (Set_spec.Insert v) -> Printf.sprintf "I(%d)" v
  | Protocol.Invoke_update (Set_spec.Delete v) -> Printf.sprintf "D(%d)" v
  | Protocol.Invoke_query Set_spec.Read -> "R"

let parse_op s =
  match s with
  | "R" -> Some (Protocol.Invoke_query Set_spec.Read)
  | _ -> (
    let scan fmt k = try Some (Scanf.sscanf s fmt k) with _ -> None in
    let update u = Protocol.Invoke_update u in
    match scan "I(%d)%!" (fun v -> update (Set_spec.Insert v)) with
    | Some _ as op -> op
    | None -> scan "D(%d)%!" (fun v -> update (Set_spec.Delete v)))

let set_scripts s =
  Option.map
    (fun printed ->
      let parse tok = Option.get (parse_op tok) in
      Array.of_list (List.map (List.map parse) printed))
    s.scripts

(* ------------------------------ validation ----------------------------- *)

(* Raised by the checks and readers below; [validate] and [of_header]
   return it as an [Error]. *)
exception Invalid of string

let invalid field fmt =
  Printf.ksprintf (fun msg -> raise (Invalid (field ^ ": " ^ msg))) fmt

let require ok field fmt =
  Printf.ksprintf
    (fun msg -> if not ok then raise (Invalid (field ^ ": " ^ msg)))
    fmt

let at_least lo field v =
  require (v >= lo) field "must be at least %d, got %d" lo v

let non_negative field x =
  require (Float.is_finite x && x >= 0.0) field
    "must be a finite non-negative number, got %g" x

let positive field x =
  require (Float.is_finite x && x > 0.0) field
    "must be a finite positive number, got %g" x

let fraction field x =
  require (x >= 0.0 && x <= 1.0) field "must be between 0 and 1, got %g" x

let check_sequential s =
  let pid field p =
    require (p >= 0 && p < s.n) field "pid %d outside 0..%d" p (s.n - 1)
  in
  at_least 1 "n" s.n;
  at_least 0 "ops" s.ops;
  non_negative "mean_delay" s.mean_delay;
  Option.iter (non_negative "batch_window") s.batch_window;
  List.iter
    (fun (t, p) ->
      non_negative "crashes" t;
      pid "crashes" p)
    s.crashes;
  List.iter
    (fun (pa : Network.partition) ->
      non_negative "partitions" pa.from_time;
      require
        (Float.is_finite pa.to_time && pa.from_time <= pa.to_time)
        "partitions" "window %g..%g ends before it starts" pa.from_time
        pa.to_time;
      require (pa.group <> []) "partitions" "empty group";
      List.iter (pid "partitions") pa.group)
    s.partitions;
  List.iter
    (fun (ce : Network.churn_event) ->
      non_negative "churn" ce.time;
      pid "churn" ce.pid)
    s.churn;
  Option.iter (at_least 0 "checkpoint_interval") s.checkpoint_interval;
  at_least 1 "shards" s.shards;
  at_least 1 "keys" s.keys;
  Option.iter (positive "rebalance") s.rebalance;
  Option.iter
    (fun scripts ->
      require
        (List.length scripts = s.n)
        "scripts" "%d scripts for n=%d" (List.length scripts) s.n;
      List.iter
        (List.iter (fun tok ->
             require (parse_op tok <> None) "scripts" "unparsable op %S" tok))
        scripts)
    s.scripts;
  Option.iter (non_negative "probe_interval") s.probe_interval;
  Option.iter
    (fun k ->
      positive "sample_interval" k.sample_interval;
      Option.iter (non_negative "duration") k.duration)
    s.soak

let check_parallel (p : parallel) =
  require (Registry.find p.spec <> None) "spec" "unknown object %S" p.spec;
  at_least 1 "domains" p.domains;
  at_least 0 "ops" p.ops;
  fraction "query_ratio" p.query_ratio;
  non_negative "zipf" p.zipf;
  at_least 1 "batch" p.batch;
  at_least 0 "flush_window" p.flush_window;
  at_least 1 "mailbox" p.mailbox;
  match p.space with
  | Some sp ->
    at_least 1 "shards" sp.shards;
    at_least 1 "keys" sp.keys;
    at_least 1 "fanout" sp.fanout;
    require (p.spec = "set") "spec" "the sharded space runs only set, got %S"
      p.spec
  | None ->
    require
      (p.spec = "set" || p.zipf = 0.0)
      "zipf" "must be 0 for %S (only set draws a skewed workload), got %g" p.spec
      p.zipf;
    require
      (p.spec <> "set" || p.zipf = 0.0 || p.query_ratio = 0.0)
      "query_ratio" "must be 0 on the contended set workload (zipf > 0), got %g"
      p.query_ratio

let check = function
  | Sequential s -> check_sequential s
  | Parallel p -> check_parallel p

let validate t =
  match check t with () -> Ok t | exception Invalid msg -> Error msg

type flag = At_least of int * int | Non_negative of float | Fraction of float

let check_flags flags =
  match
    List.iter
      (fun (field, flag) ->
        match flag with
        | At_least (lo, v) -> at_least lo field v
        | Non_negative x -> non_negative field x
        | Fraction x -> fraction field x)
      flags
  with
  | () -> Ok ()
  | exception Invalid msg -> Error msg

(* -------------------------------- codec -------------------------------- *)

let num i = Json.Num (float_of_int i)
let real f = Json.Num f
let str s = Json.Str s
let arr f xs = Json.Arr (List.map f xs)
let opt f = function None -> Json.Null | Some v -> f v
let log_core_name = function `List -> "list" | `Array -> "array"

let to_header = function
  | Parallel p ->
    [
      ("engine", str "parallel");
      ("spec", str p.spec);
      ("seed", num p.seed);
      ("domains", num p.domains);
      ("ops", num p.ops);
      ("query_ratio", real p.query_ratio);
      ("zipf", real p.zipf);
      ("batch", num p.batch);
      ("flush_window", num p.flush_window);
      ("mailbox", num p.mailbox);
    ]
    @ (match p.space with
      | None -> []
      | Some sp ->
        [
          ("shards", num sp.shards);
          ("keys", num sp.keys);
          ("fanout", num sp.fanout);
        ])
  | Sequential s ->
    [
      ("protocol", str s.protocol);
      ("seed", num s.seed);
      ("n", num s.n);
      ("ops", num s.ops);
      ("mean_delay", real s.mean_delay);
      ("fifo", Json.Bool s.fifo);
      ( "crashes",
        arr
          (fun (t, pid) -> Json.Obj [ ("t", real t); ("pid", num pid) ])
          s.crashes );
      ("log_core", str (log_core_name s.log_core));
      ("checkpoint_interval", opt num s.checkpoint_interval);
      ("batch_window", opt real s.batch_window);
      ("probe_interval", opt real s.probe_interval);
      ( "monitors",
        arr (fun c -> str (Obs.Monitor.criterion_name c)) s.monitors );
      ( "partitions",
        arr
          (fun (pa : Network.partition) ->
            Json.Obj
              [
                ("from", real pa.from_time);
                ("to", real pa.to_time);
                ("group", arr num pa.group);
              ])
          s.partitions );
      ( "churn",
        arr
          (fun (ce : Network.churn_event) ->
            Json.Obj
              [
                ("t", real ce.time);
                ("pid", num ce.pid);
                ("action", str (Network.churn_action_name ce.action));
              ])
          s.churn );
      ("scripts", opt (arr (arr str)) s.scripts);
    ]
    (* The shard and soak fields appear only on runs that set them, so
       every other header stays the length it always was. A one-shard
       run with its own key domain or rebalance interval needs them too:
       its workload reads them. *)
    @ (if
         s.shards <> default.shards || s.keys <> default.keys
         || s.rebalance <> None
       then
         [
           ("shards", num s.shards);
           ("keys", num s.keys);
           ("rebalance", opt real s.rebalance);
         ]
       else [])
    @
    match s.soak with
    | None -> []
    | Some k ->
      [
        ("sample_interval", real k.sample_interval);
        ("duration", opt real k.duration);
        ("rules", arr (fun r -> str (Obs.Alert.rule_to_string r)) k.rules);
      ]

(* Readers of one JSON value, named by the field it came from. *)

let number k = function Json.Num f -> f | _ -> invalid k "expected a number"

let int k v =
  let f = number k v in
  if not (Float.is_integer f) then invalid k "not an integer: %g" f;
  if Float.abs f >= 0x1p62 then invalid k "integer out of range: %g" f;
  int_of_float f

let string k = function Json.Str s -> s | _ -> invalid k "expected a string"
let boolean k = function Json.Bool b -> b | _ -> invalid k "expected a boolean"

let array read k = function
  | Json.Arr xs -> List.map (read k) xs
  | _ -> invalid k "expected an array"

let named of_name what k v =
  let s = string k v in
  match of_name s with Some x -> x | None -> invalid k "unknown %s %S" what s

(* Member [name] of an object element of array [k]. *)
let member read k name = function
  | Json.Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> read k v
    | None -> invalid k "element without %S" name)
  | _ -> invalid k "expected an array of objects"

let crash k v = (member number k "t" v, member int k "pid" v)

let partition k v =
  {
    Network.from_time = member number k "from" v;
    to_time = member number k "to" v;
    group = member (array int) k "group" v;
  }

let churn_event k v =
  {
    Network.time = member number k "t" v;
    pid = member int k "pid" v;
    action = member (named Network.churn_action_of_name "action") k "action" v;
  }

let rule k v =
  let s = string k v in
  try Obs.Alert.rule_of_string s
  with Invalid_argument _ -> invalid k "bad rule %S" s

let decode header =
  let get k = List.assoc_opt k header in
  let req read k =
    match get k with Some v -> read k v | None -> invalid k "missing"
  in
  let opt read k =
    match get k with None | Some Json.Null -> None | Some v -> Some (read k v)
  in
  let list read k = Option.value ~default:[] (opt (array read) k) in
  match get "engine" with
  | Some (Json.Str "parallel") ->
    Parallel
      {
        spec = req string "spec";
        seed = req int "seed";
        domains = req int "domains";
        ops = req int "ops";
        query_ratio = req number "query_ratio";
        zipf = req number "zipf";
        batch = req int "batch";
        flush_window = req int "flush_window";
        mailbox = req int "mailbox";
        space =
          Option.map
            (fun shards ->
              { shards; keys = req int "keys"; fanout = req int "fanout" })
            (opt int "shards");
      }
  | _ ->
    let n = req int "n" in
    let crashes =
      if get "crashes" <> None then list crash "crashes"
        (* journals from before the explicit crash schedule carry the old
           one-crash flag *)
      else if opt boolean "crash" = Some true then [ (50.0, n - 1) ]
      else []
    in
    let log_core = function
      | "list" -> Some `List
      | "array" -> Some `Array
      | _ -> None
    in
    Sequential
      {
        protocol = req string "protocol";
        seed = req int "seed";
        n;
        ops = req int "ops";
        mean_delay = req number "mean_delay";
        fifo = req boolean "fifo";
        batch_window = opt number "batch_window";
        crashes;
        partitions = list partition "partitions";
        churn = list churn_event "churn";
        log_core = req (named log_core "core") "log_core";
        checkpoint_interval = opt int "checkpoint_interval";
        shards = Option.value ~default:default.shards (opt int "shards");
        keys = Option.value ~default:default.keys (opt int "keys");
        rebalance = opt number "rebalance";
        scripts = opt (array (array string)) "scripts";
        monitors =
          list (named Obs.Monitor.criterion_of_name "criterion") "monitors";
        probe_interval = opt number "probe_interval";
        soak =
          Option.map
            (fun sample_interval ->
              {
                sample_interval;
                duration = opt number "duration";
                rules = list rule "rules";
              })
            (opt number "sample_interval");
      }

let of_header header =
  match decode header with
  | t -> validate t
  | exception Invalid msg -> Error msg

(* ------------------------------ observers ------------------------------ *)

type observers = {
  obs : Obs.t option;
  sampler : Obs.Series.sampler option;
  alerts : Obs.Alert.t option;
}

let observe ?(telemetry = false) ?journal ?(on_alert = ignore) s =
  Option.iter
    (fun j -> Obs.Journal.set_header j (to_header (Sequential s)))
    journal;
  if
    not
      (telemetry || journal <> None || s.probe_interval <> None
     || s.monitors <> [] || s.soak <> None)
  then { obs = None; sampler = None; alerts = None }
  else
    let o = Obs.create ?journal () in
    match s.soak with
    | None -> { obs = Some o; sampler = None; alerts = None }
    | Some k ->
      let sampler =
        Obs.Series.sampler ~interval:k.sample_interval
          ~registry:o.Obs.registry ()
      in
      let alerts = Obs.Alert.create k.rules in
      Obs.Alert.attach alerts sampler ~on_fire:(fun fr ->
          Option.iter
            (fun j ->
              Obs.Journal.record j
                (Obs.Journal.Alert
                   {
                     time = fr.Obs.Alert.time;
                     rule = Obs.Alert.rule_to_string fr.Obs.Alert.rule;
                     series = fr.Obs.Alert.series;
                     value = fr.Obs.Alert.value;
                   }))
            journal;
          on_alert fr);
      { obs = Some o; sampler = Some sampler; alerts = Some alerts }
