type labels = (string * string) list

(* Same numeric-aware ordering as the registry: pid=2 before pid=10. *)
let compare_label_value a b =
  match (int_of_string_opt a, int_of_string_opt b) with
  | Some x, Some y -> compare x y
  | _ -> String.compare a b

let rec compare_labels a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (ka, va) :: ra, (kb, vb) :: rb ->
    let c = String.compare ka kb in
    if c <> 0 then c
    else
      let c = compare_label_value va vb in
      if c <> 0 then c else compare_labels ra rb

let canon labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let compare_key (na, la) (nb, lb) =
  let c = String.compare na nb in
  if c <> 0 then c else compare_labels la lb

let labels_string labels =
  match labels with
  | [] -> ""
  | _ ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels) ^ "}"

(* ------------------------------- rings -------------------------------- *)

(* A decimating downsampler: the ring accepts every [stride]-th push and,
   when full, discards every other retained sample and doubles the
   stride. Memory is pinned at [cap] slots forever — a week-long soak
   holds the same array as a ten-second smoke — while the retained
   points stay an evenly spaced skeleton of the whole run: pushes
   [0, stride, 2*stride, ...]. Min/max/last are tracked over every
   push, so decimation never loses the extremes. *)
type ring = {
  cap : int;
  times : float array;
  values : float array;
  mutable len : int;
  mutable stride : int;
  mutable pushes : int;
  mutable vmin : float;
  mutable vmax : float;
  mutable last : float;
  mutable last_time : float;
}

let ring ~capacity =
  if capacity < 2 then invalid_arg "Series.ring: capacity must be >= 2";
  {
    cap = capacity;
    times = Array.make capacity 0.0;
    values = Array.make capacity 0.0;
    len = 0;
    stride = 1;
    pushes = 0;
    vmin = 0.0;
    vmax = 0.0;
    last = 0.0;
    last_time = 0.0;
  }

let ring_push r ~time ~value =
  if r.pushes = 0 then begin
    r.vmin <- value;
    r.vmax <- value
  end
  else begin
    if value < r.vmin then r.vmin <- value;
    if value > r.vmax then r.vmax <- value
  end;
  r.last <- value;
  r.last_time <- time;
  if r.pushes mod r.stride = 0 then begin
    if r.len = r.cap then begin
      let kept = (r.len + 1) / 2 in
      for i = 0 to kept - 1 do
        r.times.(i) <- r.times.(2 * i);
        r.values.(i) <- r.values.(2 * i)
      done;
      r.len <- kept;
      r.stride <- 2 * r.stride
    end;
    (* After a halving the grid coarsened; this push may now sit at an
       odd multiple of the new stride — if so it is dropped, keeping
       the retained points evenly spaced. *)
    if r.pushes mod r.stride = 0 then begin
      r.times.(r.len) <- time;
      r.values.(r.len) <- value;
      r.len <- r.len + 1
    end
  end;
  r.pushes <- r.pushes + 1

let ring_length r = r.len

let ring_stride r = r.stride

let ring_pushes r = r.pushes

let ring_points r = List.init r.len (fun i -> (r.times.(i), r.values.(i)))

let ring_min r = r.vmin

let ring_max r = r.vmax

let ring_last r = r.last

(* ------------------------------- store -------------------------------- *)

type t = { capacity : int; tbl : (string * labels, ring) Hashtbl.t }

let create ?(capacity = 240) () =
  if capacity < 2 then invalid_arg "Series.create: capacity must be >= 2";
  { capacity; tbl = Hashtbl.create 32 }

let find t name labels = Hashtbl.find_opt t.tbl (name, canon labels)

let push t ~name ~labels ~time ~value =
  let key = (name, canon labels) in
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some r -> r
    | None ->
      let r = ring ~capacity:t.capacity in
      Hashtbl.add t.tbl key r;
      r
  in
  ring_push r ~time ~value

let list t =
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

(* Every series of a given name, whatever its labels: how alert rules
   address per-replica series without enumerating pids. *)
let find_named t name =
  List.filter_map
    (fun ((n, labels), r) -> if String.equal n name then Some (labels, r) else None)
    (list t)

(* ------------------------------ sampler ------------------------------- *)

type point = { time : float; name : string; labels : labels; value : float }

type probe = unit -> (string * labels * float) list

type sampler = {
  store : t;
  interval : float;
  mutable next_due : float;
  mutable ticks : int;
  mutable registry : Registry.t option;
  mutable probes : probe list;
  mutable hooks : (float -> unit) list;
  mutable sink : (point -> unit) option;
  window : Stats.window;
  keyed : (int, Stats.window) Hashtbl.t;
}

(* Latency samples each sliding window holds. *)
let window_capacity = 256

let sampler ?(capacity = 240) ?registry ~interval () =
  if interval <= 0.0 then
    invalid_arg "Series.sampler: interval must be positive";
  {
    store = create ~capacity ();
    interval;
    next_due = 0.0;
    ticks = 0;
    registry;
    probes = [];
    hooks = [];
    sink = None;
    window = Stats.window ~capacity:window_capacity;
    keyed = Hashtbl.create 16;
  }

let store s = s.store

let interval s = s.interval

let ticks s = s.ticks

let add_probe s probe = s.probes <- probe :: s.probes

let on_tick s hook = s.hooks <- hook :: s.hooks

let set_sink s sink = s.sink <- Some sink

let observe_latency s ?key value =
  Stats.window_push s.window value;
  match key with
  | None -> ()
  | Some k ->
    let w =
      match Hashtbl.find_opt s.keyed k with
      | Some w -> w
      | None ->
        let w = Stats.window ~capacity:window_capacity in
        Hashtbl.add s.keyed k w;
        w
    in
    Stats.window_push w value

let tick s ~now =
  let emit name labels value =
    push s.store ~name ~labels ~time:now ~value;
    match s.sink with
    | None -> ()
    | Some sink -> sink { time = now; name; labels; value }
  in
  (match s.registry with
  | None -> ()
  | Some reg ->
    List.iter (fun (name, labels, v) -> emit name labels v) (Registry.sample reg));
  List.iter (fun probe -> List.iter (fun (n, l, v) -> emit n l v) (probe ()))
    (List.rev s.probes);
  (match Stats.window_summary s.window with
  | None -> ()
  | Some sum ->
    emit "latency_p50" [] sum.Stats.p50;
    emit "latency_p99" [] sum.Stats.p99);
  Hashtbl.fold (fun k w acc -> (k, w) :: acc) s.keyed []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (k, w) ->
         match Stats.window_summary w with
         | None -> ()
         | Some sum ->
           emit "latency_p99" [ ("key", string_of_int k) ] sum.Stats.p99);
  s.ticks <- s.ticks + 1;
  List.iter (fun hook -> hook now) (List.rev s.hooks)

let maybe_tick s ~now =
  if now >= s.next_due then begin
    tick s ~now;
    s.next_due <- now +. s.interval
  end

(* ----------------------------- JSONL file ----------------------------- *)

let version = 1

type writer = {
  oc : out_channel;
  mutable points_written : int;
  mutable alerts_written : int;
}

let write_line oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n'

let writer oc ~meta =
  write_line oc
    (Json.Obj
       ([ ("series", Json.Str "ucsim"); ("version", Json.Num (float_of_int version)) ]
       @ meta));
  { oc; points_written = 0; alerts_written = 0 }

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let write_point w (p : point) =
  write_line w.oc
    (Json.Obj
       ([ ("t", Json.Num p.time); ("name", Json.Str p.name) ]
       @ (match p.labels with
         | [] -> []
         | labels -> [ ("labels", labels_json labels) ])
       @ [ ("v", Json.Num p.value) ]));
  w.points_written <- w.points_written + 1

let write_alert w ~time ~rule ~series ~value =
  write_line w.oc
    (Json.Obj
       [
         ("alert", Json.Str rule);
         ("t", Json.Num time);
         ("series", Json.Str series);
         ("v", Json.Num value);
       ]);
  w.alerts_written <- w.alerts_written + 1

let close_writer w =
  write_line w.oc
    (Json.Obj
       [
         ("points", Json.Num (float_of_int w.points_written));
         ("alerts", Json.Num (float_of_int w.alerts_written));
       ]);
  flush w.oc

type alert_line = { atime : float; rule : string; aseries : string; avalue : float }

type loaded = {
  meta : (string * Json.t) list;
  points : point list;  (** chronological, full resolution *)
  alerts : alert_line list;
}

let fail fmt = Printf.ksprintf failwith fmt

let need what = function
  | Some v -> v
  | None -> fail "series file: missing or ill-typed %s" what

let point_of_json j =
  let open Json in
  let time = need "t" (Option.bind (member "t" j) get_num) in
  let name = need "name" (Option.bind (member "name" j) get_str) in
  let labels =
    match member "labels" j with
    | Some (Obj fields) ->
      List.map (fun (k, v) -> (k, need ("label " ^ k) (get_str v))) fields
    | None | Some Null -> []
    | Some _ -> fail "series file: labels of %s is not an object" name
  in
  let value = need "v" (Option.bind (member "v" j) get_num) in
  { time; name; labels; value }

let load file =
  let ic =
    try open_in file with Sys_error msg -> fail "series file: %s" msg
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let parse line =
        try Json.of_string line
        with Json.Parse_error msg -> fail "series file: %s" msg
      in
      let header =
        match In_channel.input_line ic with
        | None -> fail "series file: empty file"
        | Some line -> parse line
      in
      (match Option.bind (Json.member "series" header) Json.get_str with
      | Some "ucsim" -> ()
      | _ -> fail "series file: not a ucsim series stream");
      (match Option.bind (Json.member "version" header) Json.get_int with
      | Some v when v = version -> ()
      | Some v -> fail "series file: unsupported version %d (expected %d)" v version
      | None -> fail "series file: missing version");
      let meta =
        match header with
        | Json.Obj fields ->
          List.filter (fun (k, _) -> k <> "series" && k <> "version") fields
        | _ -> []
      in
      let points = ref [] and alerts = ref [] in
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some "" -> loop ()
        | Some line ->
          let j = parse line in
          (match Option.bind (Json.member "alert" j) Json.get_str with
          | Some rule ->
            alerts :=
              {
                atime = need "t" (Option.bind (Json.member "t" j) Json.get_num);
                rule;
                aseries =
                  need "series" (Option.bind (Json.member "series" j) Json.get_str);
                avalue = need "v" (Option.bind (Json.member "v" j) Json.get_num);
              }
              :: !alerts
          | None ->
            if Json.member "points" j <> None then () (* footer *)
            else points := point_of_json j :: !points);
          loop ()
      in
      loop ();
      { meta; points = List.rev !points; alerts = List.rev !alerts })

(* ------------------------------ render -------------------------------- *)

let spark_chars = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}";
                     "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]

let sparkline ?(width = 60) values =
  match values with
  | [] -> ""
  | _ ->
    let arr = Array.of_list values in
    let n = Array.length arr in
    let cols = min width n in
    let bucket c =
      (* mean of the slice of samples falling into column c *)
      let lo = c * n / cols and hi = max (((c + 1) * n / cols) - 1) (c * n / cols) in
      let sum = ref 0.0 in
      for i = lo to hi do
        sum := !sum +. arr.(i)
      done;
      !sum /. float_of_int (hi - lo + 1)
    in
    let cells = Array.init cols bucket in
    let mn = Array.fold_left Float.min cells.(0) cells in
    let mx = Array.fold_left Float.max cells.(0) cells in
    let glyph v =
      if mx -. mn <= 0.0 then spark_chars.(3)
      else
        let idx = int_of_float ((v -. mn) /. (mx -. mn) *. 7.999) in
        spark_chars.(max 0 (min 7 idx))
    in
    String.concat "" (Array.to_list (Array.map glyph cells))

let group_points points =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun p ->
      let key = (p.name, canon p.labels) in
      match Hashtbl.find_opt tbl key with
      | Some acc -> acc := p :: !acc
      | None ->
        Hashtbl.add tbl key (ref [ p ]);
        order := key :: !order)
    points;
  List.sort compare_key (List.rev !order)
  |> List.map (fun key -> (key, List.rev !(Hashtbl.find tbl key)))

let render ppf loaded =
  let groups = group_points loaded.points in
  let name_of (n, labels) = n ^ labels_string labels in
  let width =
    List.fold_left (fun w (key, _) -> max w (String.length (name_of key))) 6
      groups
  in
  Format.fprintf ppf "%-*s  %-60s  %8s %10s %10s %10s@." width "series" ""
    "n" "min" "max" "last";
  List.iter
    (fun (key, pts) ->
      let values = List.map (fun p -> p.value) pts in
      let mn = List.fold_left Float.min (List.hd values) values in
      let mx = List.fold_left Float.max (List.hd values) values in
      let last = List.nth values (List.length values - 1) in
      Format.fprintf ppf "%-*s  %-60s  %8d %10g %10g %10g@." width
        (name_of key) (sparkline values) (List.length values) mn mx last)
    groups;
  match loaded.alerts with
  | [] -> Format.fprintf ppf "alerts: none@."
  | alerts ->
    Format.fprintf ppf "alerts: %d fired@." (List.length alerts);
    List.iter
      (fun a ->
        Format.fprintf ppf "  ALERT %s at t=%g on %s value=%g@." a.rule
          a.atime a.aseries a.avalue)
      alerts
