type ('u, 'q, 'o) step = U of 'u | Q of 'q * 'o | Qw of 'q * 'o

type ('u, 'q, 'o) event = {
  id : int;
  pid : int;
  seq : int;
  label : ('u, 'q, 'o) Uqadt.operation;
  omega : bool;
}

type ('u, 'q, 'o) t = {
  events : ('u, 'q, 'o) event array;
  procs : int array array;
}

(* Events are numbered process by process, in program order. *)
let init lengths label omega =
  if Array.exists (fun len -> len < 0) lengths then
    invalid_arg "History.init: negative process length";
  let pid = ref 0 and seq = ref 0 in
  let events =
    Array.init (Array.fold_left ( + ) 0 lengths) (fun id ->
        while !seq = lengths.(!pid) do
          incr pid;
          seq := 0
        done;
        let p = !pid and k = !seq in
        incr seq;
        { id; pid = p; seq = k; label = label p k; omega = k = lengths.(p) - 1 && omega p })
  in
  let first = ref 0 in
  let procs =
    Array.map
      (fun len ->
        let base = !first in
        first := base + len;
        Array.init len (fun k -> base + k))
      lengths
  in
  { events; procs }

let make per_process =
  let steps = Array.of_list (List.map Array.of_list per_process) in
  (* An ω event stands for an infinite repetition, so nothing of the
     same process may follow it. *)
  Array.iter
    (fun ss ->
      Array.iteri
        (fun k step ->
          match step with
          | Qw _ when k < Array.length ss - 1 ->
            invalid_arg "History.make: ω event is not last in its process"
          | _ -> ())
        ss)
    steps;
  init (Array.map Array.length steps)
    (fun p k ->
      match steps.(p).(k) with
      | U u -> Uqadt.Update u
      | Q (q, o) | Qw (q, o) -> Uqadt.Query (q, o))
    (fun p ->
      let ss = steps.(p) in
      match ss.(Array.length ss - 1) with Qw _ -> true | U _ | Q _ -> false)

let events h = Array.to_list h.events

let event h id = h.events.(id)

let size h = Array.length h.events

let process_count h = Array.length h.procs

let process_events h p = List.map (fun id -> h.events.(id)) (Array.to_list h.procs.(p))

let steps_of_process h p =
  List.map
    (fun e ->
      match (e.label, e.omega) with
      | Uqadt.Update u, _ -> U u
      | Uqadt.Query (q, o), false -> Q (q, o)
      | Uqadt.Query (q, o), true -> Qw (q, o))
    (process_events h p)

let is_update e = match e.label with Uqadt.Update _ -> true | Uqadt.Query _ -> false

let updates h = List.filter is_update (events h)

let queries h = List.filter (fun e -> not (is_update e)) (events h)

let omega_queries h = List.filter (fun e -> e.omega) (events h)

let update_of e = match e.label with Uqadt.Update u -> Some u | Uqadt.Query _ -> None

let query_of e = match e.label with Uqadt.Update _ -> None | Uqadt.Query (q, o) -> Some (q, o)

let po h a b =
  let ea = h.events.(a) and eb = h.events.(b) in
  ea.pid = eb.pid && ea.seq < eb.seq

let po_dag h =
  let g = Dag.create (size h) in
  Array.iter
    (fun ids ->
      for i = 0 to Array.length ids - 2 do
        Dag.add_edge g ids.(i) ids.(i + 1)
      done)
    h.procs;
  g

let update_index h =
  let ups = updates h in
  let update_ids = Array.of_list (List.map (fun e -> e.id) ups) in
  let rank = Array.make (max 1 (size h)) (-1) in
  Array.iteri (fun r id -> rank.(id) <- r) update_ids;
  (update_ids, rank)

let update_dag h =
  let update_ids, rank = update_index h in
  let g = Dag.create (Array.length update_ids) in
  Array.iter
    (fun ids ->
      let prev = ref (-1) in
      Array.iter
        (fun id ->
          if rank.(id) >= 0 then begin
            if !prev >= 0 then Dag.add_edge g !prev rank.(id);
            prev := rank.(id)
          end)
        ids)
    h.procs;
  g

let fingerprint pp_u pp_q pp_o h =
  (* FNV-1a over each process line: rendered event labels plus ω flags.
     Rendering with the spec's printers makes the hash independent of
     in-memory representation, so a journaled run and its replay agree
     iff they extracted the same history. *)
  let fp = ref Fingerprint.empty in
  Array.iter
    (fun ids ->
      fp := Fingerprint.int !fp (Array.length ids);
      Array.iter
        (fun id ->
          let e = h.events.(id) in
          fp :=
            Fingerprint.string !fp
              (Format.asprintf "%a" (Uqadt.pp_operation pp_u pp_q pp_o) e.label);
          fp := Fingerprint.bool !fp e.omega)
        ids)
    h.procs;
  Fingerprint.to_hex !fp

let pp pp_u pp_q pp_o ppf h =
  let pp_event ppf e =
    Uqadt.pp_operation pp_u pp_q pp_o ppf e.label;
    if e.omega then Format.fprintf ppf "ω"
  in
  Array.iteri
    (fun p ids ->
      Format.fprintf ppf "p%d: %a@." p
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " → ")
           pp_event)
        (List.map (fun id -> h.events.(id)) (Array.to_list ids)))
    h.procs
