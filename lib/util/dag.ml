type t = {
  n : int;
  succ : int list array; (* reversed insertion order *)
  edge : (int * int, unit) Hashtbl.t;
}

let create n =
  if n < 0 then invalid_arg "Dag.create: negative size";
  { n; succ = Array.make (max 1 n) []; edge = Hashtbl.create 16 }

let size g = g.n

let check g i = if i < 0 || i >= g.n then invalid_arg "Dag: node out of bounds"

let add_edge g a b =
  check g a;
  check g b;
  if not (Hashtbl.mem g.edge (a, b)) then begin
    Hashtbl.add g.edge (a, b) ();
    g.succ.(a) <- b :: g.succ.(a)
  end

let succs g a =
  check g a;
  List.rev g.succ.(a)

let topo_order g =
  let indeg = Array.make (max 1 g.n) 0 in
  for v = 0 to g.n - 1 do
    List.iter (fun w -> indeg.(w) <- indeg.(w) + 1) g.succ.(v)
  done;
  let queue = Queue.create () in
  for v = 0 to g.n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr seen;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      g.succ.(v)
  done;
  if !seen = g.n then Some (List.rev !order) else None

let is_acyclic g = topo_order g <> None

let reachable g =
  match topo_order g with
  | None -> invalid_arg "Dag.reachable: graph has a cycle"
  | Some order ->
    let reach = Array.init (max 1 g.n) (fun _ -> Bitset.create g.n) in
    (* Process in reverse topological order so successors are final. *)
    List.iter
      (fun v ->
        List.iter
          (fun w ->
            Bitset.set reach.(v) w;
            reach.(v) <- Bitset.union reach.(v) reach.(w))
          g.succ.(v))
      (List.rev order);
    reach

let linear_extensions g ?(limit = max_int) f =
  let indeg = Array.make (max 1 g.n) 0 in
  for v = 0 to g.n - 1 do
    List.iter (fun w -> indeg.(w) <- indeg.(w) + 1) g.succ.(v)
  done;
  let available = ref [] in
  for v = g.n - 1 downto 0 do
    if indeg.(v) = 0 then available := v :: !available
  done;
  let current = Array.make g.n 0 in
  let visited = ref 0 in
  let exception Found in
  let exception Cutoff in
  (* Classic Varol-Rotem style backtracking over the ready set. *)
  let rec go depth avail =
    if depth = g.n then begin
      incr visited;
      if f current then raise Found;
      if !visited >= limit then raise Cutoff
    end
    else begin
      let rec try_each before = function
        | [] -> ()
        | v :: rest ->
          current.(depth) <- v;
          let newly =
            List.filter
              (fun w ->
                indeg.(w) <- indeg.(w) - 1;
                indeg.(w) = 0)
              g.succ.(v)
          in
          go (depth + 1) (List.rev_append before (newly @ rest));
          List.iter (fun w -> indeg.(w) <- indeg.(w) + 1) g.succ.(v);
          try_each (v :: before) rest
      in
      try_each [] avail
    end
  in
  match go 0 !available with
  | () -> false
  | exception Found -> true
  | exception Cutoff -> false

let count_linear_extensions g ~limit =
  let count = ref 0 in
  let (_ : bool) =
    linear_extensions g ~limit (fun _ ->
        incr count;
        false)
  in
  !count
