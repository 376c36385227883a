type intervals = { starts : Float.Array.t; finishes : Float.Array.t }

module Make (A : Uqadt.S) = struct
  module L = Linearize.Make (A)

  type history = (A.update, A.query, A.output) History.t

  let precedence h ~intervals:{ starts; finishes } =
    let n = History.size h in
    if Float.Array.length starts <> n || Float.Array.length finishes <> n then
      invalid_arg "Check_lin: one interval per event required";
    let g = Dag.create n in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          (* Real-time order, plus program order (which covers same-time
             successive events of one process). *)
          if Float.Array.get finishes i < Float.Array.get starts j || History.po h i j
          then Dag.add_edge g i j
        end
      done
    done;
    g

  let witness h ~intervals =
    L.search_under ~precedence:(precedence h ~intervals) (Array.of_list (History.events h))

  let holds h ~intervals = witness h ~intervals <> None
end
