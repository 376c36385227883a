module type S = sig
  type state
  type update
  type query
  type output

  val name : string
  val initial : state
  val apply : state -> update -> state
  val eval : state -> query -> output
  val equal_state : state -> state -> bool
  val equal_update : update -> update -> bool
  val equal_query : query -> query -> bool
  val equal_output : output -> output -> bool
  val pp_state : Format.formatter -> state -> unit
  val pp_update : Format.formatter -> update -> unit
  val pp_query : Format.formatter -> query -> unit
  val pp_output : Format.formatter -> output -> unit
  val update_wire_size : update -> int
  val commutative : bool
  val satisfiable : (query * output) list -> bool
  val random_update : Prng.t -> update
  val random_query : Prng.t -> query
end

type ('u, 'q, 'o) operation = Update of 'u | Query of 'q * 'o

let pp_operation pp_u pp_q pp_o ppf = function
  | Update u -> pp_u ppf u
  | Query (q, o) -> Format.fprintf ppf "%a/%a" pp_q q pp_o o

module Run (A : S) = struct
  let exec_updates s updates = List.fold_left A.apply s updates

  let final_state updates = exec_updates A.initial updates

  let step s = function
    | Update u -> Some (A.apply s u)
    | Query (qi, qo) -> if A.equal_output (A.eval s qi) qo then Some s else None

  let recognizes word =
    let rec go s = function
      | [] -> true
      | op :: rest -> ( match step s op with None -> false | Some s' -> go s' rest)
    in
    go A.initial word
end

type packed = (module S)
