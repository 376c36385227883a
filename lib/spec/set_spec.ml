type state = Support.Int_set.t
type update = Insert of int | Delete of int
type query = Read
type output = Support.Int_set.t

let name = "set"

let initial = Support.Int_set.empty

let apply s = function
  | Insert v -> Support.Int_set.add v s
  | Delete v -> Support.Int_set.remove v s

let eval s Read = s

(* [Int_set.equal] ([Set.compare]) builds an enumeration even against
   an empty set, which is what a sweep compares every key's state with. *)
let equal_state a b =
  if Support.Int_set.is_empty a then Support.Int_set.is_empty b
  else (not (Support.Int_set.is_empty b)) && Support.Int_set.equal a b

let equal_update a b =
  match (a, b) with
  | Insert x, Insert y | Delete x, Delete y -> x = y
  | Insert _, Delete _ | Delete _, Insert _ -> false

let equal_query Read Read = true

let equal_output = Support.Int_set.equal

let pp_state = Support.pp_int_set

let pp_update ppf = function
  | Insert v -> Format.fprintf ppf "I(%d)" v
  | Delete v -> Format.fprintf ppf "D(%d)" v

let pp_query ppf Read = Format.fprintf ppf "R"

let pp_output = Support.pp_int_set

let update_wire_size = function
  | Insert v | Delete v -> 1 + Wire.varint_size (abs v)

let commutative = false

let satisfiable pairs = Support.all_outputs_equal equal_output pairs

let random_update rng =
  let v = Prng.int rng 8 in
  if Prng.bool rng then Insert v else Delete v

let random_query _rng = Read

let of_list = Support.Int_set.of_list
