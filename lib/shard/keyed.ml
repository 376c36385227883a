module Int_map = Support.Int_map

(* The keyed state is [A.state Int_map.t]: absent keys are at
   [A.initial], and bindings that return to [A.initial] are kept (an
   explicit binding and an absent one are equal states — [equal_state]
   and [pp_state] normalise). *)
module Batch (A : Uqadt.S) = struct
  type read = Read of int * A.query | Sweep

  type answer = Out of A.output | States of (int * A.state) list

  type state = A.state Int_map.t
  type update = (int * A.update) list
  type query = read
  type output = answer

  let name = A.name ^ "@space"
  let initial = Int_map.empty

  let get m k = match Int_map.find_opt k m with Some s -> s | None -> A.initial

  let apply_one m (k, u) = Int_map.add k (A.apply (get m k) u) m

  let apply m kus = List.fold_left apply_one m kus

  let eval_key m k q = A.eval (get m k) q

  let significant m =
    Int_map.filter (fun _ s -> not (A.equal_state s A.initial)) m

  let sweep m = Int_map.bindings (significant m)

  let eval m = function
    | Read (k, q) -> Out (eval_key m k q)
    | Sweep -> States (sweep m)

  let equal_state a b =
    Int_map.equal A.equal_state (significant a) (significant b)

  let equal_keyed_update (k1, u1) (k2, u2) = k1 = k2 && A.equal_update u1 u2

  let equal_update a b =
    List.length a = List.length b && List.for_all2 equal_keyed_update a b

  let equal_query a b =
    match (a, b) with
    | Read (k1, q1), Read (k2, q2) -> k1 = k2 && A.equal_query q1 q2
    | Sweep, Sweep -> true
    | _ -> false

  let equal_states a b =
    List.length a = List.length b
    && List.for_all2
         (fun (k1, s1) (k2, s2) -> k1 = k2 && A.equal_state s1 s2)
         a b

  let equal_output a b =
    match (a, b) with
    | Out o1, Out o2 -> A.equal_output o1 o2
    | States l1, States l2 -> equal_states l1 l2
    | _ -> false

  let pp_bindings ppf bs =
    Format.fprintf ppf "{@[%a@]}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         (fun ppf (k, s) -> Format.fprintf ppf "%d: %a" k A.pp_state s))
      bs

  let pp_state ppf m = pp_bindings ppf (sweep m)

  let pp_keyed_update ppf (k, u) = Format.fprintf ppf "%d:=%a" k A.pp_update u

  let pp_update ppf kus =
    Format.fprintf ppf "[@[%a@]]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         pp_keyed_update)
      kus

  let pp_query ppf = function
    | Read (k, q) -> Format.fprintf ppf "R(%d,%a)" k A.pp_query q
    | Sweep -> Format.pp_print_string ppf "Sweep"

  let pp_output ppf = function
    | Out o -> A.pp_output ppf o
    | States l -> pp_bindings ppf l

  let update_wire_size kus =
    List.fold_left
      (fun acc (k, u) -> acc + Wire.varint_size k + A.update_wire_size u)
      (Wire.varint_size (List.length kus))
      kus

  let commutative = A.commutative

  (* A state answering every pair exists iff (a) all sweeps agree and
     (b) per key, the base ADT can answer that key's reads — against
     the swept state when one was recorded (keys are independent, so
     satisfiability decomposes exactly). *)
  let satisfiable pairs =
    let sweeps =
      List.filter_map
        (function Sweep, States l -> Some l | _ -> None)
        pairs
    and reads =
      List.filter_map
        (function Read (k, q), Out o -> Some (k, (q, o)) | _ -> None)
        pairs
    in
    let sweeps_agree =
      match sweeps with
      | [] -> true
      | l :: rest -> List.for_all (equal_states l) rest
    in
    sweeps_agree
    &&
    match sweeps with
    | witness :: _ ->
      let m =
        List.fold_left (fun m (k, s) -> Int_map.add k s m) Int_map.empty
          witness
      in
      List.for_all
        (fun (k, (q, o)) -> A.equal_output (eval_key m k q) o)
        reads
    | [] ->
      let by_key = Hashtbl.create 8 in
      List.iter
        (fun (k, qo) ->
          Hashtbl.replace by_key k
            (qo :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
        reads;
      Hashtbl.fold (fun _ qos acc -> acc && A.satisfiable qos) by_key true

  let key_domain = 16

  let random_update g =
    let k = Prng.int g key_domain in
    [ (k, A.random_update g) ]

  let random_query g = Read (Prng.int g key_domain, A.random_query g)
end

module One_codec
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) =
struct
  type update = int * A.update

  let encode w (k, u) =
    Codec.Writer.varint w k;
    C.encode w u

  let decode r =
    let k = Codec.Reader.varint r in
    (k, C.decode r)

  let to_string u =
    let w = Codec.Writer.create () in
    encode w u;
    Codec.Writer.contents w

  let of_string s =
    let r = Codec.Reader.of_string s in
    let u = decode r in
    if not (Codec.Reader.at_end r) then
      raise (Codec.Decode_error "keyed update: trailing bytes");
    u
end
