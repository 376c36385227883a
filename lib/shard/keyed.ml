module Int_map = Support.Int_map

(* Shared plumbing over the keyed state [A.state Int_map.t]: absent
   keys are at [A.initial], and bindings that return to [A.initial]
   are kept (an explicit binding and an absent one are equal states —
   [equal_state] and [pp_state] normalise). *)
module Common (A : Uqadt.S) = struct
  let initial : A.state Int_map.t = Int_map.empty

  let get m k = match Int_map.find_opt k m with Some s -> s | None -> A.initial

  let apply_one m (k, u) = Int_map.add k (A.apply (get m k) u) m

  let significant m =
    Int_map.filter (fun _ s -> not (A.equal_state s A.initial)) m

  let equal_state a b =
    Int_map.equal A.equal_state (significant a) (significant b)

  let pp_state ppf m =
    let bs = Int_map.bindings (significant m) in
    Format.fprintf ppf "{@[%a@]}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         (fun ppf (k, s) -> Format.fprintf ppf "%d: %a" k A.pp_state s))
      bs

  let equal_keyed_update (k1, u1) (k2, u2) = k1 = k2 && A.equal_update u1 u2

  let pp_keyed_update ppf (k, u) = Format.fprintf ppf "%d:=%a" k A.pp_update u

  let keyed_update_wire_size (k, u) =
    Wire.varint_size k + A.update_wire_size u
end

module One (A : Uqadt.S) = struct
  module C = Common (A)

  type state = A.state Int_map.t
  type update = int * A.update
  type query = unit
  type output = A.state Int_map.t

  let name = A.name ^ "@key"
  let initial = C.initial
  let apply = C.apply_one
  let eval m () = m
  let equal_state = C.equal_state
  let equal_update = C.equal_keyed_update
  let equal_query () () = true
  let equal_output = C.equal_state
  let pp_state = C.pp_state
  let pp_update = C.pp_keyed_update
  let pp_query ppf () = Format.pp_print_string ppf "S"
  let pp_output = C.pp_state
  let update_wire_size = C.keyed_update_wire_size
  let commutative = A.commutative

  let satisfiable pairs =
    Support.all_outputs_equal C.equal_state pairs

  let key_domain = 16

  let random_update g =
    let k = Prng.int g key_domain in
    (k, A.random_update g)

  let random_query _ = ()
end

module Batch (A : Uqadt.S) = struct
  module C = Common (A)

  type read = Read of int * A.query | Sweep

  type answer = Out of A.output | States of (int * A.state) list

  type state = A.state Int_map.t
  type update = (int * A.update) list
  type query = read
  type output = answer

  let name = A.name ^ "@space"
  let initial = C.initial
  let apply m kus = List.fold_left C.apply_one m kus

  let eval_key m k q = A.eval (C.get m k) q

  let sweep m = Int_map.bindings (C.significant m)

  let eval m = function
    | Read (k, q) -> Out (eval_key m k q)
    | Sweep -> States (sweep m)

  let equal_state = C.equal_state

  let equal_update a b =
    List.length a = List.length b && List.for_all2 C.equal_keyed_update a b

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

  let pp_state = C.pp_state

  let pp_update ppf kus =
    Format.fprintf ppf "[@[%a@]]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         C.pp_keyed_update)
      kus

  let pp_query ppf = function
    | Read (k, q) -> Format.fprintf ppf "R(%d,%a)" k A.pp_query q
    | Sweep -> Format.pp_print_string ppf "Sweep"

  let pp_output ppf = function
    | Out o -> A.pp_output ppf o
    | States l ->
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           (fun ppf (k, s) -> Format.fprintf ppf "%d: %a" k A.pp_state s))
        l

  let update_wire_size kus =
    Wire.varint_size (List.length kus)
    + List.fold_left (fun acc ku -> acc + C.keyed_update_wire_size ku) 0 kus

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

let encode_keyed encode w (k, u) =
  Codec.Writer.varint w k;
  encode w u

let decode_keyed decode r =
  let k = Codec.Reader.varint r in
  (k, decode r)

module One_codec
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) =
struct
  type update = int * A.update

  let encode w ku = encode_keyed C.encode w ku

  let decode r = decode_keyed C.decode r

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

module Batch_codec
    (A : Uqadt.S)
    (C : Update_codec.S with type update = A.update) =
struct
  type update = (int * A.update) list

  let encode w kus =
    Codec.Writer.varint w (List.length kus);
    List.iter (encode_keyed C.encode w) kus

  let decode r =
    let n = Codec.Reader.varint r in
    List.init n (fun _ -> decode_keyed C.decode r)

  let to_string u =
    (* Batches are fanout-wide: hint past the writer's 16-byte default
       so multi-key frames build without reallocating. *)
    let w = Codec.Writer.create ~size:(4 + (12 * List.length u)) () in
    encode w u;
    Codec.Writer.contents w

  let of_string s =
    let r = Codec.Reader.of_string s in
    let u = decode r in
    if not (Codec.Reader.at_end r) then
      raise (Codec.Decode_error "keyed batch: trailing bytes");
    u
end
