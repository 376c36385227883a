module Lwwreg = struct
  include Register_spec

  type message = { ts : Timestamp.t; value : int }

  type t = {
    ctx : message Protocol.ctx;
    clock : Lamport.t;
    mutable current : (Timestamp.t * int) option;
  }

  let protocol_name = "lww-register"

  let create ctx = { ctx; clock = Lamport.create (); current = None }

  let consider t ts value =
    match t.current with
    | Some (ts', _) when Timestamp.compare ts ts' < 0 -> ()
    | Some _ | None -> t.current <- Some (ts, value)

  let update t (Register_spec.Write v) ~on_done =
    let cl = Lamport.tick t.clock in
    let ts = Timestamp.make ~clock:cl ~pid:t.ctx.Protocol.pid in
    consider t ts v;
    t.ctx.Protocol.broadcast { ts; value = v };
    on_done ()

  let receive t ~src:_ { ts; value } =
    Lamport.merge t.clock ts.Timestamp.clock;
    consider t ts value

  let query t Register_spec.Read ~on_result =
    on_result (match t.current with None -> Register_spec.initial | Some (_, v) -> v)

  let receive_batch t ~src msgs = List.iter (receive t ~src) msgs

  let message_wire_size { ts; value } = Timestamp.wire_size ts + Wire.varint_size (abs value)

  let describe_message { ts; value } = Format.asprintf "w(%d)%a" value Timestamp.pp ts

  let log_length _t = 0

  let metadata_bytes t =
    match t.current with None -> 0 | Some (ts, v) -> Timestamp.wire_size ts + Wire.varint_size (abs v)

  let certificate _t = None

  include Protocol.No_catchup
end

module Mvreg_spec = struct
  type state = Support.Int_set.t
  type update = Register_spec.update
  type query = Register_spec.query
  type output = Support.Int_set.t

  let name = "mvreg"

  let initial = Support.Int_set.empty

  let apply _ (Register_spec.Write v) = Support.Int_set.singleton v

  let eval s Register_spec.Read = s

  let equal_state = Support.Int_set.equal

  let equal_update (Register_spec.Write a) (Register_spec.Write b) = a = b

  let equal_query Register_spec.Read Register_spec.Read = true

  let equal_output = Support.Int_set.equal

  let pp_state = Support.pp_int_set

  let pp_update ppf (Register_spec.Write v) = Format.fprintf ppf "w(%d)" v

  let pp_query ppf Register_spec.Read = Format.fprintf ppf "r"

  let pp_output = Support.pp_int_set

  let update_wire_size (Register_spec.Write v) = 1 + Wire.varint_size (abs v)

  let commutative = false

  let satisfiable pairs = Support.all_outputs_equal equal_output pairs

  let random_update rng = Register_spec.Write (Prng.int rng 8)

  let random_query _rng = Register_spec.Read
end

module Mvreg_lattice = struct
  module A = Mvreg_spec

  (* Maximal (value, version vector) pairs; concurrent writes coexist.
     Version vectors are plain arrays widened on demand, since replicas
     discover each other's indices lazily. *)
  type payload = (int * int array) list

  let name = "mv-register"

  let empty = []

  let get vv i = if i < Array.length vv then vv.(i) else 0

  let width a b = max (Array.length a) (Array.length b)

  let vv_merge a b = Array.init (width a b) (fun i -> max (get a i) (get b i))

  let vv_leq a b =
    let ok = ref true in
    for i = 0 to width a b - 1 do
      if get a i > get b i then ok := false
    done;
    !ok

  let vv_eq a b = vv_leq a b && vv_leq b a

  let vv_lt a b = vv_leq a b && not (vv_eq a b)

  let maximal entries =
    List.filter
      (fun (_, vv) -> not (List.exists (fun (_, vv') -> vv_lt vv vv') entries))
      entries

  let join a b =
    (* Keep one copy of identical entries, then prune dominated ones. *)
    let merged =
      List.fold_left
        (fun acc (v, vv) ->
          if List.exists (fun (v', vv') -> v = v' && vv_eq vv vv') acc then acc
          else (v, vv) :: acc)
        a b
    in
    maximal merged

  let mutate ~pid p (Register_spec.Write v) =
    let combined = List.fold_left (fun acc (_, vv) -> vv_merge acc vv) [||] p in
    let combined = vv_merge combined (Array.make (pid + 1) 0) in
    let vv = Array.copy combined in
    vv.(pid) <- vv.(pid) + 1;
    [ (v, vv) ]

  let read p Register_spec.Read =
    List.fold_left (fun acc (v, _) -> Support.Int_set.add v acc) Support.Int_set.empty p

  let payload_bytes p =
    List.fold_left
      (fun acc (v, vv) ->
        acc + Wire.varint_size (abs v)
        + Array.fold_left (fun acc x -> acc + Wire.varint_size x) 0 vv)
      0 p
end

module Mvreg = State_based.Make (Mvreg_lattice)
