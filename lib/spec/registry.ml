module type SPEC = sig
  include Uqadt.S

  module Codec : Update_codec.S with type update = update
end

let spec (type u) (module A : Uqadt.S with type update = u)
    (module C : Update_codec.S with type update = u) : (module SPEC) =
  (module struct
    include A
    module Codec = C
  end)

let all_specs : (string * (module SPEC)) list =
  [
    ("set", spec (module Set_spec) (module Update_codec.For_set));
    ("gset", spec (module Gset_spec) (module Update_codec.For_gset));
    ("counter", spec (module Counter_spec) (module Update_codec.For_counter));
    ("register", spec (module Register_spec) (module Update_codec.For_register));
    ("memory", spec (module Memory_spec) (module Update_codec.For_memory));
    ("maxreg", spec (module Maxreg_spec) (module Update_codec.For_maxreg));
    ("flag", spec (module Flag_spec) (module Update_codec.For_flag));
    ("log", spec (module Log_spec) (module Update_codec.For_log));
    ("queue", spec (module Queue_spec) (module Update_codec.For_queue));
    ("stack", spec (module Stack_spec) (module Update_codec.For_stack));
    ("map", spec (module Map_spec) (module Update_codec.For_map));
    ("text", spec (module Text_spec) (module Update_codec.For_text));
    ("bank", spec (module Bank_spec) (module Update_codec.For_bank));
    ("pqueue", spec (module Pqueue_spec) (module Update_codec.For_pqueue));
  ]

let all : (string * Uqadt.packed) list =
  List.map
    (fun (name, s) ->
      let module S = (val s : SPEC) in
      (name, (module S : Uqadt.S)))
    all_specs

let find name = List.assoc_opt name all

let names = List.map fst all
