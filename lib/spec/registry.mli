(** Name-indexed registry of all packaged ADT instances, used by the CLI
    and the model checker to iterate "for every object type". *)

(** An ADT bundled with its wire codec — what persistence-aware
    constructions (churn catch-up, snapshot transfer) need beyond the
    bare {!Uqadt.S}. *)
module type SPEC = sig
  include Uqadt.S

  module Codec : Update_codec.S with type update = update
end

val all : (string * Uqadt.packed) list
(** Association list, stable order. *)

val all_specs : (string * (module SPEC)) list
(** Same entries, same order, with each spec's {!Update_codec} attached. *)

val find : string -> Uqadt.packed option

val names : string list
