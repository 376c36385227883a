(** Update-query abstract data types (Definition 1 of the paper).

    A UQ-ADT is a transition system [(U, Qi, Qo, S, s0, T, G)]: update
    operations [U] move between states via the transition function [T]
    and return nothing; query operations [Qi] return an output computed
    by [G] from the current state and leave it unchanged. The paper's
    sequential specification [L(O)] — the set of allowed sequential
    histories — is decided here by {!Run.recognizes}.

    Every replicated-object protocol in this repository (the universal
    construction, Algorithm 2, the CRDT baselines) and every consistency
    checker is parameterised by a module of type {!S}. *)

(** Interface every abstract data type instance implements. [state],
    [apply] and [eval] are the paper's [S]/[s0], [T] and [G]. *)
module type S = sig
  type state
  type update
  type query
  type output

  val name : string
  (** Short identifier used in reports, e.g. ["set"]. *)

  val initial : state
  (** The initial state [s0]. *)

  val apply : state -> update -> state
  (** The transition function [T]. Total: every update is applicable in
      every state. *)

  val eval : state -> query -> output
  (** The output function [G]. *)

  val equal_state : state -> state -> bool
  val equal_update : update -> update -> bool
  val equal_query : query -> query -> bool
  val equal_output : output -> output -> bool

  val pp_state : Format.formatter -> state -> unit
  val pp_update : Format.formatter -> update -> unit
  val pp_query : Format.formatter -> query -> unit
  val pp_output : Format.formatter -> output -> unit

  val update_wire_size : update -> int
  (** Bytes a compact encoding of the update payload occupies; used for
      the message-complexity experiments (C1). *)

  val commutative : bool
  (** True iff all pairs of updates commute in every state, i.e. the type
      is a pure op-based CRDT. The universal construction exploits this
      (Section VII.C): with commuting updates every linearization yields
      the same state, so replay order is irrelevant. *)

  val satisfiable : (query * output) list -> bool
  (** [satisfiable qs] decides whether a single state answers every
      [(qi, qo)] pair, i.e. [∃ s. ∀ (qi, qo) ∈ qs. G s qi = qo]. Needed
      by the strong-convergence clause of the SEC checker (Definition 6),
      where the witness state is existentially quantified and not tied to
      any update sequence. *)

  val random_update : Prng.t -> update
  (** Uniformly-ish random update over a small support; drives workload
      generation and property tests. *)

  val random_query : Prng.t -> query
end

type ('u, 'q, 'o) operation = Update of 'u | Query of 'q * 'o
(** One event label of a sequential or distributed history: either an
    update [u ∈ U] or a query [qi/qo ∈ Q]. *)

val pp_operation :
  (Format.formatter -> 'u -> unit) ->
  (Format.formatter -> 'q -> unit) ->
  (Format.formatter -> 'o -> unit) ->
  Format.formatter ->
  ('u, 'q, 'o) operation ->
  unit

(** Sequential interpretation of an ADT: executing update sequences and
    deciding membership of [L(O)]. *)
module Run (A : S) : sig
  val exec_updates : A.state -> A.update list -> A.state
  (** Fold [apply] over the list. *)

  val final_state : A.update list -> A.state
  (** [exec_updates A.initial]. *)

  val step :
    A.state -> (A.update, A.query, A.output) operation -> A.state option
  (** [step s op] is [Some s'] if [op] is allowed in state [s] (updates
      always are; a query [qi/qo] iff [G s qi = qo]), with [s'] the
      resulting state. *)

  val recognizes : (A.update, A.query, A.output) operation list -> bool
  (** Membership of the finite word in [L(O)] (Definition 1): replay from
      [A.initial], checking every query output. *)
end

type packed = (module S)
(** Existentially packaged instance, for registries and the CLI. *)
