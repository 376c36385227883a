(** Online consistency monitors.

    The post-hoc checkers in [lib/history] decide EC/PC/UC over a
    complete history; a monitor decides them {e as the history grows},
    one event at a time, and reports the first event whose arrival
    makes the observed prefix fail — with the event's journal index and
    {!Span} causal id, so the violation can be located in a trace or
    re-reached with [ucsim replay --until].

    The monitors keep memoized state instead of re-running the
    predicates on every prefix:

    {ul
    {- {b PC} maintains, per process [p], the frontier of reachable
       configurations of the interleaving automaton whose rows are
       [p]'s own line plus the other processes' update subsequences
       (exactly {!Check_pc}'s search space). Updates extend rows in
       O(1); a query forces a memoized closure; an empty frontier is
       the violation.}
    {- {b UC} folds updates into a running linearization and memoizes
       the last witness state; only when both fail an ω read does it
       fall back to {!Check_uc} on the prefix.}
    {- {b EC} accumulates ω read pairs and asks the spec's
       [satisfiable]; probe samples feed the divergence summary.}}

    On a journal produced by a run the first monitor violation index
    coincides with the first prefix on which the post-hoc predicate
    fails. (On adversarially ordered abstract feeds a later update can
    in principle absolve an earlier failing prefix — see the prefix
    semantics note in DESIGN.md §4e — so a violation is always
    confirmed against the post-hoc checker by the test suite.) *)

type criterion = Uc | Ec | Pc

val criterion_name : criterion -> string
(** ["uc"], ["ec"], ["pc"] — the [--monitor] spelling. *)

val criterion_of_name : string -> criterion option

type violation = {
  criterion : criterion;
  index : int;  (** journal event index of the violating event *)
  span : int option;  (** its causal span id, when the run traces spans *)
  pid : int;  (** process whose prefix became inexplicable *)
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

module Make (A : Uqadt.S) : sig
  type t

  val create : n:int -> criteria:criterion list -> t

  val on_update :
    t -> pid:int -> index:int -> span:int option -> A.update -> unit

  val on_query :
    t ->
    pid:int ->
    index:int ->
    span:int option ->
    omega:bool ->
    A.query ->
    A.output ->
    unit
  (** Feed a completed query with its output. Non-ω queries concern
      only the PC monitor; ω reads feed all three. *)

  val on_probe : t -> time:float -> distinct:int -> unit
  (** Feed a convergence-probe sample (EC divergence summary only —
      divergence is not by itself a violation). *)

  val violations : t -> violation list
  (** Chronological; at most one per criterion (monitors stop at their
      first violation). *)

  val first_violation : t -> violation option

  val clean : t -> bool

  val events_seen : t -> int

  val divergence : t -> (float * int) option * int
  (** [(last probe sample, peak distinct)] from {!on_probe}. *)
end
