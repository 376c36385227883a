(** Workload generators: the operation scripts the experiments feed to
    {!Runner}.

    The generic generators draw from an ADT's own [random_update]/
    [random_query]; the set/memory/text specialisations shape the {e
    conflict structure} — element skew, delete ratio, register count —
    because conflicts between concurrent non-commuting updates are where
    consistency criteria actually differ. *)

type ('u, 'q) t = ('u, 'q) Protocol.invocation list array
(** One script per process. *)

module Make (A : Uqadt.S) : sig
  val mixed :
    rng:Prng.t -> n:int -> ops_per_process:int -> query_ratio:float -> (A.update, A.query) t
  (** Independent uniform mixture of updates and queries. *)

  val updates_only : rng:Prng.t -> n:int -> ops_per_process:int -> (A.update, A.query) t

  val query_heavy :
    rng:Prng.t -> n:int -> updates:int -> queries_per_process:int -> (A.update, A.query) t
  (** A few updates up front (process 0), then everyone reads — the
      replay-cost regime of experiment C2. *)
end

(** Set workloads for the Section VI comparison. *)
module For_set : sig
  val conflict :
    rng:Prng.t ->
    n:int ->
    ops_per_process:int ->
    domain:int ->
    skew:float ->
    delete_ratio:float ->
    (Set_spec.update, Set_spec.query) t
  (** Insert/delete over a Zipf-skewed element domain: small [domain] and
      high [skew] maximise concurrent same-element insert/delete races. *)

  val insert_delete_race : n:int -> (Set_spec.update, Set_spec.query) t
  (** The Figure 1b program generalised to [n] processes: process [i]
      inserts [i] then deletes everyone else's elements — every pair of
      processes races. *)

  val fig2_program : unit -> (Set_spec.update, Set_spec.query) t
  (** The two-process program of Figure 2 (drives Proposition 1). *)
end

(** Flash-crowd load shapes for the open-loop client driver (C8). *)
module Flash_crowd : sig
  val plan :
    base:float ->
    peak:float ->
    warm:float ->
    spike:float ->
    cool:float ->
    Clients.phase list
  (** Warm-up at [base] arrivals per time unit for [warm], spike at
      [peak] for [spike], cool-down at [base] for [cool]. *)

  val set_mix :
    domain:int ->
    skew:float ->
    delete_ratio:float ->
    query_ratio:float ->
    Prng.t ->
    (Set_spec.update, Set_spec.query) Protocol.invocation
  (** Per-arrival operation mix over the Zipf-skewed set domain of
      {!For_set.conflict}, plus a query fraction. *)
end

(** Zipf-skewed multi-key streams for the sharded object space (C9).

    Generic over the base ADT through callbacks, because the keyed
    spec lives above this library: [update]/[query] draw base
    operations, [read k q] wraps a keyed read into the space's query
    type. Keys are Zipf ranks shifted to [0, keys) — key 0 is the
    hottest, so skew concentrates load on one shard (the rebalancing
    regime). *)
module For_space : sig
  val zipf_scripts :
    rng:Prng.t ->
    n:int ->
    ops_per_process:int ->
    keys:int ->
    skew:float ->
    fanout:int ->
    query_ratio:float ->
    update:(Prng.t -> 'u) ->
    query:(Prng.t -> 'q) ->
    read:(int -> 'q -> 'rq) ->
    ((int * 'u) list, 'rq) t
  (** Closed-loop scripts of multi-key update batches (width uniform in
      [1..fanout]) and keyed reads. *)
end

module For_memory : sig
  val random_writes :
    rng:Prng.t ->
    n:int ->
    ops_per_process:int ->
    registers:int ->
    read_ratio:float ->
    (Memory_spec.update, Memory_spec.query) t
end

module For_text : sig
  val collaborative :
    rng:Prng.t -> n:int -> edits_per_process:int -> (Text_spec.update, Text_spec.query) t
  (** Concurrent front/middle/back insertions and deletions — a crude
      collaborative-editing session. *)
end

module For_counter : sig
  val deposits_and_withdrawals :
    rng:Prng.t ->
    n:int ->
    ops_per_process:int ->
    max_amount:int ->
    (Counter_spec.update, Counter_spec.query) t
  (** The bank-account ledger scenario (all amounts commute). *)

  val increments_only :
    rng:Prng.t ->
    n:int ->
    ops_per_process:int ->
    max_amount:int ->
    (Counter_spec.update, Counter_spec.query) t
  (** Non-negative increments only — also valid for the G-counter. *)
end
