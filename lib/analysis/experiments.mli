(** Experiment drivers: one entry per artefact in DESIGN.md's
    per-experiment index. Each returns a rendered table (plus expected
    verdicts asserted inline where the paper states them), so the bench
    harness and the CLI print exactly the rows EXPERIMENTS.md records.
    The drivers exported here have callers of their own; the rest are
    reached through {!all} alone.

    All experiments are deterministic in [seed]. *)

val fig1 : unit -> Table.t
(** F1 — the Figure 1 classification matrix: histories (a)–(d) against
    {EC, SEC, PC, UC, SUC, SC}, checker verdict vs paper caption. *)

val fig2 : unit -> string
(** F2 — Figure 2: the history, the per-process PC witnesses (the
    paper's w1/w2 words), and the EC verdict. *)

val prop1 : seed:int -> Table.t
(** P1 — Proposition 1: Figure 2's program under the pipelined replica
    diverges forever (PC ∧ ¬EC) while Algorithm 1 converges. *)

val prop4_modelcheck : unit -> Table.t
(** P4 — exhaustive model check of Algorithm 1 / Algorithm 2 / CRDT
    fast path on conflict scripts: executions explored, UC/EC/SUC
    violations (expected 0), plus the pipelined counterexample count. *)

val latency_vs_rtt : seed:int -> Table.t
(** C4 — mean operation latency as network delay grows: wait-free
    constructions stay flat, the ABD linearizable register scales with
    the round trip. *)

val all : ?markdown:bool -> seed:int -> unit -> (string * string * string) list
(** [(experiment id, title, rendered table)] for every experiment, in
    DESIGN.md order — the generator behind EXPERIMENTS.md and
    [bench_output.txt]. [markdown] renders GitHub tables instead of
    ASCII boxes. *)
