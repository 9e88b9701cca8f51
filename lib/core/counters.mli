(** Execution-count instrumentation for the blitzsplit inner loop.

    Section 3.3 derives the expected counts that dominate running time —
    [3^n] split-loop iterations, between [(ln 2 / 2) n 2^n] and [3^n]
    evaluations of [kappa''] depending on cost spacing (Section 6.2), and
    [2^n] per-subset straight-line executions.  These counters let the
    benchmarks verify those predictions empirically (experiment
    "counts").  The paper's analysis is of its full loop over ordered
    splits, which [Split_loop.Reference] and the closure-calling kernel
    still run; the kernels of symmetric cost models
    ([Split_loop.symmetric]) visit each unordered split once, so their
    loop counts are half the paper's. *)

type t = {
  mutable subsets : int;
      (** Calls to find_best_split: non-singleton subsets processed. *)
  mutable loop_iters : int;
      (** Split-loop iterations in aggregate (the [3^n] term): ordered
          splits visited by the full loop, unordered splits (exactly
          half as many) by the symmetric kernels. *)
  mutable operand_sums : int;
      (** Iterations passing the nested-[if] operand-cost checks (both
          operand costs below best-so-far). *)
  mutable dprime_evals : int;
      (** Evaluations of [kappa''] (always 0 for the naive model, whose
          [kappa''] is identically zero). *)
  mutable improvements : int;
      (** Times a split improved on the best so far (the harmonic-series
          [(ln 2 / 2) n 2^n] term). *)
  mutable threshold_skips : int;
      (** Subsets whose split loop was skipped because [kappa'] already
          met the plan-cost threshold (Section 6.4). *)
  mutable infeasible : int;
      (** Subsets for which no split beat the threshold. *)
  mutable passes : int;
      (** Optimization passes (> 1 only under threshold re-optimization). *)
  mutable ccp_pairs : int;
      (** Csg-cmp pairs folded by the dpccp driver (0 for blitzsplit,
          whose split loop is counted in [loop_iters]).  The headline
          comparison is [ccp_pairs] vs {!exact_loop_iters}: what
          connectivity pruning saves on sparse graphs. *)
  mutable multiway_wins : int;
      (** Subsets whose best plan is an n-ary [Multiway] node: the AGM
          bound over a cyclic core beat every binary split (0 whenever
          multiway planning is off, and structurally 0 on acyclic
          topologies).  Like [ccp_pairs], printed only when nonzero. *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val merge_into : from:t -> into:t -> unit
(** Add every field of [from] into [into].  All fields are plain sums of
    per-subset events, so merging per-domain counters at a barrier gives
    exactly the sequential counts regardless of how subsets were
    scheduled (the rank-parallel driver relies on this). *)

(** {1 Analytic predictions (Section 3.3)} *)

val exact_loop_iters : int -> int
(** Exact aggregate count of ordered splits without thresholds,
    [3^n - 2^(n+1) + 1]: the paper's loop, and [loop_iters] of the full
    loop.  A symmetric kernel visits exactly half of them
    ([exact_loop_iters n / 2], an integer since the count is even). *)

val predicted_dprime_lower : int -> float
(** [(ln 2 / 2) n 2^n], the expected count when cost spacing lets the
    nested-[if]s reject most splits early. *)

val predicted_dprime_upper : int -> float
(** [3^n], the worst case when all splits cost alike. *)

val pp : Format.formatter -> t -> unit
