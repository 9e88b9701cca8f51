(** The per-subset kernels of Algorithm blitzsplit, shared by the
    optimizer variants and by the rank-parallel driver.

    {!Blitzsplit} (plain join graphs), {!Blitzsplit_eq}
    (equivalence-class cardinalities) and [Parallel_blitzsplit] (the
    rank-parallel decomposition in [blitz_parallel]) differ only in how
    subsets are enumerated and in how [compute_properties] fills the
    cardinality column; the split loop — the [O(3^n)] part realized with
    the successor trick and nested-[if] pruning (Sections 4.2, 6.2) —
    is identical and lives here.

    {!find_best_split} dispatches once per subset on
    {!Blitz_cost.Cost_model.kind} to a monomorphized loop body: the
    three paper models run with their [kappa''] arithmetic inlined (no
    closure call, no float boxing — the loop allocates nothing), each
    reading the struct-of-arrays columns of {!Dp_table} directly.
    [Opaque] models fall back to a closure-calling body.

    The bodies of {!symmetric} models walk half the split loop: every
    such model prices [(l, s lxor l)] and [(s lxor l, l)] bit-identically, so
    they stop at the midpoint of the ascending [lhs] walk and visit each
    unordered split once.  The skipped half is exactly the visits of
    {!Reference} that can never pass its strict [<] (the second
    orientation of a pair already met), so every kernel produces
    bit-identical costs, cards, [best_lhs] links and plans to the
    pre-refactor {!Reference} kernel, which is kept for differential
    tests and benchmarks.  Counters: [subsets], [improvements],
    [threshold_skips] and [infeasible] match {!Reference} exactly;
    [loop_iters] is exactly half of {!Reference}'s for symmetric models
    and equal to it for the "general" body; [operand_sums] and
    [dprime_evals] are never above {!Reference}'s.

    All kernels use unchecked array accesses internally: callers must
    pass subset indices in [(0, 2^n)] against a table created for [n]
    relations (the enumeration loops guarantee this by construction). *)

val find_best_split :
  Dp_table.t -> Blitz_cost.Cost_model.t -> Counters.t -> threshold:float -> int -> unit
(** Fill [cost] and [best_lhs] for the (non-singleton) subset, reading
    the already-computed [card], [cost] and [aux] columns of its proper
    subsets.  With a finite [threshold], marks the entry infeasible
    (cost [infinity], best_lhs 0) when no split stays below it.  Writes
    only to this subset's own slots, so concurrent calls on distinct
    subsets of the same rank are race-free (all reads hit lower ranks). *)

val variant : Blitz_cost.Cost_model.t -> string
(** Which monomorphized loop body {!find_best_split} runs for the model:
    ["zero"], ["sum-aux"], ["dnl"] or ["general"].  Diagnostic
    (e.g. the [blitz explain] kernel summary line). *)

val symmetric : Blitz_cost.Cost_model.t -> bool
(** Whether {!find_best_split} visits each unordered split once for the
    model (every body but ["general"]): its aggregate [loop_iters] is
    then [Counters.exact_loop_iters n / 2] without thresholds, instead
    of the full count. *)

(** The pre-refactor split kernel, retained verbatim as the baseline
    for differential tests and for the [bench split] speedup gate.  Same
    contract as the top-level {!find_best_split}. *)
module Reference : sig
  val find_best_split :
    Dp_table.t -> Blitz_cost.Cost_model.t -> Counters.t -> threshold:float -> int -> unit
end

val compute_properties_join :
  Dp_table.t -> Blitz_cost.Cost_model.t -> Blitz_graph.Join_graph.t -> int -> unit
(** Fill [pi_fan], [card] and [aux] for a non-singleton subset via the
    fan recurrence of Section 5.4 (Equation 11).  Requires a table with
    the fan column allocated.  Reads only strictly smaller subsets. *)

val compute_properties_product : Dp_table.t -> Blitz_cost.Cost_model.t -> int -> unit
(** Fill [card] and [aux] for a non-singleton subset as a plain
    cardinality product (Figure 1); [pi_fan] is never touched and may be
    unallocated. *)

val init_singletons : Dp_table.t -> Blitz_cost.Cost_model.t -> Blitz_catalog.Catalog.t -> unit
(** Fill the singleton rows: cardinality from the catalog, cost 0, aux
    memo from the model. *)
