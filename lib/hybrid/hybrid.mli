(** Hybrid optimization: dynamic programming inside randomized search.

    Section 7 of the paper announces (as future work, inspired by Martin
    & Otto's Chained Local Optimization) "a hybrid [that] combines dynamic
    programming with randomized search" to get past the exponential wall
    of exhaustive search.  This module implements that idea:

    - the current plan is improved by repeatedly choosing a {e window}:
      a subtree is decomposed into at most [window] {e units} (whole
      sub-subtrees; single relations when the subtree is small), each
      unit becomes a pseudo-relation whose cardinality and pairwise
      selectivities follow from Equations (7)/(8), and blitzsplit
      re-arranges the units {e exactly}.  Unit-internal structure is
      untouched, so splicing the optimal arrangement back in can only
      lower total cost — even near the root of a large plan;
    - when no window re-arrangement improves the plan, it is {e kicked}
      — several random transformation moves — and the descent repeats,
      keeping the chain's best plan (the CLO acceptance rule).

    Because each window costs at most [O(3^window)], total work is
    polynomial in [n] for fixed [window], letting the hybrid scale far
    beyond [Dp_table.max_relations] relations. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Rng = Blitz_util.Rng

type stats = {
  windows_reoptimized : int;  (** Exact DP re-optimizations performed. *)
  windows_improved : int;  (** Of those, how many lowered the cost. *)
  windows_memoized : int;
      (** Of those, how many were answered from the window memo without a
          DP; never more than [windows_reoptimized]. *)
  kicks : int;  (** Perturbation phases. *)
  plans_evaluated : int;
}

val optimize :
  rng:Rng.t ->
  ?arena:Blitz_core.Arena.t ->
  ?window:int ->
  ?kicks:int ->
  ?kick_strength:int ->
  ?start:Plan.t ->
  ?interrupt:(unit -> bool) ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (Plan.t * float) * stats
(** [optimize ~rng model catalog graph] runs chained descent.

    {b Window memo.}  After every kick and every improving window the
    descent sweeps all internal nodes again, so most windows present a
    composite problem this call has already solved.  Each call therefore
    memoizes its window DPs in a hash table keyed by the ordered list of
    unit relation sets; the value is the optimal arrangement over
    pseudo-relation indices (or its absence), and the unit subtrees are
    substituted into it on hits and misses alike.  The key fixes the
    composite catalog (cardinalities of the sets), the composite graph
    (span products between them) and the pseudo-relation numbering (list
    order), so a hit returns exactly the plan a fresh blitzsplit run
    would; the random generator is consumed only by kicks, so the search
    trajectory — and with it the returned plan, its cost and every
    counter but [windows_memoized] — is bit-identical to running without
    the memo.  The memo lives for one call only and is emptied whenever
    it reaches 4,096 entries, which bounds its memory at large [n]; an
    emptied memo only costs recomputation.

    [arena] pools the DP tables of the window re-optimizations that miss
    the memo (one small table per window size instead of a fresh
    allocation per window); results are bit-identical either way.
    [window] (default [min 10 n]) bounds exact-reoptimization size;
    [kicks] (default [4 * n]) bounds perturbation phases;
    [kick_strength] (default 3) is the number of random moves per kick;
    [start] defaults to the greedy plan.  [interrupt] is polled between
    window re-optimizations and between kicks; when it returns [true]
    the search stops gracefully and the chain's best plan so far is
    returned (never an exception — an anytime algorithm has a valid
    answer from the first measurement on).  Memo hits are cheap, so more
    windows fit before [interrupt] fires than without the memo: an
    interrupted run may return a different plan than it would without
    the memo (the same trajectory, stopped later).  Unlike blitzsplit
    itself, this works for arbitrarily many relations; cost is evaluated
    with the full reference costing (no [2^n] table) when [n] exceeds
    the DP-table cap. *)
