(** Algorithm blitzsplit: exhaustive bushy join-order optimization with
    Cartesian products (Vance & Maier, SIGMOD 1996, Sections 3-5).

    Dynamic programming over every nonempty subset of the relation set,
    visiting subsets in increasing bitset-integer order (which guarantees
    all proper subsets of a set precede it, Section 4.2) or, on a domain
    pool, rank by rank (the same guarantee, the same values).  For each
    subset the best 2-way split is found by stepping through all nonempty
    proper subsets with the constant-time successor
    [succ(l) = s land (l - s)].

    Join predicates enter only through the cardinality computation
    ({!predicates}): the fan recurrence of Section 5.3 folds every
    predicate selectivity into [card] with three floating multiplications
    per subset, so the split loop — the [O(3^n)] heart — is byte-for-byte
    the same for Cartesian products, joins, equivalence classes and
    hyperedges.  Plans containing Cartesian products are found exactly
    when they are optimal.

    Time [O(3^n)]; space [O(2^n)] (the table).  An optional plan-cost
    threshold (Section 6.4) prunes: any subset whose best plan would cost
    at least the threshold is marked infeasible, which can make the whole
    optimization fail — see {!Threshold} for the multi-pass driver. *)

module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

(** What the cardinality recurrence ([compute_properties]) folds in —
    the only part of the DP that differs between the paper's Section 3
    and its Section 5 extensions. *)
type predicates =
  | Product  (** Section 3: plain cardinality products; no fan column. *)
  | Join of Join_graph.t  (** Section 5.3's fan recurrence. *)
  | Classes of Blitz_graph.Equivalence.t
      (** Implied predicates as column-equivalence classes (see
          {!Blitzsplit_eq}). *)
  | Hyper of Blitz_graph.Hypergraph.t
      (** Predicates over more than two relations (see
          {!Blitzsplit_hyper}). *)

type t = {
  table : Dp_table.t;
  counters : Counters.t;
  multiway : Multiway.t option;
      (** The n-ary side table when multiway planning was on ([None]
          otherwise); plan extraction consults it for sentinel entries. *)
}
(** The outcome of one optimization pass. *)

exception Interrupted
(** Raised out of an optimization when the [interrupt] probe fires.  The
    partially filled table is discarded; catch this to fall back to a
    cheaper algorithm (see the [blitz_guard] degradation cascade). *)

val default_crossover_n : int
(** Below this relation count (14) every pass walks in increasing order
    even when a pool or domain budget is supplied: on a single core, rank
    barriers and chunk scheduling erase the win there, and the results
    are bit-identical either way.  Override with
    [min_parallel_n] to force the rank order (benchmarks, tests). *)

val optimize :
  ?pool:Pool.t ->
  ?num_domains:int ->
  ?min_parallel_n:int ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?threshold:float ->
  ?interrupt:(unit -> bool) ->
  ?multiway:bool ->
  Cost_model.t ->
  Catalog.t ->
  predicates ->
  t
(** Optimize the join of all catalog relations under the predicates.

    {b Walk order.}  By default subsets are visited in increasing
    bitset-integer order on the calling domain.  With [?pool], or with
    [num_domains > 1] (default 1; a pool of that many domains then lives
    for the call), and at least [min_parallel_n] relations (default
    {!default_crossover_n}), they are visited rank by rank instead: every
    subset of cardinality [k] depends only on smaller ones, so each rank
    is split into chunks balanced over the pool's domains, with a
    barrier between ranks.  Costs, cards, [best_lhs], plans and counters
    are bit-identical in both orders and for every domain count.
    Multiway planning always walks in increasing order.

    [arena] makes the DP table come out of a session workspace instead
    of a fresh allocation (bit-identical results — see {!Arena}); the
    returned [table] is a view of the arena's buffer, valid until the
    arena's next acquire.  [counters] accumulates across calls when
    supplied (fresh otherwise); [threshold] defaults to [infinity] and
    prunes as in Section 6.4.  [interrupt] makes the [O(3^n)] DP
    cancellable: it is polled every 64 processed subsets (per domain, and
    at every rank barrier) and a [true] return raises {!Interrupted}; in
    the rank order it is called from any domain.  [~multiway:true] (only
    meaningful for [Join]) additionally tries an n-ary AGM-costed
    candidate on every 2-edge-connected subset (see {!Multiway});
    acyclic queries are structurally unaffected and their tables stay
    bit-identical.  Raises [Invalid_argument] when the threshold is not
    positive (NaN included), when the predicates' size differs from the
    catalog's or exceeds a variant's cap, or when the catalog exceeds
    {!Dp_table.max_relations} relations. *)

val optimize_join :
  ?pool:Pool.t ->
  ?num_domains:int ->
  ?min_parallel_n:int ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?threshold:float ->
  ?interrupt:(unit -> bool) ->
  ?multiway:bool ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  t
(** [optimize] with [Join graph]. *)

val optimize_product :
  ?pool:Pool.t ->
  ?num_domains:int ->
  ?min_parallel_n:int ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?threshold:float ->
  ?interrupt:(unit -> bool) ->
  Cost_model.t ->
  Catalog.t ->
  t
(** [optimize] with [Product]: Section 3's pure Cartesian-product
    optimization, without the fan computation. *)

val with_passes :
  ?pool:Pool.t ->
  ?num_domains:int ->
  ?min_parallel_n:int ->
  ?arena:Arena.t ->
  ?counters:Counters.t ->
  ?interrupt:(unit -> bool) ->
  ?multiway:bool ->
  Cost_model.t ->
  Catalog.t ->
  predicates ->
  ((threshold:float -> t) -> 'a) ->
  'a
(** [with_passes ... f] checks the predicates and decides the walk order
    once, then hands [f] a pass function: each call runs one full
    optimization at the given threshold, exactly as {!optimize} would,
    into the same counters and on the same pool (one spawned here, when
    the rank order needs one, lives until [f] returns).  The multi-pass
    driver of {!Threshold} is built on it. *)

(** {1 Inspecting results} *)

val feasible : t -> bool
(** False only when a finite threshold pruned away every complete plan. *)

val best_cost : t -> float
(** Cost of the optimal plan, or [infinity] when infeasible. *)

val best_plan : t -> Plan.t option
(** The optimal plan, extracted from the table. *)

val best_plan_exn : t -> Plan.t
(** Like {!best_plan}; raises [Failure] when infeasible. *)

val subplan : t -> Relset.t -> Plan.t option
(** Optimal plan for any subset of the relations (the table holds them
    all). *)

(** {1 Internals exposed for tests} *)

val gosper_next : int -> int
(** Next larger integer with the same popcount (Gosper's hack). *)

val unrank_subset : int array array -> k:int -> int -> int
(** [unrank_subset binom ~k m] is the [m]-th (0-based) [k]-subset in
    increasing bitset-integer (colex) order, via combinadic unranking
    against a {!binomial_table}. *)

val binomial_table : int -> int array array
(** [binomial_table n].(c).(j) = C(c, j) for [0 <= c, j <= n]. *)
