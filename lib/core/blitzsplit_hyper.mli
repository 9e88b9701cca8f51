(** Blitzsplit over join hypergraphs.

    Completes Section 5's second deferred extension: predicates that need
    more than two relations before they can be evaluated.  The per-subset
    property is a bitmask of {e completed} hyperedges with the recurrence

    {v completed(S) = completed(U) | completed(V) | newly(U, V)
       span(U, V)  = prod of selectivities of newly(U, V) v}

    where [newly(U, V)] are the hyperedges contained in the union but in
    neither side — the predicates the join of [U] and [V] must apply
    (Section 5.1's no-more-no-fewer argument, verbatim, with "both
    endpoints" generalized to "all members").  As with the other
    variants, find_best_split is untouched. *)

module Catalog = Blitz_catalog.Catalog
module Hypergraph = Blitz_graph.Hypergraph
module Cost_model = Blitz_cost.Cost_model

val max_hyperedges : int
(** 62 (one bitmask word). *)

val recurrence : Cost_model.t -> Catalog.t -> Hypergraph.t -> Dp_table.t -> int -> unit
(** The completed-hyperedge [compute_properties] behind
    [Blitzsplit.optimize model catalog (Hyper h)], which is the entry
    point.  Raises [Invalid_argument] on a size mismatch or more than
    {!max_hyperedges} hyperedges when applied to its first three
    arguments; otherwise as [Blitzsplit_eq.recurrence]. *)
