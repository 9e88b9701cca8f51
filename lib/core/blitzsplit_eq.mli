(** Blitzsplit with equivalence-class cardinalities (implied and
    redundant predicates).

    Section 5 closes with: "Similar techniques can accommodate implied or
    redundant predicates ... but we shall not discuss those topics here."
    This variant supplies that accommodation: predicates are grouped into
    column-equivalence classes ({!Blitz_graph.Equivalence}), and the
    cardinality of a subset charges each class [1/D] per relation beyond
    the first — transitively implied predicates are counted exactly once,
    where the plain pairwise graph would double-count them.

    The fan recurrence does not survive this change (a class can span
    both halves of a split several times), so the per-subset property is
    a class {e presence bitmask} with the recurrence

    {v mask(S) = mask(U) | mask(V)
       span(U, V) = prod over classes in mask(U) & mask(V) of 1/D v}

    — one machine word per entry and a short loop over present classes,
    preserving the paper's structural promise that property computation
    stays out of the split loop ("under no circumstances should changes
    in find_best_split be necessary", Section 5.4): the split loop is
    byte-for-byte the one {!Blitzsplit} uses. *)

module Catalog = Blitz_catalog.Catalog
module Equivalence = Blitz_graph.Equivalence
module Cost_model = Blitz_cost.Cost_model

val max_classes : int
(** Classes are tracked in one bitmask word: at most 62. *)

val recurrence : Cost_model.t -> Catalog.t -> Equivalence.t -> Dp_table.t -> int -> unit
(** The class-mask [compute_properties] behind
    [Blitzsplit.optimize model catalog (Classes e)], which is the entry
    point.  Applied to the first three arguments it checks sizes,
    raising [Invalid_argument] on a size mismatch or more than
    {!max_classes} classes; applied to a pass's table it allocates the
    pass's mask column; applied then to a non-singleton subset it fills
    the subset's [card] and [aux] from its lowest element and the rest
    (both strictly smaller), writing only that subset's slots. *)
