(** A domain-safe, sharded LRU cache of optimal join plans.

    Entries are keyed by the {!Fingerprint} canonical form of the
    problem (plus the optimizer name, since different registry entries
    make different promises), so structurally identical queries hit
    regardless of how the caller numbered its relations.  Plans are
    stored in canonical index space and rebased to the caller's
    numbering on the way out; a hit is declared only after full
    canonical-form equality, never on hash agreement alone, so a
    collision can cost a miss but never serve a wrong plan.

    Sharding: entries are distributed over [shards] independent
    mutex-protected LRU lists by fingerprint hash, so concurrent
    sessions on different domains contend only when their queries land
    on the same shard.  Each shard owns [max_bytes / shards] of the
    byte budget and evicts from its own LRU tail; {!resident_bytes} is
    what a [Budget] should charge against its table ceiling.

    What [max_bytes] bounds: everything the cache holds, the exact
    entries {e and} the shape tier's side tables (shape seeds and band
    ensembles), both charged to {!stats}[.bytes] and {!resident_bytes}.
    The side tables are keyed by the shape hash, which includes
    selectivity bits, so each distinct query adds records; they may hold
    at most a quarter of each shard's budget, and a store whose records
    might not fit empties them first.  Exact entries are evicted
    LRU-first whenever a shard's total exceeds its share.  Losing side
    records only loses warm-start seeds.

    The shape tier is keyed by the cardinality-free shape hash and has
    two faces.  {!shape_threshold} serves the best known cost for the
    shape as an upper-bound seed for the Section 6.4 thresholded driver
    when the exact lookup misses but a same-shaped problem was solved
    before.  {!shape_seed} serves a {e banded plan ensemble}: per shape,
    up to {!max_bands_per_shape} plans keyed by selectivity band
    ({!Fingerprint.selectivity_band}), because one cached join order
    does not fit all selectivity regimes of a shape.  Both faces are
    heuristic by construction — a colliding or badly-scaled seed merely
    forces the driver's usual threshold escalation, which guarantees
    the true optimum regardless.

    Statistics are kept per shard under the shard lock (exact, and
    available even when [Blitz_obs.Metrics] is disabled) and mirrored
    to the process-wide metrics [blitz_cache_hits_total],
    [blitz_cache_misses_total], [blitz_cache_insertions_total],
    [blitz_cache_evictions_total], [blitz_cache_rebases_total],
    [blitz_cache_shape_hits_total] and [blitz_cache_band_hits_total]. *)

module Plan = Blitz_plan.Plan

type t

val create : ?shards:int -> ?max_bytes:int -> unit -> t
(** [shards] (default 8) is rounded up to a power of two; [max_bytes]
    (default 64 MiB) is the whole-cache budget, split evenly across
    shards.  Raises [Invalid_argument] on non-positive values. *)

val shards : t -> int
(** The shard count actually in use (the power of two {!create} rounded
    up to). *)

val max_bytes : t -> int
(** The configured whole-cache byte budget (compare {!resident_bytes}
    for current occupancy). *)

type hit = {
  plan : Plan.t;  (** Rebased to the caller's relation numbering. *)
  cost : float;
  passes : int;
  final_threshold : float;
  rebased : bool;
      (** The stored labeling differed from the caller's — the plan was
          renumbered on the way out. *)
}

val find : t -> Fingerprint.scratch -> optimizer:string -> hit option
(** Look up the problem last {!Fingerprint.compute}d into the scratch.
    A hit refreshes the entry's LRU position. *)

val store :
  t ->
  Fingerprint.scratch ->
  optimizer:string ->
  plan:Plan.t ->
  cost:float ->
  passes:int ->
  final_threshold:float ->
  unit
(** Insert the outcome of a cold optimization ([plan] in the caller's
    numbering; it is canonized for storage).  If an equal entry is
    already resident, its LRU position is refreshed and nothing is
    inserted.  Also folds [cost] into the shape tier and the plan (in
    shape-canonical space) into the shape's banded ensemble.  Callers
    must not store non-finite costs or non-optimal plans. *)

val shape_threshold : t -> Fingerprint.scratch -> float option
(** [Some (best_known_cost * 2.0)] when a same-shaped problem
    has been stored before: a threshold seed for the Section 6.4
    driver.  Counts a shape hit. *)

val max_bands_per_shape : int
(** Ensemble width: distinct selectivity bands retained per shape. *)

val shape_seed : t -> Fingerprint.scratch -> (Plan.t * float) option
(** The ensemble member stored for this problem's shape {e and}
    selectivity band, rebased to the caller's numbering, with the cost
    it had under the {e storing} catalog.  The plan is a structurally
    valid join order over the caller's relation count, but the cost is
    another problem's: consumers must re-cost under their own catalog
    (the engine derives a first-pass threshold from that re-costing —
    a genuine upper bound, so the pass cannot fail for numeric
    reasons; a shape-hash collision at worst forces the driver's
    escalation/rescue machinery).  Counts a band hit. *)

val resident_bytes : t -> int
(** Current estimated footprint of all shards' exact entries and side
    tables — the number a [Budget] memory ceiling should charge; never
    above {!max_bytes} once a store has returned. *)

val entry_count : t -> int
(** Resident exact-entry count across all shards (side-table records
    not included, though their bytes are). *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  rebases : int;  (** Hits served under a different labeling. *)
  shape_hits : int;
  band_hits : int;  (** Banded-ensemble plan seeds served. *)
  entries : int;
  bytes : int;  (** Exact entries plus side tables, as {!resident_bytes}. *)
}

val stats : t -> stats
(** Exact totals across shards (reads take each shard lock briefly). *)

val clear : t -> unit
(** Drop every entry and shape record; statistics keep accumulating. *)
