(** The resilient optimizer front door.

    [Guard.optimize] composes the pieces of this library into one entry
    point with a hard contract: {e for any input and any budget it
    returns [Ok] with a valid plan or a typed [Error] — it never raises
    and never exceeds its budget by more than one probe interval.}

    The pipeline is: {!Sanitize} validates (and under a lenient policy
    repairs) the raw statistics; {!Budget} arms the wall-clock deadline
    and checks the DP-table memory ceiling before allocation; {!Degrade}
    walks the tier cascade — exact, thresholded, hybrid, IKKBZ, greedy,
    estimate-free — returning the first plan produced together with
    full provenance.  When the sanitizer had to {e fabricate}
    cardinalities ({!Sanitize.fabricated_stats}) and the caller pinned
    no cascade, the cost-based tiers are bypassed entirely in favour of
    {!Degrade.fabricated_cascade} — structure-only planning is the only
    honest option on made-up numbers.  {!Chaos} exists to attack this
    contract in tests.

    Every request runs in two stages, which {!optimize} and
    {!optimize_input} compose and a server may run on different
    domains: the {e cache stage} ({!lookup}, {!lookup_input}) sanitizes
    and consults the session's plan cache once, returning a {!Hit} or a
    prepared {!Miss}; the {e solve stage} ({!solve}) walks the
    {!Degrade} cascade on a miss and stores a cacheable winner.  The
    cache stage is the only place a cache lookup happens. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan

type outcome = {
  plan : Plan.t;
  cost : float;  (** [provenance.winner_cost], under the session cost model. *)
  provenance : Degrade.provenance;
  repairs : Sanitize.issue list;
      (** Defects the sanitizer repaired (empty for already-valid input). *)
  catalog : Catalog.t;  (** The sanitized inputs the plan refers to — *)
  graph : Join_graph.t;  (** relevant when repairs dropped edges. *)
  from_cache : bool;
      (** The plan came from the session's plan cache (no tier ran).
          Possible only with a cache-carrying [session] and an input the
          sanitizer accepted verbatim; cache participation is bypassed
          whenever repairs were made, so the chaos/sanitize paths can
          neither populate the cache nor be answered from it. *)
}

type error =
  | Invalid_input of Sanitize.issue list  (** Every irreparable defect, not just the first. *)
  | No_tier_produced of Degrade.attempt list
      (** Possible only with a custom cascade omitting the
          deadline-exempt tiers (greedy, estimate-free). *)
  | Internal of string  (** An escaped exception, demoted to data. *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

type prepared
(** A clean input whose cache lookup ran and missed (or could not run):
    the sanitized catalog, graph and repairs, with the cost model,
    [multiway] flag and [cache_tag] the lookup used, so {!solve} stores
    its winner under the key that was looked up. *)

type stage =
  | Hit of outcome  (** Answered from the plan cache; no tier ran. *)
  | Miss of prepared  (** Ready for {!solve}. *)

val lookup :
  ?session:Blitz_engine.Engine.t ->
  ?multiway:bool ->
  ?cache_tag:string ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (stage, error) result
(** The cache stage on already-constructed inputs: sanitize, then one
    [Engine.cache_lookup] on [session]'s cache for the cacheable tiers
    (exact, thresholded) when the input needed no repair.  Without a
    session, a cache or a clean input it returns [Miss] without looking
    up.  Runs no optimizer, so it costs a fingerprint and a hash probe;
    a session used only for this stage never allocates a DP table. *)

val lookup_input :
  ?session:Blitz_engine.Engine.t ->
  ?policy:Sanitize.policy ->
  ?multiway:bool ->
  ?cache_tag:string ->
  Cost_model.t ->
  relations:(string * float) list ->
  edges:(int * int * float) list ->
  unit ->
  (stage, error) result
(** {!lookup} on raw statistics, sanitized under [policy] (default
    {!Sanitize.lenient}). *)

val solve :
  ?budget:Budget.t ->
  ?session:Blitz_engine.Engine.t ->
  ?cascade:Degrade.tier list ->
  ?seed:int ->
  ?num_domains:int ->
  prepared ->
  (outcome, error) result
(** The solve stage: arm [budget] (default unlimited), walk the cascade
    as {!optimize} does, and record an exact or thresholded winner in
    [session]'s cache when the input needed no repair.  It
    performs no lookup, so a request split across the two stages probes
    the cache exactly once.  [session] may differ from the one the
    lookup ran on; sessions sharing one [Plan_cache] see each other's
    stores. *)

val optimize :
  ?budget:Budget.t ->
  ?session:Blitz_engine.Engine.t ->
  ?cascade:Degrade.tier list ->
  ?seed:int ->
  ?num_domains:int ->
  ?multiway:bool ->
  ?cache_tag:string ->
  Cost_model.t ->
  Catalog.t ->
  Join_graph.t ->
  (outcome, error) result
(** Optimize already-constructed inputs under [budget] (default:
    unlimited): {!lookup}, then {!solve} on a miss.  The budget is
    re-armed once on entry, so one [Budget.t] can be reused across
    calls.  With no deadline and default cascade the
    result matches [Blitzsplit.optimize_join] exactly — including with
    [num_domains > 1], which runs the DP tiers rank-parallel on that
    many domains with bit-identical results (see {!Degrade.run_tier}).
    [session] plugs a [Blitz_engine.Engine] session in: the DP tiers
    draw their table from its arena and its spawned pool, and its
    domain count is the default when [num_domains] is omitted — the
    way to run many guarded queries without per-query allocation.
    [multiway] asks capable tiers for n-ary AGM-costed plans (see
    {!Degrade.optimize}); incapable tiers ignore it, so the cascade
    stays valid end to end.  [cache_tag] partitions the session cache
    per caller (see [Blitz_engine.Engine.optimize]): the serving layer
    passes the tenant id, so a shared cache never replays one tenant's
    plan to another. *)

val optimize_input :
  ?budget:Budget.t ->
  ?session:Blitz_engine.Engine.t ->
  ?policy:Sanitize.policy ->
  ?cascade:Degrade.tier list ->
  ?seed:int ->
  ?num_domains:int ->
  ?multiway:bool ->
  ?cache_tag:string ->
  Cost_model.t ->
  relations:(string * float) list ->
  edges:(int * int * float) list ->
  unit ->
  (outcome, error) result
(** Optimize raw, untrusted statistics: sanitize under [policy]
    (default {!Sanitize.lenient}), then proceed as {!optimize}.  This is
    the entry point the chaos property suite drives. *)
