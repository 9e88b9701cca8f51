(** A session-scoped optimizer front end.

    The paper's pitch is that blitzsplit's constants are tiny — but a
    fresh [O(2^n)] table allocation per query (plus counters, plus
    domain spawns) taxes exactly the small, fast queries the constants
    win on.  A session owns an {!Blitz_core.Arena} (high-water-mark
    DP-table buffer + reusable counters) and, for multi-domain
    sessions, one lazily spawned {!Blitz_core.Pool}, and runs any
    registered optimizer through them.  Results are bit-identical to
    fresh-allocation runs for every optimizer and domain count (tested
    property).

    A session may also carry a {!Blitz_cache.Plan_cache}.  This module
    is the one cache policy path: it alone spells keys
    ([<optimizer>[@tag][+mw]]), refuses n-ary hits to multiway=false
    callers and stores optima, for {!optimize} and for the Guard
    ({!cache_lookup}/{!cache_record}).  Exact optimizers consult the
    cache before running (a hit skips the DP, its plan rebased to the
    caller's numbering) and store completed optima.  Explicit
    thresholds and inexact optimizers bypass the cache.  A cache may be
    shared across sessions (it is domain-safe); omitting it at
    {!create} opts out.  One preallocated fingerprint workspace per
    session keeps the hit path allocation-free.

    When [Blitz_obs.Metrics] is enabled, sessions publish per-query
    latency and plan-cost histograms ([blitz_engine_optimize_seconds],
    [blitz_engine_plan_cost]), a query counter, gauges tracking the
    arena's resident bytes / acquires / grows, and a
    [blitz_cache_lookup_seconds] histogram over fingerprint+lookup;
    disabled, the instrumentation is a single atomic branch per query.

    Sessions are single-threaded: one optimize call at a time. *)

module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Pool = Blitz_core.Pool
module Plan_cache = Blitz_cache.Plan_cache

type t

val create :
  ?model:Cost_model.t -> ?num_domains:int -> ?seed:int -> ?cache:Plan_cache.t -> unit -> t
(** [model] defaults to [kdnl], [num_domains] to 1 (sequential), [seed]
    to 1.  Nothing is allocated up front: the first query sizes the
    arena, and the domain pool spawns on the first parallel run.
    [cache] plugs a (possibly shared) plan cache into the session; no
    cache means no lookups and no stores.  Raises [Invalid_argument]
    when [num_domains] is outside [1, 128]. *)

val close : t -> unit
(** Shut the pool down (if spawned) and drop the arena's buffers.
    Subsequent {!optimize} calls raise [Invalid_argument]. *)

val with_session :
  ?model:Cost_model.t -> ?num_domains:int -> ?seed:int -> ?cache:Plan_cache.t -> (t -> 'a) -> 'a
(** Bracketed {!create}/{!close}.  A supplied [cache] is left intact at
    close (it may be shared with other sessions). *)

val optimize :
  ?optimizer:string ->
  ?interrupt:(unit -> bool) ->
  ?threshold:float ->
  ?multiway:bool ->
  ?cache_tag:string ->
  t ->
  Registry.problem ->
  Registry.outcome
(** Run one query through the session.  [optimizer] names a registry
    entry (default ["exact"]); [threshold] seeds the thresholded
    driver.  [multiway] requests hybrid binary+n-ary planning from
    entries whose caps advertise it; in the plan cache such runs live
    under the decorated key [<optimizer>"+mw"], so the two plan spaces
    never serve each other's optima (and a hit carrying a
    [Plan.Multiway] node is additionally refused for multiway=false
    callers).  [cache_tag] partitions the plan cache the same way:
    keys become [<optimizer>"@"<tag>] (then ["+mw"]), so one tenant's
    plans are never replayed to another ([Blitz_serve] passes the
    tenant id).  The
    session's counters are reset first, so the outcome's counters are
    per-query; the outcome's [table] aliases the arena buffer and is
    only valid until the next call.  May raise
    [Blitzsplit.Interrupted] (via [interrupt]) and whatever the entry
    itself raises on caps violations. *)

val optimize_many :
  ?optimizer:string ->
  ?interrupt:(unit -> bool) ->
  ?multiway:bool ->
  ?cache_tag:string ->
  t ->
  Registry.problem Seq.t ->
  Registry.outcome list
(** Stream a batch of problems through the session under one interrupt
    — the serving shape for repeated-query traffic: one table buffer,
    one counter block, one pool for the whole batch.  Outcomes are
    detached (no live table views; counters copied) and returned in
    input order.  When [interrupt] fires mid-batch the completed prefix
    is returned rather than an exception — callers that need to know
    can compare lengths. *)

(** {1 Session internals (for drivers building their own ctx)} *)

val model : t -> Cost_model.t
val num_domains : t -> int
val arena : t -> Arena.t

val pool : t -> Pool.t option
(** Spawns the pool on first call for multi-domain sessions; [None]
    for single-domain ones. *)

val counters : t -> Counters.t
(** The arena's counter block (reset at each {!optimize}). *)

val cache : t -> Plan_cache.t option

val cache_lookup :
  ?model:Cost_model.t ->
  ?multiway:bool ->
  ?cache_tag:string ->
  t ->
  optimizers:string list ->
  Registry.problem ->
  (string * Plan_cache.hit) option
(** Consult the session's cache without running anything: fingerprint
    the problem once, then try each optimizer's key in order and return
    the first hit with its optimizer name.  Keys and the n-ary refusal
    are exactly {!optimize}'s for the same [multiway] and [cache_tag].
    [None] without a cache or on a miss.  [model] defaults to the
    session model; pass it when dispatching under a different one. *)

val cache_record :
  ?model:Cost_model.t ->
  ?multiway:bool ->
  ?cache_tag:string ->
  t ->
  optimizer:string ->
  Registry.problem ->
  Registry.outcome ->
  unit
(** Store a completed outcome under {!optimize}'s key for [optimizer],
    re-fingerprinting the problem.  No-op without a cache, on plan-less
    outcomes and on non-finite costs.  Callers must only store true
    optima for the named optimizer. *)

val ctx :
  ?interrupt:(unit -> bool) ->
  ?threshold:float ->
  ?growth:float ->
  ?max_passes:int ->
  ?counters:Counters.t ->
  ?multiway:bool ->
  t ->
  Registry.ctx
(** The registry ctx {!optimize} uses, exposed so callers that dispatch
    registry entries themselves (the CLI's explicit-threshold path, the
    throughput and observability benches) run them on the session's
    arena and pool.  Such runs bypass the plan cache. *)
