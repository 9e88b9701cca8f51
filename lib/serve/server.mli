(** The concurrent optimizer server: OCaml 5 domains around a small
    [Unix.select] event loop, stdlib only.

    One domain owns the event loop — accepting connections, framing
    newline-delimited requests ({!Protocol.frame}), decoding them
    ({!Protocol}), admitting them through the tenant's {!Quota} bucket,
    and writing responses.  [workers] further domains each own one
    {!Blitz_engine.Engine} session (all sharing the server's plan
    cache) and drain a bounded work queue, running queries through
    {!Blitz_guard.Guard} under a per-request [Budget] built from the
    tenant's limits, with the tenant name as [cache_tag] so the shared
    cache stays partitioned per tenant.

    {b Cache hits are answered on the loop domain.}  The loop owns a
    cache-only [Engine] session on the same cache.  For an admitted
    optimize/explain request it runs the Guard's cache stage
    ({!Blitz_guard.Guard.lookup}) itself when the server has a cache,
    the query has at most [Dp_table.max_relations] relations (the most
    a cacheable tier plans, so nothing larger can hit) and the
    connection has no request in flight.  A hit is rendered and written
    at once — no queue, no worker wake, no wake-pipe write — and counted
    in [blitz_serve_loop_hits_total]; a miss is queued already
    prepared, so the worker goes straight to the solve stage.  Either
    way each request makes exactly one cache lookup.  Inline hits never
    pass through [max_queue] and are never shed ([shed: false]).

    {b Overload sheds through the cascade, not the floor.}  When a
    worker dequeues a job and finds [shed_queue] or more requests still
    waiting behind it, the request's deadline is clamped to
    [shed_deadline_ms]: the Degrade cascade then lands on its cheap
    deadline-exempt tiers (greedy, estimate-free) in microseconds, the
    queue drains, and {e every} response still carries a plan plus full
    provenance — [shed: true] and the winning tier — rather than an
    error or a dropped connection.  Only the hard [max_queue] bound
    (memory protection, default 4096) answers [overloaded] without
    optimizing.

    {b Bounded connections.}  At most {!max_connections} connections
    are kept; one more is accepted, sent a typed [overloaded] line and
    closed.  A connection whose unwritten replies exceed
    [Protocol.max_line_bytes] is not read again until they drain, so a
    client that pipelines requests and never reads its replies stalls
    itself, not the server.

    The same listening socket answers Prometheus scrapes: a connection
    whose first bytes are [GET ] is treated as HTTP/1.0, and
    [GET /metrics] returns [Blitz_obs.Metrics.to_prometheus] —
    request counters, latency histograms, queue depth, shed, quota and
    loop-hit counters — then closes.

    Responses to health, stats, quota and decode errors are written as
    soon as the line is read, so they can overtake in-flight optimize
    responses on the same connection; the [id] field is the
    correlator.  A cache hit is answered inline only when nothing is in
    flight on its connection, so it never overtakes; a single-worker
    server answers optimize requests in arrival order. *)

module Cost_model = Blitz_cost.Cost_model
module Plan_cache = Blitz_cache.Plan_cache

type config = {
  host : string;  (** Bind address, default ["127.0.0.1"]. *)
  port : int;  (** 0 picks an ephemeral port (see {!port}). *)
  workers : int;  (** Optimizer domains, default 1. *)
  tenants : Tenant.t list;
      (** The default tenant is appended when no entry names it. *)
  model : Cost_model.t;
  cache : Plan_cache.t option;  (** Shared across all worker sessions. *)
  default_table_bytes : int;
      (** DP-table ceiling for tenants without [table-mb]
          (default 256 MiB) — an unbounded server is one [n = 40]
          request away from the OOM killer. *)
  max_queue : int;  (** Hard bound on queued work, default 4096. *)
  shed_queue : int;
      (** Queue depth at which shedding starts, default 16. *)
  shed_deadline_ms : float;
      (** Deadline clamp while shedding, default 5 ms. *)
  max_requests : int option;
      (** Exit after this many optimize/explain responses (including
          quota and input errors) — deterministic teardown for tests
          and benchmarks. *)
  seed : int;  (** Forwarded to every Guard call (hybrid tier RNG). *)
}

val config :
  ?host:string ->
  ?port:int ->
  ?workers:int ->
  ?tenants:Tenant.t list ->
  ?model:Cost_model.t ->
  ?cache:Plan_cache.t ->
  ?default_table_bytes:int ->
  ?max_queue:int ->
  ?shed_queue:int ->
  ?shed_deadline_ms:float ->
  ?max_requests:int ->
  ?seed:int ->
  unit ->
  config
(** Defaults as documented on {!config}; [model] defaults to the
    engine default (kdnl), [cache] to a fresh 4 MiB
    {!Plan_cache.create}.  Raises [Invalid_argument] on non-positive
    [workers], [shed_queue], [shed_deadline_ms], or [max_queue]. *)

val max_connections : int
(** Open client connections the server keeps (1000).  Each must fit
    under [Unix.select]'s FD_SETSIZE (1024); a connection beyond the
    cap, or whose descriptor does not fit, is accepted, sent one
    [overloaded] error line and closed. *)

type t

val start : config -> t
(** Bind, listen, spawn the loop and worker domains, return.  The
    socket is accepting when this returns — {!port} is ready to hand to
    a client.  Enables [Blitz_obs.Metrics] and ignores [SIGPIPE]. *)

val port : t -> int
(** The bound port (the ephemeral one when [config.port] was 0). *)

val wait : t -> unit
(** Block until the server exits on its own ([max_requests] reached).
    Joins every domain; idempotent. *)

val stop : t -> unit
(** Ask the loop to exit, then {!wait}.  Queued work is finished and
    flushed first. *)

val run : config -> unit
(** [start] then [wait] — the CLI entry point. *)
