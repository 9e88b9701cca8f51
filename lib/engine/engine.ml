module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Blitzsplit = Blitz_core.Blitzsplit
module Pool = Blitz_core.Pool
module Obs = Blitz_obs.Obs
module Plan = Blitz_plan.Plan
module Plan_cache = Blitz_cache.Plan_cache
module Fingerprint = Blitz_cache.Fingerprint

let m_latency =
  Obs.Metrics.histogram ~help:"Engine.optimize wall-clock seconds per query"
    "blitz_engine_optimize_seconds"

let m_plan_cost =
  Obs.Metrics.histogram ~help:"Cost of the chosen plan under the session model"
    "blitz_engine_plan_cost"

let m_queries =
  Obs.Metrics.counter ~help:"Queries optimized through engine sessions"
    "blitz_engine_queries_total"

let g_arena_resident =
  Obs.Metrics.gauge ~help:"Resident DP-table bytes of the most recently used session arena"
    "blitz_arena_resident_bytes"

let g_arena_acquires =
  Obs.Metrics.gauge ~help:"Table acquisitions by the most recently used session arena"
    "blitz_arena_acquires"

let g_arena_grows =
  Obs.Metrics.gauge ~help:"Buffer growths (vs pooled reuses) of the most recently used arena"
    "blitz_arena_grows"

let m_cache_lookup =
  Obs.Metrics.histogram ~help:"Plan-cache fingerprint + lookup wall-clock seconds"
    "blitz_cache_lookup_seconds"

type t = {
  model : Cost_model.t;
  num_domains : int;
  seed : int;
  arena : Arena.t;
  cache : Plan_cache.t option;
  (* One fingerprint workspace per session: [optimize_many] batches
     canonicalize every query through it without allocating. *)
  scratch : Fingerprint.scratch;
  digest : int;  (* Fingerprint.model_digest of the session model *)
  mutable pool : Pool.t option;
  mutable closed : bool;
}

let create ?(model = Blitz_cost.Cost_model.kdnl) ?(num_domains = 1) ?(seed = 1) ?cache () =
  if num_domains < 1 || num_domains > 128 then
    invalid_arg (Printf.sprintf "Engine.create: num_domains %d outside [1, 128]" num_domains);
  {
    model;
    num_domains;
    seed;
    arena = Arena.create ();
    cache;
    scratch = Fingerprint.create_scratch ();
    digest = (match cache with Some _ -> Fingerprint.model_digest model | None -> 0);
    pool = None;
    closed = false;
  }

let model t = t.model
let num_domains t = t.num_domains
let arena t = t.arena
let cache t = t.cache

(* The pool is spawned on first use, not at [create]: single-domain
   sessions (and multi-domain sessions that only ever run table-free
   optimizers) never pay the Domain.spawn cost. *)
let pool t =
  if t.num_domains <= 1 then None
  else
    match t.pool with
    | Some _ as p -> p
    | None ->
      let p = Pool.create ~num_domains:t.num_domains in
      t.pool <- Some p;
      Some p

let close t =
  (match t.pool with Some p -> Pool.shutdown p | None -> ());
  t.pool <- None;
  Arena.clear t.arena;
  t.closed <- true

let with_session ?model ?num_domains ?seed ?cache f =
  let t = create ?model ?num_domains ?seed ?cache () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let ctx ?interrupt ?threshold ?growth ?max_passes ?counters ?multiway t =
  Registry.ctx ~arena:t.arena ?pool:(pool t) ~num_domains:t.num_domains ~seed:t.seed ?interrupt
    ?threshold ?growth ?max_passes ?counters ?multiway t.model

let counters t = Arena.counters t.arena

(* Post-query bookkeeping; [Metrics.enabled] gates the gauge reads so a
   disabled process pays one branch, not four [Arena] calls. *)
let record_outcome t (o : Registry.outcome) =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_queries;
    if Float.is_finite o.Registry.cost then Obs.Metrics.observe m_plan_cost o.Registry.cost;
    Obs.Metrics.set g_arena_resident (float_of_int (Arena.resident_bytes t.arena));
    Obs.Metrics.set g_arena_acquires (float_of_int (Arena.acquires t.arena));
    Obs.Metrics.set g_arena_grows (float_of_int (Arena.grows t.arena))
  end

(* ---- plan-cache policy ----

   The only place a cache key is spelled, a hit filtered or an entry
   stored; [run_entry] and the Guard driver both go through it.  A
   session with a cache consults it for any optimizer whose registry
   entry promises exactness (a cached entry must mean the same thing no
   matter which query stored it), and only when the caller supplied no
   explicit threshold (an explicit threshold makes the outcome
   caller-dependent).  A hit skips the optimizer entirely; a miss runs
   it and stores the completed optimum. *)

let fingerprint t m (p : Registry.problem) =
  let digest = if m == t.model then t.digest else Fingerprint.model_digest m in
  Fingerprint.compute t.scratch ~model_digest:digest p.Registry.catalog p.Registry.graph

(* "<optimizer>[@tag][+mw]".  The tenant tag partitions a shared cache
   so tenants are never served each other's plans; "@" cannot appear in
   a registry name, so tagged and untagged keys cannot collide.  "+mw"
   keeps the two plan spaces apart: a multiway optimum must never be
   replayed to a caller that cannot execute n-ary joins, and a binary
   optimum is not the hybrid space's optimum.  It is added only for
   entries that advertise multiway planning, so e.g. greedy lookups do
   not fragment across two modes they cannot distinguish. *)
let cache_key ?cache_tag ~multiway (entry : Registry.entry) =
  let name = entry.Registry.name in
  let base = match cache_tag with None -> name | Some tag -> name ^ "@" ^ tag in
  if multiway && entry.Registry.caps.Registry.multiway then base ^ "+mw" else base

(* Looks up the problem last fingerprinted into the session scratch.  A
   hit carrying an n-ary plan is refused to a multiway=false caller:
   defense in depth behind the key. *)
let find t c ~multiway key =
  match Plan_cache.find c t.scratch ~optimizer:key with
  | Some h when multiway || not (Plan.has_multiway h.Plan_cache.plan) -> Some h
  | Some _ | None -> None

let store t c key (o : Registry.outcome) =
  match o.Registry.plan with
  | Some plan when Float.is_finite o.Registry.cost ->
      Plan_cache.store c t.scratch ~optimizer:key ~plan ~cost:o.Registry.cost
        ~passes:o.Registry.passes ~final_threshold:o.Registry.final_threshold
  | _ -> ()

let cache_lookup ?model ?(multiway = false) ?cache_tag t ~optimizers p =
  match t.cache with
  | None -> None
  | Some c ->
      let try_key name =
        let key = cache_key ?cache_tag ~multiway (Registry.find_exn name) in
        Option.map (fun h -> (name, h)) (find t c ~multiway key)
      in
      Obs.Metrics.time m_cache_lookup (fun () ->
          fingerprint t (Option.value ~default:t.model model) p;
          List.find_map try_key optimizers)

let cache_record ?model ?(multiway = false) ?cache_tag t ~optimizer p o =
  match t.cache with
  | None -> ()
  | Some c ->
      fingerprint t (Option.value ~default:t.model model) p;
      store t c (cache_key ?cache_tag ~multiway (Registry.find_exn optimizer)) o

let hit_outcome ctr (h : Plan_cache.hit) =
  {
    Registry.plan = Some h.Plan_cache.plan;
    cost = h.Plan_cache.cost;
    passes = h.Plan_cache.passes;
    final_threshold = h.Plan_cache.final_threshold;
    table = None;
    counters = Some ctr;  (* freshly reset: a hit runs zero splits *)
    note =
      Some (if h.Plan_cache.rebased then "plan cache: hit (rebased)" else "plan cache: hit");
  }

(* Run one problem through the entry, going through the cache when the
   session has one and the entry is exact.  The scratch already holds
   this problem's canonical form on the miss path, so the store needs no
   recompute.  [batch_ctx], when given, is a prebuilt ctx to run with,
   letting batches share one ctx across queries. *)
let run_entry t (entry : Registry.entry) ?interrupt ?threshold ?(multiway = false) ?cache_tag
    ?batch_ctx ~ctr problem =
  let mw = multiway && entry.Registry.caps.Registry.multiway in
  let run () =
    let c =
      match batch_ctx with
      | Some c -> c
      | None -> ctx ?interrupt ?threshold ~multiway:mw ~counters:ctr t
    in
    entry.Registry.optimize c problem
  in
  match t.cache with
  | Some c when entry.Registry.caps.Registry.exact && Option.is_none threshold -> (
    let key = cache_key ?cache_tag ~multiway entry in
    let hit =
      Obs.Metrics.time m_cache_lookup (fun () ->
          fingerprint t t.model problem;
          find t c ~multiway:mw key)
    in
    match hit with
    | Some h -> hit_outcome ctr h
    | None ->
        let o = run () in
        store t c key o;
        o)
  | _ -> run ()

let optimize ?(optimizer = "exact") ?interrupt ?threshold ?multiway ?cache_tag t problem =
  if t.closed then invalid_arg "Engine.optimize: session is closed";
  let entry = Registry.find_exn optimizer in
  let ctr = Arena.counters t.arena in
  Counters.reset ctr;
  let o =
    Obs.span "engine.optimize" ~attrs:[ ("optimizer", optimizer) ] (fun () ->
        Obs.Metrics.time m_latency (fun () ->
            run_entry t entry ?interrupt ?threshold ?multiway ?cache_tag ~ctr problem))
  in
  record_outcome t o;
  o

let optimize_many ?(optimizer = "exact") ?interrupt ?multiway ?cache_tag t problems =
  if t.closed then invalid_arg "Engine.optimize_many: session is closed";
  (* One registry lookup for the whole batch — per-query work is a
     counter reset, a fingerprint into the session scratch (cache
     sessions), and the optimizer itself. *)
  let entry = Registry.find_exn optimizer in
  let ctr = Arena.counters t.arena in
  let batch_ctx = ctx ?interrupt ?multiway ~counters:ctr t in
  let completed = ref [] in
  Obs.span "engine.optimize_many" ~attrs:[ ("optimizer", optimizer) ] (fun () ->
      try
        Seq.iter
          (fun p ->
            Counters.reset ctr;
            let o =
              Obs.Metrics.time m_latency (fun () ->
                  run_entry t entry ?interrupt ?multiway ?cache_tag ~batch_ctx ~ctr p)
            in
            record_outcome t o;
            (* The table is a view of the arena's buffer, overwritten by the
               next query; the counters record is reused and reset.  Detach
               both so every element of the batch result stands on its own. *)
            completed :=
              {
                o with
                Registry.table = None;
                counters = Option.map Counters.copy o.Registry.counters;
              }
              :: !completed)
          problems
      with Blitzsplit.Interrupted -> ());
  List.rev !completed
