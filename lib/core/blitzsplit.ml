module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Equivalence = Blitz_graph.Equivalence
module Hypergraph = Blitz_graph.Hypergraph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Obs = Blitz_obs.Obs

type predicates =
  | Product
  | Join of Join_graph.t
  | Classes of Equivalence.t
  | Hyper of Hypergraph.t

type t = { table : Dp_table.t; counters : Counters.t; multiway : Multiway.t option }

exception Interrupted

let m_ranks =
  Obs.Metrics.counter ~help:"Lattice ranks processed by the rank-parallel optimizer"
    "blitz_parallel_ranks_total"

(* How often the cancellation probe fires: every [probe_mask + 1] subsets
   (per domain in the rank order).  Subsets near the top of the lattice
   carry split loops of up to [2^(n-1)] iterations each, so a 64-subset
   stride keeps the worst-case overshoot past a deadline small while the
   probe itself ([2^n / 64] clock reads) stays invisible next to the
   [O(3^n)] loop. *)
let probe_mask = 63

(* Below this size the rank barriers and chunk scheduling can cost more
   than the split loops they spread out: on a single core, speedups stayed
   under 1x through n = 13, where a sequential pass finishes in about a
   millisecond (on two cores, two domains already win there; see
   EXPERIMENTS.md).  n = 14 keeps the CI parallel smoke (n = 15) on the
   rank order. *)
let default_crossover_n = 14

(* Oversubscription: chunks per rank per domain.  More chunks give the
   dynamic balancer and the stop flag finer granularity; fewer chunks
   mean fewer atomic claims and fewer false-sharing boundaries on the
   table columns.  4 keeps both costs invisible. *)
let chunk_factor = 4

(* Gosper's hack: the next larger integer with the same popcount. *)
let gosper_next s =
  let c = s land (-s) in
  let r = s + c in
  r lor (((s lxor r) lsr 2) / c)

(* binom.(c).(j) = C(c, j); rows 0..n, columns 0..n. *)
let binomial_table n =
  let t = Array.make_matrix (n + 1) (n + 1) 0 in
  for c = 0 to n do
    t.(c).(0) <- 1;
    for j = 1 to c do
      t.(c).(j) <- t.(c - 1).(j - 1) + t.(c - 1).(j)
    done
  done;
  t

(* The m-th (0-based) k-subset in increasing bitset-integer order, which
   for fixed popcount is colexicographic order — exactly the order
   Gosper's hack enumerates.  Standard combinadic unranking: the top
   element is the largest c with C(c, k) <= m, and so on down. *)
let unrank_subset binom ~k m =
  let s = ref 0 in
  let m = ref m in
  for j = k downto 1 do
    let c = ref (j - 1) in
    while binom.(!c + 1).(j) <= !m do
      incr c
    done;
    s := !s lor (1 lsl !c);
    m := !m - binom.(!c).(j)
  done;
  !s

(* compute_properties (Figure 1, Section 5): the one part of the DP that
   differs between the predicate kinds.  Size mismatches and caps are
   checked here, once per call, before any table is touched. *)
let recurrence model catalog predicates =
  let n = Catalog.n catalog in
  match predicates with
  | Product -> fun tbl -> Split_loop.compute_properties_product tbl model
  | Join g ->
    if Join_graph.n g <> n then
      invalid_arg
        (Printf.sprintf "Blitzsplit: graph over %d relations, catalog has %d" (Join_graph.n g) n);
    fun tbl -> Split_loop.compute_properties_join tbl model g
  | Classes e -> Blitzsplit_eq.recurrence model catalog e
  | Hyper h -> Blitzsplit_hyper.recurrence model catalog h

(* Increasing bitset-integer order (Section 4.2): every proper subset of
   [s] precedes it. *)
let sweep_increasing tbl model ctr ~threshold ~interrupt ~compute ~consider =
  let probe =
    match interrupt with
    | None -> fun _ -> ()
    | Some stop -> fun s -> if s land probe_mask = 0 && stop () then raise Interrupted
  in
  for s = 3 to Dp_table.size tbl - 1 do
    if s land (s - 1) <> 0 then begin
      probe s;
      compute s;
      Split_loop.find_best_split tbl model ctr ~threshold s;
      consider s
    end
  done

(* Rank by rank.  Every subset of cardinality k depends only on strictly
   smaller subsets (every recurrence reads its lowest element and the
   rest; the split loop reads proper subsets), so processing ranks in
   order with a full barrier between them computes byte-for-byte the
   values of the increasing order — each entry is a pure function of
   lower-rank entries, and the per-subset split scan itself is
   deterministic.  Within a rank, chunks are contiguous colex ranges:
   writes from different domains land in disjoint, mostly contiguous
   index intervals of the shared columns.  Counters are per-domain
   records allocated inside each domain (first touch) and merged at the
   end, so their totals are exactly the sequential counts.  The probe is
   polled by every domain each 64 subsets it processes and by the
   coordinator at each barrier; a [true] return trips a shared stop flag
   and {!Interrupted} is raised after the barrier. *)
let sweep_ranks pool tbl model ctr ~threshold ~interrupt ~compute =
  let n = tbl.Dp_table.n in
  let workers = Pool.num_domains pool in
  let per_domain = Array.make workers None in
  let domain_counters worker =
    match per_domain.(worker) with
    | Some c -> c
    | None ->
      let c = Counters.create () in
      per_domain.(worker) <- Some c;
      c
  in
  let stop_flag = Atomic.make false in
  let poll, probe =
    match interrupt with None -> (false, fun () -> false) | Some f -> (true, f)
  in
  let binom = binomial_table n in
  let merge_counters () =
    Array.iter
      (function Some c -> Counters.merge_into ~from:c ~into:ctr | None -> ())
      per_domain
  in
  Fun.protect ~finally:merge_counters @@ fun () ->
  for k = 2 to n do
    let count = binom.(n).(k) in
    let chunks = min count (workers * chunk_factor) in
    let base = count / chunks and rem = count mod chunks in
    Obs.Metrics.incr m_ranks;
    Obs.span "parallel.rank" ~attrs:[ ("k", string_of_int k) ] (fun () ->
        Pool.run pool ~chunks (fun ~worker c ->
            if not (Atomic.get stop_flag) then begin
              let start = (c * base) + min c rem in
              let len = base + if c < rem then 1 else 0 in
              let dctr = domain_counters worker in
              let s = ref (unrank_subset binom ~k start) in
              let i = ref 0 in
              let live = ref true in
              while !live && !i < len do
                if poll && !i land probe_mask = probe_mask then
                  if Atomic.get stop_flag then live := false
                  else if probe () then begin
                    Atomic.set stop_flag true;
                    live := false
                  end;
                if !live then begin
                  compute !s;
                  Split_loop.find_best_split tbl model dctr ~threshold !s;
                  s := gosper_next !s;
                  incr i
                end
              done
            end));
    (* Rank barrier: workers are parked, the table holds every rank
       <= k.  The coordinator polls the deadline here too, so even a
       probe-free chunk schedule cannot overshoot by more than one
       rank's chunks. *)
    if poll && (not (Atomic.get stop_flag)) && probe () then Atomic.set stop_flag true;
    if Atomic.get stop_flag then raise Interrupted
  done

(* One timed region feeds both rate instruments: ns per subset (the
   historical unit) and ns per split iteration (the O(3^n) unit that
   `bench split` gates).  In the rank order the rates are aggregate wall
   time over aggregate events, so they improve with parallelism. *)
let timed ctr dp_pass =
  if not (Obs.Metrics.enabled ()) then dp_pass ()
  else begin
    let subs0 = ctr.Counters.subsets and iters0 = ctr.Counters.loop_iters in
    let t0 = Blitz_obs.Perf.now_s () in
    dp_pass ();
    let elapsed_s = Blitz_obs.Perf.now_s () -. t0 in
    Blitz_obs.Perf.observe_rate Blitz_obs.Perf.split_loop_ns_per_subset ~elapsed_s
      ~events:(ctr.Counters.subsets - subs0);
    Blitz_obs.Perf.observe_rate Blitz_obs.Perf.split_loop_ns_per_iter ~elapsed_s
      ~events:(ctr.Counters.loop_iters - iters0)
  end

let with_passes ?pool ?(num_domains = 1) ?(min_parallel_n = default_crossover_n) ?arena
    ?counters ?interrupt ?(multiway = false) model catalog predicates f =
  let n = Catalog.n catalog in
  let compute = recurrence model catalog predicates in
  let with_pi_fan, multiway_graph =
    match predicates with
    | Join g -> (true, if multiway then Some g else None)
    | Product | Classes _ | Hyper _ -> (false, None)
  in
  let ctr = match counters with Some c -> c | None -> Counters.create () in
  let pass pool ~threshold =
    if not (threshold > 0.0) then invalid_arg "Blitzsplit: threshold must be positive";
    ctr.Counters.passes <- ctr.Counters.passes + 1;
    let tbl =
      (* In the rank order the coordinator acquires before workers run
         and reads after the final barrier: [Pool.run]'s fork/join
         ordering makes the buffer safely visible to every domain. *)
      match arena with
      | Some a -> Arena.acquire a ~with_pi_fan n
      | None -> Dp_table.create ~with_pi_fan n
    in
    Split_loop.init_singletons tbl model catalog;
    let compute = compute tbl in
    let mw = Option.map (Multiway.create catalog) multiway_graph in
    timed ctr (fun () ->
        match (pool, mw) with
        | Some pool, _ -> sweep_ranks pool tbl model ctr ~threshold ~interrupt ~compute
        | None, Some m ->
          sweep_increasing tbl model ctr ~threshold ~interrupt ~compute
            ~consider:(Multiway.consider m tbl ctr ~threshold)
        | None, None ->
          sweep_increasing tbl model ctr ~threshold ~interrupt ~compute ~consider:ignore);
    { table = tbl; counters = ctr; multiway = mw }
  in
  (* The walk order is decided once for every pass.  Multiway planning
     and small queries walk in increasing order even when a pool or a
     domain budget is supplied (the results are bit-identical either
     way); otherwise a pool, given or spawned here for all passes,
     walks rank by rank. *)
  if multiway_graph <> None || n < min_parallel_n then f (pass None)
  else
    match pool with
    | Some _ -> f (pass pool)
    | None when num_domains > 1 ->
      Pool.with_pool ~num_domains (fun pool -> f (pass (Some pool)))
    | None -> f (pass None)

let optimize ?pool ?num_domains ?min_parallel_n ?arena ?counters ?(threshold = Float.infinity)
    ?interrupt ?multiway model catalog predicates =
  with_passes ?pool ?num_domains ?min_parallel_n ?arena ?counters ?interrupt ?multiway model
    catalog predicates (fun pass -> pass ~threshold)

let optimize_join ?pool ?num_domains ?min_parallel_n ?arena ?counters ?threshold ?interrupt
    ?multiway model catalog graph =
  optimize ?pool ?num_domains ?min_parallel_n ?arena ?counters ?threshold ?interrupt ?multiway
    model catalog (Join graph)

let optimize_product ?pool ?num_domains ?min_parallel_n ?arena ?counters ?threshold ?interrupt
    model catalog =
  optimize ?pool ?num_domains ?min_parallel_n ?arena ?counters ?threshold ?interrupt model
    catalog Product

let full_set t = Dp_table.full_set t.table

let best_cost t = Dp_table.cost t.table (full_set t)

let feasible t = Float.is_finite (best_cost t)

let best_plan t = Multiway.extract_plan ?multiway:t.multiway t.table (full_set t)

let best_plan_exn t =
  match best_plan t with
  | Some plan -> plan
  | None -> failwith "Blitzsplit.best_plan_exn: no plan under the given threshold"

let subplan t s = Multiway.extract_plan ?multiway:t.multiway t.table s
