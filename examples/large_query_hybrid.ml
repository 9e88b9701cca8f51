(* Beyond the exponential wall: the hybrid optimizer at n = 30.

   Run with:  dune exec examples/large_query_hybrid.exe

   Exhaustive search is bounded by its 2^n table (Section 7: "like any
   optimizer that performs exhaustive search, ours is limited in the
   number of relations it can handle").  The paper's announced answer is
   a hybrid of dynamic programming and randomized search; this example
   runs our implementation of that idea on a 30-relation chain query,
   where a full DP table would need 2^30 entries, and compares it with
   the greedy heuristic and iterative improvement. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Relset = Blitz_bitset.Relset
module B = Blitz_baselines
module Hybrid = Blitz_hybrid.Hybrid
module Rng = Blitz_util.Rng

let () =
  let n = 30 in
  let spec =
    Workload.spec ~n ~topology:Topology.Chain ~model:Cost_model.kdnl ~mean_card:1000.0
      ~variability:0.5
  in
  let catalog, graph = Workload.problem spec in
  let model = Cost_model.kdnl in
  Printf.printf "chain query over %d relations (2^%d DP table would not fit)\n\n" n n;

  let time label f =
    let t0 = Sys.time () in
    let cost = f () in
    Printf.printf "%-28s cost %.6g   (%.2fs)\n" label cost (Sys.time () -. t0);
    cost
  in

  let rng = Rng.create ~seed:7 in
  let random_plan = B.Transform.random_bushy rng (Relset.full n) in
  let _ = time "random bushy plan" (fun () -> Plan.cost model catalog graph random_plan) in

  let _ =
    time "greedy (min card)" (fun () ->
        let plan, _ = B.Greedy.optimize model catalog graph in
        Plan.cost model catalog graph plan)
  in

  let ii_cost =
    time "iterative improvement" (fun () ->
        let rng = Rng.create ~seed:8 in
        let start = B.Transform.random_bushy rng (Relset.full n) in
        let current = ref start and current_cost = ref (Plan.cost model catalog graph start) in
        (* A bounded random descent (the library II uses the 2^n
           evaluator, deliberately capped; this inline loop shows the
           same idea at large n). *)
        for _ = 1 to 4000 do
          let candidate = B.Transform.random_neighbor rng !current in
          let c = Plan.cost model catalog graph candidate in
          if c < !current_cost then begin
            current := candidate;
            current_cost := c
          end
        done;
        !current_cost)
  in

  let hybrid_cost =
    time "hybrid (DP windows)" (fun () ->
        let rng = Rng.create ~seed:9 in
        let (_, cost), stats =
          Hybrid.optimize ~rng ~window:10 ~kicks:20 model catalog graph
        in
        Printf.printf "  windows re-optimized: %d (improved %d, %d from memo), kicks: %d\n"
          stats.Hybrid.windows_reoptimized stats.Hybrid.windows_improved
          stats.Hybrid.windows_memoized stats.Hybrid.kicks;
        cost)
  in
  Printf.printf "\nhybrid improves on plain local search by %.2fx on this query\n"
    (ii_cost /. hybrid_cost)
