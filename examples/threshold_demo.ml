(* Plan-cost thresholds and re-optimization (Section 6.4).

   Run with:  dune exec examples/threshold_demo.exe

   A threshold simulates cost overflow far below real float overflow:
   any subset whose plans all cost at least the threshold is abandoned,
   which can skip most of the split-loop work.  If the threshold was too
   ambitious, optimization fails and reruns with a larger one — cheap
   queries optimize faster, expensive queries pay an extra pass. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Blitzsplit = Blitz_core.Blitzsplit
module Threshold = Blitz_core.Threshold
module Counters = Blitz_core.Counters

let () =
  let n = 14 in
  let spec =
    Workload.spec ~n ~topology:Topology.Chain ~model:Cost_model.naive ~mean_card:10_000.0
      ~variability:0.0
  in
  let catalog, graph = Workload.problem spec in

  (* Unthresholded baseline. *)
  let base_counters = Counters.create () in
  let base = Blitzsplit.optimize_join ~counters:base_counters Cost_model.naive catalog graph in
  Printf.printf "no threshold:    cost %.6g, split-loop iterations %d\n" (Blitzsplit.best_cost base)
    base_counters.Counters.loop_iters;

  (* A comfortable threshold: one pass, far less work. *)
  let t1_counters = Counters.create () in
  let t1 =
    Threshold.optimize ~counters:t1_counters ~threshold:1e9 Cost_model.naive catalog
      (Blitzsplit.Join graph)
  in
  Printf.printf "threshold 1e9:   cost %.6g, split-loop iterations %d, passes %d (%.1fx less work)\n"
    (Blitzsplit.best_cost t1.Threshold.result)
    t1_counters.Counters.loop_iters t1.Threshold.passes
    (float_of_int base_counters.Counters.loop_iters /. float_of_int (max 1 t1_counters.Counters.loop_iters));

  (* An over-ambitious threshold: fails, retries, still exact. *)
  let t2_counters = Counters.create () in
  let t2 =
    Threshold.optimize ~counters:t2_counters ~growth:100.0 ~threshold:10.0 Cost_model.naive
      catalog (Blitzsplit.Join graph)
  in
  Printf.printf "threshold 10:    cost %.6g, passes %d, final threshold %g\n"
    (Blitzsplit.best_cost t2.Threshold.result)
    t2.Threshold.passes t2.Threshold.final_threshold;

  assert (Blitzsplit.best_cost base = Blitzsplit.best_cost t1.Threshold.result);
  assert (Blitzsplit.best_cost base = Blitzsplit.best_cost t2.Threshold.result);
  print_endline "all three agree on the optimal cost (threshold search is exact)"
