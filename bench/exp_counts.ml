(* Experiment "counts": Section 6.2's execution-count analysis.

   The kappa'' evaluation count must lie between (ln 2 / 2) n 2^n (costs
   widely spaced; nested ifs reject early) and 3^n (costs closely
   spaced).  At mean cardinality 1 every plan costs roughly the same and
   the count approaches 3^n; at large cardinalities it approaches the
   lower bound.  Cliques sit higher than chains (Section 6.3).

   The paper's analysis is of its full loop over ordered splits, so the
   paper column comes from a [Split_loop.Reference] pass.  The served
   kernels of the three paper models visit each unordered split once
   (half the loop); their counts, from the same problem through the
   registry, are the second column.  Both passes must agree on the
   improvements, which the run checks. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Counters = Blitz_core.Counters
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop

(* The paper's full loop: one Reference pass, same subset order as the
   sequential driver. *)
let reference_counts model catalog graph =
  let n = Blitz_catalog.Catalog.n catalog in
  let tbl = Dp_table.create ~with_pi_fan:true n in
  let ctr = Counters.create () in
  Split_loop.init_singletons tbl model catalog;
  for s = 3 to (1 lsl n) - 1 do
    if s land (s - 1) <> 0 then begin
      Split_loop.compute_properties_join tbl model graph s;
      Split_loop.Reference.find_best_split tbl model ctr ~threshold:Float.infinity s
    end
  done;
  ctr

(* For kappa_0 (kappa'' = 0) the operand-sum count plays the same
   diagnostic role. *)
let evals (model : Cost_model.t) (c : Counters.t) =
  if model.Cost_model.dprime_is_zero then c.Counters.operand_sums else c.Counters.dprime_evals

let run () =
  let n = Bench_config.n in
  Bench_config.header (Printf.sprintf "Section 6.2: kappa'' execution counts at n = %d" n);
  let lower = Counters.predicted_dprime_lower n in
  let upper = Counters.predicted_dprime_upper n in
  Printf.printf "predicted range: lower (ln2/2)n2^n = %.0f, upper 3^n = %.0f\n" lower upper;
  let header =
    [|
      "model";
      "topology";
      "mean card";
      "kappa'' evals (paper loop)";
      "position in range";
      "kappa'' evals (half loop)";
      "improvements";
    |]
  in
  let rows = ref [] in
  List.iter
    (fun model ->
      List.iter
        (fun topology ->
          List.iter
            (fun mu ->
              let spec =
                Workload.spec ~n ~topology ~model ~mean_card:mu ~variability:0.0
              in
              let catalog, graph = Workload.problem spec in
              let paper = reference_counts model catalog graph in
              let half = Counters.create () in
              ignore (Bench_opt.run ~counters:half model catalog (Some graph));
              if paper.Counters.improvements <> half.Counters.improvements then
                failwith
                  (Printf.sprintf "counts: %s: improvements diverged: %d (paper loop) vs %d"
                     (Workload.describe spec) paper.Counters.improvements
                     half.Counters.improvements);
              let position = (float_of_int (evals model paper) -. lower) /. (upper -. lower) in
              rows :=
                [|
                  model.Cost_model.name;
                  Topology.name topology;
                  Printf.sprintf "%.4g" mu;
                  string_of_int (evals model paper);
                  Printf.sprintf "%.3f" position;
                  string_of_int (evals model half);
                  string_of_int half.Counters.improvements;
                |]
                :: !rows)
            [ 1.0; 100.0; 10000.0 ])
        [ Topology.Chain; Topology.Clique ])
    Cost_model.all_paper;
  Blitz_util.Ascii_table.print ~header (Array.of_list (List.rev !rows));
  Printf.printf
    "\nposition (of the paper loop's count) 0 = lower bound, 1 = 3^n upper bound; expect high\n\
     at mu=1, low at mu=10^4, clique above chain at equal mu (Section 6.3).  The half loop\n\
     visits each unordered split once and finds the same improvements.\n"
