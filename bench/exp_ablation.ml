(* Experiment "ablation": design-choice ablations called out in
   DESIGN.md.

   (1) Bushy-vs-left-deep kappa'' execution counts (Section 6.2): "in
       the worst case bushy search does far more work; but ordinarily,
       the kappa'' execution count is larger for bushy than for
       left-deep search by only a factor of (ln 2 / 2) n / ln n (about 2
       when n = 15)".  We instrument both DPs identically and report the
       ratio, plus the paper's predicted ranges.

   (2) Nested-if pruning itself: kappa'' evaluations with the pruning
       tiers versus the 3^n a pruning-free loop would pay.

   (3) Enumerator economy: split-loop iterations of blitzsplit (3^n-ish,
       topology-blind) versus dpsize pair inspections (4^n-ish) versus
       DPccp's exact connected-pair count per topology. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Counters = Blitz_core.Counters
module B = Blitz_baselines
module Dpccp = Blitz_dpccp.Dpccp

let run () =
  let n = Bench_config.n in
  Bench_config.header (Printf.sprintf "Ablations at n = %d" n);

  (* (1) + (2): kappa'' counts, bushy vs left-deep. *)
  Printf.printf "\n-- kappa'' execution counts (model kdnl, mu = 100, v = 0) --\n";
  let nf = float_of_int n in
  let bushy_lower = Counters.predicted_dprime_lower n in
  let bushy_upper = Counters.predicted_dprime_upper n in
  let ld_lower = log nf *. (2.0 ** nf) in
  let ld_upper = nf /. 2.0 *. (2.0 ** nf) in
  Printf.printf "predicted: bushy in [%.0f, %.0f]; left-deep in [%.0f, %.0f]; ratio ~ %.2f\n"
    bushy_lower bushy_upper ld_lower ld_upper
    (0.5 *. log 2.0 *. nf /. log nf);
  let rows = ref [] in
  List.iter
    (fun topology ->
      List.iter
        (fun mu ->
          let spec =
            Workload.spec ~n ~topology ~model:Cost_model.kdnl ~mean_card:mu ~variability:0.0
          in
          let catalog, graph = Workload.problem spec in
          let bushy = Counters.create () in
          ignore (Bench_opt.run ~counters:bushy Cost_model.kdnl catalog (Some graph));
          let ld = Counters.create () in
          ignore (B.Leftdeep.optimize ~counters:ld Cost_model.kdnl catalog graph);
          rows :=
            [|
              Topology.name topology;
              Printf.sprintf "%.4g" mu;
              string_of_int bushy.Counters.dprime_evals;
              string_of_int ld.Counters.dprime_evals;
              Printf.sprintf "%.2f"
                (float_of_int bushy.Counters.dprime_evals
                /. float_of_int (max 1 ld.Counters.dprime_evals));
              Printf.sprintf "%.0f" bushy_upper;
            |]
            :: !rows)
        [ 1.0; 100.0; 10000.0 ])
    [ Topology.Chain; Topology.Star; Topology.Clique ];
  Blitz_util.Ascii_table.print
    ~header:[| "topology"; "mean card"; "bushy k''"; "left-deep k''"; "ratio"; "3^n (no pruning)" |]
    (Array.of_list (List.rev !rows));

  (* (3): enumeration economy across strategies. *)
  Printf.printf "\n-- enumerator work per topology (counts, not seconds) --\n";
  let rows = ref [] in
  List.iter
    (fun topology ->
      let spec =
        Workload.spec ~n ~topology ~model:Cost_model.naive ~mean_card:100.0 ~variability:0.0
      in
      let catalog, graph = Workload.problem spec in
      let dpsize = B.Dpsize.optimize Cost_model.naive catalog graph in
      let dpccp = Dpccp.optimize Cost_model.naive catalog graph in
      rows :=
        [|
          Topology.name topology;
          string_of_int (Counters.exact_loop_iters n);
          string_of_int dpsize.B.Dpsize.pairs_considered;
          string_of_int dpccp.Dpccp.ccp_pairs;
        |]
        :: !rows)
    Topology.all_paper;
  Blitz_util.Ascii_table.print
    ~header:
      [| "topology"; "blitzsplit splits (3^n-ish)"; "dpsize pairs (4^n-ish)"; "DPccp ccp pairs" |]
    (Array.of_list (List.rev !rows));
  Printf.printf
    "\nblitzsplit iterates the same 3^n-ish splits on every topology and relies on\n\
     nested-if pruning; DPccp touches only connected pairs but cannot produce plans\n\
     with Cartesian products.\n";

  (* (3b): the polynomial special case (Section 2 / IK84): on tree
     queries under C_out, IKKBZ computes the optimal product-free
     left-deep order in O(n^2 log n); the exponential DPs agree. *)
  Printf.printf "\n-- IKKBZ (polynomial, trees, C_out) vs the exponential DPs --\n";
  let rows = ref [] in
  List.iter
    (fun topology ->
      let spec =
        Workload.spec ~n ~topology ~model:Cost_model.naive ~mean_card:1000.0 ~variability:0.5
      in
      let catalog, graph = Workload.problem spec in
      let kbz, kbz_s = Blitz_util.Timer.time (fun () -> B.Ikkbz.optimize catalog graph) in
      let ld, ld_s =
        Blitz_util.Timer.time (fun () ->
            B.Leftdeep.optimize ~policy:B.Leftdeep.Forbidden Cost_model.naive catalog graph)
      in
      let bushy, bushy_s =
        Blitz_util.Timer.time (fun () ->
            Bench_opt.cost Cost_model.naive catalog (Some graph))
      in
      rows :=
        [|
          Topology.name topology;
          Printf.sprintf "%.6g (%.4fs)" kbz.B.Ikkbz.cost kbz_s;
          Printf.sprintf "%.6g (%.4fs)" ld.B.Leftdeep.cost ld_s;
          Printf.sprintf "%.6g (%.4fs)" bushy bushy_s;
        |]
        :: !rows)
    [ Topology.Chain; Topology.Star ];
  Blitz_util.Ascii_table.print
    ~header:[| "topology"; "IKKBZ"; "left-deep DP (no products)"; "bushy optimum" |]
    (Array.of_list (List.rev !rows));

  (* (4): interesting sort orders (Section 6.5 extension): plan quality
     of the (subset, order) DP against the order-blind min(ksm, kdnl)
     baseline it generalizes. *)
  Printf.printf "\n-- interesting orders vs order-blind min(ksm, kdnl) (mu = 1e5, v = 0.8) --\n";
  let n_orders = min n 13 in
  let rows = ref [] in
  List.iter
    (fun topology ->
      let spec =
        Workload.spec ~n:n_orders ~topology ~model:Cost_model.kdnl ~mean_card:100000.0
          ~variability:0.8
      in
      let catalog, graph = Workload.problem spec in
      let module O = Blitz_core.Blitzsplit_orders in
      let reference = O.sm_dnl_reference_cost catalog graph in
      let (result : O.result), seconds =
        Blitz_util.Timer.time (fun () -> O.optimize catalog graph)
      in
      rows :=
        [|
          Topology.name topology;
          Printf.sprintf "%.6g" reference;
          Printf.sprintf "%.6g" result.O.cost;
          Printf.sprintf "%.3f" (result.O.cost /. reference);
          Printf.sprintf "%.3f" seconds;
          string_of_int result.O.states;
        |]
        :: !rows)
    [ Topology.Chain; Topology.Cycle_plus 3; Topology.Star ];
  Blitz_util.Ascii_table.print
    ~header:
      [| "topology"; "order-blind cost"; "with order reuse"; "ratio"; "time (s)"; "states" |]
    (Array.of_list (List.rev !rows))
