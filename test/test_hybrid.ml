(* The DP-inside-randomized-search hybrid (the paper's Section 7 future
   work). *)

open Test_helpers
module Hybrid = Blitz_hybrid.Hybrid
module Blitzsplit = Blitz_core.Blitzsplit
module B = Blitz_baselines

let fig3 = figure3_graph ~sab:0.1 ~sac:0.2 ~sbc:0.3 ~sad:0.4

let test_small_instances_reach_optimum () =
  (* With window >= n the first descent re-optimizes the whole plan
     exactly, so the hybrid must equal blitzsplit. *)
  let rng = Rng.create ~seed:11 in
  let (plan, cost), stats =
    Hybrid.optimize ~rng ~window:4 ~kicks:0 Cost_model.kdnl abcd_catalog fig3
  in
  let optimum = Blitzsplit.best_cost (Blitzsplit.optimize_join Cost_model.kdnl abcd_catalog fig3) in
  Test_helpers.check_float ~rel:1e-9 "optimal" optimum cost;
  Alcotest.(check bool) "valid plan" true (Result.is_ok (Plan.validate ~n:4 plan));
  Alcotest.(check bool) "did some window work" true (stats.Hybrid.windows_reoptimized > 0)

let test_stats_accounting () =
  let rng = Rng.create ~seed:3 in
  let _, stats = Hybrid.optimize ~rng ~window:3 ~kicks:5 Cost_model.naive abcd_catalog fig3 in
  Alcotest.(check int) "kicks run" 5 stats.Hybrid.kicks;
  Alcotest.(check bool) "improvements <= reopts" true
    (stats.Hybrid.windows_improved <= stats.Hybrid.windows_reoptimized)

let test_invalid_arguments () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "window too small"
    (Invalid_argument "Hybrid.optimize: window must be at least 2") (fun () ->
      ignore (Hybrid.optimize ~rng ~window:1 Cost_model.naive abcd_catalog fig3));
  let bad_start = Plan.Leaf 0 in
  Alcotest.check_raises "partial start plan"
    (Invalid_argument "Hybrid.optimize: start plan must cover all catalog relations") (fun () ->
      ignore (Hybrid.optimize ~rng ~start:bad_start Cost_model.naive abcd_catalog fig3))

let prop_hybrid_sound =
  QCheck2.Test.make ~count:40 ~name:"hybrid returns valid plans never better than optimal"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let rng = Rng.create ~seed:(p.seed + 23) in
      let (plan, cost), _ = Hybrid.optimize ~rng ~window:4 ~kicks:6 p.model p.catalog p.graph in
      let optimum = Blitzsplit.best_cost (Blitzsplit.optimize_join p.model p.catalog p.graph) in
      let n = Catalog.n p.catalog in
      Relset.equal (Plan.relations plan) (Relset.full n)
      && cost >= optimum *. (1.0 -. 1e-6)
      && Blitz_util.Float_more.approx_equal ~rel:1e-6 cost
           (Plan.cost p.model p.catalog p.graph plan))

let prop_hybrid_never_worse_than_greedy =
  QCheck2.Test.make ~count:30 ~name:"hybrid never ends worse than its greedy start"
    ~print:problem_print (problem_gen ~max_n:9)
    (fun p ->
      let rng = Rng.create ~seed:(p.seed + 31) in
      let (_, cost), _ = Hybrid.optimize ~rng ~kicks:4 p.model p.catalog p.graph in
      let _, greedy_cost = B.Greedy.optimize p.model p.catalog p.graph in
      cost <= greedy_cost *. (1.0 +. 1e-9))

let prop_window_reopt_is_monotone =
  (* Each accepted window re-optimization lowers cost, so the final cost
     never exceeds the start plan's cost, whatever the start. *)
  QCheck2.Test.make ~count:40 ~name:"hybrid never ends worse than an arbitrary start plan"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let n = Catalog.n p.catalog in
      let rng = Rng.create ~seed:(p.seed + 41) in
      let start = B.Transform.random_bushy rng (Relset.full n) in
      let start_cost = Plan.cost p.model p.catalog p.graph start in
      let (_, cost), _ = Hybrid.optimize ~rng ~start ~kicks:3 p.model p.catalog p.graph in
      cost <= start_cost *. (1.0 +. 1e-9))

(* Golden values captured from the hybrid before its window memo
   existed: the memo must not change any plan, cost bit or search
   counter.  Workload problems (kdnl, mu=100, v=0.5), seed 1, default
   window and kicks.  n stays out of 17..24, where the cost evaluator's
   2^n cardinality table makes each case slow and large. *)
let golden =
  [
    (6, "chain", "(((R2 x R5) x R4) x ((R0 x R3) x R1))", "0x1.52760587c9a82p+6", 147, 22, 24);
    (6, "clique", "(((((R0 x R1) x R2) x R3) x R4) x R5)", "0x1.505e423277109p+10", 147, 22, 24);
    ( 10,
      "star",
      "(R8 x (R7 x (R6 x (R5 x (R4 x (R3 x (((R0 x R1) x R9) x R2)))))))",
      "0x1.3f44b9f8d36f5p+9",
      406,
      37,
      40 );
    ( 10,
      "cycle+2",
      "((R5 x (R4 x (R0 x R9))) x (((R3 x (R7 x R2)) x (R6 x R1)) x R8))",
      "0x1.55ab69292cfb3p+8",
      404,
      35,
      40 );
    ( 13,
      "chain",
      "((((((R0 x R7) x R1) x R8) x R2) x R9) x ((((((R6 x R12) x R5) x R11) x R4) x R10) x R3))",
      "0x1.87763b615dfd1p+7",
      906,
      93,
      52 );
    ( 13,
      "clique",
      "(R12 x (((((((((R1 x R0) x R3) x (R4 x R2)) x (R6 x R5)) x R7) x R8) x R9) x R10) x R11))",
      "0x1.4a0b90d12078ep+19",
      713,
      60,
      52 );
    ( 16,
      "star",
      "(R14 x ((R12 x (((((((((R3 x (R2 x ((R0 x R1) x R15))) x R4) x R5) x R6) x R7) x R8) x \
       R9) x R10) x R11)) x R13))",
      "0x1.215b0fcd29728p+10",
      1320,
      103,
      64 );
    ( 16,
      "cycle+3",
      "(((((R7 x (R15 x R0)) x R8) x R1) x R14) x (((R6 x (R13 x R5)) x (R12 x ((R2 x R10) x (R4 \
       x (R11 x R3))))) x R9))",
      "0x1.28490e8caddc6p+9",
      1207,
      88,
      64 );
    ( 30,
      "chain",
      "((((((((((((R1 x (R0 x R15)) x R16) x R2) x R17) x R3) x R18) x R4) x R19) x R5) x R20) x \
       (R7 x (R6 x R21))) x (((((R24 x (((((((((R14 x R29) x R28) x R13) x R27) x R12) x R26) x \
       R11) x R25) x R10)) x R9) x R23) x R8) x R22))",
      "0x1.885e1fb91babp+8",
      5564,
      211,
      120 );
    ( 30,
      "clique",
      "(((R27 x ((R25 x (((((((((((((((((R3 x R0) x R4) x (R7 x (R2 x R1))) x ((R5 x R8) x R9)) x \
       (R6 x R12)) x (R11 x R10)) x (R14 x R13)) x R15) x R16) x R17) x R18) x R19) x R20) x R21) \
       x R22) x R23) x R24)) x R26)) x R28) x R29)",
      "0x1.8f9e3227514f7p+41",
      4968,
      226,
      120 );
    ( 40,
      "chain",
      "(((((R8 x R27) x ((((((((((((((R0 x R20) x R1) x R21) x R2) x R22) x R3) x R23) x R4) x \
       R24) x R5) x R25) x R6) x R26) x R7)) x (R9 x R28)) x (R10 x R29)) x ((((((((((R15 x \
       ((((((((R19 x R39) x R38) x R18) x R37) x R17) x R36) x R16) x R35)) x R34) x R14) x R33) \
       x R13) x R32) x R12) x R31) x R11) x R30))",
      "0x1.ff6d54241f9p+8",
      10352,
      289,
      160 );
    ( 40,
      "star",
      "(R38 x (((R35 x (((((((((((((R22 x ((((((((((((((R8 x ((((R4 x R1) x ((R2 x R3) x ((R5 x \
       R0) x R39))) x R6) x R7)) x R9) x R10) x R11) x R12) x R13) x R14) x R15) x R16) x R17) x \
       R18) x R19) x R20) x R21)) x R23) x R24) x R25) x R26) x R27) x R28) x R29) x R30) x R31) x \
       R32) x R33) x R34)) x R36) x R37))",
      "0x1.8c1b2d6da0e45p+11",
      13482,
      534,
      160 );
  ]

let golden_problem n topology =
  let topology =
    match topology with
    | "chain" -> Topology.Chain
    | "star" -> Topology.Star
    | "clique" -> Topology.Clique
    | "cycle+2" -> Topology.Cycle_plus 2
    | "cycle+3" -> Topology.Cycle_plus 3
    | other -> invalid_arg other
  in
  Blitz_workload.Workload.(
    problem (spec ~n ~topology ~model:Cost_model.kdnl ~mean_card:100.0 ~variability:0.5))

(* Beyond the default settings: the one golden case whose window DPs
   miss the memo more often than it holds entries (5,269 misses), so the
   memo is emptied mid-search. *)
let golden_overflow =
  ( 60,
    "star",
    "(((R56 x (((((((((R47 x (((((((((R38 x (((((((R31 x ((((((R25 x (R24 x ((R22 x ((((((R16 x \
     ((((((((R6 x R7) x (((R8 x R0) x ((R5 x R1) x ((R2 x R4) x R59))) x (R3 x R9))) x R10) x \
     R11) x R12) x R13) x R14) x R15)) x R17) x R18) x R19) x R20) x R21)) x R23))) x R26) x R27) \
     x R28) x R29) x R30)) x R32) x R33) x R34) x R35) x R36) x R37)) x R39) x R40) x R41) x R42) \
     x R43) x R44) x R45) x R46)) x R48) x R49) x R50) x R51) x R52) x R53) x R54) x R55)) x R57) \
     x R58)",
    "0x1.2f888b0fa26fp+12",
    67567,
    2068,
    480 )

let check_golden ?window ?kicks (n, topology, plan_s, cost_h, reopts, improved, kicks_done) =
  let catalog, graph = golden_problem n topology in
  let (plan, cost), stats =
    Hybrid.optimize ~rng:(Rng.create ~seed:1) ?window ?kicks Cost_model.kdnl catalog graph
  in
  let label what = Printf.sprintf "n=%d %s %s" n topology what in
  Alcotest.(check string) (label "plan") plan_s (Plan.to_compact_string plan);
  Alcotest.(check string) (label "cost bits") cost_h (Printf.sprintf "%h" cost);
  Alcotest.(check int) (label "windows_reoptimized") reopts stats.Hybrid.windows_reoptimized;
  Alcotest.(check int) (label "windows_improved") improved stats.Hybrid.windows_improved;
  Alcotest.(check int) (label "kicks") kicks_done stats.Hybrid.kicks;
  stats

let test_golden_bit_identity () =
  List.iter (fun case -> ignore (check_golden case)) golden;
  let stats = check_golden ~window:8 ~kicks:480 golden_overflow in
  (* More misses than the memo holds (4,096) means it was emptied. *)
  Alcotest.(check bool) "memo overflowed" true
    (stats.Hybrid.windows_reoptimized - stats.Hybrid.windows_memoized > 4096)

let test_memo_accounting () =
  let catalog, graph = golden_problem 13 "chain" in
  let _, stats = Hybrid.optimize ~rng:(Rng.create ~seed:5) ~kicks:8 Cost_model.kdnl catalog graph in
  Alcotest.(check bool) "kicks revisit memoized windows" true (stats.Hybrid.windows_memoized > 0);
  Alcotest.(check bool) "memoized <= reopts (n=13)" true
    (stats.Hybrid.windows_memoized <= stats.Hybrid.windows_reoptimized);
  let _, stats =
    Hybrid.optimize ~rng:(Rng.create ~seed:5) ~kicks:0 Cost_model.kdnl abcd_catalog fig3
  in
  Alcotest.(check bool) "memoized <= reopts (n=4, no kicks)" true
    (stats.Hybrid.windows_memoized <= stats.Hybrid.windows_reoptimized)

let suite =
  [
    Alcotest.test_case "full-window hybrid is exact" `Quick test_small_instances_reach_optimum;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "argument validation" `Quick test_invalid_arguments;
    Alcotest.test_case "golden plans bit-identical" `Quick test_golden_bit_identity;
    Alcotest.test_case "memo accounting" `Quick test_memo_accounting;
    QCheck_alcotest.to_alcotest prop_hybrid_sound;
    QCheck_alcotest.to_alcotest prop_hybrid_never_worse_than_greedy;
    QCheck_alcotest.to_alcotest prop_window_reopt_is_monotone;
  ]
