(* Join hypergraphs and the hypergraph optimizer variant. *)

open Test_helpers
module Hypergraph = Blitz_graph.Hypergraph
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module B = Blitz_baselines

let check_float = Test_helpers.check_float

let three_way =
  (* One ordinary edge (0,1) and one 3-way predicate over {0,2,3}. *)
  Hypergraph.of_edges ~n:4
    [ (Relset.of_list [ 0; 1 ], 0.01); (Relset.of_list [ 0; 2; 3 ], 0.001) ]

let test_construction_and_validation () =
  Alcotest.(check int) "n" 4 (Hypergraph.n three_way);
  Alcotest.(check int) "edges" 2 (List.length (Hypergraph.edges three_way));
  Alcotest.check_raises "singleton hyperedge"
    (Invalid_argument "Hypergraph.of_edges: a hyperedge needs at least two relations") (fun () ->
      ignore (Hypergraph.of_edges ~n:3 [ (Relset.singleton 0, 0.5) ]));
  Alcotest.check_raises "duplicate member set"
    (Invalid_argument "Hypergraph.of_edges: duplicate hyperedge member set") (fun () ->
      ignore
        (Hypergraph.of_edges ~n:3
           [ (Relset.of_list [ 0; 1 ], 0.5); (Relset.of_list [ 0; 1 ], 0.2) ]));
  Alcotest.check_raises "bad selectivity"
    (Invalid_argument "Hypergraph.of_edges: selectivity 1.5 outside (0, 1]") (fun () ->
      ignore (Hypergraph.of_edges ~n:3 [ (Relset.of_list [ 0; 1 ], 1.5) ]))

let test_cardinality_semantics () =
  let catalog = Catalog.of_cards [| 10.0; 20.0; 30.0; 40.0 |] in
  (* {0,1}: binary edge applies. *)
  check_float "pair" (10.0 *. 20.0 *. 0.01)
    (Hypergraph.join_cardinality catalog three_way (Relset.of_list [ 0; 1 ]));
  (* {0,2}: the 3-way edge is NOT yet complete: pure product. *)
  check_float "incomplete hyperedge" (10.0 *. 30.0)
    (Hypergraph.join_cardinality catalog three_way (Relset.of_list [ 0; 2 ]));
  (* {0,2,3}: now it applies. *)
  check_float "complete hyperedge" (10.0 *. 30.0 *. 40.0 *. 0.001)
    (Hypergraph.join_cardinality catalog three_way (Relset.of_list [ 0; 2; 3 ]));
  (* Full set: both apply once. *)
  check_float "full" (240000.0 *. 0.01 *. 0.001)
    (Hypergraph.join_cardinality catalog three_way (Relset.full 4))

let test_span_and_crosses () =
  (* Joining {0,2} with {3} completes the 3-way edge. *)
  check_float "span completes" 0.001
    (Hypergraph.pi_span three_way (Relset.of_list [ 0; 2 ]) (Relset.singleton 3));
  Alcotest.(check bool) "crosses" true
    (Hypergraph.crosses three_way (Relset.of_list [ 0; 2 ]) (Relset.singleton 3));
  (* Joining {2} with {3} does not (0 still missing). *)
  check_float "span incomplete" 1.0
    (Hypergraph.pi_span three_way (Relset.singleton 2) (Relset.singleton 3));
  Alcotest.(check bool) "no cross" false
    (Hypergraph.crosses three_way (Relset.singleton 2) (Relset.singleton 3))

let test_optimizer_table_cardinalities () =
  let catalog = Catalog.of_cards [| 10.0; 20.0; 30.0; 40.0 |] in
  let r = Blitzsplit.optimize Cost_model.naive catalog (Blitzsplit.Hyper three_way) in
  for s = 1 to 15 do
    check_float
      (Printf.sprintf "card of subset %d" s)
      (Hypergraph.join_cardinality catalog three_way s)
      (Dp_table.card r.Blitzsplit.table s)
  done

let test_binary_embedding_agrees_with_plain () =
  (* A hypergraph of binary edges must reproduce the ordinary optimizer
     exactly. *)
  let rng = Rng.create ~seed:77 in
  let catalog = random_catalog rng ~n:7 ~lo:1.0 ~hi:1e4 in
  let graph = random_graph rng ~n:7 ~edge_prob:0.5 ~sel_lo:1e-3 ~sel_hi:1.0 in
  let hyper = Hypergraph.of_join_graph graph in
  let a = Blitzsplit.optimize_join Cost_model.kdnl catalog graph in
  let b = Blitzsplit.optimize Cost_model.kdnl catalog (Blitzsplit.Hyper hyper) in
  check_float ~rel:1e-9 "same optimum" (Blitzsplit.best_cost a) (Blitzsplit.best_cost b)

(* Random hypergraph problems for the brute-force oracle. *)
let hyper_problem_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let n = 3 + Rng.int rng 4 in
        let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
        let count = 1 + Rng.int rng n in
        let edges = ref [] and seen = Hashtbl.create 8 in
        for _ = 1 to count do
          let size = 2 + Rng.int rng (n - 1) in
          let members = ref Relset.empty in
          while Relset.cardinal !members < size do
            members := Relset.add !members (Rng.int rng n)
          done;
          if not (Hashtbl.mem seen !members) then begin
            Hashtbl.add seen !members ();
            edges := (!members, Rng.log_uniform rng ~lo:1e-4 ~hi:1.0) :: !edges
          end
        done;
        let model =
          match Rng.int rng 3 with
          | 0 -> Cost_model.naive
          | 1 -> Cost_model.sort_merge
          | _ -> Cost_model.kdnl
        in
        (seed, n, catalog, Hypergraph.of_edges ~n !edges, model))
      (int_bound 1_000_000))

let hyper_problem_print (seed, n, _, h, (model : Cost_model.t)) =
  Printf.sprintf "seed=%d n=%d hyperedges=%d model=%s" seed n
    (List.length (Hypergraph.edges h))
    model.Cost_model.name

let prop_hyper_matches_bruteforce =
  QCheck2.Test.make ~count:120 ~name:"hypergraph optimizer finds the brute-force optimum"
    ~print:hyper_problem_print hyper_problem_gen
    (fun (_, n, catalog, hyper, model) ->
      let r = Blitzsplit.optimize model catalog (Blitzsplit.Hyper hyper) in
      let eval =
        B.Eval.of_cardinality model ~n (Hypergraph.join_cardinality catalog hyper)
      in
      let _, oracle = B.Bruteforce.optimize_subset eval (Relset.full n) in
      Blitz_util.Float_more.approx_equal ~rel:1e-6 oracle (Blitzsplit.best_cost r))

let prop_extracted_plan_recosts =
  QCheck2.Test.make ~count:100 ~name:"extracted plans re-cost to the reported optimum"
    ~print:hyper_problem_print hyper_problem_gen
    (fun (_, n, catalog, hyper, model) ->
      let r = Blitzsplit.optimize model catalog (Blitzsplit.Hyper hyper) in
      let plan = Blitzsplit.best_plan_exn r in
      let eval =
        B.Eval.of_cardinality model ~n (Hypergraph.join_cardinality catalog hyper)
      in
      Relset.equal (Plan.relations plan) (Relset.full n)
      && Blitz_util.Float_more.approx_equal ~rel:1e-6 (B.Eval.cost eval plan)
           (Blitzsplit.best_cost r))

let suite =
  [
    Alcotest.test_case "construction and validation" `Quick test_construction_and_validation;
    Alcotest.test_case "cardinality semantics" `Quick test_cardinality_semantics;
    Alcotest.test_case "span and crosses" `Quick test_span_and_crosses;
    Alcotest.test_case "optimizer table cardinalities" `Quick test_optimizer_table_cardinalities;
    Alcotest.test_case "binary embedding = plain optimizer" `Quick
      test_binary_embedding_agrees_with_plain;
    QCheck_alcotest.to_alcotest prop_hyper_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_extracted_plan_recosts;
  ]
