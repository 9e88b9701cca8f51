(* Equivalence classes (implied/redundant predicates) and the
   class-aware optimizer variant. *)

open Test_helpers
module Equivalence = Blitz_graph.Equivalence
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module B = Blitz_baselines

let check_float = Test_helpers.check_float

(* Three relations equated transitively on one key: a.x = b.y = c.z,
   domain 100. *)
let triangle_class =
  Equivalence.of_predicates ~n:3
    [ ((0, "x"), (1, "y"), 0.01); ((1, "y"), (2, "z"), 0.01) ]

let test_union_find_merging () =
  let classes = Equivalence.classes triangle_class in
  Alcotest.(check int) "one class" 1 (List.length classes);
  let c = List.hd classes in
  Alcotest.(check int) "touches all three relations" 0b111 c.Equivalence.relations;
  check_float "domain 100" 100.0 c.Equivalence.domain;
  Alcotest.(check int) "three columns" 3 (List.length c.Equivalence.members)

let test_separate_classes_stay_separate () =
  let e =
    Equivalence.of_predicates ~n:4
      [ ((0, "x"), (1, "y"), 0.1); ((2, "u"), (3, "v"), 0.01) ]
  in
  Alcotest.(check int) "two classes" 2 (List.length (Equivalence.classes e))

let test_redundant_predicate_absorbed () =
  (* Adding the implied a.x = c.z explicitly must not change the class
     structure or the cardinality model. *)
  let with_redundant =
    Equivalence.of_predicates ~n:3
      [ ((0, "x"), (1, "y"), 0.01); ((1, "y"), (2, "z"), 0.01); ((0, "x"), (2, "z"), 0.01) ]
  in
  let catalog = Catalog.of_cards [| 1000.0; 1000.0; 1000.0 |] in
  let full = Relset.full 3 in
  check_float "same cardinality"
    (Equivalence.join_cardinality catalog triangle_class full)
    (Equivalence.join_cardinality catalog with_redundant full)

let test_cardinality_counts_constraints_once () =
  let catalog = Catalog.of_cards [| 1000.0; 1000.0; 1000.0 |] in
  (* 1000^3 / 100^2: two constraints, not three. *)
  check_float "k-1 exponent" 1e5
    (Equivalence.join_cardinality catalog triangle_class (Relset.full 3));
  (* Subsets: {a,b} -> 1000^2/100. *)
  check_float "pair" 1e4
    (Equivalence.join_cardinality catalog triangle_class (Relset.of_list [ 0; 1 ]));
  (* {a,c}: both carry the class, one constraint applies (a.x = c.z is
     implied). *)
  check_float "implied pair" 1e4
    (Equivalence.join_cardinality catalog triangle_class (Relset.of_list [ 0; 2 ]))

let test_pairwise_graph_overcounts () =
  let catalog = Catalog.of_cards [| 1000.0; 1000.0; 1000.0 |] in
  let g = Equivalence.as_pairwise_graph triangle_class in
  Alcotest.(check int) "clique of 3 edges" 3 (Join_graph.edge_count g);
  (* The naive pairwise graph claims 1000^3/100^3 = 1000: one 1/100 too
     many. *)
  check_float "overcounted" 1e3 (Join_graph.join_cardinality catalog g (Relset.full 3));
  let spanning = Equivalence.spanning_graph triangle_class in
  Alcotest.(check int) "spanning chain has 2 edges" 2 (Join_graph.edge_count spanning);
  check_float "spanning correct on the full set" 1e5
    (Join_graph.join_cardinality catalog spanning (Relset.full 3));
  (* ...but the spanning chain is wrong on the subset {a, c} (it skips
     the chain's middle), while the class model is right. *)
  check_float "spanning misses implied pair" 1e6
    (Join_graph.join_cardinality catalog spanning (Relset.of_list [ 0; 2 ]))

let test_validation () =
  Alcotest.check_raises "self predicate"
    (Invalid_argument "Equivalence.of_predicates: predicate relates a relation to itself")
    (fun () -> ignore (Equivalence.of_predicates ~n:2 [ ((0, "x"), (0, "y"), 0.5) ]));
  Alcotest.check_raises "bad selectivity"
    (Invalid_argument "Equivalence.of_predicates: selectivity 2 outside (0, 1]") (fun () ->
      ignore (Equivalence.of_predicates ~n:2 [ ((0, "x"), (1, "y"), 2.0) ]))

(* ---- the class-aware optimizer ---- *)

let test_eq_optimizer_table_cardinalities () =
  let catalog = Catalog.of_cards [| 1000.0; 1000.0; 1000.0 |] in
  let r = Blitzsplit.optimize Cost_model.naive catalog (Blitzsplit.Classes triangle_class) in
  for s = 1 to 7 do
    check_float
      (Printf.sprintf "card of subset %d" s)
      (Equivalence.join_cardinality catalog triangle_class s)
      (Dp_table.card r.Blitzsplit.table s)
  done

let test_eq_vs_pairwise_plan_quality () =
  (* A query where over-counting misleads the plain optimizer: a large
     three-way equivalence class (its pairwise projection undercounts the
     three-way result by 1/D) plus an unrelated cheap edge.  Both
     optimizers produce valid plans, but cost them differently; the
     class-aware estimate is the truth. *)
  let catalog = Catalog.of_cards [| 1000.0; 1000.0; 1000.0; 10.0 |] in
  let e =
    Equivalence.of_predicates ~n:4
      [ ((0, "x"), (1, "y"), 0.01); ((1, "y"), (2, "z"), 0.01); ((2, "w"), (3, "v"), 0.1) ]
  in
  let r_eq = Blitzsplit.optimize Cost_model.naive catalog (Blitzsplit.Classes e) in
  let pairwise = Equivalence.as_pairwise_graph e in
  let r_plain = Blitzsplit.optimize_join Cost_model.naive catalog pairwise in
  (* The plain optimizer believes the full join is 10x smaller than the
     class model's truth. *)
  let eval =
    B.Eval.of_cardinality Cost_model.naive ~n:4 (Equivalence.join_cardinality catalog e)
  in
  let true_cost plan = B.Eval.cost eval plan in
  let eq_plan = Blitzsplit.best_plan_exn r_eq in
  let plain_plan = Blitzsplit.best_plan_exn r_plain in
  Alcotest.(check bool) "class-aware plan is optimal under the true model" true
    (true_cost eq_plan <= true_cost plain_plan +. 1e-9)

(* Oracle: the class-aware optimizer equals brute force under the
   class-aware cardinality model. *)
let eq_problem_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let n = 3 + Rng.int rng 4 in
        let catalog = random_catalog rng ~n ~lo:2.0 ~hi:1e4 in
        (* Random predicates; union-find merges them into classes. *)
        let preds = ref [] in
        let count = 1 + Rng.int rng (2 * n) in
        for _ = 1 to count do
          let a = Rng.int rng n in
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          let col _ = Printf.sprintf "c%d" (Rng.int rng 3) in
          let sel = Rng.log_uniform rng ~lo:1e-4 ~hi:1.0 in
          preds := ((a, col a), (b, col b), Float.min sel 1.0) :: !preds
        done;
        let model =
          match Rng.int rng 3 with
          | 0 -> Cost_model.naive
          | 1 -> Cost_model.sort_merge
          | _ -> Cost_model.kdnl
        in
        (seed, n, catalog, Equivalence.of_predicates ~n !preds, model))
      (int_bound 1_000_000))

let eq_problem_print (seed, n, _, e, (model : Cost_model.t)) =
  Printf.sprintf "seed=%d n=%d classes=%d model=%s" seed n
    (List.length (Equivalence.classes e))
    model.Cost_model.name

let prop_eq_matches_bruteforce =
  QCheck2.Test.make ~count:120 ~name:"class-aware optimizer finds the brute-force optimum"
    ~print:eq_problem_print eq_problem_gen
    (fun (_, n, catalog, e, model) ->
      let r = Blitzsplit.optimize model catalog (Blitzsplit.Classes e) in
      let eval = B.Eval.of_cardinality model ~n (Equivalence.join_cardinality catalog e) in
      let _, oracle = B.Bruteforce.optimize_subset eval (Relset.full n) in
      Blitz_util.Float_more.approx_equal ~rel:1e-6 oracle (Blitzsplit.best_cost r))

let prop_eq_agrees_with_plain_on_tree_classes =
  (* When every class touches exactly two relations, classes and the
     pairwise graph coincide — the two optimizers must agree exactly. *)
  QCheck2.Test.make ~count:100 ~name:"two-relation classes reduce to the plain optimizer"
    ~print:problem_print (problem_gen ~max_n:8)
    (fun p ->
      let n = Catalog.n p.catalog in
      let preds =
        List.map
          (fun (i, j, sel) ->
            ((i, Printf.sprintf "c%d_%d" i j), (j, Printf.sprintf "c%d_%d" i j), Float.min sel 1.0))
          (Join_graph.edges p.graph)
      in
      let e = Equivalence.of_predicates ~n preds in
      let clamped_edges =
        List.map (fun (i, j, sel) -> (i, j, Float.min sel 1.0)) (Join_graph.edges p.graph)
      in
      let graph = Join_graph.of_edges ~n clamped_edges in
      let r_eq = Blitzsplit.optimize p.model p.catalog (Blitzsplit.Classes e) in
      let r_plain = Blitzsplit.optimize_join p.model p.catalog graph in
      Blitz_util.Float_more.approx_equal ~rel:1e-9 (Blitzsplit.best_cost r_plain)
        (Blitzsplit.best_cost r_eq))

let suite =
  [
    Alcotest.test_case "union-find merges transitively" `Quick test_union_find_merging;
    Alcotest.test_case "separate classes stay separate" `Quick test_separate_classes_stay_separate;
    Alcotest.test_case "redundant predicates absorbed" `Quick test_redundant_predicate_absorbed;
    Alcotest.test_case "constraints counted once (k-1 rule)" `Quick
      test_cardinality_counts_constraints_once;
    Alcotest.test_case "pairwise projection over-counts" `Quick test_pairwise_graph_overcounts;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "eq optimizer table cardinalities" `Quick
      test_eq_optimizer_table_cardinalities;
    Alcotest.test_case "class-aware beats pairwise under the true model" `Quick
      test_eq_vs_pairwise_plan_quality;
    QCheck_alcotest.to_alcotest prop_eq_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_eq_agrees_with_plain_on_tree_classes;
  ]
