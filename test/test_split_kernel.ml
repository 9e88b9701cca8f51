(* Differential bit-identity for the monomorphized split kernels.

   The split-loop refactor (specialized per-model loop bodies over the
   struct-of-arrays columns, the symmetric ones walking half the loop)
   claims EXACT equivalence with the pre-refactor kernel retained as
   [Split_loop.Reference]: not approximately-equal costs but identical
   IEEE bit patterns, identical best_lhs links and extracted plans, and
   identical decision counters (subsets, improvements, threshold skips,
   infeasible subsets).  The work counters follow a stated rule instead:
   the symmetric bodies visit each unordered split once, so loop_iters
   is exactly Reference's divided by two, while the closure-calling
   general body runs Reference's full count; operand_sums and
   dprime_evals never exceed Reference's.  Random problems sweep
   topology density, all three paper models plus an Opaque min-of
   combination (the closure fallback body), finite and infinite
   thresholds (the skip and infeasible paths), against the sequential
   driver and the rank-parallel driver at 1, 2 and 4 domains.  Tie-heavy
   cases (uniform catalogs, every split the same cost) hold down the
   claim that the half loop keeps Reference's first-wins tie-breaking. *)

open Test_helpers
module Blitzsplit = Blitz_core.Blitzsplit
module Dp_table = Blitz_core.Dp_table
module Split_loop = Blitz_core.Split_loop
module Counters = Blitz_core.Counters
module Rng = Blitz_util.Rng

type kernel_problem = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  model : Cost_model.t;
  threshold_factor : float option;
      (* None: unconstrained; Some f: threshold = f * unconstrained
         optimum, exercising skips (f < 1 makes the run infeasible). *)
  seed : int;
}

let pp_kernel_problem ppf p =
  Format.fprintf ppf "seed=%d n=%d model=%s edges=%d threshold_factor=%s" p.seed
    (Catalog.n p.catalog) p.model.Cost_model.name
    (Join_graph.edge_count p.graph)
    (match p.threshold_factor with None -> "inf" | Some f -> string_of_float f)

let kernel_problem_gen ~max_n =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.create ~seed in
        let n = 2 + Rng.int rng (max_n - 1) in
        let catalog = random_catalog rng ~n ~lo:1.0 ~hi:1e4 in
        let edge_prob = Rng.float rng 1.0 in
        let graph = random_graph rng ~n ~edge_prob ~sel_lo:1e-4 ~sel_hi:1.0 in
        let model =
          match Rng.int rng 4 with
          | 0 -> Cost_model.naive
          | 1 -> Cost_model.sort_merge
          | 2 -> Cost_model.kdnl
          | _ -> Cost_model.min_of Cost_model.sort_merge Cost_model.kdnl
        in
        let threshold_factor =
          match Rng.int rng 3 with 0 -> None | 1 -> Some 0.5 | _ -> Some 2.0
        in
        { catalog; graph; model; threshold_factor; seed })
      (int_bound 1_000_000))

(* One full DP pass with the Reference kernel: the pre-refactor ground
   truth, same enumeration order as the sequential driver. *)
let reference_pass model catalog graph ~threshold =
  let n = Catalog.n catalog in
  let tbl = Dp_table.create ~with_pi_fan:true n in
  let ctr = Counters.create () in
  Split_loop.init_singletons tbl model catalog;
  for s = 3 to (1 lsl n) - 1 do
    if s land (s - 1) <> 0 then begin
      Split_loop.compute_properties_join tbl model graph s;
      Split_loop.Reference.find_best_split tbl model ctr ~threshold s
    end
  done;
  (tbl, ctr)

let bits = Int64.bits_of_float

(* [report] raises: QCheck's failure report inside the property,
   Alcotest's in the fixed cases. *)
let check_against ?(report = QCheck2.Test.fail_report) ~what ~model (reft : Dp_table.t)
    (refc : Counters.t) (tbl : Dp_table.t) (ctr : Counters.t) =
  let fail fmt = Printf.ksprintf (fun msg -> report (what ^ ": " ^ msg)) fmt in
  for s = 1 to Dp_table.size reft - 1 do
    if bits reft.Dp_table.cost.(s) <> bits tbl.Dp_table.cost.(s) then
      fail "cost bits diverged at subset %d: %.17g vs %.17g" s reft.Dp_table.cost.(s)
        tbl.Dp_table.cost.(s);
    if reft.Dp_table.best_lhs.(s) <> tbl.Dp_table.best_lhs.(s) then
      fail "best_lhs diverged at subset %d: %d vs %d" s reft.Dp_table.best_lhs.(s)
        tbl.Dp_table.best_lhs.(s);
    if bits reft.Dp_table.card.(s) <> bits tbl.Dp_table.card.(s) then
      fail "card bits diverged at subset %d: %.17g vs %.17g" s reft.Dp_table.card.(s)
        tbl.Dp_table.card.(s)
  done;
  let full = Dp_table.size reft - 1 in
  if Dp_table.extract_plan reft full <> Dp_table.extract_plan tbl full then
    fail "extracted plans diverged";
  let counter name a b = if a <> b then fail "counter %s diverged: %d vs %d" name a b in
  let at_most name a b = if b > a then fail "counter %s above Reference: %d > %d" name b a in
  counter "subsets" refc.Counters.subsets ctr.Counters.subsets;
  let expected_iters =
    if Split_loop.symmetric model then refc.Counters.loop_iters / 2
    else refc.Counters.loop_iters
  in
  if Split_loop.symmetric model && refc.Counters.loop_iters mod 2 <> 0 then
    fail "Reference loop_iters %d is odd" refc.Counters.loop_iters;
  counter "loop_iters (rule)" expected_iters ctr.Counters.loop_iters;
  at_most "operand_sums" refc.Counters.operand_sums ctr.Counters.operand_sums;
  at_most "dprime_evals" refc.Counters.dprime_evals ctr.Counters.dprime_evals;
  counter "improvements" refc.Counters.improvements ctr.Counters.improvements;
  counter "threshold_skips" refc.Counters.threshold_skips ctr.Counters.threshold_skips;
  counter "infeasible" refc.Counters.infeasible ctr.Counters.infeasible

let prop_kernels_bit_identical =
  QCheck2.Test.make ~count:150
    ~name:"specialized kernels bit-identical to Reference (drivers x domains x thresholds)"
    ~print:(fun p -> Format.asprintf "%a" pp_kernel_problem p)
    (kernel_problem_gen ~max_n:8)
    (fun p ->
      let threshold =
        match p.threshold_factor with
        | None -> Float.infinity
        | Some f ->
          let unconstrained, _ =
            reference_pass p.model p.catalog p.graph ~threshold:Float.infinity
          in
          let best = unconstrained.Dp_table.cost.(Dp_table.size unconstrained - 1) in
          Float.max (f *. best) Float.min_float
      in
      let reft, refc = reference_pass p.model p.catalog p.graph ~threshold in
      let seq = Blitzsplit.optimize_join ~threshold p.model p.catalog p.graph in
      check_against ~what:"sequential" ~model:p.model reft refc seq.Blitzsplit.table
        seq.Blitzsplit.counters;
      List.iter
        (fun d ->
          let par =
            Blitzsplit.optimize_join ~num_domains:d ~min_parallel_n:2 ~threshold
              p.model p.catalog p.graph
          in
          check_against
            ~what:(Printf.sprintf "parallel d=%d" d)
            ~model:p.model reft refc par.Blitzsplit.table par.Blitzsplit.counters)
        [ 1; 2; 4 ];
      true)

(* Tie-heavy lattices: uniform catalogs make many splits of a subset
   cost exactly the same, so which of them wins is decided by the walk
   order alone.  Reference keeps the first strict improvement; the half
   loop must keep the same one at every subset, sequential and
   rank-parallel. *)
let tie_case ~what model catalog graph =
  let reft, refc = reference_pass model catalog graph ~threshold:Float.infinity in
  let check ~what tbl ctr = check_against ~report:Alcotest.fail ~what ~model reft refc tbl ctr in
  let seq = Blitzsplit.optimize_join model catalog graph in
  check ~what:(what ^ " sequential") seq.Blitzsplit.table seq.Blitzsplit.counters;
  List.iter
    (fun d ->
      let par =
        Blitzsplit.optimize_join ~num_domains:d ~min_parallel_n:2 model catalog graph
      in
      check ~what:(Printf.sprintf "%s parallel d=%d" what d) par.Blitzsplit.table
        par.Blitzsplit.counters)
    [ 1; 2; 4 ];
  (* The ties are real: far more splits reached the operand sum than
     ever improved on the best so far. *)
  Alcotest.(check bool)
    (what ^ ": tie-heavy") true
    (seq.Blitzsplit.counters.Counters.operand_sums > 2 * seq.Blitzsplit.counters.Counters.improvements)

let test_ties_match_reference () =
  let n = 9 in
  let clique sel =
    Join_graph.of_edges ~n
      (List.map (fun (i, j) -> (i, j, sel)) (Topology.edge_list Topology.Clique ~n))
  in
  (* Uniform catalog, kappa_0, clique with one selectivity everywhere:
     every subset of a size has the same card and cost. *)
  tie_case ~what:"k0 uniform clique" Cost_model.naive (Catalog.uniform ~n ~card:100.0) (clique 0.1);
  (* Cards of 1 and no predicates: every plan of a subset costs the
     same, so every split of every subset ties. *)
  tie_case ~what:"k0 all-equal products" Cost_model.naive (Catalog.uniform ~n ~card:1.0)
    (Join_graph.no_predicates ~n);
  tie_case ~what:"ksm uniform clique" Cost_model.sort_merge (Catalog.uniform ~n ~card:100.0)
    (clique 0.1);
  tie_case ~what:"kdnl uniform clique" Cost_model.kdnl (Catalog.uniform ~n ~card:100.0)
    (clique 0.1)

let test_variant_names () =
  Alcotest.(check string) "naive" "zero" (Split_loop.variant Cost_model.naive);
  Alcotest.(check string) "sort-merge" "sum-aux" (Split_loop.variant Cost_model.sort_merge);
  Alcotest.(check string) "dnl" "dnl" (Split_loop.variant Cost_model.kdnl);
  Alcotest.(check string) "min-of" "general"
    (Split_loop.variant (Cost_model.min_of Cost_model.naive Cost_model.kdnl))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_kernels_bit_identical;
    Alcotest.test_case "kernel variant names" `Quick test_variant_names;
    Alcotest.test_case "tie-heavy lattices: best_lhs matches Reference" `Quick
      test_ties_match_reference;
  ]
