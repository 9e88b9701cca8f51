(* Experiment "compare": cross-method comparison backing the paper's
   qualitative claims (Sections 1, 2, 7):

   - blitzsplit searches the complete bushy space with Cartesian
     products at times competitive with restricted searches;
   - excluding Cartesian products or confining search to left-deep vines
     can hurt plan quality (cost ratio > 1);
   - the size-driven enumerator (Starburst-style) inspects ~4^n pairs
     where blitzsplit iterates ~3^n times;
   - stochastic methods approach but do not reliably reach the optimum
     in comparable time.

   The sweep enumerates the optimizer registry through one engine
   session per grid point (so every DP-backed method shares the
   arena-pooled table buffer), skipping only the exhaustive bruteforce
   oracle and methods whose caps rule the problem out.  Costs are
   reported as ratios to the blitzsplit optimum (1.000 = optimal). *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Cost_model = Blitz_cost.Cost_model
module Registry = Blitz_engine.Registry
module Engine = Blitz_engine.Engine
module B = Blitz_baselines

let evaluate ~n model catalog graph =
  let is_tree = B.Ikkbz.is_tree graph in
  let connected = Blitz_graph.Join_graph.is_connected graph in
  let prob = Registry.problem ~graph catalog in
  Engine.with_session ~model ~seed:1234 (fun session ->
      let optimum = ref Float.nan in
      let dpsize_pairs = ref 0 in
      let rows =
        Registry.all ()
        |> List.filter_map (fun (e : Registry.entry) ->
               if e.Registry.name = "bruteforce" then None
               else
                 match Registry.eligible e ~connected ~n ~is_tree with
                 | Error reason -> Some [| e.Registry.name; "-"; "-"; reason |]
                 | Ok () ->
                   let outcome = ref None in
                   let seconds =
                     Bench_config.time (fun () ->
                         outcome :=
                           Some (Engine.optimize ~optimizer:e.Registry.name session prob))
                   in
                   let o = Option.get !outcome in
                   if e.Registry.name = "exact" then optimum := o.Registry.cost;
                   (match (e.Registry.name, o.Registry.note) with
                   | "dpsize", Some note -> (
                     try Scanf.sscanf note "%d pairs" (fun p -> dpsize_pairs := p)
                     with Scanf.Scan_failure _ | Failure _ -> ())
                   | _ -> ());
                   Some
                     [|
                       e.Registry.name;
                       Bench_config.seconds seconds;
                       (if Float.is_finite o.Registry.cost then
                          Printf.sprintf "%.4f" (o.Registry.cost /. !optimum)
                        else "no plan");
                       Option.value ~default:"" o.Registry.note;
                     |])
      in
      (rows, !dpsize_pairs))

let run () =
  Bench_config.header "Method comparison (Sections 1/2/7 qualitative claims)";
  let ns = if Bench_config.fast then [ 8 ] else [ 8; 12 ] in
  List.iter
    (fun n ->
      List.iter
        (fun topology ->
          let model = Cost_model.kdnl in
          let spec = Workload.spec ~n ~topology ~model ~mean_card:100.0 ~variability:0.5 in
          let catalog, graph = Workload.problem spec in
          Printf.printf "\n-- n = %d, topology %s, model %s, mu = 100, v = 0.5 --\n" n
            (Topology.name topology) model.Cost_model.name;
          let rows, pairs = evaluate ~n model catalog graph in
          Blitz_util.Ascii_table.print
            ~header:[| "method"; "time (s)"; "cost / optimal"; "note" |]
            (Array.of_list rows);
          Printf.printf
            "dpsize pairs considered: %d vs blitzsplit split-loop iterations: %d (each \
             unordered split once; ordered: %d)\n"
            pairs
            (Blitz_core.Counters.exact_loop_iters n / 2)
            (Blitz_core.Counters.exact_loop_iters n))
        [ Topology.Chain; Topology.Star; Topology.Clique ])
    ns
