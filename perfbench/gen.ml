(* Workload definitions and seeded request generation.

   Every request is built with [Blitz_workload.Workload] and sent inline
   (relations + edges), so the server only ever sees generated inputs.
   The seed draws each query's mean cardinality and variability; the
   (n, topology) mix is a fixed stratification, so runs with different
   seeds see the same size mix and their medians are comparable. *)

module Workload = Blitz_workload.Workload
module Topology = Blitz_graph.Topology
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Json = Blitz_util.Json
module Rng = Blitz_util.Rng

type kind = Zipf_warm | Distinct_dp | Budget_degrade

type t = {
  name : string;
  kind : kind;
  tenant : string option;  (** [None]: the default tenant. *)
  tenants_flag : string;  (** [blitz serve --tenants]; empty for none. *)
  cache_mb : int;  (** [blitz serve --cache-mb]. *)
  exact : bool;  (** Every answer must be the exact optimum. *)
  dominant : string list;  (** Layers the ledger may find dominant. *)
  replay_max : int;  (** Requests replayed by the traced run. *)
}

(* The server's default cost model; [blitz serve] is started without
   [--model], so this is also what it optimizes under. *)
let model = Cost_model.kdnl

let tight_table_mb = 0.25

let workloads =
  [
    {
      name = "zipf-warm";
      kind = Zipf_warm;
      tenant = None;
      tenants_flag = "";
      cache_mb = 4;
      exact = true;
      dominant = [ "Server"; "Protocol"; "Fingerprint"; "Plan_cache" ];
      replay_max = 3000;
    };
    {
      name = "distinct-dp";
      kind = Distinct_dp;
      tenant = None;
      tenants_flag = "";
      cache_mb = 1;
      exact = true;
      dominant = [ "Blitzsplit" ];
      replay_max = 300;
    };
    {
      name = "budget-degrade";
      kind = Budget_degrade;
      tenant = Some "tight";
      tenants_flag = Printf.sprintf "tight:table-mb=%g" tight_table_mb;
      cache_mb = 4;
      exact = false;
      dominant = [ "Hybrid" ];
      replay_max = 40;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let cache_tag w = Option.value w.tenant ~default:"default"

let topologies = [| Topology.Chain; Topology.Star; Topology.Cycle_plus 2; Topology.Clique |]

(* A query is kept as its request line minus the id: the fields after
   ["{"blitz":1,"id":N,"]. *)
let request_line ~id suffix = Printf.sprintf "{\"blitz\":1,\"id\":%d,%s" id suffix

(* Query [i] of a workload's stream walks a fixed grid of cells: shape
   (n, topology) fastest, then one of [bands w] variability bands, then
   one of [bands w] bands of mean cardinality between 1 and 10^6.  The
   seed draws the exact variability and mean cardinality inside the
   cell, so every run covers the same cells in the same order and runs
   with different seeds differ only within cells. *)
let bands w = match w.kind with Zipf_warm -> 4 | Distinct_dp | Budget_degrade -> 8

let sizes w =
  match w.kind with
  | Zipf_warm -> [| 6; 8; 10; 12 |]
  (* One n=12 per two n=13, so the median sits inside the n=13 mode
     rather than in the gap between the two sizes. *)
  | Distinct_dp -> [| 12; 13; 13 |]
  | Budget_degrade -> [| 13 |]

let nth_query w rng i =
  let ns = sizes w in
  let shapes = Array.length ns * Array.length topologies in
  let shape = i mod shapes in
  let n = ns.(shape mod Array.length ns) in
  let topology =
    match topologies.(shape / Array.length ns) with
    (* cycle+2 needs n >= 7; n = 6 gets the one chord that fits. *)
    | Topology.Cycle_plus k -> Topology.Cycle_plus (min k ((n - 3) / 2))
    | t -> t
  in
  let bands = bands w in
  let band k = float_of_int (i / shapes / k mod bands) +. Rng.float rng 1.0 in
  let variability = band 1 /. float_of_int bands in
  let mean_card = 10.0 ** (6.0 /. float_of_int bands *. band bands) in
  let spec = Workload.spec ~n ~topology ~model ~mean_card ~variability in
  let catalog, graph = Workload.problem spec in
  let relations =
    Array.to_list
      (Array.mapi
         (fun i name -> Json.List [ Json.String name; Json.Float (Catalog.card catalog i) ])
         (Catalog.names catalog))
  in
  let edges =
    List.map
      (fun (a, b, s) -> Json.List [ Json.Int a; Json.Int b; Json.Float s ])
      (Join_graph.edges graph)
  in
  let body =
    Json.to_string
      (Json.Obj
         ([ ("method", Json.String "optimize") ]
         @ (match w.tenant with Some t -> [ ("tenant", Json.String t) ] | None -> [])
         @ [ ("params", Json.Obj [ ("relations", Json.List relations); ("edges", Json.List edges) ]) ]
         ))
  in
  String.sub body 1 (String.length body - 1)

(* Zipf-warm's pool is exactly one pass over its grid. *)
let zipf_pool_size = 256
let zipf_s = 1.1

(* A workload's generated inputs for one seed.  Requests name queries by
   index ([query]); [warmup] lists the set-up pass, and [timed] picks
   (or, for the distinct workloads, generates) the timed ones. *)
type stream = {
  wl : t;
  queries : string Buf.t;  (* request suffixes; grows on demand *)
  rng : Rng.t;
  zipf_cdf : float array;
  pick : Rng.t;  (* Zipf rank draws, independent of query contents *)
  warmup : int array;
}

let query s idx = Buf.get s.queries idx

(* Distinct workloads warm up on queries of their own, on cells spread
   over the whole grid (a stride coprime to its size), so the warm-up
   mixes every shape and every cost regime. *)
let warmup_count w =
  match w.kind with Zipf_warm -> zipf_pool_size | Distinct_dp -> 24 | Budget_degrade -> 8

let warmup_cell w j =
  match w.kind with Zipf_warm -> j | Distinct_dp | Budget_degrade -> j * 97

let stream w ~seed =
  let rng = Rng.create ~seed in
  let pick = Rng.split rng in
  let zipf_cdf =
    let weights = Array.init zipf_pool_size (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      weights
  in
  let queries = Buf.create () in
  let warmup =
    Array.init (warmup_count w) (fun j -> Buf.push queries (nth_query w rng (warmup_cell w j)))
  in
  { wl = w; queries; rng; zipf_cdf; pick; warmup }

(* Query index of the [k]-th timed request. *)
let timed s k =
  match s.wl.kind with
  | Zipf_warm ->
    let u = Rng.float s.pick 1.0 in
    let cdf = s.zipf_cdf in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (Array.length cdf - 1)
  | Distinct_dp | Budget_degrade -> Buf.push s.queries (nth_query s.wl s.rng k)
