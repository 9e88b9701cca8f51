module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model
module Plan = Blitz_plan.Plan
module Engine = Blitz_engine.Engine

type outcome = {
  plan : Plan.t;
  cost : float;
  provenance : Degrade.provenance;
  repairs : Sanitize.issue list;
  catalog : Catalog.t;
  graph : Join_graph.t;
  from_cache : bool;
}

type error =
  | Invalid_input of Sanitize.issue list
  | No_tier_produced of Degrade.attempt list
  | Internal of string

let error_message = function
  | Invalid_input issues ->
    (* The issues carry their own "input:" scope. *)
    Blitz_util.Err.format ~scope:"Guard.optimize" "%s"
      (String.concat "; " (List.map Sanitize.issue_message issues))
  | No_tier_produced attempts ->
    Blitz_util.Err.format ~scope:"Guard.optimize" "no tier produced a plan (%s)"
      (String.concat "; "
         (List.map
            (fun (a : Degrade.attempt) -> Format.asprintf "%a" Degrade.pp_attempt a)
            attempts))
  | Internal msg -> Blitz_util.Err.format ~scope:"Guard.optimize" "internal failure: %s" msg

let pp_error ppf e = Format.pp_print_string ppf (error_message e)

(* The guard decides only {e whether} a request may use the session's
   plan cache: on the clean path.  Sanitize-repaired statistics (the
   chaos suite's territory) are a different query than the caller
   submitted, and a resilient driver does not let a corrupted input
   stream populate — or be answered from — the cache.  Keys, the
   multiway filter and fingerprinting are Engine's, shared with
   [Engine.optimize], so a tier's entry is the same-named optimizer's. *)
let cacheable_tiers = [ Degrade.Exact; Degrade.Thresholded ]
let cacheable_names = List.map Degrade.tier_name cacheable_tiers

type prepared = {
  model : Cost_model.t;
  clean : Sanitize.clean;
  multiway : bool option;
  cache_tag : string option;
}

type stage = Hit of outcome | Miss of prepared

(* The cache stage: the one cache decision point.  [clock] is armed by
   the caller; a hit's provenance reports the time since. *)
let cache_stage ~clock ~session ~multiway ?cache_tag model (clean : Sanitize.clean) =
  let problem = Blitz_engine.Registry.problem ~graph:clean.Sanitize.graph clean.Sanitize.catalog in
  let hit =
    if clean.Sanitize.repairs <> [] then None
    else
      Option.bind session (fun s ->
          Engine.cache_lookup ~model ?multiway ?cache_tag s ~optimizers:cacheable_names problem)
  in
  match hit with
  | Some (name, hit) ->
    let tier = List.find (fun t -> Degrade.tier_name t = name) cacheable_tiers in
    let cost = hit.Blitz_engine.Engine.Plan_cache.cost in
    let provenance =
      {
        Degrade.winner = tier;
        winner_cost = cost;
        attempts =
          [
            { Degrade.tier; status = Degrade.Produced cost; elapsed_ms = Budget.elapsed_ms clock };
          ];
        total_ms = Budget.elapsed_ms clock;
      }
    in
    Hit
      {
        plan = hit.Blitz_engine.Engine.Plan_cache.plan;
        cost;
        provenance;
        repairs = [];
        catalog = clean.Sanitize.catalog;
        graph = clean.Sanitize.graph;
        from_cache = true;
      }
  | None -> Miss { model; clean; multiway; cache_tag }

(* The solve stage, under an armed budget.  The catch-all converts any
   escaped exception — there should be none, but a resilient driver
   does not get to assume that — into a typed error rather than
   unwinding through the caller. *)
let solve_armed ~budget ~cascade ~seed ~num_domains ~session p =
  let { model; clean = { Sanitize.catalog; graph; repairs }; multiway; cache_tag } = p in
  (* Fabricated cardinalities (Sanitize defaulted them) mean every
     cost-based tier would optimize placeholder numbers; unless the
     caller pinned a cascade explicitly, go straight to the
     estimate-free tiers. *)
  let cascade =
    match cascade with
    | Some _ -> cascade
    | None when Sanitize.fabricated_stats repairs -> Some Degrade.fabricated_cascade
    | None -> None
  in
  (* A session plugs its pooled DP table and spawned domain pool into
     the cascade; its domain count is the default when the caller gave
     none.  Plans and costs are bit-identical with or without it.  The
     session's plan cache is not charged against the table ceiling: it
     is bounded by its own [max_bytes], and it may be shared, so one
     tenant's resident plans would otherwise push another tenant's
     requests off the exact tier. *)
  let arena = Option.map Engine.arena session in
  let pool = Option.bind session Engine.pool in
  let num_domains =
    match (num_domains, session) with
    | (Some _ as d), _ -> d
    | None, Some s -> Some (Engine.num_domains s)
    | None, None -> None
  in
  match
    Degrade.optimize ?cascade ?seed ?num_domains ?multiway ?arena ?pool ~budget model catalog graph
  with
  | Ok (plan, provenance) ->
    let winner = provenance.Degrade.winner in
    (match session with
    | Some s when repairs = [] && List.mem winner cacheable_tiers ->
      Engine.cache_record ~model ?multiway ?cache_tag s ~optimizer:(Degrade.tier_name winner)
        (Blitz_engine.Registry.problem ~graph catalog)
        (Blitz_engine.Registry.basic ~plan:(Some plan) ~cost:provenance.Degrade.winner_cost ())
    | _ -> ());
    Ok
      {
        plan;
        cost = provenance.Degrade.winner_cost;
        provenance;
        repairs;
        catalog;
        graph;
        from_cache = false;
      }
  | Error attempts -> Error (No_tier_produced attempts)
  | exception exn -> Error (Internal (Printexc.to_string exn))

let solve ?budget ?session ?cascade ?seed ?num_domains p =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Budget.start budget;
  solve_armed ~budget ~cascade ~seed ~num_domains ~session p

let check_pair catalog graph =
  Result.map_error (fun issues -> Invalid_input issues) (Sanitize.check_pair catalog graph)

let check_input ?policy ~relations ~edges () =
  match Sanitize.check ?policy ~relations ~edges () with
  | Error issues -> Error (Invalid_input issues)
  | exception exn -> Error (Internal (Printexc.to_string exn))
  | Ok clean -> Ok clean

let armed budget =
  Budget.start budget;
  budget

let lookup ?session ?multiway ?cache_tag model catalog graph =
  Result.map
    (cache_stage ~clock:(armed (Budget.unlimited ())) ~session ~multiway ?cache_tag model)
    (check_pair catalog graph)

let lookup_input ?session ?policy ?multiway ?cache_tag model ~relations ~edges () =
  Result.map
    (cache_stage ~clock:(armed (Budget.unlimited ())) ~session ~multiway ?cache_tag model)
    (check_input ?policy ~relations ~edges ())

(* Both composed entry points arm the budget exactly once, before the
   cache stage, so every tier of the cascade draws down the same
   allowance. *)
let drive ?budget ?session ?cascade ?seed ?num_domains ?multiway ?cache_tag model clean =
  let budget = armed (match budget with Some b -> b | None -> Budget.unlimited ()) in
  match cache_stage ~clock:budget ~session ~multiway ?cache_tag model clean with
  | Hit o -> Ok o
  | Miss p -> solve_armed ~budget ~cascade ~seed ~num_domains ~session p

let optimize ?budget ?session ?cascade ?seed ?num_domains ?multiway ?cache_tag model catalog
    graph =
  Result.bind (check_pair catalog graph)
    (drive ?budget ?session ?cascade ?seed ?num_domains ?multiway ?cache_tag model)

let optimize_input ?budget ?session ?policy ?cascade ?seed ?num_domains ?multiway ?cache_tag
    model ~relations ~edges () =
  Result.bind
    (check_input ?policy ~relations ~edges ())
    (drive ?budget ?session ?cascade ?seed ?num_domains ?multiway ?cache_tag model)
