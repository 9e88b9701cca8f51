(* The answer checker, applied to every response.

   The reference is built from the request line as [Protocol.decode]
   reads it (floats cross the wire at %.12g), never from the
   generator's unrounded floats. *)

module Json = Blitz_util.Json
module Protocol = Blitz_serve.Protocol
module Sanitize = Blitz_guard.Sanitize
module Degrade = Blitz_guard.Degrade
module Plan = Blitz_plan.Plan
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Blitzsplit = Blitz_core.Blitzsplit
module Arena = Blitz_core.Arena

type decoded = {
  catalog : Catalog.t;
  graph : Join_graph.t;
  names : string array;
  relations : (string * float) list;
  edges : (int * int * float) list;
}

let decode line =
  match Protocol.decode line with
  | Ok
      {
        Protocol.request =
          Protocol.Run { query = Protocol.Inline { relations; edges }; _ };
        _;
      } -> (
    match Sanitize.check ~relations ~edges () with
    | Ok { Sanitize.catalog; graph; repairs = [] } ->
      { catalog; graph; names = Catalog.names catalog; relations; edges }
    | Ok _ -> Wire.fail "generated request needed sanitizer repairs"
    | Error _ -> Wire.fail "generated request rejected by the sanitizer")
  | Ok _ -> Wire.fail "generated request is not an inline optimize call"
  | Error _ -> Wire.fail "generated request does not decode"

let exact_optimum ~arena d =
  Blitzsplit.best_cost (Blitzsplit.optimize_join ~arena Gen.model d.catalog d.graph)

let tier_names = List.map Degrade.tier_name Degrade.default_cascade
let exact_tiers = [ Degrade.tier_name Degrade.Exact; Degrade.tier_name Degrade.Thresholded ]

(* What a checked answer contributes to the run's metrics. *)
type answer = { cost : float; tier : string; from_cache : bool; skips : int }

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let field name result =
  match Json.member name result with Some v -> Ok v | None -> Error ("no " ^ name ^ " field")

let ( let* ) = Result.bind

(* [result] is the reply's "result" object; [opt] the exact optimum of
   the request.  [exact] demands the answer be that optimum. *)
let check ~exact d ~opt result =
  let n = Catalog.n d.catalog in
  let* plan_text =
    match field "plan" result with Ok (Json.String s) -> Ok s | _ -> Error "plan is not a string"
  in
  let* plan = Plan.of_compact_string ~names:d.names plan_text in
  let* () = Plan.validate ~n plan in
  let* () =
    if Plan.leaf_count plan = n then Ok ()
    else Error (Printf.sprintf "plan joins %d of %d relations" (Plan.leaf_count plan) n)
  in
  let* cost =
    match Option.bind (Json.member "cost" result) Json.to_float_opt with
    | Some c -> Ok c
    | None -> Error "cost is not a number"
  in
  let recost = Plan.cost Gen.model d.catalog d.graph plan in
  let* () =
    if rel_close cost recost then Ok ()
    else Error (Printf.sprintf "returned cost %.17g but the plan costs %.17g" cost recost)
  in
  let* () =
    if (not exact) || rel_close cost opt then Ok ()
    else Error (Printf.sprintf "returned cost %.17g but the exact optimum is %.17g" cost opt)
  in
  let* () = if cost >= opt || rel_close cost opt then Ok () else Error "cost beats the optimum" in
  let* tier =
    match field "tier" result with
    | Ok (Json.String t) when List.mem t tier_names -> Ok t
    | _ -> Error "tier is not a cascade tier"
  in
  let* from_cache =
    match field "from_cache" result with Ok (Json.Bool b) -> Ok b | _ -> Error "no from_cache"
  in
  let* skips =
    match field "attempts" result with
    | Ok (Json.List attempts) ->
      Ok
        (List.length
           (List.filter
              (fun a ->
                match Json.member "status" a with
                | Some (Json.String s) -> String.starts_with ~prefix:"skipped" s
                | _ -> false)
              attempts))
    | _ -> Error "no attempts list"
  in
  Ok { cost; tier; from_cache; skips }

(* The reply body for a request id: everything between "result": and
   the trailing elapsed_ms field, which is the only part that varies
   between two answers to the same query.  [None] for anything that is
   not an ok reply to [id]. *)
let reply_body ~id reply =
  let prefix = Printf.sprintf "{\"blitz\":1,\"id\":%d,\"ok\":true,\"result\":" id in
  let marker = ",\"elapsed_ms\":" in
  if not (String.starts_with ~prefix reply) then None
  else
    let rec back i =
      if i < String.length prefix then None
      else if String.sub reply i (String.length marker) = marker then Some i
      else back (i - 1)
    in
    match back (String.length reply - String.length marker) with
    | None -> None
    | Some stop ->
      let start = String.length prefix in
      Some (String.sub reply start (stop - start))

let parse_body body =
  match Json.of_string (body ^ "}") with Ok j -> Ok j | Error e -> Error ("unparseable reply: " ^ e)
