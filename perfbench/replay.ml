(* The traced in-process replay.

   Each replayed request runs twice, on two independent "worlds" that
   start from the same warm-up and therefore hold the same cache state:

   - pass A runs the served path as a server worker does —
     [Protocol.decode], [Guard.optimize_input] on an [Engine] session
     configured like the worker, and the worker's response encoding —
     with one span per call;
   - pass B re-executes the same path as explicit stages, calling each
     layer's public function under its own span (sanitize, fingerprint,
     cache find/store, the Degrade eligibility walk, the DP and plan
     extraction or the hybrid tier, plan and protocol encoding).

   Pass B must return the same plan bits as pass A, and its layer
   self-times must add up to pass A's decode + optimize + encode time
   ([trace.coverage]).  Layers a workload never reaches on its served
   path are timed by probe calls on the same requests, kept outside the
   request span trees so they never enter the ledger. *)

module Json = Blitz_util.Json
module Protocol = Blitz_serve.Protocol
module Guard = Blitz_guard.Guard
module Degrade = Blitz_guard.Degrade
module Budget = Blitz_guard.Budget
module Sanitize = Blitz_guard.Sanitize
module Engine = Blitz_engine.Engine
module Plan = Blitz_plan.Plan
module Plan_cache = Blitz_cache.Plan_cache
module Fingerprint = Blitz_cache.Fingerprint
module Catalog = Blitz_catalog.Catalog
module Blitzsplit = Blitz_core.Blitzsplit
module Arena = Blitz_core.Arena
module Counters = Blitz_core.Counters
module Trace = Blitz_obs.Trace

(* ---- spans ---- *)

type span = {
  req : int;
  name : string;
  parent : int;  (* index into the store, -1 for a root *)
  tid : int;  (* 0 wire replay, 1 pass A, 2 pass B, 3 probes *)
  t0 : int64;
  mutable t1 : int64;
}

let store : span Buf.t = Buf.create ()
let open_spans : int list ref = ref []

(* Off during warm-up: [span] then just runs its body. *)
let recording = ref true

let span ~req ~tid name f =
  if not !recording then f () else
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let i = Buf.push store { req; name; parent; tid; t0 = Wire.now_ns (); t1 = 0L } in
  open_spans := i :: !open_spans;
  let finish () =
    (Buf.get store i).t1 <- Wire.now_ns ();
    open_spans := List.tl !open_spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let dur_us s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3

(* ---- the worker's response encoding (Server.run_job, optimize call) ---- *)

let status_string = function
  | Degrade.Produced _ -> "produced"
  | Degrade.Aborted f -> "aborted (" ^ Degrade.failure_message f ^ ")"
  | Degrade.Skipped r -> "skipped (" ^ Degrade.skip_message r ^ ")"

let encode ~id ~plan_text ~cost ~tier ~from_cache ~(attempts : Degrade.attempt list) ~started =
  let elapsed_ms = (Unix.gettimeofday () -. started) *. 1000. in
  Protocol.ok_response ~id
    (Json.Obj
       [
         ("plan", Json.String plan_text);
         ("cost", Json.Float cost);
         ("tier", Json.String (Degrade.tier_name tier));
         ("from_cache", Json.Bool from_cache);
         ("shed", Json.Bool false);
         ("repairs", Json.Int 0);
         ( "attempts",
           Json.List
             (List.map
                (fun (a : Degrade.attempt) ->
                  Json.Obj
                    [
                      ("tier", Json.String (Degrade.tier_name a.Degrade.tier));
                      ("status", Json.String (status_string a.Degrade.status));
                    ])
                attempts) );
         ("elapsed_ms", Json.Float elapsed_ms);
       ])

let inline_query line =
  match Protocol.decode line with
  | Ok { Protocol.id; request = Protocol.Run { query = Protocol.Inline { relations; edges }; _ }; _ }
    ->
    (id, relations, edges)
  | _ -> Wire.fail "replayed line is not an inline optimize request"

(* ---- the two worlds ---- *)

type config = { tag : string; table_bytes : int; seed : int; cache_mb : int }

(* The server's table ceiling for tenants without table-mb. *)
let default_table_bytes = 256 * 1024 * 1024

let config (w : Gen.t) =
  let table_bytes =
    match w.Gen.kind with
    | Gen.Budget_degrade -> int_of_float (Gen.tight_table_mb *. 1024. *. 1024.)
    | Gen.Zipf_warm | Gen.Distinct_dp -> default_table_bytes
  in
  { tag = Gen.cache_tag w; table_bytes; seed = Wire.server_seed; cache_mb = w.Gen.cache_mb }

let new_cache cfg = Plan_cache.create ~max_bytes:(cfg.cache_mb * 1024 * 1024) ()

(* What both passes agree on for one request. *)
type result = { plan_text : string; cost_bits : int64; tier : Degrade.tier; from_cache : bool }

let pass_a session cfg ~req ~tid line =
  span ~req ~tid "request" (fun () ->
      let started = Unix.gettimeofday () in
      let id, relations, edges = span ~req ~tid "protocol.decode" (fun () -> inline_query line) in
      let outcome =
        span ~req ~tid "guard.optimize" (fun () ->
            let budget = Budget.create ~max_table_bytes:cfg.table_bytes () in
            Guard.optimize_input ~budget ~session ~seed:cfg.seed ~multiway:false ~cache_tag:cfg.tag
              Gen.model ~relations ~edges ())
      in
      match outcome with
      | Error e -> Wire.fail "pass A: %s" (Guard.error_message e)
      | Ok o ->
        let p = o.Guard.provenance in
        let plan_text =
          span ~req ~tid "protocol.encode" (fun () ->
              let plan_text =
                Plan.to_compact_string ~names:(Catalog.names o.Guard.catalog) o.Guard.plan
              in
              ignore
                (encode ~id ~plan_text ~cost:o.Guard.cost ~tier:p.Degrade.winner
                   ~from_cache:o.Guard.from_cache ~attempts:p.Degrade.attempts ~started);
              plan_text)
        in
        {
          plan_text;
          cost_bits = Int64.bits_of_float o.Guard.cost;
          tier = p.Degrade.winner;
          from_cache = o.Guard.from_cache;
        })

type staged = {
  arena : Arena.t;
  cache : Plan_cache.t;
  scratch : Fingerprint.scratch;
  digest : int;
  counters : Counters.t;
  mutable dp_iters : (int * int * int) list;  (* req, loop_iters, dprime_evals *)
}

let new_staged cfg =
  {
    arena = Arena.create ();
    cache = new_cache cfg;
    scratch = Fingerprint.create_scratch ();
    digest = Fingerprint.model_digest Gen.model;
    counters = Counters.create ();
    dp_iters = [];
  }

let cacheable = [ Degrade.Exact; Degrade.Thresholded ]

(* Guard.drive on a clean inline input, one stage per layer call. *)
let pass_b st cfg ~req ~tid line =
  let sp name f = span ~req ~tid name f in
  sp "request" (fun () ->
      let started = Unix.gettimeofday () in
      let id, relations, edges = sp "protocol.decode" (fun () -> inline_query line) in
      let catalog, plan, cost, tier, from_cache, attempts =
        sp "guard.staged" (fun () ->
            let budget = Budget.create ~max_table_bytes:cfg.table_bytes () in
            let clean =
              match sp "sanitize.check" (fun () -> Sanitize.check ~relations ~edges ()) with
              | Ok c -> c
              | Error _ -> Wire.fail "pass B: sanitizer rejected a replayed request"
            in
            let catalog = clean.Sanitize.catalog and graph = clean.Sanitize.graph in
            Budget.start budget;
            let fingerprint () =
              sp "fingerprint.compute" (fun () ->
                  Fingerprint.compute st.scratch ~model_digest:st.digest catalog (Some graph))
            in
            let key tier = Degrade.tier_name tier ^ "@" ^ cfg.tag in
            let rec lookup = function
              | [] -> None
              | tier :: rest -> (
                fingerprint ();
                match sp "plan_cache.find" (fun () -> Plan_cache.find st.cache st.scratch ~optimizer:(key tier)) with
                | Some h -> Some (tier, h)
                | None -> lookup rest)
            in
            match lookup cacheable with
            | Some (tier, h) ->
              let cost = h.Plan_cache.cost in
              let attempt =
                { Degrade.tier; status = Degrade.Produced cost; elapsed_ms = Budget.elapsed_ms budget }
              in
              (catalog, h.Plan_cache.plan, cost, tier, true, [ attempt ])
            | None ->
              let cache_bytes = Plan_cache.resident_bytes st.cache in
              let run tier =
                match tier with
                | Degrade.Exact ->
                  Counters.reset st.counters;
                  let r =
                    sp "blitzsplit.dp" (fun () ->
                        Blitzsplit.optimize_join ~arena:st.arena ~counters:st.counters
                          ~interrupt:(Budget.interrupt budget) Gen.model catalog graph)
                  in
                  st.dp_iters <-
                    (req, st.counters.Counters.loop_iters, st.counters.Counters.dprime_evals)
                    :: st.dp_iters;
                  let plan = sp "plan.extract" (fun () -> Blitzsplit.best_plan r) in
                  (Option.get plan, Blitzsplit.best_cost r)
                | tier -> (
                  let name = if tier = Degrade.Hybrid_windows then "hybrid.optimize" else "degrade.tier" in
                  match
                    sp name (fun () ->
                        Degrade.run_tier ~arena:st.arena ~budget ~seed:cfg.seed tier Gen.model
                          catalog graph)
                  with
                  | Ok r -> r
                  | Error _ -> Wire.fail "pass B: tier %s failed" (Degrade.tier_name tier))
              in
              let rec walk attempts = function
                | [] -> Wire.fail "pass B: no tier produced a plan"
                | tier :: rest -> (
                  match
                    sp "degrade.eligibility" (fun () ->
                        Degrade.eligibility ~arena:st.arena ~cache_bytes ~budget tier catalog graph)
                  with
                  | Some reason ->
                    walk ({ Degrade.tier; status = Degrade.Skipped reason; elapsed_ms = 0.0 } :: attempts) rest
                  | None ->
                    let t0 = Budget.elapsed_ms budget in
                    let plan, cost = run tier in
                    let a =
                      { Degrade.tier; status = Degrade.Produced cost; elapsed_ms = Budget.elapsed_ms budget -. t0 }
                    in
                    (tier, plan, cost, List.rev (a :: attempts)))
              in
              let tier, plan, cost, attempts = walk [] Degrade.default_cascade in
              if List.mem tier cacheable then begin
                fingerprint ();
                sp "plan_cache.store" (fun () ->
                    Plan_cache.store st.cache st.scratch ~optimizer:(key tier) ~plan ~cost ~passes:1
                      ~final_threshold:Float.infinity)
              end;
              (catalog, plan, cost, tier, false, attempts))
      in
      let plan_text =
        sp "plan.encode" (fun () -> Plan.to_compact_string ~names:(Catalog.names catalog) plan)
      in
      sp "protocol.encode" (fun () ->
          ignore (encode ~id ~plan_text ~cost ~tier ~from_cache ~attempts ~started));
      { plan_text; cost_bits = Int64.bits_of_float cost; tier; from_cache })

(* ---- probes: layers off a workload's served path ---- *)

type probes = {
  p_arena : Arena.t;
  p_cache : Plan_cache.t;
  p_scratch : Fingerprint.scratch;
  p_counters : Counters.t;
  mutable p_dp_iters : (int * int * int) list;
}

let new_probes cfg =
  {
    p_arena = Arena.create ();
    p_cache = new_cache cfg;
    p_scratch = Fingerprint.create_scratch ();
    p_counters = Counters.create ();
    p_dp_iters = [];
  }

let probe_requests = 24
let hybrid_probe_requests = 6

let probe pr cfg ~req ~on_path line =
  let sp name f = span ~req ~tid:3 name f in
  let d = Check.decode line in
  let has name = List.mem name on_path in
  if not (has "blitzsplit.dp") then begin
    Counters.reset pr.p_counters;
    let r =
      sp "blitzsplit.dp" (fun () ->
          Blitzsplit.optimize_join ~arena:pr.p_arena ~counters:pr.p_counters Gen.model d.Check.catalog
            d.Check.graph)
    in
    pr.p_dp_iters <-
      (req, pr.p_counters.Counters.loop_iters, pr.p_counters.Counters.dprime_evals) :: pr.p_dp_iters;
    let plan = sp "plan.extract" (fun () -> Blitzsplit.best_plan r) in
    if not (has "plan_cache.store") then begin
      Plan_cache.clear pr.p_cache;
      Fingerprint.compute pr.p_scratch ~model_digest:(Fingerprint.model_digest Gen.model)
        d.Check.catalog (Some d.Check.graph);
      sp "plan_cache.store" (fun () ->
          Plan_cache.store pr.p_cache pr.p_scratch ~optimizer:("exact@" ^ cfg.tag)
            ~plan:(Option.get plan) ~cost:(Blitzsplit.best_cost r) ~passes:1
            ~final_threshold:Float.infinity)
    end
  end;
  if (not (has "hybrid.optimize")) && req < hybrid_probe_requests then
    ignore
      (sp "hybrid.optimize" (fun () ->
           Degrade.run_tier ~arena:pr.p_arena ~budget:(Budget.unlimited ()) ~seed:cfg.seed
             Degrade.Hybrid_windows Gen.model d.Check.catalog d.Check.graph))

(* ---- driving the replay ---- *)

type run = {
  table_bytes : int;  (* pass B arena high-water mark *)
  dp_iters : (int * int * int) list;  (* path DP counters, or probe ones *)
}

let replay (w : Gen.t) ~warmup ~lines =
  let cfg = config w in
  let session =
    Engine.create ~model:Gen.model ~num_domains:1 ~seed:cfg.seed ~cache:(new_cache cfg) ()
  in
  let st = new_staged cfg in
  let pr = new_probes cfg in
  (* The server enables metrics at start; so does the worker mirror. *)
  Blitz_obs.Metrics.set_enabled true;
  recording := false;
  Array.iteri
    (fun i line ->
      ignore (pass_a session cfg ~req:(-1 - i) ~tid:1 line);
      ignore (pass_b st cfg ~req:(-1 - i) ~tid:2 line))
    warmup;
  recording := true;
  st.dp_iters <- [];
  Trace.set_capacity 65536;
  Array.iteri
    (fun req line ->
      Trace.set_enabled true;
      let a = pass_a session cfg ~req ~tid:1 line in
      Trace.set_enabled false;
      let first = Buf.length store in
      let b = pass_b st cfg ~req ~tid:2 line in
      if a <> b then
        Wire.fail "request %d: staged replay answered %s (%s) but the guard answered %s (%s)" req
          b.plan_text (Degrade.tier_name b.tier) a.plan_text (Degrade.tier_name a.tier);
      if req < probe_requests then begin
        let on_path = List.init (Buf.length store - first) (fun k -> (Buf.get store (first + k)).name) in
        probe pr cfg ~req ~on_path line
      end)
    lines;
  Blitz_obs.Metrics.set_enabled false;
  Engine.close session;
  {
    table_bytes = Arena.resident_bytes st.arena;
    dp_iters = (if st.dp_iters <> [] then st.dp_iters else pr.p_dp_iters);
  }

(* ---- analysis ---- *)

(* Self time of every span: its duration minus what its children cover
   (children are sequential and nested, so their durations sum). *)
let self_times spans =
  let self = Array.map dur_us spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. dur_us s)
    spans;
  self

(* Layer (module) of each pass B span name. *)
let layer_of = function
  | "protocol.decode" | "protocol.encode" -> Some "Protocol"
  | "sanitize.check" -> Some "Sanitize"
  | "fingerprint.compute" -> Some "Fingerprint"
  | "plan_cache.find" | "plan_cache.store" -> Some "Plan_cache"
  | "guard.staged" -> Some "Guard"
  | "degrade.eligibility" | "degrade.tier" -> Some "Degrade"
  | "blitzsplit.dp" -> Some "Blitzsplit"
  | "plan.extract" | "plan.encode" -> Some "Plan"
  | "hybrid.optimize" -> Some "Hybrid"
  | _ -> None

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
let values tbl = Array.of_seq (Hashtbl.to_seq_values tbl)

(* Per-request sums of a span name's durations, by request: on-path
   requests from pass B (or pass A for [tid:1]) when the layer ran
   there, probe requests otherwise.  The second component says which. *)
let per_request ?(tid = 2) name =
  let spans = Buf.to_array store in
  let collect tid =
    let sums = Hashtbl.create 64 in
    Array.iter (fun s -> if s.tid = tid && s.name = name && s.req >= 0 then add sums s.req (dur_us s)) spans;
    sums
  in
  let path = collect tid in
  if Hashtbl.length path > 0 then (path, "path") else (collect 3, "probe")

(* Pass A's per-request decode + guard.optimize + encode, and pass B's
   per-request sum of layer self-times (the request root excluded). *)
let request_totals () =
  let spans = Buf.to_array store in
  let self = self_times spans in
  let a = Hashtbl.create 64 and b = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      if s.req >= 0 then
        if s.tid = 1 && s.name = "request" then add a s.req (dur_us s -. self.(i))
        else if s.tid = 2 && s.name <> "request" then add b s.req self.(i))
    spans;
  (a, b)

(* Mean self time per request of each layer, from pass B. *)
let ledger_means ~requests =
  let spans = Buf.to_array store in
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      match layer_of s.name with
      | Some l when s.tid = 2 && s.req >= 0 -> add tbl l self.(i)
      | _ -> ())
    spans;
  Hashtbl.fold (fun l total acc -> (l, total /. float_of_int requests) :: acc) tbl []

(* Chrome trace: the benchmark's spans plus the library's own spans
   recorded during pass A (as process 2, on their own clock). *)
let write_chrome path =
  let spans = Buf.to_array store in
  let base = Array.fold_left (fun b s -> if Int64.compare s.t0 b < 0 then s.t0 else b) Int64.max_int spans in
  let events =
    Array.to_list
      (Array.map
         (fun s ->
           Json.Obj
             [
               ("name", Json.String s.name);
               ("ph", Json.String "X");
               ("ts", Json.Float (Int64.to_float (Int64.sub s.t0 base) /. 1e3));
               ("dur", Json.Float (dur_us s));
               ("pid", Json.Int 1);
               ("tid", Json.Int s.tid);
               ( "args",
                 Json.Obj
                   [
                     ("request", Json.Int s.req);
                     ("parent", if s.parent >= 0 then Json.String spans.(s.parent).name else Json.Null);
                   ] );
             ])
         spans)
  in
  let library =
    match Trace.to_chrome () with
    | Json.List evs ->
      List.map
        (function
          | Json.Obj fields ->
            Json.Obj (List.map (function "pid", _ -> ("pid", Json.Int 2) | kv -> kv) fields)
          | j -> j)
        evs
    | _ -> []
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (Json.List (events @ library))))
