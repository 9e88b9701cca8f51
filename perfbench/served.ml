(* Served-path benchmark: drives a [blitz serve] child over one
   connection in a closed loop, checks every answer, and (with
   [--trace 1]) replays the same requests in-process under per-layer
   spans.

     served.exe run --blitz BIN --out DIR --workload W --seed N --seconds S --trace 0|1
     served.exe selftest --blitz BIN --out DIR

   The last line of a run is one JSON object: correct, attempted,
   failed and the metrics (end-to-end with --trace 0, per-layer with
   --trace 1).  Human-readable lines come before it. *)

module Json = Blitz_util.Json
module Arena = Blitz_core.Arena
module Plan = Blitz_plan.Plan
module Stats = Blitz_util.Stats

let mib = 1024. *. 1024.
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Metric lines: human-readable now, JSON at the end. *)
let metrics : (string * float * string) list ref = ref []

let metric ?(note = "") name value unit =
  metrics := (name, value, unit) :: !metrics;
  say "  %-26s %14.6g %-8s %s" name value unit note

let result_line ~correct ~attempted ~failed =
  let fields =
    List.rev_map
      (fun (name, v, unit) ->
        if not (Float.is_finite v) then Wire.fail "metric %s is not finite" name;
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* ---- one run ---- *)

type phase = Warmup | Timed

type tally = {
  replies : (phase * int * string, int ref) Hashtbl.t;  (* (phase, query, reply body) -> count *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let note_failure t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

let record t phase ~idx ~id reply =
  t.attempted <- t.attempted + 1;
  match Check.reply_body ~id reply with
  | Some body -> (
    match Hashtbl.find_opt t.replies (phase, idx, body) with
    | Some c -> incr c
    | None -> Hashtbl.add t.replies (phase, idx, body) (ref 1))
  | None -> note_failure t ("not an ok reply: " ^ reply)

(* Checked answers of the timed phase, except [from_cache], which counts
   every answer the measured server gave (its stats count them all). *)
type checked = {
  ok : int;
  from_cache : int;
  log_ratio_sum : float;
  skips : int;
  exact_won : int;
}

(* The decoded request and exact optimum of every distinct query that
   was answered, computed on all cores once the server is gone. *)
let references s t =
  let seen = Hashtbl.create 256 in
  Hashtbl.iter (fun (_, idx, _) _ -> Hashtbl.replace seen idx ()) t.replies;
  let idxs = Array.of_seq (Hashtbl.to_seq_keys seen) in
  let refs = Array.make (Array.length idxs) None in
  let workers = max 1 (min 4 (Domain.recommended_domain_count ())) in
  let work first =
    let arena = Arena.create () in
    let i = ref first in
    while !i < Array.length idxs do
      let d = Check.decode (Gen.request_line ~id:0 (Gen.query s idxs.(!i))) in
      refs.(!i) <- Some (d, Check.exact_optimum ~arena d);
      i := !i + workers
    done
  in
  let domains = List.init (workers - 1) (fun k -> Domain.spawn (fun () -> work (k + 1))) in
  work 0;
  List.iter Domain.join domains;
  let table = Hashtbl.create (Array.length idxs) in
  Array.iteri (fun i idx -> Hashtbl.replace table idx (Option.get refs.(i))) idxs;
  table

(* Check every distinct reply against the reference, weighting by how
   often it was received. *)
let check_replies (w : Gen.t) s t =
  let refs = references s t in
  Hashtbl.fold
    (fun (phase, idx, body) count acc ->
      let c = !count in
      let d, opt = Hashtbl.find refs idx in
      match
        Result.bind (Check.parse_body body) (fun result -> Check.check ~exact:w.Gen.exact d ~opt result)
      with
      | Error msg ->
        for _ = 1 to c do
          note_failure t (Printf.sprintf "query %d: %s" idx msg)
        done;
        acc
      | Ok a ->
        let from_cache = acc.from_cache + if a.Check.from_cache then c else 0 in
        if phase = Warmup then { acc with from_cache }
        else
          {
            ok = acc.ok + c;
            from_cache;
            log_ratio_sum = acc.log_ratio_sum +. (float_of_int c *. Float.log (a.Check.cost /. opt));
            skips = acc.skips + (c * a.Check.skips);
            exact_won =
              (acc.exact_won
              + if a.Check.from_cache || List.mem a.Check.tier Check.exact_tiers then c else 0);
          })
    t.replies
    { ok = 0; from_cache = 0; log_ratio_sum = 0.; skips = 0; exact_won = 0 }

(* The traced run: replay the first requests of the timed phase over
   the wire to a fresh server, then in-process (see [Replay]), and
   derive the per-layer metrics and the layer ledger.  Returns whether
   the ledger confirms the workload's dominant layer. *)
let traced ~blitz ~out (w : Gen.t) ~seed ~flags s ~order ~lat ~(stats : Wire.cache_stats)
    ~(checked : checked) =
  let k = min (Array.length order) w.Gen.replay_max in
  let lines = Array.init k (fun j -> Gen.request_line ~id:(j + 1) (Gen.query s order.(j))) in
  let warmup = Array.map (fun idx -> Gen.request_line ~id:0 (Gen.query s idx)) s.Gen.warmup in
  (* Over the wire, client-side spans only. *)
  let srv = Wire.spawn ~blitz ~out_dir:out ~tag:(w.Gen.name ^ "-replay") flags in
  let wire_us =
    Fun.protect
      ~finally:(fun () -> Wire.stop_server srv)
      (fun () ->
        let conn = Wire.connect srv in
        ignore (Wire.control conn ~meth:"health");
        Array.iter
          (fun l ->
            let reply = Wire.call conn l in
            if Check.reply_body ~id:0 reply = None then Wire.fail "replay warm-up failed: %s" reply)
          warmup;
        let us =
          Array.mapi
            (fun j l ->
              let t0 = Wire.now_ns () in
              let reply = Replay.span ~req:j ~tid:0 "client.request" (fun () -> Wire.call conn l) in
              let dt = Int64.to_float (Int64.sub (Wire.now_ns ()) t0) /. 1e3 in
              if Check.reply_body ~id:(j + 1) reply = None then Wire.fail "replay reply failed: %s" reply;
              dt)
            lines
        in
        Wire.close conn;
        us)
  in
  (* In-process, passes A and B. *)
  let run = Replay.replay w ~warmup ~lines in
  let trace_file = Filename.concat out (Printf.sprintf "trace-%s-%d.json" w.Gen.name seed) in
  Replay.write_chrome trace_file;
  let a_tot, b_tot = Replay.request_totals () in
  let in_process = Replay.values a_tot in
  say "per-layer (traced replay of the first %d timed requests; Chrome trace in %s):" k trace_file;
  metric "server.residual_us" (Stats.median wire_us -. Stats.median in_process) "us"
    ~note:"(served p50 - in-process p50)";
  let layer ?tid ~span name =
    let tbl, source = Replay.per_request ?tid span in
    metric name (Stats.median (Replay.values tbl)) "us" ~note:("(" ^ source ^ ")");
    tbl
  in
  ignore (layer ~span:"protocol.decode" "protocol.decode_us");
  ignore (layer ~span:"protocol.encode" "protocol.encode_us");
  metric "protocol.request_bytes"
    (Stats.median (Array.map (fun l -> float_of_int (String.length l)) lines))
    "bytes";
  ignore (layer ~span:"sanitize.check" "sanitize.check_us");
  ignore (layer ~span:"fingerprint.compute" "fingerprint.compute_us");
  ignore (layer ~span:"plan_cache.find" "plan_cache.find_us");
  ignore (layer ~span:"plan_cache.store" "plan_cache.store_us");
  let lookups = stats.Wire.hits + stats.Wire.misses in
  metric "plan_cache.hit_ratio"
    (float_of_int stats.Wire.hits /. float_of_int (max 1 lookups))
    "ratio" ~note:(Printf.sprintf "(%d of %d lookups)" stats.Wire.hits lookups);
  metric "plan_cache.evictions" (float_of_int (stats.Wire.insertions - stats.Wire.entries)) "count";
  metric "plan_cache.resident_mb" (float_of_int stats.Wire.bytes /. mib) "MiB";
  ignore (layer ~tid:1 ~span:"guard.optimize" "guard.optimize_us");
  let answered = float_of_int (max 1 checked.ok) in
  metric "degrade.skips_per_request" (float_of_int checked.skips /. answered) "count";
  metric "degrade.exact_share" (float_of_int checked.exact_won /. answered) "ratio";
  ignore (layer ~span:"hybrid.optimize" "hybrid.optimize_us");
  let dp = layer ~span:"blitzsplit.dp" "blitzsplit.dp_us" in
  let iters = Array.of_list run.Replay.dp_iters in
  let mean f = Stats.mean (Array.map (fun x -> float_of_int (f x)) iters) in
  metric "split_loop.loop_iters" (mean (fun (_, l, _) -> l)) "count" ~note:"(mean per DP)";
  metric "split_loop.dprime_evals" (mean (fun (_, _, d) -> d)) "count" ~note:"(mean per DP)";
  metric "split_loop.ns_per_iter"
    (Stats.median
       (Array.map (fun (req, l, _) -> Hashtbl.find dp req *. 1e3 /. float_of_int (max 1 l)) iters))
    "ns";
  metric "dp_table.resident_mb" (float_of_int run.Replay.table_bytes /. mib) "MiB";
  ignore (layer ~span:"plan.extract" "plan.extract_us");
  ignore (layer ~span:"plan.encode" "plan.encode_us");
  let coverage =
    Stats.median
      (Array.of_seq (Seq.map (fun (req, a) -> Hashtbl.find b_tot req /. a) (Hashtbl.to_seq a_tot)))
  in
  metric "trace.coverage" coverage "ratio" ~note:"(staged layer self-times / decode+guard+encode)";
  let untraced = Stats.median (Array.map (fun ms -> ms *. 1e3) (Array.sub lat 0 k)) in
  metric "trace.overhead_pct" ((Stats.median wire_us -. untraced) /. untraced *. 100.) "pct"
    ~note:"(traced vs untraced served p50)";
  (* The ledger: mean self time per request by layer, as a share of the
     mean served request. *)
  let served = Stats.mean wire_us in
  let ledger =
    ("Server", Float.max 0. (served -. Stats.mean in_process)) :: Replay.ledger_means ~requests:k
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  say "layer ledger (%s; share of the mean served request, %.1f us):" w.Gen.name served;
  List.iter (fun (l, us) -> say "  %-12s %10.2f us %6.1f%%" l us (100. *. us /. served)) ledger;
  let dominant = fst (List.hd ledger) in
  let confirmed = List.mem dominant w.Gen.dominant in
  say "dominant layer: %s (expected one of %s): %s" dominant (String.concat ", " w.Gen.dominant)
    (if confirmed then "confirmed" else "NOT CONFIRMED");
  let covered = coverage >= 0.9 && coverage <= 1.1 in
  if not covered then say "trace.coverage %.3f is outside [0.9, 1.1]" coverage;
  confirmed && covered

let set_ups = 5

let run ~blitz ~out (w : Gen.t) ~seed ~seconds ~trace =
  let s = Gen.stream w ~seed in
  let flags = Wire.server_flags w in
  let next_id = ref 0 in
  let send conn idx =
    incr next_id;
    let id = !next_id in
    (id, Wire.call conn (Gen.request_line ~id (Gen.query s idx)))
  in
  let t = { replies = Hashtbl.create 1024; attempted = 0; failed = 0; errors = [] } in
  say "perfbench served: workload=%s seed=%d seconds=%g trace=%d" w.Gen.name seed seconds
    (if trace then 1 else 0);
  say "server: blitz %s" (String.concat " " ("serve --port 0" :: flags));
  (* Set-up: spawn until the first health reply, plus the warm-up pass.
     Done [set_ups] times; the last server stays up for the timed phase. *)
  let setup k =
    let t0 = Wire.now_ns () in
    let srv =
      Wire.spawn ~blitz ~out_dir:out ~tag:(Printf.sprintf "%s-setup%d" w.Gen.name k) flags
    in
    let conn = Wire.connect srv in
    ignore (Wire.control conn ~meth:"health");
    Array.iter
      (fun idx ->
        let id, reply = send conn idx in
        if k = set_ups then record t Warmup ~idx ~id reply
        else if Check.reply_body ~id reply = None then Wire.fail "warm-up reply is not ok: %s" reply)
      s.Gen.warmup;
    let elapsed = Wire.since_s t0 in
    if k < set_ups then begin
      Wire.close conn;
      Wire.stop_server srv
    end;
    (srv, conn, elapsed)
  in
  let setups = List.init set_ups (fun k -> setup (k + 1)) in
  let srv, conn, _ = List.nth setups (set_ups - 1) in
  let setup_times = Array.of_list (List.map (fun (_, _, e) -> e) setups) in
  (* The timed phase: one caller, waiting for each plan. *)
  let lat = Buf.create () and order = Buf.create () in
  let t0 = Wire.now_ns () in
  let stop = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let last = ref t0 in
  while Int64.compare !last stop < 0 do
    let idx = Gen.timed s (Buf.length order) in
    let sent = Wire.now_ns () in
    let id, reply = send conn idx in
    last := Wire.now_ns ();
    ignore (Buf.push lat (Int64.to_float (Int64.sub !last sent) /. 1e6));
    ignore (Buf.push order idx);
    record t Timed ~idx ~id reply
  done;
  let wall = Int64.to_float (Int64.sub !last t0) /. 1e9 in
  let stats = Wire.stats conn in
  let rss = Wire.vm_hwm_mib srv in
  Wire.close conn;
  Wire.stop_server srv;
  let lat = Buf.to_array lat and order = Buf.to_array order in
  let n = Array.length lat in
  let c = check_replies w s t in
  if c.from_cache <> stats.Wire.hits then
    note_failure t
      (Printf.sprintf "client saw %d from_cache answers, server counted %d hits" c.from_cache
         stats.Wire.hits);
  say "checked: %d replies (%d distinct), %d failed" t.attempted (Hashtbl.length t.replies) t.failed;
  List.iter (fun e -> say "  failure: %s" e) (List.rev t.errors);
  say "end-to-end (closed loop, 1 connection, %d timed requests in %.3f s):" n wall;
  let ms_note = Printf.sprintf "(n=%d)" n in
  metric "setup_s" (Stats.median setup_times) "s"
    ~note:
      (Printf.sprintf "(median of %d set-ups: %s)" set_ups
         (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times))));
  metric "qps" (float_of_int c.ok /. wall) "req/s";
  metric "p50_ms" (Stats.median lat) "ms" ~note:ms_note;
  metric "p95_ms" (Stats.percentile lat 95.) "ms" ~note:ms_note;
  metric "cost_ratio"
    (Float.exp (c.log_ratio_sum /. float_of_int (max 1 c.ok)))
    "ratio" ~note:"(geometric mean of returned cost / exact optimum)";
  metric "rss_mb" rss "MiB" ~note:"(server VmHWM)";
  say "  latency percentiles (ms): %s"
    (String.concat " "
       (List.map
          (fun p -> Printf.sprintf "p%g=%.4g" p (Stats.percentile lat p))
          [ 10.; 25.; 50.; 75.; 90.; 95.; 99. ]));
  if n >= 1000 then say "  %-26s %14.6g %-8s %s" "p99_ms" (Stats.percentile lat 99.) "ms" ms_note
  else say "  p99_ms not reported: %d timed requests, fewer than 1000" n;
  say "  %-26s %14.6g %-8s (%d of %d)" "error_rate"
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    "fraction" t.failed t.attempted;
  let ledger_ok =
    (not trace)
    || begin
         metrics := [];
         traced ~blitz ~out w ~seed ~flags s ~order ~lat ~stats ~checked:c
       end
  in
  let correct = t.failed = 0 && ledger_ok in
  result_line ~correct ~attempted:t.attempted ~failed:t.failed;
  correct

(* ---- checker self-test ---- *)

let selftest ~blitz ~out =
  let w = Option.get (Gen.find "zipf-warm") in
  let s = Gen.stream w ~seed:1 in
  (* Pool index 3 is an n=12 chain. *)
  let idx = 3 in
  let line = Gen.request_line ~id:1 (Gen.query s idx) in
  let srv = Wire.spawn ~blitz ~out_dir:out ~tag:"selftest" (Wire.server_flags w) in
  let reply =
    Fun.protect
      ~finally:(fun () -> Wire.stop_server srv)
      (fun () ->
        let conn = Wire.connect srv in
        let r = Wire.call conn line in
        Wire.close conn;
        r)
  in
  let d = Check.decode line in
  let opt = Check.exact_optimum ~arena:(Arena.create ()) d in
  let result =
    match Option.map Check.parse_body (Check.reply_body ~id:1 reply) with
    | Some (Ok (Json.Obj fields)) -> fields
    | _ -> Wire.fail "selftest: unusable reply %s" reply
  in
  let with_field k v = Json.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) result) in
  let verdict r = Check.check ~exact:true d ~opt r in
  let cost = Option.get (Option.bind (List.assoc_opt "cost" result) Json.to_float_opt) in
  let plan =
    match List.assoc_opt "plan" result with
    | Some (Json.String p) -> Result.get_ok (Plan.of_compact_string ~names:d.Check.names p)
    | _ -> Wire.fail "selftest: reply without a plan"
  in
  let partial = match plan with Plan.Join (l, _) -> l | p -> p in
  let cases =
    [
      ("accepts the served answer", Result.is_ok (verdict (Json.Obj result)));
      ( "rejects an altered cost",
        Result.is_error (verdict (with_field "cost" (Json.Float (cost *. 1.001)))) );
      ( "rejects a plan missing a relation",
        Result.is_error
          (verdict (with_field "plan" (Json.String (Plan.to_compact_string ~names:d.Check.names partial))))
      );
      ("rejects a reply to another request", Check.reply_body ~id:2 reply = None);
    ]
  in
  List.iter (fun (name, ok) -> say "checker %s: %s" name (if ok then "ok" else "FAILED")) cases;
  List.for_all snd cases

(* ---- command line ---- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | x :: _ -> Wire.fail "unexpected argument %s" x
  in
  let get o k = match List.assoc_opt k o with Some v -> v | None -> Wire.fail "missing %s" k in
  let ok =
    try
      match args with
      | "run" :: rest ->
        let o = opts [] rest in
        let w =
          match Gen.find (get o "--workload") with
          | Some w -> w
          | None -> Wire.fail "unknown workload %s" (get o "--workload")
        in
        run ~blitz:(get o "--blitz") ~out:(get o "--out") w
          ~seed:(int_of_string (get o "--seed"))
          ~seconds:(float_of_string (get o "--seconds"))
          ~trace:(get o "--trace" = "1")
      | "selftest" :: rest ->
        let o = opts [] rest in
        selftest ~blitz:(get o "--blitz") ~out:(get o "--out")
      | _ -> Wire.fail "usage: served.exe (run|selftest) --blitz BIN --out DIR [...]"
    with Wire.Failed msg ->
      prerr_endline ("perfbench: " ^ msg);
      false
  in
  exit (if ok then 0 else 1)
