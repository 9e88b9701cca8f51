module Plan = Blitz_plan.Plan
module Obs = Blitz_obs.Obs

let m_hits = Obs.Metrics.counter ~help:"Plan-cache exact hits" "blitz_cache_hits_total"
let m_misses = Obs.Metrics.counter ~help:"Plan-cache exact misses" "blitz_cache_misses_total"

let m_insertions =
  Obs.Metrics.counter ~help:"Plan-cache entries inserted" "blitz_cache_insertions_total"

let m_evictions =
  Obs.Metrics.counter ~help:"Plan-cache LRU evictions" "blitz_cache_evictions_total"

let m_rebases =
  Obs.Metrics.counter ~help:"Plan-cache hits renumbered to the caller's labeling"
    "blitz_cache_rebases_total"

let m_shape_hits =
  Obs.Metrics.counter ~help:"Shape-tier threshold seeds served" "blitz_cache_shape_hits_total"

let m_band_hits =
  Obs.Metrics.counter ~help:"Banded-ensemble plan seeds served by selectivity band"
    "blitz_cache_band_hits_total"

type node = {
  key : int;
  fp : Fingerprint.frozen;
  optimizer : string;
  plan : Plan.t;  (* canonical index space *)
  cost : float;
  passes : int;
  final_threshold : float;
  bytes : int;
  mutable prev : node;
  mutable next : node;
}

let dummy_frozen = Fingerprint.freeze (Fingerprint.create_scratch ())

let make_sentinel () =
  let rec s =
    {
      key = 0;
      fp = dummy_frozen;
      optimizer = "";
      plan = Plan.Leaf 0;
      cost = nan;
      passes = 0;
      final_threshold = nan;
      bytes = 0;
      prev = s;
      next = s;
    }
  in
  s

let unlink nd =
  nd.prev.next <- nd.next;
  nd.next.prev <- nd.prev

let push_front sent nd =
  nd.next <- sent.next;
  nd.prev <- sent;
  sent.next.prev <- nd;
  sent.next <- nd

(* One ensemble member: a plan in shape-canonical index space, with
   the cost and relation count of the problem that stored it.  The
   cost is under the {e storing} catalog — a seed consumer must re-cost
   under its own statistics before trusting it. *)
type band_entry = { b_plan : Plan.t; b_cost : float; b_n : int }

type shard = {
  lock : Mutex.t;
  tbl : (int, node list) Hashtbl.t;
  sent : node;  (* MRU = [sent.next], LRU tail = [sent.prev] *)
  shapes : (int, float) Hashtbl.t;  (* shape hash -> best known cost *)
  bands : (int, (int * band_entry) list) Hashtbl.t;
      (* shape hash -> per-selectivity-band plan ensemble *)
  budget : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rebases : int;
  mutable shape_hits : int;
  mutable band_hits : int;
}

type t = { shards_arr : shard array; mask : int; max_bytes : int }

let shards t = Array.length t.shards_arr
let max_bytes t = t.max_bytes

(* Shape-tier seed = best known cost x this slack; correctness-neutral
   because §6.4's forced rescue pass still finds the optimum. *)
let warm_slack = 2.0

(* Bound on the heuristic shape table so an adversarial stream of
   distinct shapes cannot grow it without limit; dropping it loses only
   warm-start seeds, never correctness. *)
let max_shapes_per_shard = 4096

(* Ensemble width: distinct selectivity bands retained per shape.  "One
   Join Order Does Not Fit All" finds a handful of regimes per query
   shape; eight decades of total selectivity is generous. *)
let max_bands_per_shape = 8

let next_pow2 x =
  let r = ref 1 in
  while !r < x do
    r := !r lsl 1
  done;
  !r

let create ?(shards = 8) ?(max_bytes = 64 * 1024 * 1024) () =
  if shards <= 0 then invalid_arg "Plan_cache.create: shards must be positive";
  if max_bytes <= 0 then invalid_arg "Plan_cache.create: max_bytes must be positive";
  let count = next_pow2 shards in
  let budget = max 1 (max_bytes / count) in
  let mk _ =
    {
      lock = Mutex.create ();
      tbl = Hashtbl.create 64;
      sent = make_sentinel ();
      shapes = Hashtbl.create 64;
      bands = Hashtbl.create 64;
      budget;
      bytes = 0;
      hits = 0;
      misses = 0;
      insertions = 0;
      evictions = 0;
      rebases = 0;
      shape_hits = 0;
      band_hits = 0;
    }
  in
  { shards_arr = Array.init count mk; mask = count - 1; max_bytes }

let string_hash str = String.fold_left (fun h c -> (h * 31) + Char.code c) 5381 str

let entry_key scratch ~optimizer =
  (* Mix the optimizer name in so e.g. "exact" and "thresholded" results
     for the same problem live in distinct entries. *)
  let h = Fingerprint.hash scratch lxor (string_hash optimizer * 0x100000001b3) in
  h lxor (h lsr 31)

let shard_of t key = t.shards_arr.((key lsr 1) land t.mask)

let with_lock sh f =
  Mutex.lock sh.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

type hit = {
  plan : Plan.t;
  cost : float;
  passes : int;
  final_threshold : float;
  rebased : bool;
}

let find t scratch ~optimizer =
  let key = entry_key scratch ~optimizer in
  let sh = shard_of t key in
  let found =
    with_lock sh (fun () ->
        let nodes = Option.value ~default:[] (Hashtbl.find_opt sh.tbl key) in
        match
          List.find_opt
            (fun nd -> String.equal nd.optimizer optimizer && Fingerprint.matches scratch nd.fp)
            nodes
        with
        | None ->
            sh.misses <- sh.misses + 1;
            None
        | Some nd ->
            unlink nd;
            push_front sh.sent nd;
            sh.hits <- sh.hits + 1;
            let rebased = not (Fingerprint.same_labeling scratch nd.fp) in
            if rebased then sh.rebases <- sh.rebases + 1;
            Some (nd, rebased))
  in
  match found with
  | None ->
      Obs.Metrics.incr m_misses;
      None
  | Some (nd, rebased) ->
      Obs.Metrics.incr m_hits;
      if rebased then Obs.Metrics.incr m_rebases;
      (* Rebase outside the lock: the stored plan is immutable and the
         scratch is caller-owned, so eviction races are harmless. *)
      Some
        {
          plan = Fingerprint.rebase_plan scratch nd.plan;
          cost = nd.cost;
          passes = nd.passes;
          final_threshold = nd.final_threshold;
          rebased;
        }

let plan_bytes plan =
  let word = Sys.word_size / 8 in
  let rec sz = function
    | Plan.Leaf _ -> 2 * word
    | Plan.Join (l, r) -> (3 * word) + sz l + sz r
    | Plan.Multiway { inputs; cover; agm = _ } ->
      (* Node + per-input list cells + cover entries (members list cells
         plus the boxed weight). *)
      List.fold_left (fun acc p -> acc + (3 * word) + sz p) (4 * word) inputs
      + List.fold_left
          (fun acc (members, _) -> acc + ((3 + (3 * List.length members)) * word))
          0 cover
  in
  sz plan

let node_bytes ~fp ~plan ~optimizer =
  let word = Sys.word_size / 8 in
  (12 * word) + Fingerprint.frozen_bytes fp + plan_bytes plan + String.length optimizer + word

let evict_over_budget sh =
  let evicted = ref 0 in
  while sh.bytes > sh.budget && sh.sent.prev != sh.sent do
    let victim = sh.sent.prev in
    unlink victim;
    (match Hashtbl.find_opt sh.tbl victim.key with
    | None -> ()
    | Some nodes -> (
        match List.filter (fun nd -> nd != victim) nodes with
        | [] -> Hashtbl.remove sh.tbl victim.key
        | rest -> Hashtbl.replace sh.tbl victim.key rest));
    sh.bytes <- sh.bytes - victim.bytes;
    sh.evictions <- sh.evictions + 1;
    incr evicted
  done;
  !evicted

let record_shape sh shape_key cost =
  match Hashtbl.find_opt sh.shapes shape_key with
  | Some best -> if cost < best then Hashtbl.replace sh.shapes shape_key cost
  | None ->
      if Hashtbl.length sh.shapes < max_shapes_per_shard then
        Hashtbl.replace sh.shapes shape_key cost

let record_band sh shape_key ~band entry =
  match Hashtbl.find_opt sh.bands shape_key with
  | None ->
      if Hashtbl.length sh.bands < max_shapes_per_shard then
        Hashtbl.replace sh.bands shape_key [ (band, entry) ]
  | Some members -> (
      match List.assoc_opt band members with
      | Some old ->
          if entry.b_cost < old.b_cost then
            Hashtbl.replace sh.bands shape_key
              ((band, entry) :: List.remove_assoc band members)
      | None ->
          if List.length members < max_bands_per_shape then
            Hashtbl.replace sh.bands shape_key ((band, entry) :: members))

let shape_shard t shape_key = t.shards_arr.((shape_key lsr 1) land t.mask)

let store t scratch ~optimizer ~plan ~cost ~passes ~final_threshold =
  let key = entry_key scratch ~optimizer in
  let sh = shard_of t key in
  (* The shape record routes by shape key (that is how lookups find it),
     which may be a different shard; never hold both locks at once. *)
  let shape_key = Fingerprint.shape_hash scratch in
  let ssh = shape_shard t shape_key in
  let band = Fingerprint.selectivity_band scratch in
  let banded_plan = Fingerprint.shape_canonize_plan scratch plan in
  let b_entry = { b_plan = banded_plan; b_cost = cost; b_n = Fingerprint.n scratch } in
  with_lock ssh (fun () ->
      record_shape ssh shape_key cost;
      record_band ssh shape_key ~band b_entry);
  (* Canonize and freeze outside the lock; both only read caller state. *)
  let canonical = Fingerprint.canonize_plan scratch plan in
  let fp = Fingerprint.freeze scratch in
  let inserted, evicted =
    with_lock sh (fun () ->
        let nodes = Option.value ~default:[] (Hashtbl.find_opt sh.tbl key) in
        match
          List.find_opt
            (fun nd -> String.equal nd.optimizer optimizer && Fingerprint.matches scratch nd.fp)
            nodes
        with
        | Some nd ->
            (* Duplicate store (two sessions raced the same miss): keep
               the resident entry, just refresh its recency. *)
            unlink nd;
            push_front sh.sent nd;
            (false, 0)
        | None ->
            let nd =
              {
                key;
                fp;
                optimizer;
                plan = canonical;
                cost;
                passes;
                final_threshold;
                bytes = node_bytes ~fp ~plan:canonical ~optimizer;
                prev = sh.sent;
                next = sh.sent;
              }
            in
            Hashtbl.replace sh.tbl key (nd :: nodes);
            push_front sh.sent nd;
            sh.bytes <- sh.bytes + nd.bytes;
            sh.insertions <- sh.insertions + 1;
            (true, evict_over_budget sh))
  in
  if inserted then Obs.Metrics.incr m_insertions;
  if evicted > 0 then Obs.Metrics.add m_evictions evicted

let shape_threshold t scratch =
  let shape_key = Fingerprint.shape_hash scratch in
  let sh = shape_shard t shape_key in
  let best =
    with_lock sh (fun () ->
        match Hashtbl.find_opt sh.shapes shape_key with
        | None -> None
        | Some c ->
            sh.shape_hits <- sh.shape_hits + 1;
            Some c)
  in
  match best with
  | None -> None
  | Some c ->
      Obs.Metrics.incr m_shape_hits;
      Some (c *. warm_slack)

let shape_seed t scratch =
  let shape_key = Fingerprint.shape_hash scratch in
  let band = Fingerprint.selectivity_band scratch in
  let n = Fingerprint.n scratch in
  let sh = shape_shard t shape_key in
  let found =
    with_lock sh (fun () ->
        match Hashtbl.find_opt sh.bands shape_key with
        | None -> None
        | Some members -> (
            match List.assoc_opt band members with
            | Some e when e.b_n = n ->
                sh.band_hits <- sh.band_hits + 1;
                Some e
            | Some _ | None -> None))
  in
  match found with
  | None -> None
  | Some e ->
      Obs.Metrics.incr m_band_hits;
      (* [b_n = n] makes the rebase total (every shape-canonical leaf is
         below [n]); a shape-hash collision can still hand back a plan
         for a different problem, which the consumer's re-costing and
         the threshold driver's rescue pass absorb. *)
      Some (Fingerprint.shape_rebase_plan scratch e.b_plan, e.b_cost)

let resident_bytes t =
  Array.fold_left
    (fun acc sh -> acc + with_lock sh (fun () -> sh.bytes))
    0 t.shards_arr

let entry_count t =
  Array.fold_left
    (fun acc sh ->
      acc
      + with_lock sh (fun () ->
            Hashtbl.fold (fun _ nodes n -> n + List.length nodes) sh.tbl 0))
    0 t.shards_arr

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  rebases : int;
  shape_hits : int;
  band_hits : int;
  entries : int;
  bytes : int;
}

let stats t =
  Array.fold_left
    (fun acc sh ->
      with_lock sh (fun () ->
          {
            hits = acc.hits + sh.hits;
            misses = acc.misses + sh.misses;
            insertions = acc.insertions + sh.insertions;
            evictions = acc.evictions + sh.evictions;
            rebases = acc.rebases + sh.rebases;
            shape_hits = acc.shape_hits + sh.shape_hits;
            band_hits = acc.band_hits + sh.band_hits;
            entries =
              acc.entries + Hashtbl.fold (fun _ nodes n -> n + List.length nodes) sh.tbl 0;
            bytes = acc.bytes + sh.bytes;
          }))
    {
      hits = 0;
      misses = 0;
      insertions = 0;
      evictions = 0;
      rebases = 0;
      shape_hits = 0;
      band_hits = 0;
      entries = 0;
      bytes = 0;
    }
    t.shards_arr

let clear t =
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          Hashtbl.reset sh.tbl;
          Hashtbl.reset sh.shapes;
          Hashtbl.reset sh.bands;
          sh.bytes <- 0;
          let s = sh.sent in
          s.prev <- s;
          s.next <- s))
    t.shards_arr
