module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Join_graph = Blitz_graph.Join_graph
module Cost_model = Blitz_cost.Cost_model

(* Hot-path array accesses use [unsafe_get]/[unsafe_set]: every index is
   a nonempty subset of the n relations, i.e. an integer in [1, 2^n), and
   the arrays have exactly 2^n slots — [lhs] and its complement are
   nonempty proper subsets of [s], and [s] itself is below [2^n] by
   construction of the enumeration loops.  The checked variants cost ~15%
   of the split loop on this kernel (two bounds tests per iteration). *)


(* The split loop of find_best_split (Figure 1, realized per Section 4.2)
   as four monomorphized loop bodies in one function, dispatched once per
   subset on [Cost_model.kind]:

   - "zero"     kappa'' = 0 (naive, and any Opaque model that declares
                [dprime_is_zero]): no kappa'' tier at all; reads only the
                dense [cost] column (eight subset costs per 64-byte line);
   - "sum-aux"  sort-merge: kappa'' = laux + raux inlined, read from the
                [cost] and [aux] columns;
   - "dnl"      disk nested loops: kappa'' inlined from the model's
                captured constants, operand cards read from the [card]
                column only once both operand costs passed the cost tiers;
   - "general"  anything [Opaque] with a real kappa'': the closure is
                called per evaluation (boxing its float arguments — the
                only body that allocates).

   The bodies are spelled out inline rather than shared through helper
   functions because no float may cross a function boundary: without
   flambda, ocamlopt boxes every float argument at a call, so a
   tail-recursive kernel or a float-taking epilogue would allocate on
   each improvement.  Inside one function, local float refs compile to
   unboxed mutable variables (reference elimination), so the paper-model
   bodies are allocation-free — `bench split` gates Gc.minor_words
   delta = 0 across a warm sweep.  [lhs] walks the nonempty proper
   subsets of [s] in ascending order via the successor trick; nested ifs
   defer the kappa'' evaluation until both operand costs and their sum
   beat the best split so far (Section 6.2).

   Half loop.  The three symmetric bodies ("zero", "sum-aux", "dnl")
   stop at the midpoint, [lhs < s lxor lhs]: they visit each unordered
   split {L, S\L} once, in the orientation whose left side lacks [s]'s
   highest bit.  Ascending order puts every such [L] before every subset
   holding that bit, so the half they visit is exactly the first half of
   Reference's walk, and each pair is met at its first position there.
   Their split costs are symmetric to the bit ([cl +. cr], [laux +.
   raux], [lcard *. rcard], [Float.min] all commute), so Reference's
   second visit of a pair computes the same values and compares them
   against a best-so-far that can only have dropped since the first:
   the strict [<] rejects it, even on ties.  Costs, cards, [best_lhs]
   links, [improvements], [threshold_skips] and [infeasible] therefore
   stay bit-identical to {!Reference}; [loop_iters] is exactly half of
   it, and [operand_sums]/[dprime_evals] are at most its counts.  The
   "general" body calls an arbitrary closure, which need not be
   symmetric, so it walks the full loop and matches Reference in every
   counter (QCheck-enforced, test/test_split_kernel.ml). *)

(* kappa' alone already "overflows" the threshold: skip the split loop
   entirely.  Shared across bodies — only word-sized arguments, so the
   call cannot box. *)
let skip_subset (tbl : Dp_table.t) (ctr : Counters.t) s =
  ctr.threshold_skips <- ctr.threshold_skips + 1;
  ctr.infeasible <- ctr.infeasible + 1;
  Array.unsafe_set tbl.cost s Float.infinity;
  Array.unsafe_set tbl.best_lhs s 0

let find_best_split (tbl : Dp_table.t) (model : Cost_model.t) (ctr : Counters.t) ~threshold s =
  ctr.subsets <- ctr.subsets + 1;
  let out = Array.unsafe_get tbl.card s in
  match model.kind with
  | Cost_model.Paper_naive ->
    (* kappa' = out, kappa'' = 0 — no closure even once per subset. *)
    let kp = out in
    if kp >= threshold then skip_subset tbl ctr s
    else begin
      let cost = tbl.cost in
      let best_cost = ref (threshold -. kp) in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 in
      while !lhs < s lxor !lhs do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let cr = Array.unsafe_get cost (s lxor l) in
          if cr < !best_cost then begin
            ctr.operand_sums <- ctr.operand_sums + 1;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              ctr.improvements <- ctr.improvements + 1;
              best_cost := oprnd;
              best_lhs := l
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        Array.unsafe_set cost s (!best_cost +. kp);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end
  | Cost_model.Paper_sort_merge ->
    (* kappa' = 0, kappa'' = laux + raux from the memo column. *)
    if 0.0 >= threshold then skip_subset tbl ctr s
    else begin
      let cost = tbl.cost and aux = tbl.aux in
      let best_cost = ref threshold in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 in
      while !lhs < s lxor !lhs do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let r = s lxor l in
          let cr = Array.unsafe_get cost r in
          if cr < !best_cost then begin
            ctr.operand_sums <- ctr.operand_sums + 1;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              ctr.dprime_evals <- ctr.dprime_evals + 1;
              let dpnd = oprnd +. (Array.unsafe_get aux l +. Array.unsafe_get aux r) in
              if dpnd < !best_cost then begin
                ctr.improvements <- ctr.improvements + 1;
                best_cost := dpnd;
                best_lhs := l
              end
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        (* kappa' = 0: the best split cost IS the subset cost ([+. 0.]
           preserved for bit-identity with Reference's [+. kp]). *)
        Array.unsafe_set cost s (!best_cost +. 0.0);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end
  | Cost_model.Paper_dnl { k; inner_coeff } ->
    (* kappa' = 2 out / k; kappa'' inlined from the captured constants. *)
    let kp = 2.0 *. out /. k in
    if kp >= threshold then skip_subset tbl ctr s
    else begin
      let cost = tbl.cost and card = tbl.card in
      let best_cost = ref (threshold -. kp) in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 in
      while !lhs < s lxor !lhs do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let r = s lxor l in
          let cr = Array.unsafe_get cost r in
          if cr < !best_cost then begin
            ctr.operand_sums <- ctr.operand_sums + 1;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              ctr.dprime_evals <- ctr.dprime_evals + 1;
              let lcard = Array.unsafe_get card l in
              let rcard = Array.unsafe_get card r in
              let dpnd =
                oprnd +. ((lcard *. rcard *. inner_coeff) +. (Float.min lcard rcard /. k))
              in
              if dpnd < !best_cost then begin
                ctr.improvements <- ctr.improvements + 1;
                best_cost := dpnd;
                best_lhs := l
              end
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        Array.unsafe_set cost s (!best_cost +. kp);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end
  | Cost_model.Opaque ->
    let kp = model.k_prime out in
    if kp >= threshold then skip_subset tbl ctr s
    else if model.dprime_is_zero then begin
      (* Same body as Paper_naive, under the model's own kappa'. *)
      let cost = tbl.cost in
      let best_cost = ref (threshold -. kp) in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 in
      while !lhs < s lxor !lhs do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let cr = Array.unsafe_get cost (s lxor l) in
          if cr < !best_cost then begin
            ctr.operand_sums <- ctr.operand_sums + 1;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              ctr.improvements <- ctr.improvements + 1;
              best_cost := oprnd;
              best_lhs := l
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        Array.unsafe_set cost s (!best_cost +. kp);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end
    else begin
      (* General body: kappa'' through the closure (boxes its float
         arguments — unavoidable without specialization). *)
      let cost = tbl.cost and card = tbl.card and aux = tbl.aux in
      let k_dprime = model.k_dprime in
      let best_cost = ref (threshold -. kp) in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 in
      while !lhs <> s do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost then begin
          let r = s lxor l in
          let cr = Array.unsafe_get cost r in
          if cr < !best_cost then begin
            ctr.operand_sums <- ctr.operand_sums + 1;
            let oprnd = cl +. cr in
            if oprnd < !best_cost then begin
              ctr.dprime_evals <- ctr.dprime_evals + 1;
              let dpnd =
                oprnd
                +. k_dprime ~out
                     ~lcard:(Array.unsafe_get card l) ~rcard:(Array.unsafe_get card r)
                     ~laux:(Array.unsafe_get aux l) ~raux:(Array.unsafe_get aux r)
              in
              if dpnd < !best_cost then begin
                ctr.improvements <- ctr.improvements + 1;
                best_cost := dpnd;
                best_lhs := l
              end
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        Array.unsafe_set cost s (!best_cost +. kp);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end

let variant (model : Cost_model.t) =
  match model.kind with
  | Cost_model.Paper_naive -> "zero"
  | Cost_model.Paper_sort_merge -> "sum-aux"
  | Cost_model.Paper_dnl _ -> "dnl"
  | Cost_model.Opaque -> if model.dprime_is_zero then "zero" else "general"

let symmetric (model : Cost_model.t) =
  match model.kind with
  | Cost_model.Paper_naive | Cost_model.Paper_sort_merge | Cost_model.Paper_dnl _ -> true
  | Cost_model.Opaque -> model.dprime_is_zero

(* The pre-refactor kernel, kept verbatim for differential testing and
   as the baseline the `bench split` speedup gate measures against. *)
module Reference = struct
  let find_best_split (tbl : Dp_table.t) (model : Cost_model.t) (ctr : Counters.t) ~threshold s
      =
    let cost = tbl.cost and card = tbl.card and aux = tbl.aux in
    ctr.subsets <- ctr.subsets + 1;
    let out = Array.unsafe_get card s in
    let kp = model.k_prime out in
    if kp >= threshold then begin
      (* kappa' alone already "overflows": skip the loop entirely. *)
      ctr.threshold_skips <- ctr.threshold_skips + 1;
      ctr.infeasible <- ctr.infeasible + 1;
      Array.unsafe_set cost s Float.infinity;
      Array.unsafe_set tbl.best_lhs s 0
    end
    else begin
      let k_dprime = model.k_dprime in
      let dprime_is_zero = model.dprime_is_zero in
      (* Splits must come in under [threshold - kappa'] for the total plan
         cost to stay below the threshold. *)
      let best_cost_so_far = ref (threshold -. kp) in
      let best_lhs = ref 0 in
      let lhs = ref (s land (-s)) in
      let iters = ref 0 in
      while !lhs <> s do
        incr iters;
        let l = !lhs in
        let cl = Array.unsafe_get cost l in
        if cl < !best_cost_so_far then begin
          let r = s lxor l in
          let cr = Array.unsafe_get cost r in
          if cr < !best_cost_so_far then begin
            ctr.operand_sums <- ctr.operand_sums + 1;
            let oprnd_cost = cl +. cr in
            if oprnd_cost < !best_cost_so_far then begin
              let dpnd_cost =
                if dprime_is_zero then oprnd_cost
                else begin
                  ctr.dprime_evals <- ctr.dprime_evals + 1;
                  oprnd_cost
                  +. k_dprime ~out ~lcard:(Array.unsafe_get card l)
                       ~rcard:(Array.unsafe_get card r) ~laux:(Array.unsafe_get aux l)
                       ~raux:(Array.unsafe_get aux r)
                end
              in
              if dpnd_cost < !best_cost_so_far then begin
                ctr.improvements <- ctr.improvements + 1;
                best_cost_so_far := dpnd_cost;
                best_lhs := l
              end
            end
          end
        end;
        lhs := s land (l - s)
      done;
      ctr.loop_iters <- ctr.loop_iters + !iters;
      if !best_lhs = 0 then begin
        ctr.infeasible <- ctr.infeasible + 1;
        Array.unsafe_set cost s Float.infinity;
        Array.unsafe_set tbl.best_lhs s 0
      end
      else begin
        Array.unsafe_set cost s (!best_cost_so_far +. kp);
        Array.unsafe_set tbl.best_lhs s !best_lhs
      end
    end
end

(* compute_properties for join optimization (Section 5.4): the fan
   recurrence Pi_fan(S) = Pi_fan(U+W) * Pi_fan(U+Z), seeded with raw
   predicate selectivities on doubletons, then
   card(S) = card(U) * card(V) * Pi_fan(S)  (Equation 11). *)
let compute_properties_join (tbl : Dp_table.t) (model : Cost_model.t) graph s =
  let pi_fan = tbl.pi_fan and card = tbl.card in
  let u = s land (-s) in
  let v = s lxor u in
  let fan =
    if v land (v - 1) = 0 then Join_graph.selectivity graph (Relset.min_elt u) (Relset.min_elt v)
    else begin
      let w = v land (-v) in
      let z = v lxor w in
      Array.unsafe_get pi_fan (u lor w) *. Array.unsafe_get pi_fan (u lor z)
    end
  in
  Array.unsafe_set pi_fan s fan;
  let c = Array.unsafe_get card u *. Array.unsafe_get card v *. fan in
  Array.unsafe_set card s c;
  Array.unsafe_set tbl.aux s (model.aux c)

(* compute_properties for Cartesian products (Figure 1): just the
   cardinality product.  Never touches [pi_fan] (which the product path
   leaves unallocated). *)
let compute_properties_product (tbl : Dp_table.t) (model : Cost_model.t) s =
  let card = tbl.card in
  let u = s land (-s) in
  let v = s lxor u in
  let c = Array.unsafe_get card u *. Array.unsafe_get card v in
  Array.unsafe_set card s c;
  Array.unsafe_set tbl.aux s (model.aux c)

let init_singletons (tbl : Dp_table.t) (model : Cost_model.t) catalog =
  let n = Catalog.n catalog in
  let fan = Dp_table.has_pi_fan tbl in
  for i = 0 to n - 1 do
    let s = 1 lsl i in
    let c = Catalog.card catalog i in
    tbl.card.(s) <- c;
    tbl.cost.(s) <- 0.0;
    tbl.best_lhs.(s) <- 0;
    if fan then tbl.pi_fan.(s) <- 1.0;
    tbl.aux.(s) <- model.aux c
  done
