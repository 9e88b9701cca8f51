module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Equivalence = Blitz_graph.Equivalence
module Cost_model = Blitz_cost.Cost_model

let max_classes = 62

let recurrence model catalog equivalence =
  let n = Catalog.n catalog in
  if Equivalence.n equivalence <> n then
    invalid_arg
      (Printf.sprintf "Blitzsplit_eq: classes over %d relations, catalog has %d"
         (Equivalence.n equivalence) n);
  let classes = Array.of_list (Equivalence.classes equivalence) in
  let class_count = Array.length classes in
  if class_count > max_classes then
    invalid_arg (Printf.sprintf "Blitzsplit_eq: %d classes exceed the %d-bit mask" class_count max_classes);
  let inv_domain = Array.map (fun c -> 1.0 /. c.Equivalence.domain) classes in
  (* Per-relation class-presence mask. *)
  let rel_mask = Array.make n 0 in
  Array.iteri
    (fun ci c ->
      Relset.iter (fun r -> rel_mask.(r) <- rel_mask.(r) lor (1 lsl ci)) c.Equivalence.relations)
    classes;
  fun (tbl : Dp_table.t) ->
    (* Class-presence mask per subset; singletons from rel_mask. *)
    let mask = Array.make (Dp_table.size tbl) 0 in
    for i = 0 to n - 1 do
      mask.(1 lsl i) <- rel_mask.(i)
    done;
    let card = tbl.Dp_table.card and aux = tbl.Dp_table.aux in
    fun s ->
      let u = s land (-s) in
      let v = s lxor u in
      let mu = mask.(u) in
      let both = mu land mask.(v) in
      (* span(U, V): one 1/D factor per class present on both sides. *)
      let span = ref 1.0 in
      let m = ref both in
      while !m <> 0 do
        let bit = !m land (- !m) in
        span := !span *. inv_domain.(Relset.min_elt bit);
        m := !m lxor bit
      done;
      mask.(s) <- mu lor mask.(v);
      let c = card.(u) *. card.(v) *. !span in
      card.(s) <- c;
      aux.(s) <- model.Cost_model.aux c
