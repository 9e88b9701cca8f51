module Relset = Blitz_bitset.Relset
module Catalog = Blitz_catalog.Catalog
module Hypergraph = Blitz_graph.Hypergraph
module Cost_model = Blitz_cost.Cost_model

let max_hyperedges = 62

let recurrence model catalog hypergraph =
  let n = Catalog.n catalog in
  if Hypergraph.n hypergraph <> n then
    invalid_arg
      (Printf.sprintf "Blitzsplit_hyper: hypergraph over %d relations, catalog has %d"
         (Hypergraph.n hypergraph) n);
  let packed = Hypergraph.pack hypergraph in
  let edge_count = Hypergraph.packed_edge_count packed in
  if edge_count > max_hyperedges then
    invalid_arg
      (Printf.sprintf "Blitzsplit_hyper: %d hyperedges exceed the %d-bit mask" edge_count
         max_hyperedges);
  let member_mask = packed.Hypergraph.members in
  let sel = packed.Hypergraph.sel in
  fun (tbl : Dp_table.t) ->
    (* Bitmask of completed hyperedges per subset.  Singletons cannot
       complete any (hyperedges have >= 2 members). *)
    let completed = Array.make (Dp_table.size tbl) 0 in
    let card = tbl.Dp_table.card and aux = tbl.Dp_table.aux in
    fun s ->
      let u = s land (-s) in
      let v = s lxor u in
      let have = completed.(u) lor completed.(v) in
      (* Hyperedges completed exactly at this union. *)
      let span = ref 1.0 and now = ref have in
      for e = 0 to edge_count - 1 do
        if !now land (1 lsl e) = 0 && Relset.subset member_mask.(e) s then begin
          now := !now lor (1 lsl e);
          span := !span *. sel.(e)
        end
      done;
      completed.(s) <- !now;
      let c = card.(u) *. card.(v) *. !span in
      card.(s) <- c;
      aux.(s) <- model.Cost_model.aux c
