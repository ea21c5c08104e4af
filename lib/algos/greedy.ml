module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module E = Wm_graph.Edge
module S = Wm_stream.Edge_stream

let maximal_stream s =
  let m = M.create (S.graph_n s) in
  S.iter s (fun e -> ignore (M.try_add m e));
  m

let grow_stream m s =
  let m = M.copy m in
  S.iter s (fun e -> ignore (M.try_add m e));
  m

let maximal g =
  let m = M.create (G.n g) in
  G.iter_edges (fun e -> ignore (M.try_add m e)) g;
  m

let by_weight g =
  let m = M.create (G.n g) in
  let edges = E.sort_by_weight ~descending:true (G.canonical_edges g) in
  Array.iter (fun e -> ignore (M.try_add m e)) edges;
  m
