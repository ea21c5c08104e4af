module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module E = Wm_graph.Edge
module B = Wm_graph.Bipartition

(* A bipartite graph goes to the sparse Hungarian solver, which is
   O(n + m) memory and fast at any size; anything else to the O(n^3)
   blossom, whose size cap guards against cubing a huge instance. *)
let blossom_cap = 20_000

let solve_opt g =
  match B.two_color g with
  | Some side -> Some (Hungarian.solve g ~left:(fun v -> side.(v)))
  | None -> if G.n g <= blossom_cap then Some (Weighted_blossom.solve g) else None

(* Greedy by decreasing weight (the matching [Wm_algos.Greedy.by_weight]
   builds; that library sits above this one) followed by exhaustive
   1-augmentations: replace up to two incident matched edges by a
   heavier outside edge while any such swap gains weight.  Both run in
   canonical edge order, so the bound depends on the edge set alone. *)
let greedy_plus_swaps g =
  let edges = G.canonical_edges g in
  let m = M.create (G.n g) in
  Array.iter
    (fun e -> ignore (M.try_add m e))
    (E.sort_by_weight ~descending:true edges);
  let improved = ref true in
  while !improved do
    improved := false;
    Array.iter
      (fun e ->
        if not (M.mem m e) then begin
          let u, v = E.endpoints e in
          let loss = M.weight_at m u + M.weight_at m v in
          if E.weight e > loss then begin
            ignore (M.add_evicting m e);
            improved := true
          end
        end)
      edges
  done;
  m

let lower_bound g =
  match solve_opt g with Some m -> m | None -> greedy_plus_swaps g
