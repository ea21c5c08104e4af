module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module E = Wm_graph.Edge
module Obs = Wm_obs.Obs

let c_phases = Obs.counter Obs.default "exact.hopcroft_karp.phases"
let c_augs = Obs.counter Obs.default "exact.hopcroft_karp.augmentations"

let inf = max_int

let solve g ~left =
  let n = G.n g in
  G.iter_edges
    (fun e ->
      let u, v = E.endpoints e in
      if left u = left v then
        invalid_arg "Hopcroft_karp.solve: edge does not cross the bipartition")
    g;
  let mate = Array.make n (-1) in
  let dist = Array.make n inf in
  let queue = Queue.create () in
  (* One BFS phase; returns true if a free right vertex is reachable. *)
  let bfs () =
    Queue.clear queue;
    Array.fill dist 0 n inf;
    for u = 0 to n - 1 do
      if left u && mate.(u) = -1 then begin
        dist.(u) <- 0;
        Queue.add u queue
      end
    done;
    let found = ref false in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      G.iter_neighbors g u (fun v _e ->
          let u' = mate.(v) in
          if u' = -1 then found := true
          else if dist.(u') = inf then begin
            dist.(u') <- dist.(u) + 1;
            Queue.add u' queue
          end)
    done;
    !found
  in
  let rec dfs u =
    let result = ref false in
    let rec try_neighbors = function
      | [] -> false
      | (v, _e) :: rest ->
          let u' = mate.(v) in
          if u' = -1 || (dist.(u') = dist.(u) + 1 && dfs u') then begin
            mate.(u) <- v;
            mate.(v) <- u;
            true
          end
          else try_neighbors rest
    in
    result := try_neighbors (G.neighbors g u);
    if not !result then dist.(u) <- inf;
    !result
  in
  while bfs () do
    for u = 0 to n - 1 do
      if left u && mate.(u) = -1 then if dfs u then Obs.incr c_augs
    done;
    Obs.incr c_phases
  done;
  let m = M.create n in
  for u = 0 to n - 1 do
    if left u && mate.(u) >= 0 then
      match G.find_edge g u mate.(u) with
      | Some e -> M.add m e
      | None -> assert false
  done;
  m
