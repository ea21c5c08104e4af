module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module E = Wm_graph.Edge

(* Sparse shortest augmenting paths for the assignment problem with
   cost = -weight: one Dijkstra over reduced costs per left vertex with
   an edge, in vertex order.  Column [c] is right vertex [c] or, for a
   left [c], the private zero-cost column of row [c] ("leave [c]
   unmatched"), which only row [c] labels; so every row is assigned and
   the minimum-cost assignment is a maximum-weight matching.  Row
   potentials are implicit (a row's assigned edge is tight); only
   columns carry [pot].  [mate] maps a row to its column and a right
   vertex to its row, [-1] when free; [cw.(c)] is the weight of the
   edge assigning column [c].  [dist], [from] (the labelling row) and
   [lw] (the labelling edge's weight) hold where [stamp.(c)] is the
   current phase, so a phase clears nothing. *)
let solve g ~left =
  let n = G.n g in
  G.iter_edges
    (fun e ->
      let u, v = E.endpoints e in
      if left u = left v then
        invalid_arg "Hungarian.solve: edge does not cross the bipartition")
    g;
  let mate = Array.make n (-1) and pot = Array.make n 0 in
  let cw = Array.make n 0 and lw = Array.make n 0 in
  let dist = Array.make n 0 and from = Array.make n 0 in
  let stamp = Array.make n (-1) and settled = Array.make n 0 in
  (* Binary min-heap of (key, column) with lazy deletion: an entry whose
     key is no longer its column's [dist] is stale. *)
  let cap = G.m g + n + 1 in
  let hk = Array.make cap 0 and hc = Array.make cap 0 and hn = ref 0 in
  let swap i j =
    let k = hk.(i) and c = hc.(i) in
    hk.(i) <- hk.(j); hc.(i) <- hc.(j); hk.(j) <- k; hc.(j) <- c
  in
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && hk.(p) > hk.(i) then (swap i p; up p)
  in
  let rec down i =
    let l = (2 * i) + 1 in
    let s = if l + 1 < !hn && hk.(l + 1) < hk.(l) then l + 1 else l in
    if s < !hn && hk.(s) < hk.(i) then (swap i s; down s)
  in
  let phase = ref 0 in
  let label c d r w =
    if stamp.(c) <> !phase || d < dist.(c) then begin
      stamp.(c) <- !phase; dist.(c) <- d; from.(c) <- r; lw.(c) <- w;
      hk.(!hn) <- d; hc.(!hn) <- c; incr hn; up (!hn - 1)
    end
  in
  (* Label row [r]'s columns, [base] being the distance to [r] plus its
     implicit potential.  Private columns keep potential 0: they are
     only ever settled as the sink. *)
  let scan r base =
    G.iter_neighbors g r (fun c e ->
        let w = E.weight e in
        label c (base - w - pot.(c)) r w);
    label r base r 0
  in
  let free c = if left c then mate.(c) <> c else mate.(c) < 0 in
  for i = 0 to n - 1 do
    if left i && G.degree g i > 0 then begin
      incr phase;
      hn := 0;
      scan i 0;
      let ns = ref 0 and sink = ref (-1) in
      while !sink < 0 do
        let k = hk.(0) and c = hc.(0) in
        decr hn; hk.(0) <- hk.(!hn); hc.(0) <- hc.(!hn); down 0;
        if k = dist.(c) then
          if free c then sink := c
          else begin
            settled.(!ns) <- c; incr ns;
            scan mate.(c) (k + cw.(c) + pot.(c))
          end
      done;
      for j = 0 to !ns - 1 do
        let c = settled.(j) in
        pot.(c) <- pot.(c) + dist.(c) - dist.(!sink)
      done;
      (* Unwind the augmenting path from the sink back to row [i]. *)
      let c = ref !sink and r = ref (-1) in
      while !r <> i do
        r := from.(!c);
        let next = mate.(!r) in
        mate.(!r) <- !c; cw.(!c) <- lw.(!c);
        if not (left !c) then mate.(!c) <- !r;
        c := next
      done
    end
  done;
  (* A row on its private column, or on a weight-0 edge, stays free. *)
  let m = M.create n in
  for l = 0 to n - 1 do
    let c = mate.(l) in
    if left l && c >= 0 && c <> l && cw.(c) > 0 then
      match G.find_edge g l c with Some e -> M.add m e | None -> assert false
  done;
  m
