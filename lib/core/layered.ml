module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module Arena = Wm_graph.Arena
module Obs = Wm_obs.Obs

let c_builds = Obs.counter Obs.default "core.layered.builds"
let c_edges = Obs.counter Obs.default "core.layered.edges"
let c_edges_max = Obs.counter Obs.default "core.layered.edges_max"

type parametrized = { side : bool array; graph : G.t; matching : M.t }

let parametrize rng g m =
  { side = Wm_graph.Bipartition.random rng (G.n g); graph = g; matching = m }

let parametrize_with ~side g m =
  if Array.length side <> G.n g then
    invalid_arg "Layered.parametrize_with: side array size mismatch";
  { side; graph = g; matching = m }

type t = {
  base_n : int;
  layer_count : int;
  lgraph : G.t;
  init : M.t;
  pair : Tau.pair;
  scale : float;
  side : bool array;
}

let vertex_id ~base_n ~layer v = ((layer - 1) * base_n) + v
let base_vertex ~base_n x = x mod base_n
let layer_of ~base_n x = (x / base_n) + 1

(* Per-domain scratch for [build]: flat arenas replace the
   cross-matched tuple list, the [keep] bool array and the X/Y edge
   accumulator lists, so a steady-state build allocates only the
   layered graph and its initial matching — the two values it
   returns. *)
type build_scratch = {
  keep : Arena.Stamp.t;
  e_src : Arena.Ints.t;  (* final edge slots: X edges, then reversed Y *)
  e_dst : Arena.Ints.t;
  e_w : Arena.Ints.t;
  y_src : Arena.Ints.t;
  y_dst : Arena.Ints.t;
  y_w : Arena.Ints.t;
}

let scratch_slot =
  Arena.slot (fun () ->
      let i () = Arena.Ints.create () in
      {
        keep = Arena.Stamp.create ();
        e_src = i (); e_dst = i (); e_w = i ();
        y_src = i (); y_dst = i (); y_w = i ();
      })

(* The pair-invariant half of a build: the crossing matched edges with
   their up-buckets (in M.fold order) and the crossing unmatched edges,
   R/L-oriented, with their down-buckets (in G.iter_edges order).
   Buckets depend only on the granule, so one cache serves every pair
   of an [Aug_class.run] — without it each pair re-scans all [m] base
   edges through tuple-returning accessors, which was the single
   largest allocator on the round hot path.  [yb_off]/[yb_idx] index
   the unmatched edges by down-bucket (a counting sort over
   [0 .. max_granules], which bounds every good pair's [tau^B]
   entries, plus one overflow slot for heavier edges), so the
   trivial-build test visits only the edges of the pair's own
   buckets.  Immutable after [prepare]; [present] reads the buckets
   present in the data off it. *)
type cache = {
  xm_u : int array;
  xm_v : int array;
  xm_w : int array;
  xm_b : int array;
  yc_r : int array;
  yc_l : int array;
  yc_w : int array;
  yc_b : int array;
  yb_off : int array;  (* slot [b]'s edges: yb_idx.(yb_off.(b) ..) *)
  yb_idx : int array;
}

let prepare params (gp : parametrized) ~scale =
  let granule = params.Tau.granularity *. scale in
  let nxm = ref 0 and nyc = ref 0 in
  M.iter
    (fun e ->
      let u, v = E.endpoints e in
      if gp.side.(u) <> gp.side.(v) then incr nxm)
    gp.matching;
  G.iter_edges
    (fun e ->
      if not (M.mem gp.matching e) then begin
        let u, v = E.endpoints e in
        if gp.side.(u) <> gp.side.(v) then incr nyc
      end)
    gp.graph;
  let cap = Tau.max_granules params in
  let c =
    {
      xm_u = Array.make !nxm 0;
      xm_v = Array.make !nxm 0;
      xm_w = Array.make !nxm 0;
      xm_b = Array.make !nxm 0;
      yc_r = Array.make !nyc 0;
      yc_l = Array.make !nyc 0;
      yc_w = Array.make !nyc 0;
      yc_b = Array.make !nyc 0;
      yb_off = Array.make (cap + 3) 0;
      yb_idx = Array.make !nyc 0;
    }
  in
  let i = ref 0 in
  M.iter
    (fun e ->
      let u, v = E.endpoints e in
      if gp.side.(u) <> gp.side.(v) then begin
        c.xm_u.(!i) <- u;
        c.xm_v.(!i) <- v;
        c.xm_w.(!i) <- E.weight e;
        c.xm_b.(!i) <- Tau.bucket_up ~granule (E.weight e);
        incr i
      end)
    gp.matching;
  let j = ref 0 in
  G.iter_edges
    (fun e ->
      if not (M.mem gp.matching e) then begin
        let u, v = E.endpoints e in
        if gp.side.(u) <> gp.side.(v) then begin
          let r, l = if gp.side.(u) then (v, u) else (u, v) in
          let bkt = Tau.bucket_down ~granule (E.weight e) in
          c.yc_r.(!j) <- r;
          c.yc_l.(!j) <- l;
          c.yc_w.(!j) <- E.weight e;
          c.yc_b.(!j) <- bkt;
          let slot = Stdlib.min bkt (cap + 1) in
          c.yb_off.(slot + 1) <- c.yb_off.(slot + 1) + 1;
          incr j
        end
      end)
    gp.graph;
  for b = 1 to cap + 2 do
    c.yb_off.(b) <- c.yb_off.(b) + c.yb_off.(b - 1)
  done;
  let next = Array.sub c.yb_off 0 (cap + 2) in
  Array.iteri
    (fun i bkt ->
      let slot = Stdlib.min bkt (cap + 1) in
      c.yb_idx.(next.(slot)) <- i;
      next.(slot) <- next.(slot) + 1)
    c.yc_b;
  c

(* Slot [b <= cap] of the down-bucket index holds exactly bucket [b]'s
   edges, so its non-empty slots are the present b-values. *)
let present c =
  let cap = Array.length c.yb_off - 3 in
  ( List.sort_uniq Int.compare
      (List.filter (fun a -> a <= cap) (Array.to_list c.xm_b)),
    List.filter
      (fun b -> c.yb_off.(b + 1) > c.yb_off.(b))
      (List.init (Stdlib.max 0 (cap - 1)) (fun i -> i + 2)) )

(* Mark the per-domain scratch's [keep] set for one pair's layered
   vertices and push its X edges; shared by [build] and [build_opt].
   Returns the scratch, the cache used and the layer count. *)
let mark_keep ?cache params gp pair ~scale =
  let n = G.n gp.graph in
  let layer_count = Array.length pair.Tau.b + 1 in
  let c = match cache with Some c -> c | None -> prepare params gp ~scale in
  let s = Arena.get scratch_slot in
  Arena.Ints.clear s.e_src; Arena.Ints.clear s.e_dst;
  Arena.Ints.clear s.e_w;
  Arena.Ints.clear s.y_src; Arena.Ints.clear s.y_dst;
  Arena.Ints.clear s.y_w;
  Arena.Stamp.reset s.keep (layer_count * n);
  let cm_len = Array.length c.xm_u in
  (* keep marks for layered vertices; X edges decide intermediate
     layers.  The pre-arena code walked a consed list (reverse
     traversal order), so iterate the cache downwards to keep the
     exact edge order. *)
  for layer = 1 to layer_count do
    let want = pair.Tau.a.(layer - 1) in
    for i = cm_len - 1 downto 0 do
      if c.xm_b.(i) = want then begin
        let lu = vertex_id ~base_n:n ~layer c.xm_u.(i)
        and lv = vertex_id ~base_n:n ~layer c.xm_v.(i) in
        Arena.Stamp.mark s.keep lu;
        Arena.Stamp.mark s.keep lv;
        if layer >= 2 && layer <= layer_count - 1 then begin
          Arena.Ints.push s.e_src lu;
          Arena.Ints.push s.e_dst lv;
          Arena.Ints.push s.e_w c.xm_w.(i)
        end
      end
    done
  done;
  (* First/last-layer free-vertex filtering: an endpoint vertex with no
     surviving matched edge is kept only when it is M-free and the
     corresponding threshold is 0. *)
  for v = 0 to n - 1 do
    let free = not (M.is_matched gp.matching v) in
    (* Layer 1: starts are R-vertices. *)
    let l1 = vertex_id ~base_n:n ~layer:1 v in
    if (not (Arena.Stamp.mem s.keep l1)) && not gp.side.(v) then
      if free && pair.Tau.a.(0) = 0 then Arena.Stamp.mark s.keep l1;
    (* Layer k+1: ends are L-vertices. *)
    let lk = vertex_id ~base_n:n ~layer:layer_count v in
    if (not (Arena.Stamp.mem s.keep lk)) && gp.side.(v) then
      if free && pair.Tau.a.(layer_count - 1) = 0 then
        Arena.Stamp.mark s.keep lk
  done;
  (s, c, layer_count)

(* Between-layer (Y) edges: unmatched, R in layer t to L in layer t+1,
   weight rounding down to tau^B_t.  They land after the X edges but
   in reverse discovery order (the old [rev_append]), so they go
   through their own arena first. *)
let fill_y s c pair ~n =
  let k = Array.length pair.Tau.b in
  for i = 0 to Array.length c.yc_r - 1 do
    let bkt = c.yc_b.(i) in
    for t = 1 to k do
      if pair.Tau.b.(t - 1) = bkt then begin
        let lr = vertex_id ~base_n:n ~layer:t c.yc_r.(i)
        and ll = vertex_id ~base_n:n ~layer:(t + 1) c.yc_l.(i) in
        if Arena.Stamp.mem s.keep lr && Arena.Stamp.mem s.keep ll then begin
          Arena.Ints.push s.y_src lr;
          Arena.Ints.push s.y_dst ll;
          Arena.Ints.push s.y_w c.yc_w.(i)
        end
      end
    done
  done;
  for i = Arena.Ints.length s.y_src - 1 downto 0 do
    Arena.Ints.push s.e_src (Arena.Ints.get s.y_src i);
    Arena.Ints.push s.e_dst (Arena.Ints.get s.y_dst i);
    Arena.Ints.push s.e_w (Arena.Ints.get s.y_w i)
  done

(* Whether [fill_y] would keep any Y edge: the same test, but over the
   down-bucket index, so only the edges of [pair]'s own buckets are
   visited (a bucket past [max_granules], which no good pair names,
   filters the shared overflow slot). *)
let has_y s c pair ~n =
  let k = Array.length pair.Tau.b in
  let cap = Array.length c.yb_off - 3 in
  let found = ref false and t = ref 1 in
  while (not !found) && !t <= k do
    let bkt = pair.Tau.b.(!t - 1) in
    if bkt >= 0 then begin
      let slot = Stdlib.min bkt (cap + 1) in
      let j = ref c.yb_off.(slot) in
      while (not !found) && !j < c.yb_off.(slot + 1) do
        let i = c.yb_idx.(!j) in
        if c.yc_b.(i) = bkt
           && Arena.Stamp.mem s.keep (vertex_id ~base_n:n ~layer:!t c.yc_r.(i))
           && Arena.Stamp.mem s.keep
                (vertex_id ~base_n:n ~layer:(!t + 1) c.yc_l.(i))
        then found := true;
        incr j
      done
    end;
    incr t
  done;
  !found

(* Materialise [t] from the filled scratch.  This is where the O(layer
   count * n) graph and matching allocations happen — the values the
   caller retains. *)
let construct gp pair ~scale s ~layer_count ~x_len =
  let n = G.n gp.graph in
  let m_edges = Arena.Ints.length s.e_src in
  (* No parallel edges by construction — X edges come one per matched
     edge per layer, Y edges one per base edge per layer gap, and the
     two kinds join different layer blocks — so the trusted flat
     constructor applies. *)
  let lgraph =
    G.of_flat ~n:(layer_count * n) ~m:m_edges
      ~src:(Arena.Ints.data s.e_src) ~dst:(Arena.Ints.data s.e_dst)
      ~w:(Arena.Ints.data s.e_w)
  in
  let init = M.create (layer_count * n) in
  let ledges = G.edges lgraph in
  for i = 0 to x_len - 1 do
    M.add init ledges.(i)
  done;
  { base_n = n; layer_count; lgraph; init; pair; scale; side = gp.side }

let count_build m_edges =
  Obs.incr c_builds;
  Obs.add c_edges m_edges;
  Obs.set_max c_edges_max m_edges

let build ?cache params gp pair ~scale =
  let s, c, layer_count = mark_keep ?cache params gp pair ~scale in
  let x_len = Arena.Ints.length s.e_src in
  fill_y s c pair ~n:(G.n gp.graph);
  count_build (Arena.Ints.length s.e_src);
  construct gp pair ~scale s ~layer_count ~x_len

type built = Graph of t | Trivial of int

let build_opt ?cache params gp pair ~scale =
  let s, c, layer_count = mark_keep ?cache params gp pair ~scale in
  let x_len = Arena.Ints.length s.e_src in
  let n = G.n gp.graph in
  (* Every X edge is in [init], so "no Y edge survived" is exactly the
     "nothing to find" early exit — skip the ordered Y fill and the
     O(layer_count * n) graph and matching materialisation entirely. *)
  if not (has_y s c pair ~n) then begin
    count_build x_len;
    Trivial x_len
  end
  else begin
    fill_y s c pair ~n;
    count_build (Arena.Ints.length s.e_src);
    Graph (construct gp pair ~scale s ~layer_count ~x_len)
  end

let left t x = t.side.(base_vertex ~base_n:t.base_n x)

let edge_count t = G.m t.lgraph

let augmenting_paths t m' =
  let comps = M.symmetric_difference m' t.init in
  List.filter
    (fun comp ->
      let m'_edges = List.length (List.filter (fun e -> M.mem m' e) comp) in
      let init_edges = List.length (List.filter (fun e -> M.mem t.init e) comp) in
      m'_edges = init_edges + 1)
    comps
