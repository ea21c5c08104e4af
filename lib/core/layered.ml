module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module Arena = Wm_graph.Arena
module Obs = Wm_obs.Obs

let c_builds = Obs.counter Obs.default "core.layered.builds"
let c_edges = Obs.counter Obs.default "core.layered.edges"
let c_edges_max = Obs.counter Obs.default "core.layered.edges_max"

(* The matched edges in [M.iter] order and the unmatched edges in
   [G.iter_edges] order, as flat arrays.  They depend on the graph and
   matching alone, so one view serves every class of a round, and
   [prepare] filters it by a bipartition without a [M.mem] or a
   closure per edge. *)
type view = {
  vgraph : G.t;
  vmatching : M.t;
  mu : int array;
  mv : int array;
  mw : int array;
  uu : int array;
  uv : int array;
  uw : int array;
}

let view g m =
  let nm = M.size m in
  let mu = Array.make nm 0 and mv = Array.make nm 0 and mw = Array.make nm 0 in
  let i = ref 0 in
  M.iter
    (fun e ->
      let u, v = E.endpoints e in
      mu.(!i) <- u;
      mv.(!i) <- v;
      mw.(!i) <- E.weight e;
      incr i)
    m;
  let nu = G.fold_edges (fun k e -> if M.mem m e then k else k + 1) 0 g in
  let uu = Array.make nu 0 and uv = Array.make nu 0 and uw = Array.make nu 0 in
  let j = ref 0 in
  G.iter_edges
    (fun e ->
      if not (M.mem m e) then begin
        let u, v = E.endpoints e in
        uu.(!j) <- u;
        uv.(!j) <- v;
        uw.(!j) <- E.weight e;
        incr j
      end)
    g;
  { vgraph = g; vmatching = m; mu; mv; mw; uu; uv; uw }

type parametrized = {
  side : bool array;
  graph : G.t;
  matching : M.t;
  view : view;
}

let parametrize rng v =
  {
    side = Wm_graph.Bipartition.random rng (G.n v.vgraph);
    graph = v.vgraph;
    matching = v.vmatching;
    view = v;
  }

let parametrize_with ~side g m =
  if Array.length side <> G.n g then
    invalid_arg "Layered.parametrize_with: side array size mismatch";
  { side; graph = g; matching = m; view = view g m }

type t = {
  base_n : int;
  layer_count : int;
  lgraph : G.t;
  init : M.t;
  ids : int array;
  pair : Tau.pair;
  scale : float;
  side : bool array;
}

let vertex_id ~base_n ~layer v = ((layer - 1) * base_n) + v
let base_vertex ~base_n x = x mod base_n
(* An open-addressed map from int triples to the dense ids 0, 1, ... in
   insertion order, with linear probing and doubling at half load.
   [find] allocates nothing. *)
module Triples = struct
  type t = {
    mutable mask : int;
    mutable keys : int array;  (* three per slot *)
    mutable ids : int array;  (* -1: empty slot *)
    mutable count : int;
  }

  let create () =
    { mask = 15; keys = Array.make 48 0; ids = Array.make 16 (-1); count = 0 }

  let home t a b c =
    let h = (a * 0x2545F491) lxor (b * 0x9E3779B9) lxor (c * 0x7FEB352D) in
    (h lxor (h lsr 17)) land t.mask

  (* The slot holding [(a, b, c)], or the empty slot where it belongs. *)
  let slot t a b c =
    let i = ref (home t a b c) in
    while
      t.ids.(!i) >= 0
      && not
           (t.keys.(3 * !i) = a
           && t.keys.((3 * !i) + 1) = b
           && t.keys.((3 * !i) + 2) = c)
    do
      i := (!i + 1) land t.mask
    done;
    !i

  let find t a b c = t.ids.(slot t a b c)

  let rec add t a b c =
    let i = slot t a b c in
    if t.ids.(i) >= 0 then t.ids.(i)
    else if 2 * (t.count + 1) > t.mask + 1 then begin
      let keys = t.keys and ids = t.ids in
      t.mask <- (2 * (t.mask + 1)) - 1;
      t.keys <- Array.make (3 * (t.mask + 1)) 0;
      t.ids <- Array.make (t.mask + 1) (-1);
      Array.iteri
        (fun i id ->
          if id >= 0 then begin
            let j = slot t keys.(3 * i) keys.((3 * i) + 1) keys.((3 * i) + 2) in
            Array.blit keys (3 * i) t.keys (3 * j) 3;
            t.ids.(j) <- id
          end)
        ids;
      add t a b c
    end
    else begin
      t.keys.(3 * i) <- a;
      t.keys.((3 * i) + 1) <- b;
      t.keys.((3 * i) + 2) <- c;
      t.ids.(i) <- t.count;
      t.count <- t.count + 1;
      t.ids.(i)
    end
end

(* A vertex's key names the layers whose copy of it survives the
   filter: the up-bucket of its crossing matched edge (the copy is kept
   in every layer t with tau^A_t equal to it), [free_key] for an
   M-free vertex (kept only as a first-layer R start when tau^A_1 = 0,
   or a last-layer L end when tau^A_(k+1) = 0), and [no_key] for a
   vertex matched within its own side (never kept). *)
let free_key = -1
let no_key = -2

(* The pair-invariant half of a build, immutable after [prepare]:
   - the crossing matched edges grouped by up-bucket ([x_keys]
     ascending, group [g] at [x_off.(g) .. x_off.(g + 1) - 1] of
     [x_u]/[x_v]/[x_w], in [M.iter] order within a group);
   - the crossing unmatched edges whose endpoints both have a key,
     R/L-oriented in [G.iter_edges] order, grouped by their triple
     (down-bucket, key of the R end, key of the L end).  A Y edge
     survives a pair's filter iff its triple does, so the groups
     decide triviality in O(k) lookups and yield exactly the kept Y
     edges;
   - the buckets [present] reports, and the sizes the compact [L']
     needs. *)
type cache = {
  c_n : int;
  c_side : bool array;
  c_scale : float;
  left_count : int;
  a_present : int list;
  b_present : int list;
  x_keys : int array;
  x_off : int array;
  x_u : int array;
  x_v : int array;
  x_w : int array;
  y_groups : Triples.t;
  y_off : int array;
  y_idx : int array;
  y_r : int array;
  y_l : int array;
  y_w : int array;
}

(* Index of [x] in the ascending array [a], or -1. *)
let search a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = x then !lo else -1

(* Group [len] items by the dense ids [gid.(0 .. len - 1)] in
   [0 .. groups - 1]: a stable counting sort, returning the offsets and
   the item order. *)
let group ~groups gid len =
  let off = Array.make (groups + 1) 0 in
  for i = 0 to len - 1 do
    off.(gid.(i) + 1) <- off.(gid.(i) + 1) + 1
  done;
  for g = 1 to groups do
    off.(g) <- off.(g) + off.(g - 1)
  done;
  let next = Array.sub off 0 (Stdlib.max groups 1) and idx = Array.make len 0 in
  for i = 0 to len - 1 do
    idx.(next.(gid.(i))) <- i;
    next.(gid.(i)) <- next.(gid.(i)) + 1
  done;
  (off, idx)

(* Per-domain scratch for [prepare]'s Y edges before they are copied
   into the cache at their final size. *)
let prepare_slot =
  Arena.slot (fun () ->
      let i () = Arena.Ints.create () in
      (i (), i (), i (), i ()))

let prepare params (gp : parametrized) ~scale =
  let v = gp.view and side = gp.side in
  let n = G.n gp.graph in
  let granule = params.Tau.granularity *. scale in
  let cap = Tau.max_granules params in
  let crossing u w = side.(u) <> side.(w) in
  let key = Array.make n free_key in
  Array.iteri
    (fun i u ->
      let w = v.mv.(i) in
      let b = if crossing u w then Tau.bucket_up ~granule v.mw.(i) else no_key in
      key.(u) <- b;
      key.(w) <- b)
    v.mu;
  (* The crossing matched edges' indices, and their buckets. *)
  let xi =
    Array.of_seq
      (Seq.filter
         (fun i -> crossing v.mu.(i) v.mv.(i))
         (Seq.init (Array.length v.mu) Fun.id))
  in
  let xb = Array.map (fun i -> key.(v.mu.(i))) xi in
  let x_keys = Array.of_list (List.sort_uniq Int.compare (Array.to_list xb)) in
  let x_off, x_ord =
    group ~groups:(Array.length x_keys)
      (Array.map (search x_keys) xb)
      (Array.length xi)
  in
  let pick src = Array.map (fun o -> src.(xi.(o))) x_ord in
  let b_seen = Array.make (cap + 1) false in
  let y_groups = Triples.create () in
  let yr, yl, yw, yg = Arena.get prepare_slot in
  List.iter Arena.Ints.clear [ yr; yl; yw; yg ];
  for i = 0 to Array.length v.uu - 1 do
    let u = v.uu.(i) and w = v.uv.(i) in
    if crossing u w then begin
      let r, l = if side.(u) then (w, u) else (u, w) in
      let b = Tau.bucket_down ~granule v.uw.(i) in
      if b >= 2 && b <= cap then b_seen.(b) <- true;
      if key.(r) <> no_key && key.(l) <> no_key then begin
        Arena.Ints.push yr r;
        Arena.Ints.push yl l;
        Arena.Ints.push yw v.uw.(i);
        Arena.Ints.push yg (Triples.add y_groups b key.(r) key.(l))
      end
    end
  done;
  let ny = Arena.Ints.length yr in
  let flat a = Array.sub (Arena.Ints.data a) 0 ny in
  let y_off, y_idx =
    group ~groups:y_groups.Triples.count (Arena.Ints.data yg) ny
  in
  {
    c_n = n;
    c_side = side;
    c_scale = scale;
    left_count = Array.fold_left (fun k l -> if l then k + 1 else k) 0 side;
    a_present = List.filter (fun a -> a <= cap) (Array.to_list x_keys);
    b_present =
      List.filter
        (fun b -> b_seen.(b))
        (List.init (Stdlib.max 0 (cap - 1)) (( + ) 2));
    x_keys;
    x_off;
    x_u = pick v.mu;
    x_v = pick v.mv;
    x_w = pick v.mw;
    y_groups;
    y_off;
    y_idx;
    y_r = flat yr;
    y_l = flat yl;
    y_w = flat yw;
  }

let present c = (c.a_present, c.b_present)

(* The matched edges whose copies form layer [t]'s X edges: the group
   of bucket tau^A_t, or -1. *)
let x_group c pair t = search c.x_keys pair.Tau.a.(t - 1)

(* The Y group of gap [t]'s [j]-th key combination, or -1.  Bit 0 of
   [j] picks the R end's key, bit 1 the L end's: the layer threshold,
   or the free key where the pair admits a free endpoint there (an R
   start in layer 1 under tau^A_1 = 0, an L end in layer k+1 under
   tau^A_(k+1) = 0).  A negative threshold matches no bucket. *)
let gap_group c pair t j =
  let a = pair.Tau.a and k = Array.length pair.Tau.b in
  let threshold x = if x >= 0 then x else no_key in
  let x =
    if j land 1 = 0 then threshold a.(t - 1)
    else if t = 1 && a.(0) = 0 then free_key
    else no_key
  and y =
    if j land 2 = 0 then threshold a.(t)
    else if t = k && a.(k) = 0 then free_key
    else no_key
  in
  if x = no_key || y = no_key then -1
  else Triples.find c.y_groups pair.Tau.b.(t - 1) x y

(* Per-domain scratch for [materialise]: the final edge slots (X edges,
   then reversed Y), the Y edges' (edge, gap) discovery keys, the
   edges' (vertex, endpoint slot) keys, the vertex ids, and the radix
   sort's buffer and digit counts. *)
type build_scratch = {
  e_src : Arena.Ints.t;
  e_dst : Arena.Ints.t;
  e_w : Arena.Ints.t;
  y_keys : Arena.Ints.t;
  ends : Arena.Ints.t;
  vids : Arena.Ints.t;
  mutable buf : int array;
  count : int array;
}

let scratch_slot =
  Arena.slot (fun () ->
      let i () = Arena.Ints.create () in
      {
        e_src = i (); e_dst = i (); e_w = i (); y_keys = i (); ends = i ();
        vids = i (); buf = [||]; count = Array.make 257 0;
      })

(* Sort the non-negative [a.(0 .. len - 1)] ascending in place: an LSD
   radix sort by bytes, with as many passes as the largest key needs —
   O(len) per pass, where a comparison sort cost a third of every
   build. *)
let radix_sort s a len =
  if Array.length s.buf < len then
    s.buf <- Array.make (Stdlib.max len (2 * Array.length s.buf)) 0;
  let top = ref 0 in
  for i = 0 to len - 1 do
    top := Stdlib.max !top a.(i)
  done;
  let src = ref a and dst = ref s.buf and shift = ref 0 in
  while !top lsr !shift > 0 do
    let from = !src and into = !dst and sh = !shift in
    Array.fill s.count 0 257 0;
    for i = 0 to len - 1 do
      let d = ((from.(i) lsr sh) land 255) + 1 in
      s.count.(d) <- s.count.(d) + 1
    done;
    for d = 1 to 256 do
      s.count.(d) <- s.count.(d) + s.count.(d - 1)
    done;
    for i = 0 to len - 1 do
      let d = (from.(i) lsr sh) land 255 in
      into.(s.count.(d)) <- from.(i);
      s.count.(d) <- s.count.(d) + 1
    done;
    src := into;
    dst := from;
    shift := sh + 8
  done;
  if !src != a then Array.blit !src 0 a 0 len

(* Build [L'] for [pair] on the endpoints of its edges, in O(k + |L'|)
   (radix passes aside) — nothing here scans the base graph or a layer.
   - X edges, layer-major over the intermediate layers, each layer's in
     reverse cache order.
   - Y edges, in reverse (edge, gap) discovery order.
   - Vertices: the edges' endpoints in increasing layered id, plus one
     isolated left sentinel when some left layered copy is isolated.
     Isolated vertices never meet an edge, but a black box seeds its
     first phase from the free left vertices, so whether one exists
     changes its pass count; the sentinel keeps it identical to the
     graph on all [(k+1) * n] layered vertices. *)
let materialise c pair =
  let n = c.c_n and k = Array.length pair.Tau.b in
  let s = Arena.get scratch_slot in
  List.iter Arena.Ints.clear
    [ s.e_src; s.e_dst; s.e_w; s.y_keys; s.ends; s.vids ];
  let push x y w =
    Arena.Ints.push s.e_src x;
    Arena.Ints.push s.e_dst y;
    Arena.Ints.push s.e_w w
  in
  for t = 2 to k do
    let g = x_group c pair t in
    if g >= 0 then
      for j = c.x_off.(g + 1) - 1 downto c.x_off.(g) do
        push
          (vertex_id ~base_n:n ~layer:t c.x_u.(j))
          (vertex_id ~base_n:n ~layer:t c.x_v.(j))
          c.x_w.(j)
      done
  done;
  let x_len = Arena.Ints.length s.e_src in
  for t = 1 to k do
    for j = 0 to 3 do
      let g = gap_group c pair t j in
      if g >= 0 then
        for p = c.y_off.(g) to c.y_off.(g + 1) - 1 do
          Arena.Ints.push s.y_keys ((c.y_idx.(p) * k) + t - 1)
        done
    done
  done;
  let keys = Arena.Ints.data s.y_keys in
  radix_sort s keys (Arena.Ints.length s.y_keys);
  for p = Arena.Ints.length s.y_keys - 1 downto 0 do
    let i = keys.(p) / k and t = (keys.(p) mod k) + 1 in
    push
      (vertex_id ~base_n:n ~layer:t c.y_r.(i))
      (vertex_id ~base_n:n ~layer:(t + 1) c.y_l.(i))
      c.y_w.(i)
  done;
  (* Sort the endpoint slots by layered id, then number the distinct
     ids in one sweep, rewriting every slot to its compact vertex. *)
  let m = Arena.Ints.length s.e_src in
  let src = Arena.Ints.data s.e_src and dst = Arena.Ints.data s.e_dst in
  for i = 0 to m - 1 do
    Arena.Ints.push s.ends ((src.(i) * 2 * m) + i);
    Arena.Ints.push s.ends ((dst.(i) * 2 * m) + m + i)
  done;
  let ends = Arena.Ints.data s.ends in
  radix_sort s ends (2 * m);
  let kept_left = ref 0 in
  for p = 0 to (2 * m) - 1 do
    let id = ends.(p) / (2 * m) and slot = ends.(p) mod (2 * m) in
    let nv = Arena.Ints.length s.vids in
    if nv = 0 || Arena.Ints.get s.vids (nv - 1) <> id then begin
      Arena.Ints.push s.vids id;
      if c.c_side.(base_vertex ~base_n:n id) then incr kept_left
    end;
    let x = Arena.Ints.length s.vids - 1 in
    if slot < m then src.(slot) <- x else dst.(slot - m) <- x
  done;
  let ids = Array.sub (Arena.Ints.data s.vids) 0 (Arena.Ints.length s.vids) in
  let nv = Array.length ids in
  let nv = if c.left_count * (k + 1) > !kept_left then nv + 1 else nv in
  let lgraph = G.of_flat ~n:nv ~m ~src ~dst ~w:(Arena.Ints.data s.e_w) in
  let init = M.create nv in
  let ledges = G.edges lgraph in
  for i = 0 to x_len - 1 do
    M.add init ledges.(i)
  done;
  {
    base_n = n;
    layer_count = k + 1;
    lgraph;
    init;
    ids;
    pair;
    scale = c.c_scale;
    side = c.c_side;
  }

let count_build m_edges =
  Obs.incr c_builds;
  Obs.add c_edges m_edges;
  Obs.set_max c_edges_max m_edges

let build params gp pair ~scale =
  let t = materialise (prepare params gp ~scale) pair in
  count_build (G.m t.lgraph);
  t

type built = Graph of t | Trivial of int

(* A pair is trivial iff no gap's key combination names a Y group: then
   [L'] holds only X edges, all of them in [init], and there is nothing
   to find.  Its edge count is read off the X groups' sizes. *)
let build_opt c pair =
  let k = Array.length pair.Tau.b in
  let nontrivial = ref false and t = ref 1 in
  while (not !nontrivial) && !t <= k do
    for j = 0 to 3 do
      if gap_group c pair !t j >= 0 then nontrivial := true
    done;
    incr t
  done;
  if !nontrivial then begin
    let t = materialise c pair in
    count_build (G.m t.lgraph);
    Graph t
  end
  else begin
    let x = ref 0 in
    for t = 2 to k do
      let g = x_group c pair t in
      if g >= 0 then x := !x + c.x_off.(g + 1) - c.x_off.(g)
    done;
    count_build !x;
    Trivial !x
  end

let left t x =
  x >= Array.length t.ids || t.side.(base_vertex ~base_n:t.base_n t.ids.(x))

let edge_count t = G.m t.lgraph

let find_edge t x y =
  let i = search t.ids x and j = search t.ids y in
  if i < 0 || j < 0 then None
  else
    Option.map
      (fun e -> E.make x y (E.weight e))
      (G.find_edge t.lgraph i j)

let augmenting_paths t m' =
  let comps = M.symmetric_difference m' t.init in
  let layered e =
    let x, y = E.endpoints e in
    E.make t.ids.(x) t.ids.(y) (E.weight e)
  in
  let count m comp =
    List.fold_left (fun k e -> if M.mem m e then k + 1 else k) 0 comp
  in
  List.filter_map
    (fun comp ->
      if count m' comp = count t.init comp + 1 then Some (List.map layered comp)
      else None)
    comps
