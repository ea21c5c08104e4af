module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module Arena = Wm_graph.Arena

type stats = {
  pairs_tried : int;
  layered_edges : int;
  layered_edges_max : int;
      (* largest single (W, tau)-pair layered graph — the peak
         per-machine load of the class, not the average *)
  paths_found : int;
  black_box_calls : int;
  black_box_passes : int;
      (* max measured stream passes across the (parallel) instances *)
}

(* The unmatched incidences of [m] as a CSR: vertex [v]'s entries are
   [off.(v) .. off.(v + 1) - 1] of [nbr]/[wt], in [G.iter_neighbors]
   order; each vertex's mate (-1 when free) and matched weight (0 when
   free); and the flat edge view every class's layered cache is
   prepared from.  All depend on [g] and [m] alone, so one per round
   serves every class, read-only from any domain. *)
type incidence = {
  off : int array;
  nbr : int array;
  wt : int array;
  mate : int array;
  mwt : int array;
  view : Layered.view;
}

let incidence g m =
  let n = G.n g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <-
      G.fold_neighbors g v (fun k _ e -> if M.mem m e then k else k + 1) off.(v)
  done;
  let nbr = Array.make off.(n) 0 and wt = Array.make off.(n) 0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    G.iter_neighbors g v (fun x e ->
        if not (M.mem m e) then begin
          nbr.(!k) <- x;
          wt.(!k) <- E.weight e;
          incr k
        end)
  done;
  {
    off;
    nbr;
    wt;
    mate = Array.init n (fun v -> Option.value (M.mate m v) ~default:(-1));
    mwt = Array.init n (M.weight_at m);
    view = Layered.view g m;
  }

(* Per-domain buffers for the current walk's bucket sequences, and for
   the class's per-vertex and per-incidence buckets. *)
let walk_slot =
  Arena.slot (fun () ->
      let i () = Arena.Ints.create () in
      (i (), i (), i (), i ()))

(* Random alternating walks give tau pairs biased towards shapes that
   are actually realisable in the data — a practical stand-in for the
   paper's exhaustive enumeration, which only ever matters on pairs
   whose layered graphs are non-empty. *)
let walk_pairs params rng ~inc (gp : Layered.parametrized) ~scale ~count =
  let tp = Params.tau_params params in
  let n = G.n gp.Layered.graph in
  if n = 0 then []
  else begin
    let granule = params.Params.granularity *. scale in
    let a_bk, b_bk, up_bk, down_bk = Arena.get walk_slot in
    let { off; nbr; wt; mate; mwt; _ } = inc in
    (* The walks' buckets at this scale: each vertex's matched edge
       rounded up (0 when free) and each unmatched incidence rounded
       down, computed once rather than at every step. *)
    let buckets into f ws =
      Arena.Ints.clear into;
      Array.iter (fun w -> Arena.Ints.push into (f ~granule w)) ws;
      Arena.Ints.data into
    in
    let up = buckets up_bk Tau.bucket_up mwt in
    let down = buckets down_bk Tau.bucket_down wt in
    let pairs = ref [] in
    for _ = 1 to count do
      let start = Wm_graph.Prng.int rng n in
      Arena.Ints.clear a_bk;
      Arena.Ints.clear b_bk;
      (* First matched bucket: the anchor's matching edge, or a free end. *)
      Arena.Ints.push a_bk up.(start);
      let cur = ref (if mate.(start) >= 0 then mate.(start) else start) in
      let steps = 1 + Wm_graph.Prng.int rng (params.Params.max_layers - 1) in
      let step = ref 1 in
      while !step <= steps do
        (* One draw over the vertex's unmatched incidences, kept in
           neighbour order so the draw and the edge it picks are those
           of a count-then-scan over the neighbourhood (test_core
           checks this against one). *)
        let lo = off.(!cur) in
        let unmatched_count = off.(!cur + 1) - lo in
        if unmatched_count = 0 then step := steps + 1
        else begin
          let i = lo + Wm_graph.Prng.int rng unmatched_count in
          Arena.Ints.push b_bk down.(i);
          let x = nbr.(i) in
          Arena.Ints.push a_bk up.(x);
          if mate.(x) >= 0 then begin
            cur := mate.(x);
            incr step
          end
          else step := steps + 1
        end
      done;
      let la = Arena.Ints.length a_bk and lb = Arena.Ints.length b_bk in
      let a = Arena.Ints.data a_bk and b = Arena.Ints.data b_bk in
      if lb >= 1 && Tau.is_good_prefix tp ~a ~la ~b ~lb then
        pairs := { Tau.a = Array.sub a 0 la; b = Array.sub b 0 lb } :: !pairs
    done;
    !pairs
  end

let one_augmentations g m =
  (* The k = 1 augmentation class solved exactly: single-edge
     augmentations need no bipartition or rounding. *)
  let augs = ref [] in
  G.iter_edges
    (fun e ->
      if not (M.mem m e) then begin
        let u, v = E.endpoints e in
        let gain = E.weight e - M.weight_at m u - M.weight_at m v in
        if gain > 0 then begin
          let c = Aug.Path [ e ] in
          augs := (c, gain, Aug.canonical_key c) :: !augs
        end
      end)
    g;
  (* Equal gains break on the canonical path key, making the order a
     function of the (matching, graph) content alone — not of edge
     enumeration order or sort internals. *)
  List.map
    (fun (c, _, _) -> c)
    (List.sort
       (fun (_, g1, k1) (_, g2, k2) ->
         match Int.compare g2 g1 with
         | 0 -> Stdlib.compare k1 k2
         | n -> n)
       !augs)

let candidate_pairs params rng ~inc ~cache gp ~scale =
  let tp = Params.tau_params params in
  let a_values, b_values = Layered.present cache in
  if b_values = [] then []
  else begin
    (* Single first-wins dedup over the arrival order (homogeneous
       family, then walk captures, then uniform samples) — the same
       list the old [Tau.dedup] of the concatenation produced, but the
       homogeneous family streams through a scratch pair and only its
       {e new} members are ever materialised. *)
    let seen = Tau.Tbl.create 256 in
    let out = ref [] in
    let add_scratch pr =
      if not (Tau.Tbl.mem seen pr) then begin
        let fresh = { Tau.a = Array.copy pr.Tau.a; b = Array.copy pr.Tau.b } in
        Tau.Tbl.add seen fresh ();
        out := fresh :: !out
      end
    in
    let add_own pr =
      if not (Tau.Tbl.mem seen pr) then begin
        Tau.Tbl.add seen pr ();
        out := pr :: !out
      end
    in
    Tau.iter_homogeneous tp ~a_values ~b_values add_scratch;
    List.iter add_own
      (walk_pairs params rng ~inc gp ~scale ~count:Params.tau_samples);
    List.iter add_own
      (Tau.sample tp rng ~a_values ~b_values ~count:(Params.tau_samples / 4));
    List.filteri (fun i _ -> i < Params.tau_budget) (List.rev !out)
  end

(* One pair's layered-graph evaluation, up to (but excluding) the
   used-vertex filtering: build the layered graph, run the black box,
   and project every augmenting path back to candidate components in
   path order.  Reads [cache]/[m] only and draws no randomness. *)
type pair_eval = {
  pe_candidates : Aug.t list;  (* path order, each strictly gainful *)
  pe_layered_edges : int;
  pe_black_box : bool;
  pe_passes : int;
  pe_paths : int;
}

let eval_pair ~cache params m pair =
  match Layered.build_opt cache pair with
  (* No between-layer edge survived the filter: nothing to find, and
     nothing was materialised. *)
  | Layered.Trivial layered_edges ->
      {
        pe_candidates = [];
        pe_layered_edges = layered_edges;
        pe_black_box = false;
        pe_passes = 0;
        pe_paths = 0;
      }
  | Layered.Graph lay ->
    let layered_edges = Layered.edge_count lay in
    let solved = Layered.black_box ~delta:params.Params.delta lay in
    let paths = Layered.augmenting_paths lay solved in
    let candidates =
      List.filter_map
        (fun layered_path ->
          let verts, edges =
            Decompose.project ~base_n:lay.Layered.base_n layered_path
          in
          match
            Decompose.best_component (Decompose.decompose ~verts ~edges) m
          with
          | Some (c, gain) when gain > 0 -> Some c
          | Some _ | None -> None)
        paths
    in
    {
      pe_candidates = candidates;
      pe_layered_edges = layered_edges;
      pe_black_box = true;
      pe_passes = solved.Layered.passes;
      pe_paths = List.length paths;
    }

let used_slot = Arena.slot (fun () -> Arena.Stamp.create ())

let run ?(span_path = "core.aug_class") params rng g m ~inc ~scale =
  let tp = Params.tau_params params in
  let gp = Layered.parametrize rng inc.view in
  (* Two root spans per class — the layered cache and candidate
     generation, then every pair's evaluation — under explicit paths,
     so the timer set is the same at any jobs setting and bounded per
     scale rather than growing with the distinct tau pairs seen. *)
  let span name f =
    Wm_obs.Obs.with_span_root Wm_obs.Obs.default (span_path ^ name) f
  in
  let cache, pairs =
    span "/pairs" (fun () ->
        let cache = Layered.prepare tp gp ~scale in
        (cache, candidate_pairs params rng ~inc ~cache gp ~scale))
  in
  (* Phase 1: evaluate every pair's layered graph, in pair order. *)
  let evals =
    span "/eval" (fun () ->
        List.map (eval_pair ~cache params m) pairs)
  in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 evals in
  let peak f = List.fold_left (fun acc e -> Stdlib.max acc (f e)) 0 evals in
  let stats =
    {
      pairs_tried = List.length evals;
      layered_edges = sum (fun e -> e.pe_layered_edges);
      layered_edges_max = peak (fun e -> e.pe_layered_edges);
      paths_found = sum (fun e -> e.pe_paths);
      black_box_calls = sum (fun e -> Bool.to_int e.pe_black_box);
      black_box_passes = peak (fun e -> e.pe_passes);
    }
  in
  (* Phase 2 (pair order): one used-vertex set across all pairs keeps
     every vertex-disjoint, well-formed alternating candidate, newest
     first.  Algorithm 4 line 13 keeps only the best pair's set; the
     union is a sound superset that converges much faster. *)
  let used = Arena.get used_slot in
  Arena.Stamp.reset used (G.n g);
  let keep acc c =
    let touched = Aug.touched_vertices c m in
    if
      List.for_all (fun v -> not (Arena.Stamp.mem used v)) touched
      && Aug.is_wellformed c && Aug.is_alternating c m
    then begin
      List.iter (Arena.Stamp.mark used) touched;
      c :: acc
    end
    else acc
  in
  let chosen =
    List.fold_left (fun acc e -> List.fold_left keep acc e.pe_candidates) [] evals
  in
  (chosen, stats)
