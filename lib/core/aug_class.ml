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

(* Bucket membership lives in two epoch-stamped sets over the dense
   granule universe [0 .. cap] — a per-domain arena, so the scan
   allocates only the two result lists (one cell per *distinct*
   bucket).  Returned ascending; every consumer sorts anyway. *)
let pb_slot =
  Arena.slot (fun () -> (Arena.Stamp.create (), Arena.Stamp.create ()))

let present_buckets params (gp : Layered.parametrized) ~scale =
  let tp = Params.tau_params params in
  let granule = params.Params.granularity *. scale in
  let cap = Tau.max_granules tp in
  let a_set, b_set = Arena.get pb_slot in
  Arena.Stamp.reset a_set (cap + 1);
  Arena.Stamp.reset b_set (cap + 1);
  G.iter_edges
    (fun e ->
      let u, v = E.endpoints e in
      if gp.Layered.side.(u) <> gp.Layered.side.(v) then
        if M.mem gp.Layered.matching e then begin
          let bkt = Tau.bucket_up ~granule (E.weight e) in
          if bkt <= cap then Arena.Stamp.mark a_set bkt
        end
        else begin
          let bkt = Tau.bucket_down ~granule (E.weight e) in
          if bkt >= 2 && bkt <= cap then Arena.Stamp.mark b_set bkt
        end)
    gp.Layered.graph;
  let collect set =
    let acc = ref [] in
    for k = cap downto 0 do
      if Arena.Stamp.mem set k then acc := k :: !acc
    done;
    !acc
  in
  (collect a_set, collect b_set)

(* Per-domain walk scratch: the round-start matching's unmatched
   incidences as a CSR ([off]/[nbr]/[wt], each vertex's entries in
   [G.iter_neighbors] order) and the current walk's bucket sequences. *)
type walk_scratch = {
  off : Arena.Ints.t;
  nbr : Arena.Ints.t;
  wt : Arena.Ints.t;
  a_bk : Arena.Ints.t;
  b_bk : Arena.Ints.t;
}

let walk_slot =
  Arena.slot (fun () ->
      let i () = Arena.Ints.create () in
      { off = i (); nbr = i (); wt = i (); a_bk = i (); b_bk = i () })

(* Random alternating walks give tau pairs biased towards shapes that
   are actually realisable in the data — a practical stand-in for the
   paper's exhaustive enumeration, which only ever matters on pairs
   whose layered graphs are non-empty. *)
let walk_pairs params rng (gp : Layered.parametrized) ~scale ~count =
  let tp = Params.tau_params params in
  let g = gp.Layered.graph and m = gp.Layered.matching in
  let n = G.n g in
  if n = 0 then []
  else begin
    let granule = params.Params.granularity *. scale in
    let s = Arena.get walk_slot in
    Arena.Ints.clear s.off;
    Arena.Ints.clear s.nbr;
    Arena.Ints.clear s.wt;
    let add_unmatched x e =
      if not (M.mem m e) then begin
        Arena.Ints.push s.nbr x;
        Arena.Ints.push s.wt (E.weight e)
      end
    in
    for v = 0 to n - 1 do
      Arena.Ints.push s.off (Arena.Ints.length s.nbr);
      G.iter_neighbors g v add_unmatched
    done;
    Arena.Ints.push s.off (Arena.Ints.length s.nbr);
    let off = Arena.Ints.data s.off
    and nbr = Arena.Ints.data s.nbr
    and wt = Arena.Ints.data s.wt in
    let pairs = ref [] in
    for _ = 1 to count do
      let start = Wm_graph.Prng.int rng n in
      Arena.Ints.clear s.a_bk;
      Arena.Ints.clear s.b_bk;
      (* First matched bucket: the anchor's matching edge, or a free end. *)
      let cur = ref start in
      (match M.edge_at m start with
      | Some e ->
          Arena.Ints.push s.a_bk (Tau.bucket_up ~granule (E.weight e));
          cur := E.other e start
      | None -> Arena.Ints.push s.a_bk 0);
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
          Arena.Ints.push s.b_bk (Tau.bucket_down ~granule wt.(i));
          let x = nbr.(i) in
          match M.edge_at m x with
          | Some e' ->
              Arena.Ints.push s.a_bk (Tau.bucket_up ~granule (E.weight e'));
              cur := E.other e' x;
              incr step
          | None ->
              Arena.Ints.push s.a_bk 0;
              step := steps + 1
        end
      done;
      let la = Arena.Ints.length s.a_bk and lb = Arena.Ints.length s.b_bk in
      let a = Arena.Ints.data s.a_bk and b = Arena.Ints.data s.b_bk in
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

let candidate_pairs params rng gp ~scale =
  let tp = Params.tau_params params in
  let a_values, b_values = present_buckets params gp ~scale in
  if b_values = [] then []
  else begin
    (* Single first-wins dedup over the arrival order (homogeneous
       family, then walk captures, then uniform samples) — the same
       list the old [Tau.dedup] of the concatenation produced, but the
       homogeneous family streams through a scratch pair and only its
       {e new} members are ever materialised. *)
    let seen = Hashtbl.create 256 in
    let out = ref [] in
    let add_scratch pr =
      if not (Hashtbl.mem seen pr) then begin
        let fresh = { Tau.a = Array.copy pr.Tau.a; b = Array.copy pr.Tau.b } in
        Hashtbl.add seen fresh ();
        out := fresh :: !out
      end
    in
    let add_own pr =
      if not (Hashtbl.mem seen pr) then begin
        Hashtbl.add seen pr ();
        out := pr :: !out
      end
    in
    Tau.iter_homogeneous tp ~a_values ~b_values add_scratch;
    if params.Params.tau_samples > 0 then begin
      List.iter add_own
        (walk_pairs params rng gp ~scale ~count:params.Params.tau_samples);
      List.iter add_own
        (Tau.sample tp rng ~a_values ~b_values
           ~count:(params.Params.tau_samples / 4))
    end;
    let all = List.rev !out in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    take params.Params.tau_budget all
  end

(* One pair's layered-graph evaluation, up to (but excluding) the
   used-vertex filtering: build the layered graph, run the black box,
   and project every augmenting path back to candidate components in
   path order.  Reads [gp]/[m] only, so evaluations of different pairs
   are independent and run through the domain pool. *)
type pair_eval = {
  pe_candidates : (Aug.t * int) list;  (* path-order (component, gain) *)
  pe_layered_edges : int;
  pe_black_box : bool;
  pe_passes : int;
  pe_paths : int;
}

let eval_pair ~cache params tp (gp : Layered.parametrized) m ~scale pair =
  match Layered.build_opt ~cache tp gp pair ~scale with
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
    let m', bb_passes =
      Wm_algos.Approx_bipartite.solve_metered ~init:lay.Layered.init
        ~delta:params.Params.delta lay.Layered.lgraph ~left:(Layered.left lay)
    in
    let paths = Layered.augmenting_paths lay m' in
    let candidates =
      List.filter_map
        (fun layered_path ->
          let verts, edges =
            Decompose.project ~base_n:lay.Layered.base_n layered_path
          in
          match Decompose.decompose ~verts ~edges with
          | [] -> None
          | comps -> (
              match Decompose.best_component comps m with
              | Some (c, gain) when gain > 0 -> Some (c, gain)
              | Some _ | None -> None))
        paths
    in
    {
      pe_candidates = candidates;
      pe_layered_edges = layered_edges;
      pe_black_box = true;
      pe_passes = bb_passes;
      pe_paths = List.length paths;
    }

let used_slot = Arena.slot (fun () -> Arena.Stamp.create ())

let run ?(span_path = "core.aug_class") params rng g m ~scale =
  let tp = Params.tau_params params in
  let gp = Layered.parametrize rng g m in
  (* Two root spans per class — candidate generation, then the layered
     cache and every pair's evaluation — under explicit paths, so the
     timer set is the same at any jobs setting and bounded per scale
     rather than growing with the distinct tau pairs seen. *)
  let span name f =
    Wm_obs.Obs.with_span_root Wm_obs.Obs.default (span_path ^ name) f
  in
  let pairs = span "/pairs" (fun () -> candidate_pairs params rng gp ~scale) in
  (* Phase 1 (parallel): evaluate every pair's layered graph.  The pool
     preserves input order, and [eval_pair] draws no randomness, so the
     result is independent of the jobs setting.  Inside Main_alg's own
     per-scale fan-out this degrades to a sequential map (nested pool
     calls fall back), and pair-level parallelism kicks in when a class
     is run on its own. *)
  let evals =
    span "/eval" (fun () ->
        let cache = Layered.prepare tp gp ~scale in
        Wm_par.Pool.map (Wm_par.Pool.default ())
          (fun pair -> eval_pair ~cache params tp gp m ~scale pair)
          pairs)
  in
  let stats =
    List.fold_left
      (fun s e ->
        {
          pairs_tried = s.pairs_tried + 1;
          layered_edges = s.layered_edges + e.pe_layered_edges;
          layered_edges_max = Stdlib.max s.layered_edges_max e.pe_layered_edges;
          paths_found = s.paths_found + e.pe_paths;
          black_box_calls = s.black_box_calls + (if e.pe_black_box then 1 else 0);
          black_box_passes = Stdlib.max s.black_box_passes e.pe_passes;
        })
      {
        pairs_tried = 0;
        layered_edges = 0;
        layered_edges_max = 0;
        paths_found = 0;
        black_box_calls = 0;
        black_box_passes = 0;
      }
      evals
  in
  (* Phase 2 (sequential, pair order): used-vertex filtering.  With
     [combine_pairs], the used-vertex set persists across pairs and
     every pair contributes; otherwise each pair starts from an empty
     set and the best one wins (Algorithm 4 line 13, verbatim).  Either
     way ONE epoch-stamped arena serves every pair: persisting is
     keeping the epoch, emptying is bumping it — no per-pair tables. *)
  let used = Arena.get used_slot in
  Arena.Stamp.reset used (G.n g);
  let combined = ref ([], 0) in
  let best = ref ([], 0) in
  List.iter
    (fun e ->
      if e.pe_black_box then begin
        if not params.Params.combine_pairs then
          Arena.Stamp.reset used (G.n g);
        let chosen = ref [] and gain_sum = ref 0 in
        List.iter
          (fun (c, gain) ->
            let touched = Aug.touched_vertices c m in
            let clear =
              List.for_all (fun v -> not (Arena.Stamp.mem used v)) touched
            in
            if clear && Aug.is_wellformed c && Aug.is_alternating c m then begin
              List.iter (Arena.Stamp.mark used) touched;
              chosen := c :: !chosen;
              gain_sum := !gain_sum + gain
            end)
          e.pe_candidates;
        if params.Params.combine_pairs then
          combined := (!chosen @ fst !combined, !gain_sum + snd !combined)
        else if !gain_sum > snd !best then best := (!chosen, !gain_sum)
      end)
    evals;
  let result = if params.Params.combine_pairs then !combined else !best in
  (fst result, stats)
