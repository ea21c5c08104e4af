module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module Arena = Wm_graph.Arena

type stats = {
  layered_edges : int;
  layered_edges_max : int;
      (* largest single (W, tau)-pair layered graph — the peak
         per-machine load of the class, not the average *)
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

(* A set of tau pairs, flat and open-addressed, for one class's
   first-wins dedup: pair [p] is stored in [keys] as its hash, its
   length [la], its [la] tau^A entries and its [la - 1] tau^B entries;
   a slot holds the offset of its pair in [keys], or -1.  Linear
   probing, doubling at half load.  [clear] refills only the first 256
   slots, so a class pays for the table its own pairs need. *)
module Seen = struct
  type t = {
    keys : Arena.Ints.t;
    mutable slots : int array;
    mutable mask : int;
    mutable count : int;
  }

  let create () =
    { keys = Arena.Ints.create (); slots = Array.make 256 (-1); mask = 255;
      count = 0 }

  let clear t =
    Arena.Ints.clear t.keys;
    Array.fill t.slots 0 256 (-1);
    t.mask <- 255;
    t.count <- 0

  let hash (pr : Tau.pair) =
    let h = ref (Array.length pr.Tau.a) in
    for i = 0 to Array.length pr.Tau.a - 1 do
      h := (!h * 31) + pr.Tau.a.(i)
    done;
    for j = 0 to Array.length pr.Tau.b - 1 do
      h := (!h * 31) + pr.Tau.b.(j)
    done;
    let h = !h * 0x2545F491 in
    (h lxor (h lsr 17)) land max_int

  (* Whether the pair stored at offset [o] is [pr], whose hash is [h]. *)
  let equal t o h (pr : Tau.pair) =
    let keys = Arena.Ints.data t.keys and la = Array.length pr.Tau.a in
    keys.(o) = h
    && keys.(o + 1) = la
    &&
    let same = ref true in
    for i = 0 to la - 1 do
      if keys.(o + 2 + i) <> pr.Tau.a.(i) then same := false
    done;
    for j = 0 to la - 2 do
      if keys.(o + 2 + la + j) <> pr.Tau.b.(j) then same := false
    done;
    !same

  let grow t =
    t.mask <- (2 * t.mask) + 1;
    if Array.length t.slots <= t.mask then
      t.slots <- Array.make (t.mask + 1) (-1)
    else Array.fill t.slots 0 (t.mask + 1) (-1);
    let keys = Arena.Ints.data t.keys and o = ref 0 in
    while !o < Arena.Ints.length t.keys do
      let i = ref (keys.(!o) land t.mask) in
      while t.slots.(!i) >= 0 do
        i := (!i + 1) land t.mask
      done;
      t.slots.(!i) <- !o;
      o := !o + (2 * keys.(!o + 1)) + 1
    done

  (* [add t pr] stores [pr] and is true when [t] did not hold it. *)
  let add t (pr : Tau.pair) =
    let h = hash pr in
    let i = ref (h land t.mask) in
    while t.slots.(!i) >= 0 && not (equal t t.slots.(!i) h pr) do
      i := (!i + 1) land t.mask
    done;
    t.slots.(!i) < 0
    && begin
         t.slots.(!i) <- Arena.Ints.length t.keys;
         Arena.Ints.push t.keys h;
         Arena.Ints.push t.keys (Array.length pr.Tau.a);
         for j = 0 to Array.length pr.Tau.a - 1 do
           Arena.Ints.push t.keys pr.Tau.a.(j)
         done;
         for j = 0 to Array.length pr.Tau.b - 1 do
           Arena.Ints.push t.keys pr.Tau.b.(j)
         done;
         t.count <- t.count + 1;
         if 2 * t.count > t.mask then grow t;
         true
       end
end

(* Per-domain scratch for one class's candidate generation: the dedup
   set; the good walks' captures, each its length [la] then its
   buckets, and their offsets; the per-vertex and per-incidence
   buckets; and one pair per length [|tau^B|], which captures are
   replayed through (the longest also holds the current walk). *)
type scratch = {
  seen : Seen.t;
  captured : Arena.Ints.t;
  capture_off : Arena.Ints.t;
  up_bk : Arena.Ints.t;
  down_bk : Arena.Ints.t;
  mutable by_len : Tau.pair array;
}

let scratch_slot =
  Arena.slot (fun () ->
      let i () = Arena.Ints.create () in
      {
        seen = Seen.create (); captured = i (); capture_off = i ();
        up_bk = i (); down_bk = i (); by_len = [||];
      })

(* Random alternating walks give tau pairs biased towards shapes that
   are actually realisable in the data — a practical stand-in for the
   paper's exhaustive enumeration, which only ever matters on pairs
   whose layered graphs are non-empty. *)
let walk_pairs params rng ~inc (gp : Layered.parametrized) ~scale ~count f =
  let tp = Params.tau_params params in
  let n = G.n gp.Layered.graph and layers = params.Params.max_layers in
  if n > 0 then begin
    let granule = params.Params.granularity *. scale in
    let s = Arena.get scratch_slot in
    if Array.length s.by_len < layers then
      s.by_len <-
        Array.init layers (fun k ->
            { Tau.a = Array.make (k + 1) 0; b = Array.make k 0 });
    let { off; nbr; wt; mate; mwt; _ } = inc in
    (* The walks' buckets at this scale: each vertex's matched edge
       rounded up (0 when free) and each unmatched incidence rounded
       down, computed once rather than at every step. *)
    let buckets into f ws =
      Arena.Ints.clear into;
      Array.iter (fun w -> Arena.Ints.push into (f ~granule w)) ws;
      Arena.Ints.data into
    in
    let up = buckets s.up_bk Tau.bucket_up mwt in
    let down = buckets s.down_bk Tau.bucket_down wt in
    let a = s.by_len.(layers - 1).Tau.a and b = s.by_len.(layers - 1).Tau.b in
    Arena.Ints.clear s.captured;
    Arena.Ints.clear s.capture_off;
    for _ = 1 to count do
      let start = Wm_graph.Prng.int rng n in
      (* First matched bucket: the anchor's matching edge, or a free end. *)
      a.(0) <- up.(start);
      let cur = ref (if mate.(start) >= 0 then mate.(start) else start) in
      let steps = 1 + Wm_graph.Prng.int rng (layers - 1) in
      let lb = ref 0 and go = ref true in
      while !go do
        (* One draw over the vertex's unmatched incidences, kept in
           neighbour order so the draw and the edge it picks are those
           of a count-then-scan over the neighbourhood (test_core
           checks this against one). *)
        let lo = off.(!cur) in
        let unmatched_count = off.(!cur + 1) - lo in
        if unmatched_count = 0 then go := false
        else begin
          let i = lo + Wm_graph.Prng.int rng unmatched_count in
          let x = nbr.(i) in
          b.(!lb) <- down.(i);
          incr lb;
          a.(!lb) <- up.(x);
          if mate.(x) >= 0 && !lb < steps then cur := mate.(x) else go := false
        end
      done;
      let lb = !lb in
      if lb >= 1 && Tau.is_good_prefix tp ~a ~la:(lb + 1) ~b ~lb then begin
        Arena.Ints.push s.capture_off (Arena.Ints.length s.captured);
        Arena.Ints.push s.captured (lb + 1);
        for i = 0 to lb do
          Arena.Ints.push s.captured a.(i)
        done;
        for j = 0 to lb - 1 do
          Arena.Ints.push s.captured b.(j)
        done
      end
    done;
    (* Replay the captures newest first, each through the scratch pair
       of its length. *)
    let captured = Arena.Ints.data s.captured in
    for c = Arena.Ints.length s.capture_off - 1 downto 0 do
      let o = Arena.Ints.get s.capture_off c in
      let la = captured.(o) in
      let pr = s.by_len.(la - 1) in
      Array.blit captured (o + 1) pr.Tau.a 0 la;
      Array.blit captured (o + 1 + la) pr.Tau.b 0 (la - 1);
      f pr
    done
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

type candidates = {
  pairs : Tau.pair list;
  trivial : int;
  trivial_edges : int;
  trivial_edges_max : int;
}

let candidate_pairs params rng ~inc ~cache gp ~scale =
  let tp = Params.tau_params params in
  let a_values, b_values = Layered.present cache in
  let kept = ref [] and distinct = ref 0 in
  let trivial = ref 0 and x_sum = ref 0 and x_max = ref 0 in
  if b_values <> [] then begin
    (* One first-wins dedup over the arrival order (homogeneous family,
       then walk captures, then uniform samples), cut at the budget.
       Every source presents scratch pairs, so a pair is copied only
       when it is new and its L' keeps a Y edge; a trivial one leaves
       its edge count and one counted build. *)
    let seen = (Arena.get scratch_slot).seen in
    Seen.clear seen;
    let offer pr =
      if !distinct < Params.tau_budget && Seen.add seen pr then begin
        incr distinct;
        if Layered.keeps_y cache pr then
          kept := { Tau.a = Array.copy pr.Tau.a; b = Array.copy pr.Tau.b } :: !kept
        else begin
          let x = Layered.count_trivial cache pr in
          incr trivial;
          x_sum := !x_sum + x;
          x_max := Stdlib.max !x_max x
        end
      end
    in
    Tau.iter_homogeneous tp ~a_values ~b_values offer;
    walk_pairs params rng ~inc gp ~scale ~count:Params.tau_samples offer;
    Tau.sample tp rng ~a_values ~b_values ~count:(Params.tau_samples / 4) offer
  end;
  {
    pairs = List.rev !kept;
    trivial = !trivial;
    trivial_edges = !x_sum;
    trivial_edges_max = !x_max;
  }

(* One non-trivial pair's layered-graph evaluation, up to (but
   excluding) the used-vertex filtering: build the layered graph, run
   the black box, and project every augmenting path back to candidate
   components in path order.  Reads [cache]/[m] only and draws no
   randomness. *)
type pair_eval = {
  pe_candidates : Aug.t list;  (* path order, each strictly gainful *)
  pe_layered_edges : int;
  pe_passes : int;
}

let eval_pair ~cache params m pair =
  match Layered.build_opt cache pair with
  | Layered.Trivial layered_edges ->
      { pe_candidates = []; pe_layered_edges = layered_edges; pe_passes = 0 }
  | Layered.Graph lay ->
    let solved = Layered.black_box ~delta:params.Params.delta lay in
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
        (Layered.augmenting_paths lay solved)
    in
    {
      pe_candidates = candidates;
      pe_layered_edges = Layered.edge_count lay;
      pe_passes = solved.Layered.passes;
    }

let used_slot = Arena.slot (fun () -> Arena.Stamp.create ())

let run ?(span_path = "core.aug_class") params rng g m ~inc ~scale =
  let tp = Params.tau_params params in
  let gp = Layered.parametrize rng inc.view in
  (* Two root spans per class — the layered cache and candidate
     generation, then every non-trivial pair's evaluation — under
     explicit paths, so the timer set is the same at any jobs setting
     and bounded per scale rather than growing with the distinct tau
     pairs seen. *)
  let span name f =
    Wm_obs.Obs.with_span_root Wm_obs.Obs.default (span_path ^ name) f
  in
  let cache, cands =
    span "/pairs" (fun () ->
        let cache = Layered.prepare tp gp ~scale in
        (cache, candidate_pairs params rng ~inc ~cache gp ~scale))
  in
  (* Phase 1: evaluate every non-trivial pair's layered graph, in pair
     order. *)
  let evals =
    span "/eval" (fun () -> List.map (eval_pair ~cache params m) cands.pairs)
  in
  let stats =
    List.fold_left
      (fun s e ->
        {
          layered_edges = s.layered_edges + e.pe_layered_edges;
          layered_edges_max = Stdlib.max s.layered_edges_max e.pe_layered_edges;
          black_box_passes = Stdlib.max s.black_box_passes e.pe_passes;
        })
      {
        layered_edges = cands.trivial_edges;
        layered_edges_max = cands.trivial_edges_max;
        black_box_passes = 0;
      }
      evals
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
