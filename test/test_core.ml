(* Tests for wm_core: Aug, Weight_class, Tau, Layered, Decompose,
   Params, Wgt_aug_paths, Random_arrival, Aug_class, Main_alg,
   Model_driver. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module B = Wm_graph.Bipartition
module Gen = Wm_graph.Gen
module ES = Wm_stream.Edge_stream
module A = Wm_core.Aug
module WC = Wm_core.Weight_class
module Tau = Wm_core.Tau
module Layered = Wm_core.Layered
module Decompose = Wm_core.Decompose
module Params = Wm_core.Params
module WAP = Wm_core.Wgt_aug_paths
module RA = Wm_core.Random_arrival
module AC = Wm_core.Aug_class
module MA = Wm_core.Main_alg
module MD = Wm_core.Model_driver

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Aug *)

let fig1 = Gen.paper_fig1

(* The (1-based) layer a layered vertex id lives in. *)
let layer_of ~base_n x = (x / base_n) + 1

let test_aug_path_gain () =
  let _, m = fig1 () in
  (* Path a-c-d-f: add ac (4) and df (4), remove cd (5): gain 3. *)
  let p = A.Path [ E.make 0 2 4; E.make 2 3 5; E.make 3 5 4 ] in
  check "gain" 3 (A.gain p m);
  check_bool "alternating" true (A.is_alternating p m);
  check_bool "wellformed" true (A.is_wellformed p);
  check "length" 3 (A.length p);
  check "weight" 13 (A.weight p)

let test_aug_bad_path_gain () =
  let _, m = fig1 () in
  (* Path b-c-d-e is unweighted-augmenting but loses weight: 2+2-5. *)
  let p = A.Path [ E.make 1 2 2; E.make 2 3 5; E.make 3 4 2 ] in
  check "negative gain" (-1) (A.gain p m);
  check_bool "not augmenting" false (A.gain p m > 0)

let test_aug_neighborhood_off_path () =
  (* A single-edge path whose endpoints are matched elsewhere: the
     neighborhood contains both off-path matched edges. *)
  let m = M.of_edges 4 [ E.make 0 1 3; E.make 2 3 4 ] in
  let p = A.Path [ E.make 1 2 10 ] in
  check "neighborhood size" 2 (List.length (A.matching_neighborhood p m));
  check "gain" 3 (A.gain p m)

let test_aug_apply_path () =
  let g, m = fig1 () in
  let m = M.copy m in
  let p = A.Path [ E.make 0 2 4; E.make 2 3 5; E.make 3 5 4 ] in
  A.apply p m;
  check "new weight" 8 (M.weight m);
  check_bool "valid" true (M.is_valid_in m g)

let test_aug_apply_cycle () =
  let g, m = Gen.paper_four_cycle () in
  let m = M.copy m in
  let c =
    A.Cycle [ E.make 0 1 3; E.make 1 2 4; E.make 2 3 3; E.make 3 0 4 ]
  in
  check "cycle gain" 2 (A.gain c m);
  check_bool "alternating" true (A.is_alternating c m);
  A.apply c m;
  check "optimal" 8 (M.weight m);
  check_bool "valid" true (M.is_valid_in m g)

let test_aug_apply_is_gain () =
  (* apply changes the weight by exactly the computed gain. *)
  let rng = P.create 3 in
  for _ = 1 to 20 do
    let g = Gen.gnp rng ~n:10 ~p:0.5 ~weights:(Gen.Uniform (1, 9)) in
    let m = Wm_algos.Greedy.by_weight g in
    (* Try every single-edge augmentation. *)
    G.iter_edges
      (fun e ->
        if not (M.mem m e) then begin
          let p = A.Path [ e ] in
          let gain = A.gain p m in
          let m' = M.copy m in
          A.apply p m';
          check "delta = gain" (M.weight m + gain) (M.weight m')
        end)
      g
  done

let test_aug_cycle_wraparound_alternation () =
  let m = M.of_edges 4 [ E.make 0 1 3; E.make 1 2 4 |> fun _ -> E.make 2 3 3 ] in
  (* Cycle listed starting with an unmatched edge: wrap-around must be
     checked. *)
  let c = A.Cycle [ E.make 1 2 4; E.make 2 3 3; E.make 3 0 4; E.make 0 1 3 ] in
  check_bool "alternating despite rotation" true (A.is_alternating c m)

let test_aug_malformed () =
  let p = A.Path [ E.make 0 1 1; E.make 2 3 1 ] in
  check_bool "disconnected" false (A.is_wellformed p);
  let p2 = A.Path [ E.make 0 1 1; E.make 1 2 1; E.make 2 0 1; E.make 0 3 1 ] in
  check_bool "self-intersecting" false (A.is_wellformed p2)

let test_aug_touched_vertices () =
  let m = M.of_edges 6 [ E.make 0 1 3; E.make 2 3 4 ] in
  let p = A.Path [ E.make 1 2 10 ] in
  let touched = List.sort Int.compare (A.touched_vertices p m) in
  Alcotest.(check (list int)) "C plus neighborhood" [ 0; 1; 2; 3 ] touched

(* ------------------------------------------------------------------ *)
(* Weight_class *)

let test_doubling_class () =
  check "w=1" 1 (WC.doubling_class 1);
  check "w=2" 2 (WC.doubling_class 2);
  check "w=3" 2 (WC.doubling_class 3);
  check "w=4" 3 (WC.doubling_class 4);
  check "w=1023" 10 (WC.doubling_class 1023);
  check "w=1024" 11 (WC.doubling_class 1024)

let test_doubling_lower () =
  check "class 1" 1 (WC.doubling_lower 1);
  check "class 5" 16 (WC.doubling_lower 5);
  for w = 1 to 100 do
    let c = WC.doubling_class w in
    check_bool "lower <= w" true (WC.doubling_lower c <= w);
    check_bool "w < 2*lower" true (w < 2 * WC.doubling_lower c)
  done

let test_geometric_scales () =
  let scales = WC.geometric_scales ~ratio:2.0 ~max_value:10.0 in
  Alcotest.(check (list (float 1e-9))) "powers of two" [ 1.; 2.; 4.; 8.; 16. ] scales

let test_scale_floor () =
  Alcotest.(check (float 1e-9)) "floor of 10" 8.0 (WC.scale_floor ~ratio:2.0 10.0);
  Alcotest.(check (float 1e-9)) "floor of 8" 8.0 (WC.scale_floor ~ratio:2.0 8.0);
  Alcotest.(check (float 1e-9)) "floor below 1" 1.0 (WC.scale_floor ~ratio:2.0 0.5)

(* ------------------------------------------------------------------ *)
(* Tau *)

let tp = Tau.make_params ~granularity:0.25 ~max_layers:5 ~slack:0.0

let test_tau_good_pair () =
  check_bool "good" true (Tau.is_good tp { Tau.a = [| 0; 2; 0 |]; b = [| 2; 2 |] });
  (* (F) violated: sum b - sum a = 0 *)
  check_bool "no gain" false (Tau.is_good tp { Tau.a = [| 0; 4; 0 |]; b = [| 2; 2 |] });
  (* (D) violated: interior a < 2 *)
  check_bool "small interior" false
    (Tau.is_good tp { Tau.a = [| 0; 1; 0 |]; b = [| 2; 2 |] });
  (* (E) violated: sum b > (1+slack)/g = 4 *)
  check_bool "budget" false (Tau.is_good tp { Tau.a = [| 0; 2; 0 |]; b = [| 3; 2 |] });
  (* (A) violated: too many layers *)
  check_bool "layers" false
    (Tau.is_good
       (Tau.make_params ~granularity:0.25 ~max_layers:2 ~slack:0.0)
       { Tau.a = [| 0; 2; 0 |]; b = [| 2; 2 |] });
  (* (B) violated *)
  check_bool "shape" false (Tau.is_good tp { Tau.a = [| 0; 0 |]; b = [| 2; 2 |] })

let test_tau_buckets () =
  check "up exact" 4 (Tau.bucket_up ~granule:1.0 4);
  check "up above" 5 (Tau.bucket_up ~granule:1.0 5);
  check "up fractional" 3 (Tau.bucket_up ~granule:2.0 5);
  check "down exact" 4 (Tau.bucket_down ~granule:1.0 4);
  check "down fractional" 2 (Tau.bucket_down ~granule:2.0 5);
  check "zero weight" 0 (Tau.bucket_up ~granule:1.0 0)

let test_tau_bucket_inverse () =
  (* bucket_up k * granule >= w > (bucket_up k - 1) * granule *)
  let granule = 0.75 in
  for w = 1 to 50 do
    let bu = Tau.bucket_up ~granule w in
    check_bool "up covers" true (float_of_int bu *. granule >= float_of_int w -. 1e-6);
    check_bool "up tight" true
      (float_of_int (bu - 1) *. granule < float_of_int w);
    let bd = Tau.bucket_down ~granule w in
    check_bool "down covers" true (float_of_int bd *. granule <= float_of_int w +. 1e-6);
    check_bool "down tight" true
      (float_of_int (bd + 1) *. granule > float_of_int w)
  done

let test_tau_homogeneous () =
  let emitted = ref 0 in
  Tau.iter_homogeneous tp ~a_values:[ 2 ] ~b_values:[ 3 ] (fun pr ->
      incr emitted;
      check_bool "good" true (Tau.is_good tp pr);
      check_bool "uniform tau^B" true (Array.for_all (( = ) 3) pr.Tau.b));
  check_bool "nonempty" true (!emitted > 0)

let test_tau_sample () =
  let rng = P.create 3 in
  let pairs = Tau.sample tp rng ~a_values:[ 2; 3 ] ~b_values:[ 2; 3; 4 ] ~count:200 in
  List.iter (fun pr -> check_bool "good" true (Tau.is_good tp pr)) pairs;
  check "deduped" (List.length pairs) (List.length (Tau.dedup pairs))

let test_tau_capture_path () =
  (* fig1's a-c-d-f path at W = 13, granularity 0.25: granule 3.25;
     buckets: cd (5) up -> 2; ac, df (4) down -> 1... bucket 1 < 2 means
     not capturable at this coarse granularity; use a finer one. *)
  let tp_fine = Tau.make_params ~granularity:0.125 ~max_layers:5 ~slack:0.0 in
  (* W is the class scale below the path weight 13: scale_floor -> 8. *)
  let granule = 0.125 *. 8.0 in
  let mid = Tau.bucket_up ~granule 5 in
  let o = Tau.bucket_down ~granule 4 in
  match
    Tau.capture_path tp_fine ~a_buckets:[ 0; mid; 0 ] ~b_buckets:[ o; o ]
  with
  | Some pr -> check_bool "captures fig1 path" true (Tau.is_good tp_fine pr)
  | None -> Alcotest.fail "fig1 path should be capturable at granularity 1/8"

let test_tau_capture_cycle () =
  (* The (3,4,3,4) cycle: repetitions 2 at W = 16 with granularity 1/32. *)
  let tp32 = Tau.make_params ~granularity:(1.0 /. 32.0) ~max_layers:9 ~slack:0.0 in
  let granule = 16.0 /. 32.0 in
  let ma = Tau.bucket_up ~granule 3 in
  let ub = Tau.bucket_down ~granule 4 in
  match
    Tau.capture_cycle tp32 ~a_buckets:[ ma; ma ] ~b_buckets:[ ub; ub ]
      ~repetitions:2
  with
  | Some pr ->
      check "layers = 2*2*2+1" 5 (Tau.layers pr);
      check_bool "good" true (Tau.is_good tp32 pr)
  | None -> Alcotest.fail "4-cycle should be capturable"

(* ------------------------------------------------------------------ *)
(* Layered + Decompose *)

(* Deterministic parametrization of fig1 capturing the a-c-d-f path:
   need a in R, c in L, d in R, f in L (or mirrored). *)
let fig1_layered () =
  let g, m = fig1 () in
  (*            a      b      c     d      e      f    *)
  let side = [| false; false; true; false; false; true |] in
  let gp = Layered.parametrize_with ~side g m in
  let tp = Tau.make_params ~granularity:0.125 ~max_layers:5 ~slack:0.0 in
  let scale = 8.0 in
  let granule = 0.125 *. scale in
  let mid = Tau.bucket_up ~granule 5 in
  let o = Tau.bucket_down ~granule 4 in
  let pair = { Tau.a = [| 0; mid; 0 |]; b = [| o; o |] } in
  check_bool "pair is good" true (Tau.is_good tp pair);
  (gp, Layered.build tp gp pair ~scale)

(* [lay]'s columns as a graph on its compact vertices, and the side of
   each compact vertex: a copy of an L-vertex, or the sentinel, is on
   the left. *)
let graph_of lay =
  G.of_flat ~n:lay.Layered.n ~m:(Layered.edge_count lay) ~src:lay.Layered.src
    ~dst:lay.Layered.dst ~w:lay.Layered.w

let edge_of lay i =
  E.make lay.Layered.src.(i) lay.Layered.dst.(i) lay.Layered.w.(i)

let left_of lay x =
  x >= Array.length lay.Layered.ids
  || lay.Layered.side.(lay.Layered.ids.(x) mod lay.Layered.base_n)

let test_layered_structure () =
  let _, lay = fig1_layered () in
  check "three layers" 3 lay.Layered.layer_count;
  check "init = middle copy of cd" 1 lay.Layered.x_len;
  (* Edges: the cd copy in layer 2 plus Y edges ac (1->2) and df (2->3). *)
  check "edge count" 3 (Layered.edge_count lay);
  check_bool "bipartite" true
    (G.is_bipartition (graph_of lay) ~left:(left_of lay))

let test_layered_aug_path_found () =
  let _, lay = fig1_layered () in
  match Layered.augmenting_paths lay (Layered.black_box ~delta:0.0 lay) with
  | [ path ] -> check "three edges" 3 (List.length path.Layered.weights)
  | l -> Alcotest.failf "expected one augmenting path, got %d" (List.length l)

let test_layered_project_and_decompose () =
  let _, lay = fig1_layered () in
  match Layered.augmenting_paths lay (Layered.black_box ~delta:0.0 lay) with
  | [ path ] -> (
      let verts, edges = Decompose.project ~base_n:lay.Layered.base_n path in
      check "four vertices" 4 (List.length verts);
      match Decompose.decompose ~verts ~edges with
      | [ A.Path es ] ->
          let _, m = fig1 () in
          check "gain 3" 3 (A.gain (A.Path es) m)
      | other -> Alcotest.failf "expected one path, got %d comps" (List.length other))
  | l -> Alcotest.failf "expected one augmenting path, got %d" (List.length l)

let test_layered_filtering_drops_light_edges () =
  let g, m = fig1 () in
  let side = [| false; false; true; false; false; true |] in
  let gp = Layered.parametrize_with ~side g m in
  let tp = Tau.make_params ~granularity:0.125 ~max_layers:5 ~slack:0.0 in
  (* Demand unmatched bucket far above any actual edge: no Y edges. *)
  let pair = { Tau.a = [| 0; 2; 0 |]; b = [| 7; 7 |] } in
  let lay = Layered.build tp gp pair ~scale:8.0 in
  check "only the matched copy survives" lay.Layered.x_len
    (Layered.edge_count lay)

let test_layered_respects_orientation () =
  (* With every vertex on the same side nothing crosses: empty graph. *)
  let g, m = fig1 () in
  let side = Array.make 6 true in
  let gp = Layered.parametrize_with ~side g m in
  let tp = Tau.make_params ~granularity:0.125 ~max_layers:5 ~slack:0.0 in
  let pair = { Tau.a = [| 0; 2; 0 |]; b = [| 3; 3 |] } in
  let lay = Layered.build tp gp pair ~scale:8.0 in
  check "no edges" 0 (Layered.edge_count lay)

let test_decompose_simple_walk () =
  (* A simple path decomposes to itself. *)
  let edges = [ E.make 0 1 1; E.make 1 2 2; E.make 2 3 3 ] in
  match Decompose.decompose ~verts:[ 0; 1; 2; 3 ] ~edges with
  | [ A.Path es ] -> check "unchanged" 3 (List.length es)
  | _ -> Alcotest.fail "expected a single path"

let test_decompose_extracts_cycle () =
  (* Walk 0-1-2-0-3: the 0-1-2-0 loop pops as a cycle, leaving 0-3. *)
  let edges =
    [ E.make 0 1 1; E.make 1 2 1; E.make 2 0 1; E.make 0 3 1 ]
  in
  let comps = Decompose.decompose ~verts:[ 0; 1; 2; 0; 3 ] ~edges in
  let cycles = List.filter (function A.Cycle _ -> true | A.Path _ -> false) comps in
  let paths = List.filter (function A.Path _ -> true | A.Cycle _ -> false) comps in
  check "one cycle" 1 (List.length cycles);
  check "one path" 1 (List.length paths);
  (match cycles with
  | [ A.Cycle es ] -> check "cycle length" 3 (List.length es)
  | _ -> Alcotest.fail "cycle expected");
  match paths with
  | [ A.Path es ] -> check "path length" 1 (List.length es)
  | _ -> Alcotest.fail "path expected"

let test_decompose_pure_cycle () =
  (* Walk returning to its start collapses entirely into cycles. *)
  let edges = [ E.make 0 1 1; E.make 1 2 1; E.make 2 3 1; E.make 3 0 1 ] in
  match Decompose.decompose ~verts:[ 0; 1; 2; 3; 0 ] ~edges with
  | [ A.Cycle es ] -> check "full cycle" 4 (List.length es)
  | _ -> Alcotest.fail "expected one cycle"

let test_decompose_nonsimple_paper_example () =
  (* The Section 1.1.2 walk a-b-c-d-b(-a): with repeats; decompose must
     produce simple components only. *)
  let edges =
    [ E.make 0 1 1; E.make 1 2 2; E.make 2 3 1; E.make 3 1 2 ]
  in
  let comps = Decompose.decompose ~verts:[ 0; 1; 2; 3; 1 ] ~edges in
  List.iter (fun c -> check_bool "wellformed" true (A.is_wellformed c)) comps;
  check "two components" 2 (List.length comps)

let test_decompose_count_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Decompose.decompose: vertex/edge count mismatch")
    (fun () -> ignore (Decompose.decompose ~verts:[ 0 ] ~edges:[ E.make 0 1 1 ]))

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_practical () =
  let p = Params.practical ~epsilon:0.2 () in
  check_bool "granularity 1/32" true (p.Params.granularity = 1.0 /. 32.0);
  check "layers" 9 p.Params.max_layers;
  check_bool "delta 0.1" true (p.Params.delta = 0.1);
  check_bool "class ratio 2" true (Params.class_ratio = 2.0);
  check "tau budget" 3000 Params.tau_budget;
  check "tau samples" 300 Params.tau_samples;
  check "iterations" 20 (p.Params.max_iterations);
  check "iterations eps=0.3" 14
    (Params.practical ~epsilon:0.3 ()).Params.max_iterations

(* ------------------------------------------------------------------ *)
(* Wgt_aug_paths (Algorithm 1) *)

let test_wap_finds_planted_weighted () =
  let prng = P.create 41 in
  let g, m0 =
    Gen.planted_three_augmentations prng ~k:30 ~spare:5
      ~weights:(Gen.Uniform (4, 64))
  in
  let rng = P.create 42 in
  let wap = WAP.create ~rng ~m0 () in
  G.iter_edges (fun e -> if not (M.mem m0 e) then WAP.feed wap e) g;
  let r = WAP.finalize wap in
  check_bool "some middles marked" true (r.WAP.marked > 0);
  check_bool "weight improves" true (M.weight r.WAP.matching > M.weight m0);
  check_bool "m2 valid" true (M.is_valid_in r.WAP.m2 g)

let test_wap_augmentations_are_gainful () =
  let prng = P.create 43 in
  let g, m0 =
    Gen.planted_three_augmentations prng ~k:20 ~spare:0
      ~weights:(Gen.Geometric_classes 6)
  in
  let rng = P.create 44 in
  let wap = WAP.create ~rng ~m0 () in
  G.iter_edges (fun e -> if not (M.mem m0 e) then WAP.feed wap e) g;
  let r = WAP.finalize wap in
  (* Every applied augmentation had positive gain, so M2 >= M0 always. *)
  check_bool "m2 never below m0" true (M.weight r.WAP.m2 >= M.weight m0)

let test_wap_excess_path () =
  (* A single heavy edge across two matched edges: the excess-weight
     (M1) branch must capture it. *)
  let m0 = M.of_edges 4 [ E.make 0 1 3; E.make 2 3 3 ] in
  let rng = P.create 45 in
  let wap = WAP.create ~rng ~m0 () in
  WAP.feed wap (E.make 1 2 100);
  let r = WAP.finalize wap in
  check "m1 takes the heavy edge" 100 (M.weight r.WAP.m1);
  check "best is m1" 100 (M.weight r.WAP.matching)

let test_wap_no_feed_no_change () =
  let m0 = M.of_edges 4 [ E.make 0 1 3 ] in
  let rng = P.create 46 in
  let wap = WAP.create ~rng ~m0 () in
  let r = WAP.finalize wap in
  check "unchanged" 3 (M.weight r.WAP.matching);
  check "no augs" 0 r.WAP.augmentations

let test_wap_filter_thresholds () =
  (* A candidate side edge below the (1+2alpha) threshold must not be
     forwarded. *)
  let m0 = M.of_edges 4 [ E.make 1 2 10 ] in
  let rng = P.create 47 in
  (* Find a seed where the middle edge is marked. *)
  let rec find_marked seed =
    let wap = WAP.create ~rng:(P.create seed) ~m0 () in
    if WAP.marked_count wap = 1 then wap else find_marked (seed + 1)
  in
  ignore rng;
  let wap = find_marked 0 in
  (* w(M0 u)/2 = 5; threshold = (1+0.04)*5 = 5.2; feed weight 5: no. *)
  WAP.feed wap (E.make 0 1 5);
  check "below threshold not forwarded" 0 (WAP.forwarded_count wap);
  (* Weight 6 >= 5.2: forwarded. *)
  WAP.feed wap (E.make 0 1 6 |> fun _ -> E.make 3 2 6);
  check "above threshold forwarded" 1 (WAP.forwarded_count wap)

let test_wap_duplicate_edge_keeps_pushed_original () =
  (* Regression: a later, lighter duplicate on the same endpoint pair
     must not clobber the original recorded for the edge actually held
     by the local-ratio stack — otherwise finalize rebuilds M1 from the
     wrong (lighter) original. *)
  let m0 = M.of_edges 4 [ E.make 0 1 3; E.make 2 3 3 ] in
  let wap = WAP.create ~rng:(P.create 48) ~m0 () in
  WAP.feed wap (E.make 1 2 100);
  (* Same endpoints, still above w(M0 u) + w(M0 v) = 6, but the stacked
     excess 94 dominates so local-ratio rejects this candidate. *)
  WAP.feed wap (E.make 1 2 10);
  let r = WAP.finalize wap in
  check "m1 keeps the heavy original" 100 (M.weight r.WAP.m1);
  check "best is m1" 100 (M.weight r.WAP.matching)

let test_wap_duplicate_stream_property () =
  (* Under streams with many duplicate endpoint pairs, finalize must
     still return valid matchings, M1 must never lose weight against
     M0, and the reported best must be the heavier of M1 and M2. *)
  for seed = 0 to 9 do
    let prng = P.create (900 + seed) in
    let n = 40 in
    let m0 =
      M.of_edges n
        (List.init (n / 4) (fun i ->
             E.make (2 * i) ((2 * i) + 1) (1 + P.int prng 20)))
    in
    (* A small pool of endpoint pairs, each fed several times with
       different weights: duplicates are the norm, not the exception. *)
    let pool =
      Array.init 60 (fun _ ->
          let u = P.int prng n in
          let v = (u + 1 + P.int prng (n - 1)) mod n in
          (min u v, max u v))
    in
    let fed = ref [] in
    let wap = WAP.create ~rng:(P.create (700 + seed)) ~m0 () in
    for _ = 1 to 200 do
      let u, v = pool.(P.int prng (Array.length pool)) in
      let e = E.make u v (1 + P.int prng 60) in
      if not (M.mem m0 e) then begin
        WAP.feed wap e;
        fed := e :: !fed
      end
    done;
    let r = WAP.finalize wap in
    (* The stream carries parallel edges, so validate structurally:
       edges pairwise vertex-disjoint, bookkept weight consistent, and
       every matched edge was actually fed (or came from M0). *)
    let known = Hashtbl.create 64 in
    List.iter
      (fun e -> Hashtbl.replace known (E.endpoints e, E.weight e) ())
      (M.fold (fun acc e -> e :: acc) !fed m0);
    let check_matching label m =
      let seen = Hashtbl.create 16 in
      let sum = ref 0 in
      M.iter
        (fun e ->
          let u, v = E.endpoints e in
          check_bool (label ^ ": endpoint disjoint") false
            (Hashtbl.mem seen u || Hashtbl.mem seen v);
          Hashtbl.replace seen u ();
          Hashtbl.replace seen v ();
          check_bool
            (label ^ ": edge was fed")
            true
            (Hashtbl.mem known (E.endpoints e, E.weight e));
          sum := !sum + E.weight e)
        m;
      check (label ^ ": weight consistent") !sum (M.weight m)
    in
    check_matching "m1" r.WAP.m1;
    check_matching "m2" r.WAP.m2;
    check_bool "m1 never below m0" true (M.weight r.WAP.m1 >= M.weight m0);
    check "best is max(m1, m2)"
      (Stdlib.max (M.weight r.WAP.m1) (M.weight r.WAP.m2))
      (M.weight r.WAP.matching)
  done

(* ------------------------------------------------------------------ *)
(* Random_arrival (Algorithm 2) *)

let test_ra_valid_output () =
  let grng = P.create 51 in
  let g = Gen.gnp grng ~n:120 ~p:0.1 ~weights:(Gen.Uniform (1, 50)) in
  let s = ES.of_graph ~order:(ES.Random (P.create 52)) g in
  let r = RA.run ~rng:(P.create 53) s in
  check_bool "valid" true (M.is_valid_in r.RA.matching g);
  check_bool "best of m1 m2" true
    (M.weight r.RA.matching = Stdlib.max r.RA.m1_weight r.RA.m2_weight);
  check_bool "m0 recorded" true (r.RA.m0_weight > 0)

let test_ra_beats_half_on_average () =
  let grng = P.create 54 in
  let g =
    Gen.random_bipartite grng ~left:60 ~right:60 ~p:0.15
      ~weights:(Gen.Uniform (1, 100))
  in
  let opt = M.weight (Wm_exact.Hungarian.solve g ~left:(B.halves 60)) in
  let total = ref 0 in
  let trials = 8 in
  for i = 1 to trials do
    let s = ES.of_graph ~order:(ES.Random (P.create (60 + i))) g in
    total := !total + M.weight (RA.solve ~rng:(P.create (70 + i)) s)
  done;
  check_bool "above 0.6 of OPT on random arrivals" true
    (float_of_int !total /. float_of_int trials
    >= 0.6 *. float_of_int opt)

let test_ra_memory_is_metered () =
  let grng = P.create 55 in
  let g = Gen.gnp grng ~n:150 ~p:0.2 ~weights:(Gen.Uniform (1, 30)) in
  let meter = Wm_stream.Space_meter.create () in
  let s = ES.of_graph ~order:(ES.Random (P.create 56)) g in
  ignore (RA.run ~meter ~rng:(P.create 57) s);
  check_bool "meter saw retained edges" true (Wm_stream.Space_meter.peak meter > 0);
  check_bool "far below m" true (Wm_stream.Space_meter.peak meter < G.m g)

(* The resource-ledger audit of Thm 3.14: for a single run against a
   fresh meter, the lifetime meter peak must equal the max over the
   per-pass [peak_words] rows recorded in the "core.random_arrival"
   ledger section (the prefix row at the cut, the suffix row at
   finalize). *)
let test_ra_ledger_matches_meter_peak () =
  let grng = P.create 155 in
  let g = Gen.gnp grng ~n:130 ~p:0.15 ~weights:(Gen.Uniform (1, 40)) in
  let meter = Wm_stream.Space_meter.create () in
  let ledger = Wm_obs.Ledger.default in
  Wm_obs.Ledger.reset ledger;
  let s = ES.of_graph ~order:(ES.Random (P.create 156)) g in
  ignore (RA.run ~meter ~rng:(P.create 157) s);
  let rows = Wm_obs.Ledger.rows ledger "core.random_arrival" in
  check_bool "one prefix + one suffix row" true (List.length rows = 2);
  let peaks =
    List.map
      (fun r ->
        match List.assoc_opt "peak_words" r.Wm_obs.Ledger.fields with
        | Some p -> p
        | None -> Alcotest.fail "row lacks peak_words")
      rows
  in
  check "ledger max = lifetime meter peak"
    (Wm_stream.Space_meter.peak meter)
    (List.fold_left Stdlib.max 0 peaks);
  (match rows with
  | [ prefix; suffix ] ->
      check_bool "labels" true
        (prefix.Wm_obs.Ledger.label = Some "prefix"
        && suffix.Wm_obs.Ledger.label = Some "suffix");
      (* The suffix row reports the retained T-set size. *)
      check_bool "suffix counts T edges" true
        (List.mem_assoc "t_edges" suffix.Wm_obs.Ledger.fields)
  | _ -> Alcotest.fail "unexpected row shape");
  Wm_obs.Ledger.reset ledger

(* A stream no longer than the cut is all prefix: the cut-over runs
   after the pass and records the same prefix row as a live cut. *)
let test_ra_all_prefix_rows () =
  let ledger = Wm_obs.Ledger.default in
  Wm_obs.Ledger.reset ledger;
  let g = Gen.gnp (P.create 159) ~n:40 ~p:0.2 ~weights:(Gen.Uniform (1, 30)) in
  let s = ES.of_graph ~order:(ES.Random (P.create 161)) g in
  let r = RA.run ~p:1.0 ~rng:(P.create 160) s in
  check "weight" 387 (M.weight r.RA.matching);
  check "empty T" 0 r.RA.t_size;
  let rows =
    List.map
      (fun r -> (r.Wm_obs.Ledger.label, r.Wm_obs.Ledger.fields))
      (Wm_obs.Ledger.rows ledger "core.random_arrival")
  in
  check_bool "prefix and suffix rows" true
    (rows
    = [
        (Some "prefix", [ ("peak_words", 33); ("stack_edges", 33) ]);
        (Some "suffix", [ ("peak_words", 33); ("t_edges", 0) ]);
      ]);
  Wm_obs.Ledger.reset ledger

(* The M1 exact solve on T has its own span, entered once per run whose
   T is non-empty. *)
let test_ra_m1_span () =
  let module Obs = Wm_obs.Obs in
  let module J = Wm_obs.Json in
  let m1_spans () =
    match
      Option.bind
        (J.member "timers" (Obs.to_json Obs.default))
        (J.member "core.random_arrival/m1")
    with
    | Some t -> ( match J.member "count" t with Some (J.Int c) -> c | _ -> 0)
    | None -> 0
  in
  let g = Gen.gnp (P.create 155) ~n:130 ~p:0.15 ~weights:(Gen.Uniform (1, 40)) in
  let before = m1_spans () in
  let r =
    RA.run ~rng:(P.create 157) (ES.of_graph ~order:(ES.Random (P.create 156)) g)
  in
  check_bool "T non-empty" true (r.RA.t_size > 0);
  check "one m1 span" (before + 1) (m1_spans ());
  ignore (RA.run ~p:1.0 ~rng:(P.create 157) (ES.of_graph g));
  check "none for an empty T" (before + 1) (m1_spans ())

let test_ra_tiny_stream () =
  let g = Gen.path_graph [ 5 ] in
  let s = ES.of_graph g in
  let r = RA.run ~rng:(P.create 58) s in
  check "takes the only edge" 5 (M.weight r.RA.matching)

(* ------------------------------------------------------------------ *)
(* Aug_class + Main_alg *)

let test_one_augmentations () =
  let g, m = fig1 () in
  (* Only edges strictly heavier than both neighbourhoods qualify; in
     fig1 no single edge beats w(cd) = 5 given its neighbours... check. *)
  let augs = AC.one_augmentations g m in
  (* ac (4) has gain 4-5 < 0; df gain < 0; none qualify. *)
  check "no single-edge augs" 0 (List.length augs);
  let m2 = M.create 6 in
  let augs2 = AC.one_augmentations g m2 in
  check "all edges qualify on empty matching" 5 (List.length augs2);
  (* Sorted by gain descending. *)
  match augs2 with
  | first :: _ -> check "heaviest first" 5 (A.weight first)
  | [] -> Alcotest.fail "unexpected"

let test_walk_pairs_good () =
  let rng = P.create 61 in
  let g = Gen.gnp rng ~n:40 ~p:0.2 ~weights:(Gen.Uniform (1, 20)) in
  let m = Wm_algos.Greedy.by_weight g in
  let params = Params.practical ~epsilon:0.1 () in
  let gp = Layered.parametrize rng (Layered.view g m) in
  let pairs =
    AC.walk_pairs params rng ~inc:(AC.incidence g m) gp ~scale:16.0 ~count:200
  in
  let tp = Params.tau_params params in
  List.iter (fun pr -> check_bool "good" true (Tau.is_good tp pr)) pairs

let test_aug_class_run_disjoint_and_gainful () =
  let rng = P.create 62 in
  let g = Gen.gnp rng ~n:50 ~p:0.2 ~weights:(Gen.Uniform (1, 20)) in
  let m = Wm_algos.Greedy.by_weight g in
  let params = Params.practical ~epsilon:0.1 () in
  let inc = AC.incidence g m in
  List.iter
    (fun scale ->
      let augs, _ = AC.run params rng g m ~inc ~scale in
      let used = Hashtbl.create 32 in
      List.iter
        (fun c ->
          check_bool "gainful" true (A.gain c m > 0);
          List.iter
            (fun v ->
              check_bool "disjoint" false (Hashtbl.mem used v);
              Hashtbl.replace used v ())
            (A.touched_vertices c m))
        augs)
    (MA.scales_for params g)

let test_main_alg_fig1 () =
  let g, m0 = fig1 () in
  let params = Params.practical ~epsilon:0.1 () in
  let best, _ = MA.solve ~init:m0 ~patience:20 params (P.create 1) g in
  check "reaches optimum" 8 (M.weight best)

let test_main_alg_fig2 () =
  let g, m0 = Gen.paper_fig2 () in
  let params = Params.practical ~epsilon:0.1 () in
  let best, _ = MA.solve ~init:m0 ~patience:20 params (P.create 1) g in
  check "reaches optimum" (Wm_exact.Brute.optimum_weight g) (M.weight best)

let test_main_alg_four_cycle () =
  (* Perfect matching improvable only via an augmenting cycle. *)
  let g, m0 = Gen.paper_four_cycle () in
  let params = Params.practical ~epsilon:0.1 () in
  let best, _ = MA.solve ~init:m0 ~patience:40 params (P.create 1) g in
  check "augmenting cycle found" 8 (M.weight best)

let test_main_alg_cycle_family () =
  let g, m0 = Gen.augmenting_cycle_family ~cycles:8 ~low:3 ~high:4 in
  let params = Params.practical ~epsilon:0.1 () in
  let best, _ = MA.solve ~init:m0 ~patience:40 params (P.create 1) g in
  check "all cycles augmented" 64 (M.weight best)

let test_main_alg_monotone () =
  let rng = P.create 63 in
  let g = Gen.gnp rng ~n:60 ~p:0.15 ~weights:(Gen.Uniform (1, 30)) in
  let params = Params.practical ~epsilon:0.2 () in
  let m = M.create (G.n g) in
  let last = ref 0 in
  for _ = 1 to 6 do
    ignore (MA.improve_once params rng g m);
    check_bool "monotone non-decreasing" true (M.weight m >= !last);
    last := M.weight m
  done

let test_main_alg_beats_greedy_bipartite () =
  let grng = P.create 64 in
  let g =
    Gen.random_bipartite grng ~left:50 ~right:50 ~p:0.15
      ~weights:(Gen.Uniform (1, 20))
  in
  let params = Params.practical ~epsilon:0.1 () in
  let best, _ = MA.solve ~patience:8 params (P.create 2) g in
  check_bool "at least greedy" true
    (M.weight best >= M.weight (Wm_algos.Greedy.by_weight g));
  let opt = M.weight (Wm_exact.Hungarian.solve g ~left:(B.halves 50)) in
  check_bool "at least 1 - eps of OPT" true
    (float_of_int (M.weight best) >= 0.9 *. float_of_int opt)

let test_main_alg_valid_matchings =
  QCheck2.Test.make ~name:"main algorithm outputs valid matchings" ~count:20
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 10 + P.int rng 30 in
      let g = Gen.gnp rng ~n ~p:0.3 ~weights:(Gen.Uniform (1, 15)) in
      let params = Params.practical ~epsilon:0.3 () in
      let best, _ = MA.solve ~patience:3 params rng g in
      M.is_valid_in best g)

let test_main_alg_dominates_half =
  QCheck2.Test.make ~name:"main algorithm is better than 1/2-approximate"
    ~count:15
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 8 + P.int rng 8 in
      let g = Gen.gnp rng ~n ~p:0.4 ~weights:(Gen.Uniform (1, 15)) in
      let opt = Wm_exact.Brute.optimum_weight g in
      if opt = 0 then true
      else begin
        let params = Params.practical ~epsilon:0.2 () in
        let best, _ = MA.solve ~patience:6 params rng g in
        2 * M.weight best >= opt
      end)

(* ------------------------------------------------------------------ *)
(* Certify (constructive Lemma 4.12) *)

module Certify = Wm_core.Certify

let tp32 = Tau.make_params ~granularity:(1.0 /. 32.0) ~max_layers:9 ~slack:0.001

let test_certify_fig1_path () =
  let g, m = fig1 () in
  let aug = A.Path [ E.make 0 2 4; E.make 2 3 5; E.make 3 5 4 ] in
  match Certify.witness tp32 ~class_ratio:2.0 g m aug with
  | Some w ->
      check "one repetition" 1 w.Certify.repetitions;
      check_bool "verified" true (Certify.verify tp32 w g m aug)
  | None -> Alcotest.fail "fig1 path must have a witness"

let test_certify_four_cycle () =
  let g, m = Gen.paper_four_cycle () in
  let aug =
    A.Cycle [ E.make 0 1 3; E.make 1 2 4; E.make 2 3 3; E.make 3 0 4 ]
  in
  match Certify.witness tp32 ~class_ratio:2.0 g m aug with
  | Some w ->
      check_bool "needs repetition" true (w.Certify.repetitions >= 2);
      check_bool "verified" true (Certify.verify tp32 w g m aug)
  | None -> Alcotest.fail "4-cycle must have a witness"

let test_certify_resolution_limit () =
  (* The 9/10 cycle needs ~5 repetitions and a fine granule: no witness
     at the default knobs, a verified one at paper-scaled knobs — the
     knob-scaling story of experiment F4 in miniature. *)
  let g, m = Gen.augmenting_cycle_family ~cycles:1 ~low:9 ~high:10 in
  let aug =
    A.Cycle [ E.make 0 1 9; E.make 1 2 10; E.make 2 3 9; E.make 3 0 10 ]
  in
  check_bool "no witness at coarse knobs" true
    (Certify.witness tp32 ~class_ratio:2.0 g m aug = None);
  let tp_fine =
    Tau.make_params ~granularity:(1.0 /. 128.0) ~max_layers:13 ~slack:0.001
  in
  match Certify.witness tp_fine ~class_ratio:2.0 g m aug with
  | Some w ->
      check "five repetitions" 5 w.Certify.repetitions;
      check_bool "verified" true (Certify.verify tp_fine w g m aug)
  | None -> Alcotest.fail "scaled knobs must capture the 9/10 cycle"

let test_certify_rejects_bad_shapes () =
  let g, m = fig1 () in
  ignore g;
  (* A path that starts with a matched edge has no o..o shape. *)
  let bad = A.Path [ E.make 2 3 5; E.make 3 5 4 ] in
  check_bool "no witness for e-o path" true
    (Certify.witness tp32 ~class_ratio:2.0 g m bad = None)

(* The warm re-solve spot check: validity in the mutated graph plus a
   weight-tolerance comparison against an independent cold solve. *)
let test_certify_check_resolve () =
  let g = G.create ~n:4 [ E.make 0 1 10; E.make 2 3 8; E.make 1 2 3 ] in
  let warm = M.of_edges 4 [ E.make 0 1 10; E.make 2 3 8 ] in
  let cold = M.of_edges 4 [ E.make 0 1 10; E.make 2 3 8 ] in
  let r = Certify.check_resolve ~tolerance:0.1 g ~warm ~cold in
  check_bool "valid" true r.Certify.valid;
  check_bool "within" true r.Certify.within;
  check "warm weight" 18 r.Certify.warm_weight;
  check "cold weight" 18 r.Certify.cold_weight;
  (* a warm matching below (1 - tol) of cold fails the tolerance leg *)
  let weak = M.of_edges 4 [ E.make 1 2 3 ] in
  let r2 = Certify.check_resolve ~tolerance:0.1 g ~warm:weak ~cold in
  check_bool "weak warm flagged" true (not r2.Certify.within);
  check_bool "weak warm still valid" true r2.Certify.valid;
  (* a matching using an edge absent from g fails validity *)
  let stale = M.of_edges 4 [ E.make 0 3 9 ] in
  let r3 = Certify.check_resolve ~tolerance:0.1 g ~warm:stale ~cold in
  check_bool "stale edge invalid" true (not r3.Certify.valid);
  (match Certify.check_resolve ~tolerance:1.5 g ~warm ~cold with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tolerance >= 1 must be rejected")

let prop_certify_planted_quintuples =
  QCheck2.Test.make ~name:"Lemma 4.12 witness exists for planted quintuples"
    ~count:40
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let g, m = Gen.planted_quintuples rng ~k:3 ~weights:(Gen.Uniform (8, 64)) in
      (* Check the first quintuple's 3-augmentation. *)
      let w0 = M.weight_at m 2 in
      let aug = A.Path [ E.make 1 2 w0; E.make 2 3 w0; E.make 3 4 w0 ] in
      match Certify.witness tp32 ~class_ratio:2.0 g m aug with
      | Some w -> Certify.verify tp32 w g m aug
      | None -> false)

let prop_certify_uniform_cycles =
  QCheck2.Test.make ~name:"Lemma 4.12 witness exists for (a, a+d) cycles"
    ~count:40
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let low = 2 + P.int rng 3 in
      let high = low + 1 + P.int rng 2 in
      let g, m = Gen.augmenting_cycle_family ~cycles:2 ~low ~high in
      let aug =
        A.Cycle
          [ E.make 0 1 low; E.make 1 2 high; E.make 2 3 low; E.make 3 0 high ]
      in
      ignore g;
      (* Relative gain >= 1/6 here, so 9 layers at 1/32 granularity
         should always capture it. *)
      match Certify.witness tp32 ~class_ratio:2.0 g m aug with
      | Some w -> Certify.verify tp32 w g m aug
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Model_driver *)

let test_streaming_driver () =
  let grng = P.create 71 in
  let g =
    Gen.random_bipartite grng ~left:40 ~right:40 ~p:0.15
      ~weights:(Gen.Uniform (1, 20))
  in
  let params = Params.practical ~epsilon:0.2 () in
  let s = ES.of_graph g in
  let r = MD.streaming ~patience:4 params (P.create 72) s in
  check_bool "valid" true (M.is_valid_in r.MD.matching g);
  check_bool "passes charged" true (r.MD.passes > r.MD.rounds_run);
  check_bool "memory tracked" true (r.MD.peak_edges > 0)

let test_mpc_driver () =
  let grng = P.create 73 in
  let g =
    Gen.random_bipartite grng ~left:40 ~right:40 ~p:0.15
      ~weights:(Gen.Uniform (1, 20))
  in
  let params = Params.practical ~epsilon:0.2 () in
  let cluster = Wm_mpc.Cluster.create ~machines:8 ~memory_words:(80 * 40) () in
  let r = MD.mpc ~patience:4 params (P.create 74) cluster g in
  check_bool "valid" true (M.is_valid_in r.MD.matching g);
  check_bool "rounds charged" true (r.MD.rounds > r.MD.rounds_run);
  check "machines" 8 r.MD.machines

(* A graph with no positive-weight edge has nothing to gain: the shared
   loop runs no round, so streaming bills no pass and MPC no round
   beyond the initial scatter. *)
let test_drivers_empty_graph () =
  let params = Params.practical ~epsilon:0.2 () in
  let g = G.create ~n:4 [ E.make 0 1 0; E.make 2 3 0 ] in
  List.iter
    (fun g ->
      let s = MD.streaming params (P.create 77) (ES.of_graph g) in
      check "streaming rounds" 0 s.MD.rounds_run;
      check "streaming passes" 0 s.MD.passes;
      let cluster = MD.mpc_cluster g in
      let scattered = Wm_mpc.Cluster.rounds cluster in
      ignore (Wm_mpc.Cluster.scatter cluster (G.edges g));
      let scatter = Wm_mpc.Cluster.rounds cluster - scattered in
      let r = MD.mpc params (P.create 78) (MD.mpc_cluster g) g in
      check "mpc rounds run" 0 r.MD.rounds_run;
      check "mpc bills only the scatter" scatter r.MD.rounds;
      check "matching empty" 0 (M.size r.MD.matching))
    [ G.empty 0; g ]

let test_mpc_driver_memory_violation () =
  let grng = P.create 75 in
  let g = Gen.gnp grng ~n:60 ~p:0.4 ~weights:(Gen.Uniform (1, 20)) in
  let params = Params.practical ~epsilon:0.2 () in
  let cluster = Wm_mpc.Cluster.create ~machines:2 ~memory_words:10 () in
  let raised =
    try
      ignore (MD.mpc params (P.create 76) cluster g);
      false
    with Wm_mpc.Cluster.Memory_exceeded _ -> true
  in
  check_bool "tiny machines overflow" true raised

(* shed_to under memory pressure: exactly the lightest edges go, the
   heaviest [target] survive, and the walk stops at the boundary — it
   must not keep scanning (or shedding) once the matching fits. *)
let test_shed_to_exact () =
  let mk () =
    M.of_edges 10
      [ E.make 0 1 3; E.make 2 3 9; E.make 4 5 1; E.make 6 7 7; E.make 8 9 5 ]
  in
  let m = mk () in
  let shed, lost = MD.shed_to ~target:2 m in
  check "sheds to the target" 2 (M.size m);
  check "edges shed" 3 shed;
  (* the lightest three (1, 3, 5) go; 7 and 9 stay *)
  check "lightest weights lost" (1 + 3 + 5) lost;
  check "heaviest survive" (7 + 9) (M.weight m);
  (* already within budget: a no-op, not a full drain *)
  let m2 = mk () in
  let shed2, lost2 = MD.shed_to ~target:5 m2 in
  check "nothing shed" 0 shed2;
  check "nothing lost" 0 lost2;
  check "matching intact" 5 (M.size m2);
  let shed3, _ = MD.shed_to ~target:0 m2 in
  check "target 0 drains" 5 shed3

(* Warm-start repair: stale matched edges (deleted or reweighted) are
   dropped, survivors keep their assignment, and the result is valid in
   the new graph even when the vertex set grew. *)
let test_repair_drops_stale () =
  let g0 =
    G.create ~n:4 [ E.make 0 1 5; E.make 2 3 8; E.make 0 2 2 ]
  in
  let m0 = M.of_edges 4 [ E.make 0 1 5; E.make 2 3 8 ] in
  let g1 =
    G.patch g0 ~add_vertices:2
      ~remove:[ (0, 1); (2, 3) ]
      ~add:[ E.make 2 3 11; E.make 4 5 6 ]
      ()
  in
  let r = MD.repair g1 m0 in
  check_bool "valid in the mutated graph" true (M.is_valid_in r g1);
  check_bool "deleted edge dropped" true (not (M.is_matched r 0));
  check_bool "reweighted edge dropped" true (not (M.is_matched r 2));
  check "universe extended" 6 (M.n r);
  check_bool "input not mutated" true (M.size m0 = 2);
  (* a still-present edge survives repair untouched *)
  let g2 = G.patch g0 ~remove:[ (0, 2) ] () in
  let r2 = MD.repair g2 m0 in
  check "survivors kept" 2 (M.size r2);
  check "weight kept" 13 (M.weight r2)

(* Warm-started driver: init is repaired, the result reports warm=true,
   and no returned edge can be absent from the (mutated) input graph. *)
let test_streaming_driver_warm () =
  let grng = P.create 81 in
  let g =
    Gen.random_bipartite grng ~left:30 ~right:30 ~p:0.15
      ~weights:(Gen.Uniform (1, 20))
  in
  let params = Params.practical ~epsilon:0.2 () in
  let cold = MD.streaming ~patience:4 params (P.create 82) (ES.of_graph g) in
  check_bool "cold run is not warm" true (not cold.MD.warm);
  (* delete the first few matched edges and warm-restart on the rest *)
  let victims =
    match M.edges cold.MD.matching with
    | a :: b :: _ -> [ a; b ]
    | es -> es
  in
  let g' =
    G.patch g ~remove:(List.map E.endpoints victims) ()
  in
  let warm =
    MD.streaming ~patience:1 ~init:cold.MD.matching params (P.create 82)
      (ES.of_graph g')
  in
  check_bool "warm flag" true warm.MD.warm;
  check_bool "warm matching valid in mutated graph" true
    (M.is_valid_in warm.MD.matching g');
  List.iter
    (fun e ->
      let u, v = E.endpoints e in
      check_bool "no deleted edge leaks into the result" true
        (G.mem_edge g' u v))
    (M.edges warm.MD.matching)

(* Lemma 3.2 (KMM12): if a maximal matching M' satisfies
   |M'| <= (1/2 + alpha)|M*| then at least (1/2 - 3 alpha)|M*| of its
   edges are 3-augmentable.  Checked structurally via the symmetric
   difference of M' and an optimal matching. *)
let prop_lemma_3_2 =
  QCheck2.Test.make ~name:"Lemma 3.2: 3-augmentable edge count" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 6 + P.int rng 14 in
      let g = Gen.gnp rng ~n ~p:(0.1 +. P.float rng 0.4) ~weights:Gen.Unit_weight in
      let m' = Wm_algos.Greedy.maximal g in
      let opt = Wm_exact.Blossom.solve g in
      if M.size opt = 0 then true
      else begin
        let alpha =
          (float_of_int (M.size m') /. float_of_int (M.size opt)) -. 0.5
        in
        (* Count 3-augmentable edges of m': components of m' U opt that
           are paths with 1 m'-edge and 2 opt-edges. *)
        let three_augmentable =
          List.fold_left
            (fun acc comp ->
              let mine = List.length (List.filter (fun e -> M.mem m' e) comp) in
              let theirs = List.length (List.filter (fun e -> M.mem opt e) comp) in
              if mine = 1 && theirs = 2 then acc + 1 else acc)
            0
            (Sb_oracle.symmetric_difference m' opt)
        in
        float_of_int three_augmentable
        >= ((0.5 -. (3.0 *. alpha)) *. float_of_int (M.size opt)) -. 1e-9
      end)

(* Layered-graph invariants: every retained edge obeys its threshold
   window, the graph is bipartite under the L/R sides, and the initial
   matching is exactly the intermediate-layer matched copies. *)
let prop_layered_invariants =
  QCheck2.Test.make ~name:"layered graphs satisfy Definition 4.10" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 8 + P.int rng 20 in
      let g = Gen.gnp rng ~n ~p:0.3 ~weights:(Gen.Uniform (1, 20)) in
      let m = Wm_algos.Greedy.by_weight g in
      let params = Params.practical ~epsilon:0.2 () in
      let tp = Params.tau_params params in
      let gp = Layered.parametrize rng (Layered.view g m) in
      let scale = 16.0 in
      let granule = params.Params.granularity *. scale in
      let pairs =
        AC.candidate_pairs params rng ~inc:(AC.incidence g m)
          ~cache:(Layered.prepare tp gp ~scale) gp ~scale
      in
      List.for_all
        (fun pair ->
          let lay = Layered.build tp gp pair ~scale in
          let edges = List.init (Layered.edge_count lay) (edge_of lay) in
          let ok_bip = G.is_bipartition (graph_of lay) ~left:(left_of lay) in
          let ok_edges =
            List.for_all
              (fun e ->
                let x, y = E.endpoints e in
                let layer v = layer_of ~base_n:n lay.Layered.ids.(v) in
                let lx = layer x and ly = layer y in
                let w = E.weight e in
                if lx = ly then
                  (* matched copy in an intermediate layer: bucket-up
                     must equal the layer threshold *)
                  lx >= 2
                  && lx <= lay.Layered.layer_count - 1
                  && Tau.bucket_up ~granule w = pair.Tau.a.(lx - 1)
                else begin
                  let t = Stdlib.min lx ly in
                  abs (lx - ly) = 1
                  && Tau.bucket_down ~granule w = pair.Tau.b.(t - 1)
                end)
              edges
          in
          let ok_init =
            List.for_all
              (fun e ->
                let x, _ = E.endpoints e in
                let t = layer_of ~base_n:n lay.Layered.ids.(x) in
                t >= 2 && t <= lay.Layered.layer_count - 1)
              (List.filteri (fun i _ -> i < lay.Layered.x_len) edges)
          in
          ok_bip && ok_edges && ok_init)
        pairs)

(* Gains computed by the pipeline equal the actual weight delta. *)
let prop_round_gain_is_exact =
  QCheck2.Test.make ~name:"improve_once gain equals weight delta" ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 10 + P.int rng 30 in
      let g = Gen.gnp rng ~n ~p:0.3 ~weights:(Gen.Uniform (1, 15)) in
      let params = Params.practical ~epsilon:0.3 () in
      let m = M.create (G.n g) in
      let before = M.weight m in
      let r = MA.improve_once params rng g m in
      M.weight m = before + r.MA.gain && M.is_valid_in m g)

(* The count-then-scan [walk_pairs] that the unmatched-incidence CSR
   replaced, kept as an oracle: each step counts the current vertex's
   unmatched edges, draws an index, and scans for that edge.  It used
   to end in [Tau.dedup]; that dedup now happens once, in
   [candidate_pairs], so the oracle returns the raw newest-first
   list. *)
let reference_walk_pairs params rng (gp : Layered.parametrized) ~scale ~count =
  let tp = Params.tau_params params in
  let g = gp.Layered.graph and m = gp.Layered.matching in
  let n = G.n g in
  if n = 0 then []
  else begin
    let granule = params.Params.granularity *. scale in
    let pairs = ref [] in
    for _ = 1 to count do
      let start = P.int rng n in
      let a_buckets = ref [] and b_buckets = ref [] in
      let cur = ref start in
      (match M.edge_at m start with
      | Some e ->
          a_buckets := [ Tau.bucket_up ~granule (E.weight e) ];
          cur := E.other e start
      | None -> a_buckets := [ 0 ]);
      let steps = 1 + P.int rng (params.Params.max_layers - 1) in
      (try
         for _ = 1 to steps do
           let unmatched_count =
             G.fold_neighbors g !cur
               (fun acc _ e -> if M.mem m e then acc else acc + 1)
               0
           in
           if unmatched_count = 0 then raise Exit;
           let idx = P.int rng unmatched_count in
           let picked = ref None in
           let seen = ref 0 in
           G.iter_neighbors g !cur (fun _ e ->
               if not (M.mem m e) then begin
                 if !seen = idx then picked := Some e;
                 incr seen
               end);
           let o = Option.get !picked in
           b_buckets := Tau.bucket_down ~granule (E.weight o) :: !b_buckets;
           let x = E.other o !cur in
           match M.edge_at m x with
           | Some e' ->
               a_buckets := Tau.bucket_up ~granule (E.weight e') :: !a_buckets;
               cur := E.other e' x
           | None ->
               a_buckets := 0 :: !a_buckets;
               raise Exit
         done
       with Exit -> ());
      if !b_buckets <> [] then
        match
          Tau.capture_path tp ~a_buckets:(List.rev !a_buckets)
            ~b_buckets:(List.rev !b_buckets)
        with
        | Some pr -> pairs := pr :: !pairs
        | None -> ()
    done;
    !pairs
  end

(* A random oracle instance: a gnp or power-law graph, in a third of
   the draws with every weight lowered by one so that zero-weight edges
   (bucket 0 either way) occur, matched or not; a greedy or an empty
   matching; a random bipartition; and the generator to keep drawing
   from. *)
let oracle_instance seed =
  let rng = P.create seed in
  let n = 8 + P.int rng 60 in
  let weights = Gen.Uniform (1, 1 + P.int rng 100) in
  let g =
    if P.bool rng then Gen.gnp rng ~n ~p:(0.05 +. P.float rng 0.3) ~weights
    else Gen.power_law_scale rng ~n ~attach:(1 + P.int rng 4) ~weights
  in
  let g =
    if P.int rng 3 = 0 then
      G.of_array ~n
        (Array.map (fun e -> E.reweight e (E.weight e - 1)) (G.edges g))
    else g
  in
  let m = if P.bool rng then Wm_algos.Greedy.by_weight g else M.create n in
  (rng, Layered.parametrize rng (Layered.view g m))

let oracle_scales = [ 1.0; 4.0; 16.0; 64.0; 256.0 ]

let prop_walk_pairs_oracle =
  QCheck2.Test.make ~name:"walk_pairs equals the count-then-scan walk"
    ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng, gp = oracle_instance seed in
      let params = Params.practical ~epsilon:(0.1 +. P.float rng 0.3) () in
      let inc = AC.incidence gp.Layered.graph gp.Layered.matching in
      List.for_all
        (fun scale ->
          let r1 = P.copy rng and r2 = P.copy rng in
          let got = AC.walk_pairs params r1 ~inc gp ~scale ~count:200 in
          let want = reference_walk_pairs params r2 gp ~scale ~count:200 in
          got = want && P.state r1 = P.state r2)
        oracle_scales)

(* The (k+1)·n construction that [Layered.build_opt] replaced, kept as
   its oracle on full layered ids: mark every kept layered copy (the
   endpoints of a crossing matched edge in each layer whose tau^A entry
   is its up-bucket, plus M-free R starts in layer 1 and L ends in
   layer k+1 under a zero end threshold), emit the intermediate-layer
   X edges layer-major in reverse matching order, then every crossing
   unmatched edge whose down-bucket is its gap's tau^B entry and whose
   two layered endpoints are kept, in reverse (edge, gap) order.
   Returns the edges and the X count. *)
let reference_build tp (gp : Layered.parametrized) pair ~scale =
  let g = gp.Layered.graph and m = gp.Layered.matching in
  let side = gp.Layered.side in
  let n = G.n g and k = Array.length pair.Tau.b in
  let granule = tp.Tau.granularity *. scale in
  let id layer v = Layered.vertex_id ~base_n:n ~layer v in
  let keep = Array.make ((k + 1) * n) false in
  let crossing e =
    let u, v = E.endpoints e in
    side.(u) <> side.(v)
  in
  let matched = List.rev (List.filter crossing (M.edges m)) in
  let xs = ref [] in
  for layer = 1 to k + 1 do
    List.iter
      (fun e ->
        let b = Tau.bucket_up ~granule (E.weight e) in
        if b = pair.Tau.a.(layer - 1) then begin
          let u, v = E.endpoints e in
          keep.(id layer u) <- true;
          keep.(id layer v) <- true;
          if layer >= 2 && layer <= k then
            xs := E.make (id layer u) (id layer v) (E.weight e) :: !xs
        end)
      matched
  done;
  for v = 0 to n - 1 do
    if not (M.is_matched m v) then begin
      if (not side.(v)) && pair.Tau.a.(0) = 0 then keep.(id 1 v) <- true;
      if side.(v) && pair.Tau.a.(k) = 0 then keep.(id (k + 1) v) <- true
    end
  done;
  let ys = ref [] in
  G.iter_edges
    (fun e ->
      if crossing e && not (M.mem m e) then begin
        let u, v = E.endpoints e in
        let r, l = if side.(u) then (v, u) else (u, v) in
        for t = 1 to k do
          if
            Tau.bucket_down ~granule (E.weight e) = pair.Tau.b.(t - 1)
            && keep.(id t r)
            && keep.(id (t + 1) l)
          then ys := E.make (id t r) (id (t + 1) l) (E.weight e) :: !ys
        done
      end)
    g;
  (List.rev_append !xs !ys, List.length !xs)

(* An edge of [lay]'s compact graph, over layered ids. *)
let to_layered lay e =
  let x, y = E.endpoints e in
  E.make lay.Layered.ids.(x) lay.Layered.ids.(y) (E.weight e)

let take n l = List.filteri (fun i _ -> i < n) l

(* Oracle instances and pairs for [build_opt]: every pair of the
   candidate pool plus arbitrary shapes whose [tau^B] entries may
   exceed [max_granules], at each oracle scale.  [check] receives the
   instance, its cache, the pair and the scale. *)
let for_all_build_cases seed check =
  let rng, gp = oracle_instance seed in
  let params = Params.practical ~epsilon:(0.2 +. P.float rng 0.2) () in
  let tp = Params.tau_params params in
  let cap = Tau.max_granules tp in
  let edges = G.edges gp.Layered.graph in
  let matched = Array.of_list (M.edges gp.Layered.matching) in
  let pick arr = arr.(P.int rng (Array.length arr)) in
  let inc = AC.incidence gp.Layered.graph gp.Layered.matching in
  (* Thresholds mostly taken from the instance's own buckets, so the
     shapes keep vertices and edges, including heavy edges past
     [max_granules]. *)
  let arbitrary granule =
    let k = 1 + P.int rng (tp.Tau.max_layers - 1) in
    let a_entry _ =
      if matched = [||] || P.bool rng then 0
      else Tau.bucket_up ~granule (E.weight (pick matched))
    in
    let b_entry _ =
      if edges = [||] || P.int rng 4 = 0 then P.int rng (cap + 4)
      else Tau.bucket_down ~granule (E.weight (pick edges))
    in
    { Tau.a = Array.init (k + 1) a_entry; b = Array.init k b_entry }
  in
  List.for_all
    (fun scale ->
      let granule = params.Params.granularity *. scale in
      let cache = Layered.prepare tp gp ~scale in
      let pairs =
        AC.candidate_pairs params rng ~inc ~cache gp ~scale
        @ List.init 40 (fun _ -> arbitrary granule)
      in
      List.for_all (fun pair -> check params tp gp cache pair ~scale) pairs)
    oracle_scales

(* [build_opt] against the reference: [Trivial] exactly when the
   reference kept only X edges, with their count; otherwise the same
   edges in the same order once mapped back to layered ids, the same
   [init], ascending ids that are all endpoints, and the sentinel
   exactly when some left layered copy has no edge. *)
let prop_build_opt_oracle =
  QCheck2.Test.make ~name:"build_opt agrees with build" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      for_all_build_cases seed (fun _ tp gp cache pair ~scale ->
          let want, x_len = reference_build tp gp pair ~scale in
          match Layered.build_opt cache pair with
          | Layered.Trivial x -> List.length want = x_len && x = x_len
          | Layered.Graph lay ->
              let n = G.n gp.Layered.graph in
              let ids = Array.to_list lay.Layered.ids in
              let ends =
                List.sort_uniq Int.compare
                  (List.concat_map
                     (fun e ->
                       let x, y = E.endpoints e in
                       [ x; y ])
                     want)
              in
              let isolated_left =
                Array.fold_left (fun k l -> if l then k + 1 else k) 0
                  gp.Layered.side
                * lay.Layered.layer_count
                > List.length
                    (List.filter (fun x -> gp.Layered.side.(x mod n)) ends)
              in
              let edges = List.init (Layered.edge_count lay) (edge_of lay) in
              List.length want > x_len
              && List.map (to_layered lay) edges = want
              && ids = ends
              && lay.Layered.n = List.length ids + Bool.to_int isolated_left
              && lay.Layered.x_len = x_len))

(* [edges] as an [L'] whose vertices [0 .. n - 1] are their own ids,
   with [M_(L')] its first [x_len] edges. *)
let identity_layered ~base_n ~layer_count ~side edges x_len =
  let n = layer_count * base_n in
  let col f = Array.of_list (List.map f edges) in
  {
    Layered.base_n;
    layer_count;
    n;
    src = col (fun e -> fst (E.endpoints e));
    dst = col (fun e -> snd (E.endpoints e));
    w = col E.weight;
    x_len;
    ids = Array.init n Fun.id;
    side;
  }

(* [M'] of a black-box run as (x, y, weight) over layered ids, x < y. *)
let matched_edges lay (s : Layered.solved) =
  List.filter_map
    (fun x ->
      let y = s.Layered.mate.(x) in
      if y > x then
        Some (lay.Layered.ids.(x), lay.Layered.ids.(y), s.Layered.weight.(x))
      else None)
    (List.init lay.Layered.n Fun.id)

(* The black box sees the compact [L'] as it saw the (k+1)·n graph: the
   same matching and augmenting paths once mapped back to layered ids,
   and the same pass count — the isolated left sentinel is what keeps
   the count when every kept left vertex is matched in [M_(L')]. *)
let prop_compact_black_box =
  QCheck2.Test.make ~name:"black box on compact L' equals the full graph"
    ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      for_all_build_cases seed (fun params tp gp cache pair ~scale ->
          match Layered.build_opt cache pair with
          | Layered.Trivial _ -> true
          | Layered.Graph lay ->
              let want, x_len = reference_build tp gp pair ~scale in
              (* the graph on all (k+1)·n layered vertices *)
              let full =
                identity_layered ~base_n:(G.n gp.Layered.graph)
                  ~layer_count:lay.Layered.layer_count ~side:gp.Layered.side
                  want x_len
              in
              let delta = params.Params.delta in
              let s_full = Layered.black_box ~delta full in
              let s = Layered.black_box ~delta lay in
              s.Layered.passes = s_full.Layered.passes
              && matched_edges lay s = matched_edges full s_full
              && Layered.augmenting_paths lay s
                 = Layered.augmenting_paths full s_full))

(* [Layered.black_box] and [Layered.augmenting_paths] against the
   Matching-based oracle on the same [L']: the same mates and weights,
   passes and phases, and the same augmenting paths in the same order,
   each walked from the same end. *)
let agrees_with_oracle ~delta lay =
  let g = graph_of lay in
  let init = M.of_edges lay.Layered.n (take lay.Layered.x_len (Array.to_list (G.edges g))) in
  let old =
    Sb_oracle.solve ~init ~n:lay.Layered.n ~left:(left_of lay) ~delta (fun f ->
        G.iter_edges f g)
  in
  let s = Layered.black_box ~delta lay in
  let m = old.Sb_oracle.matching in
  let old_paths =
    List.map
      (fun comp ->
        {
          Layered.verts =
            List.map (fun x -> lay.Layered.ids.(x)) (Sb_oracle.walk comp);
          weights = List.map E.weight comp;
        })
      (Sb_oracle.augmenting_paths m init)
  in
  List.for_all
    (fun v ->
      s.Layered.mate.(v) = Option.value (M.mate m v) ~default:(-1)
      && s.Layered.weight.(v) = M.weight_at m v)
    (List.init lay.Layered.n Fun.id)
  && s.Layered.passes = old.Sb_oracle.passes
  && s.Layered.phases = old.Sb_oracle.phases
  && Layered.augmenting_paths lay s = old_paths

let oracle_deltas = [ 0.0; 0.1; 0.25 ]

let prop_black_box_oracle_layered =
  QCheck2.Test.make ~name:"black box = Matching oracle on layered builds"
    ~count:20
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      for_all_build_cases seed (fun _ _ _ cache pair ~scale:_ ->
          match Layered.build_opt cache pair with
          | Layered.Trivial _ -> true
          | Layered.Graph lay ->
              List.for_all
                (fun delta -> agrees_with_oracle ~delta lay)
                oracle_deltas))

(* A random bipartite graph from a random initial matching, laid out as
   an [L'] (matched edges first, every vertex its own id); and, in the
   graph's own edge order, [Streaming_bipartite.solve] against the
   oracle directly. *)
let prop_black_box_oracle_bipartite =
  QCheck2.Test.make ~name:"black box = Matching oracle on bipartite graphs"
    ~count:150
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let left = 1 + P.int rng 20 in
      let g =
        Gen.random_bipartite rng ~left ~right:(1 + P.int rng 20)
          ~p:(0.05 +. P.float rng 0.4) ~weights:(Gen.Uniform (1, 9))
      in
      let n = G.n g in
      let init = M.create n in
      G.iter_edges (fun e -> if P.int rng 3 = 0 then ignore (M.try_add init e)) g;
      let edges =
        M.edges init @ List.filter (fun e -> not (M.mem init e)) (Array.to_list (G.edges g))
      in
      let lay =
        identity_layered ~base_n:n ~layer_count:1
          ~side:(Array.init n (B.halves left))
          edges (M.size init)
      in
      List.for_all
        (fun delta ->
          agrees_with_oracle ~delta lay
          &&
          let old =
            Sb_oracle.solve ~init ~n ~left:(B.halves left) ~delta (fun f ->
                G.iter_edges f g)
          in
          let mate = Array.init n (fun v -> Option.value (M.mate init v) ~default:(-1)) in
          let weight = Array.init n (M.weight_at init) in
          let r =
            Wm_algos.Streaming_bipartite.solve ~left:(B.halves left) ~delta ~mate
              ~weight (fun f -> G.iter_edges (fun e -> f e.E.u e.E.v e.E.w) g)
          in
          r.Wm_algos.Streaming_bipartite.passes = old.Sb_oracle.passes
          && r.Wm_algos.Streaming_bipartite.phases = old.Sb_oracle.phases
          && List.for_all
               (fun v ->
                 mate.(v)
                 = Option.value (M.mate old.Sb_oracle.matching v) ~default:(-1)
                 && weight.(v) = M.weight_at old.Sb_oracle.matching v)
               (List.init n Fun.id))
        oracle_deltas)

(* The black box as the algorithm runs it, on [L'] from [M_(L')],
   is within (1 - delta) of a maximum matching of [L']. *)
let prop_black_box_guarantee =
  QCheck2.Test.make ~name:"black box meets (1-delta) on L'" ~count:20
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      for_all_build_cases seed (fun params _ _ cache pair ~scale:_ ->
          match Layered.build_opt cache pair with
          | Layered.Trivial _ -> true
          | Layered.Graph lay ->
              let delta = params.Params.delta in
              let s = Layered.black_box ~delta lay in
              let size =
                Array.fold_left (fun k y -> if y >= 0 then k + 1 else k) 0
                  s.Layered.mate
                / 2
              in
              let opt =
                M.size (Wm_exact.Hopcroft_karp.solve (graph_of lay) ~left:(left_of lay))
              in
              float_of_int size >= (1.0 -. delta) *. float_of_int opt))

(* The edge scan that [Layered.present] replaced, kept as its oracle:
   the up-buckets [<= cap] of the crossing matched edges and the
   down-buckets in [2 .. cap] of the crossing unmatched ones. *)
let reference_present tp (gp : Layered.parametrized) ~scale =
  let granule = tp.Tau.granularity *. scale in
  let cap = Tau.max_granules tp in
  let a = ref [] and b = ref [] in
  G.iter_edges
    (fun e ->
      let u, v = E.endpoints e in
      if gp.Layered.side.(u) <> gp.Layered.side.(v) then
        if M.mem gp.Layered.matching e then begin
          let k = Tau.bucket_up ~granule (E.weight e) in
          if k <= cap then a := k :: !a
        end
        else begin
          let k = Tau.bucket_down ~granule (E.weight e) in
          if k >= 2 && k <= cap then b := k :: !b
        end)
    gp.Layered.graph;
  (List.sort_uniq Int.compare !a, List.sort_uniq Int.compare !b)

(* Weights from 0 (zero-weight edges bucket to 0 on both sides) up to
   thousands (buckets far past [max_granules] at the small scales),
   under a random matching that also takes zero-weight edges. *)
let prop_present_oracle =
  QCheck2.Test.make ~name:"Layered.present equals the edge scan" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 4 + P.int rng 40 in
      let hi = [| 3; 100; 5000 |].(P.int rng 3) in
      let g =
        Gen.gnp rng ~n ~p:(0.05 +. P.float rng 0.4)
          ~weights:(Gen.Uniform (1, hi + 1))
      in
      let g =
        G.of_array ~n
          (Array.map (fun e -> E.reweight e (E.weight e - 1)) (G.edges g))
      in
      let m = M.create n in
      G.iter_edges
        (fun e ->
          let u, v = E.endpoints e in
          if P.bool rng && not (M.is_matched m u || M.is_matched m v) then
            M.add m e)
        g;
      let tp =
        Params.tau_params
          {
            (Params.practical ~epsilon:(0.1 +. P.float rng 0.3) ()) with
            Params.granularity =
              [| 0.125; 1.0 /. 32.0; 1.0 /. 64.0 |].(P.int rng 3);
          }
      in
      let gp = Layered.parametrize rng (Layered.view g m) in
      List.for_all
        (fun scale ->
          Layered.present (Layered.prepare tp gp ~scale)
          = reference_present tp gp ~scale)
        oracle_scales)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      test_main_alg_valid_matchings;
      test_main_alg_dominates_half;
      prop_lemma_3_2;
      prop_layered_invariants;
      prop_round_gain_is_exact;
      prop_walk_pairs_oracle;
      prop_build_opt_oracle;
      prop_compact_black_box;
      prop_black_box_oracle_layered;
      prop_black_box_oracle_bipartite;
      prop_black_box_guarantee;
      prop_present_oracle;
      prop_certify_planted_quintuples;
      prop_certify_uniform_cycles;
    ]

let () =
  Alcotest.run "wm_core"
    [
      ( "aug",
        [
          Alcotest.test_case "path gain" `Quick test_aug_path_gain;
          Alcotest.test_case "bad path gain" `Quick test_aug_bad_path_gain;
          Alcotest.test_case "off-path neighborhood" `Quick
            test_aug_neighborhood_off_path;
          Alcotest.test_case "apply path" `Quick test_aug_apply_path;
          Alcotest.test_case "apply cycle" `Quick test_aug_apply_cycle;
          Alcotest.test_case "apply = gain" `Quick test_aug_apply_is_gain;
          Alcotest.test_case "cycle wraparound" `Quick
            test_aug_cycle_wraparound_alternation;
          Alcotest.test_case "malformed" `Quick test_aug_malformed;
          Alcotest.test_case "touched vertices" `Quick test_aug_touched_vertices;
        ] );
      ( "weight_class",
        [
          Alcotest.test_case "doubling class" `Quick test_doubling_class;
          Alcotest.test_case "doubling lower" `Quick test_doubling_lower;
          Alcotest.test_case "geometric scales" `Quick test_geometric_scales;
          Alcotest.test_case "scale floor" `Quick test_scale_floor;
        ] );
      ( "tau",
        [
          Alcotest.test_case "good pairs" `Quick test_tau_good_pair;
          Alcotest.test_case "buckets" `Quick test_tau_buckets;
          Alcotest.test_case "bucket inverse" `Quick test_tau_bucket_inverse;
          Alcotest.test_case "homogeneous" `Quick test_tau_homogeneous;
          Alcotest.test_case "sample" `Quick test_tau_sample;
          Alcotest.test_case "capture path" `Quick test_tau_capture_path;
          Alcotest.test_case "capture cycle" `Quick test_tau_capture_cycle;
        ] );
      ( "layered",
        [
          Alcotest.test_case "structure" `Quick test_layered_structure;
          Alcotest.test_case "augmenting path" `Quick test_layered_aug_path_found;
          Alcotest.test_case "project+decompose" `Quick
            test_layered_project_and_decompose;
          Alcotest.test_case "filters light edges" `Quick
            test_layered_filtering_drops_light_edges;
          Alcotest.test_case "orientation" `Quick test_layered_respects_orientation;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "simple walk" `Quick test_decompose_simple_walk;
          Alcotest.test_case "extracts cycle" `Quick test_decompose_extracts_cycle;
          Alcotest.test_case "pure cycle" `Quick test_decompose_pure_cycle;
          Alcotest.test_case "paper non-simple" `Quick
            test_decompose_nonsimple_paper_example;
          Alcotest.test_case "count mismatch" `Quick test_decompose_count_mismatch;
        ] );
      ( "params",
        [
          Alcotest.test_case "practical" `Quick test_params_practical;
        ] );
      ( "wgt_aug_paths",
        [
          Alcotest.test_case "finds planted" `Quick test_wap_finds_planted_weighted;
          Alcotest.test_case "gainful only" `Quick test_wap_augmentations_are_gainful;
          Alcotest.test_case "excess branch" `Quick test_wap_excess_path;
          Alcotest.test_case "no feed" `Quick test_wap_no_feed_no_change;
          Alcotest.test_case "filter thresholds" `Quick test_wap_filter_thresholds;
          Alcotest.test_case "duplicate edge keeps pushed original" `Quick
            test_wap_duplicate_edge_keeps_pushed_original;
          Alcotest.test_case "duplicate stream property" `Quick
            test_wap_duplicate_stream_property;
        ] );
      ( "random_arrival",
        [
          Alcotest.test_case "valid output" `Quick test_ra_valid_output;
          Alcotest.test_case "beats half" `Quick test_ra_beats_half_on_average;
          Alcotest.test_case "memory metered" `Quick test_ra_memory_is_metered;
          Alcotest.test_case "ledger matches meter peak" `Quick
            test_ra_ledger_matches_meter_peak;
          Alcotest.test_case "tiny stream" `Quick test_ra_tiny_stream;
          Alcotest.test_case "all-prefix rows" `Quick test_ra_all_prefix_rows;
          Alcotest.test_case "m1 span" `Quick test_ra_m1_span;
        ] );
      ( "aug_class",
        [
          Alcotest.test_case "one augmentations" `Quick test_one_augmentations;
          Alcotest.test_case "walk pairs" `Quick test_walk_pairs_good;
          Alcotest.test_case "disjoint gainful" `Quick
            test_aug_class_run_disjoint_and_gainful;
        ] );
      ( "main_alg",
        [
          Alcotest.test_case "fig1" `Quick test_main_alg_fig1;
          Alcotest.test_case "fig2" `Quick test_main_alg_fig2;
          Alcotest.test_case "four cycle" `Slow test_main_alg_four_cycle;
          Alcotest.test_case "cycle family" `Slow test_main_alg_cycle_family;
          Alcotest.test_case "monotone" `Quick test_main_alg_monotone;
          Alcotest.test_case "beats greedy" `Slow test_main_alg_beats_greedy_bipartite;
        ] );
      ( "certify",
        [
          Alcotest.test_case "fig1 path" `Quick test_certify_fig1_path;
          Alcotest.test_case "four cycle" `Quick test_certify_four_cycle;
          Alcotest.test_case "resolution limit" `Quick
            test_certify_resolution_limit;
          Alcotest.test_case "bad shapes" `Quick test_certify_rejects_bad_shapes;
          Alcotest.test_case "check_resolve" `Quick test_certify_check_resolve;
        ] );
      ( "model_driver",
        [
          Alcotest.test_case "streaming" `Quick test_streaming_driver;
          Alcotest.test_case "mpc" `Quick test_mpc_driver;
          Alcotest.test_case "mpc memory violation" `Quick
            test_mpc_driver_memory_violation;
          Alcotest.test_case "empty graph runs no round" `Quick
            test_drivers_empty_graph;
          Alcotest.test_case "shed_to exact" `Quick test_shed_to_exact;
          Alcotest.test_case "repair drops stale" `Quick
            test_repair_drops_stale;
          Alcotest.test_case "warm streaming" `Quick
            test_streaming_driver_warm;
        ] );
      ("properties", qcheck_tests);
    ]
