(* Second-wave tests: boundary conditions and cross-checks that the
   per-module suites do not cover. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module B = Wm_graph.Bipartition
module Gen = Wm_graph.Gen
module ES = Wm_stream.Edge_stream
module A = Wm_core.Aug
module Tau = Wm_core.Tau
module WC = Wm_core.Weight_class
module SB = Wm_algos.Streaming_bipartite
module HK = Wm_exact.Hopcroft_karp
module WB = Wm_exact.Weighted_blossom

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Exact solvers on degenerate shapes *)

let test_hk_empty_graph () =
  let g = G.empty 5 in
  check "empty" 0 (M.size (HK.solve g ~left:(B.halves 2)))

let test_hk_single_edge () =
  let g = G.create ~n:2 [ E.make 0 1 1 ] in
  check "one" 1 (M.size (HK.solve g ~left:(B.halves 1)))

let test_hungarian_star () =
  (* Star from one left vertex: only the heaviest spoke is taken. *)
  let g =
    G.create ~n:5 [ E.make 0 1 3; E.make 0 2 9; E.make 0 3 5; E.make 0 4 2 ]
  in
  let m = Wm_exact.Hungarian.solve g ~left:(fun v -> v = 0) in
  check "heaviest spoke" 9 (M.weight m)

let test_wb_star () =
  let g =
    G.create ~n:5 [ E.make 0 1 3; E.make 0 2 9; E.make 0 3 5; E.make 0 4 2 ]
  in
  check "heaviest spoke" 9 (WB.optimum_weight g)

let test_wb_two_disjoint_edges () =
  let g = G.create ~n:4 [ E.make 0 1 5; E.make 2 3 7 ] in
  check "takes both" 12 (WB.optimum_weight g)

let test_wb_equal_weights_path () =
  (* Even path with equal weights: alternate edges, floor(k/2)+... *)
  let g = Gen.path_graph [ 4; 4; 4; 4; 4 ] in
  check "three disjoint edges" 12 (WB.optimum_weight g)

let test_wb_zero_weight_edges () =
  (* Zero-weight edges are legal and never help. *)
  let g = G.create ~n:4 [ E.make 0 1 0; E.make 1 2 5; E.make 2 3 0 ] in
  check "middle edge only" 5 (WB.optimum_weight g)

let test_brute_single_vertex () =
  check "no edges" 0 (Wm_exact.Brute.optimum_weight (G.empty 1))

let test_mwm_triangle_with_pendant () =
  (* Non-bipartite dispatch: triangle + pendant. *)
  let g =
    G.create ~n:4
      [ E.make 0 1 4; E.make 1 2 4; E.make 0 2 4; E.make 2 3 3 ]
  in
  match Wm_exact.Mwm_general.solve_opt g with
  | Some m -> check "edge of triangle + pendant" 7 (M.weight m)
  | None -> Alcotest.fail "should dispatch to weighted blossom"

(* ------------------------------------------------------------------ *)
(* Aug on degenerate structures *)

let test_aug_single_edge_free_endpoints () =
  let m = M.create 4 in
  let p = A.Path [ E.make 0 1 7 ] in
  check "gain is full weight" 7 (A.gain p m);
  A.apply p m;
  check "applied" 7 (M.weight m)

let test_aug_walk_of_cycle_closes () =
  let c = A.Cycle [ E.make 0 1 1; E.make 1 2 1; E.make 2 3 1; E.make 3 0 1 ] in
  match A.walk c with
  | first :: rest ->
      check "closes" first (List.nth rest (List.length rest - 1));
      check "five entries" 5 (List.length (first :: rest))
  | [] -> Alcotest.fail "nonempty walk"

let test_aug_empty_path_malformed () =
  check_bool "empty path" false (A.is_wellformed (A.Path []))

let test_aug_cycle_vertices_unique () =
  let c = A.Cycle [ E.make 0 1 1; E.make 1 2 1; E.make 2 3 1; E.make 3 0 1 ] in
  check "four vertices" 4 (List.length (A.vertices c))

(* ------------------------------------------------------------------ *)
(* Tau *)

let test_tau_layers_accessor () =
  check "layers" 3 (Tau.layers { Tau.a = [| 0; 2; 0 |]; b = [| 2; 2 |] })

(* ------------------------------------------------------------------ *)
(* Weight_class properties *)

let prop_scale_floor_brackets =
  QCheck2.Test.make ~name:"scale_floor brackets its argument" ~count:200
    QCheck2.Gen.(float_range 1.0 1_000_000.0)
    (fun x ->
      let f = WC.scale_floor ~ratio:2.0 x in
      f <= x +. 1e-9 && (2.0 *. f) +. 1e-6 > x)

(* ------------------------------------------------------------------ *)
(* Decompose: multi-cycle walks *)

let test_decompose_figure_eight () =
  (* Walk 0-1-2-0-3-4-0: two cycles sharing vertex 0, no residual path. *)
  let edges =
    [
      E.make 0 1 1; E.make 1 2 1; E.make 2 0 1;
      E.make 0 3 1; E.make 3 4 1; E.make 4 0 1;
    ]
  in
  let comps =
    Wm_core.Decompose.decompose ~verts:[ 0; 1; 2; 0; 3; 4; 0 ] ~edges
  in
  check "two cycles" 2 (List.length comps);
  List.iter
    (fun c ->
      match c with
      | A.Cycle es -> check "triangle" 3 (List.length es)
      | A.Path _ -> Alcotest.fail "expected cycles only")
    comps

(* ------------------------------------------------------------------ *)
(* Streaming black box: phase cap *)

let test_sb_max_phases () =
  let rng = P.create 91 in
  let g =
    Gen.random_bipartite rng ~left:40 ~right:40 ~p:0.2 ~weights:Gen.Unit_weight
  in
  let s = ES.of_graph g in
  let r = SB.solve_stream ~delta:0.0 s ~left:(B.halves 40) in
  let s2 = ES.of_graph g in
  let r2 =
    SB.solve ~max_phases:1 ~n:(G.n g) ~left:(B.halves 40) ~delta:0.0 (fun f ->
        ES.iter s2 f)
  in
  check "one phase" 1 r2.SB.phases;
  check_bool "capped run not larger" true
    (M.size r2.SB.matching <= M.size r.SB.matching)

(* ------------------------------------------------------------------ *)
(* Local-ratio / stream degenerate inputs *)

let test_lr_empty_stream () =
  let s = ES.of_edges ~n:3 [] in
  check "empty matching" 0 (M.size (Wm_algos.Local_ratio.solve s))

let test_greedy_decreasing_order_is_by_weight () =
  let rng = P.create 93 in
  let g = Gen.gnp rng ~n:30 ~p:0.3 ~weights:(Gen.Uniform (1, 50)) in
  let via_stream =
    Wm_algos.Greedy.maximal_stream (ES.of_graph ~order:ES.Decreasing_weight g)
  in
  check "same weight as offline greedy-by-weight"
    (M.weight (Wm_algos.Greedy.by_weight g))
    (M.weight via_stream)

(* ------------------------------------------------------------------ *)
(* Random_arrival corner cases *)

let test_ra_uniform_weights () =
  (* All weights equal: reduces to the unweighted problem; the result
     must still be a valid matching close to maximum. *)
  let rng = P.create 95 in
  let g = Gen.gnp rng ~n:100 ~p:0.08 ~weights:Gen.Unit_weight in
  let s = ES.of_graph ~order:(ES.Random (P.create 96)) g in
  let r = Wm_core.Random_arrival.run ~rng:(P.create 97) s in
  let opt = M.size (Wm_exact.Blossom.solve g) in
  check_bool "valid" true (M.is_valid_in r.Wm_core.Random_arrival.matching g);
  check_bool "at least 60% of maximum" true
    (10 * M.size r.Wm_core.Random_arrival.matching >= 6 * opt)

let test_ra_two_edges () =
  let g = G.create ~n:4 [ E.make 0 1 5; E.make 2 3 9 ] in
  let s = ES.of_graph g in
  let r = Wm_core.Random_arrival.run ~rng:(P.create 98) s in
  check "takes both" 14 (M.weight r.Wm_core.Random_arrival.matching)

(* ------------------------------------------------------------------ *)
(* Main_alg from a perfect-but-optimal matching: no change *)

let test_main_alg_fixed_point_on_optimal () =
  let rng = P.create 99 in
  let g =
    Gen.random_bipartite rng ~left:20 ~right:20 ~p:0.3 ~weights:(Gen.Uniform (1, 20))
  in
  let opt = Wm_exact.Hungarian.solve g ~left:(B.halves 20) in
  let m = M.copy opt in
  let params = Wm_core.Params.practical ~epsilon:0.2 () in
  for _ = 1 to 3 do
    ignore (Wm_core.Main_alg.improve_once params rng g m)
  done;
  check "optimal is a fixed point" (M.weight opt) (M.weight m)

(* ------------------------------------------------------------------ *)
(* Matching.symmetric_difference with empty sides *)

let test_symdiff_empty () =
  let m1 = M.create 4 and m2 = M.create 4 in
  check "no components" 0 (List.length (M.symmetric_difference m1 m2));
  let m3 = M.of_edges 4 [ E.make 0 1 1 ] in
  match M.symmetric_difference m3 m1 with
  | [ [ _ ] ] -> ()
  | _ -> Alcotest.fail "single-edge component expected"

(* ------------------------------------------------------------------ *)
(* Cross-algorithm sanity on one shared instance *)

let test_algorithm_hierarchy () =
  (* On a fixed bipartite instance: exact >= main_alg >= greedy, and all
     valid. *)
  let rng = P.create 101 in
  let g =
    Gen.power_law_bipartite rng ~left:60 ~right:60 ~edges:300 ~exponent:1.4
      ~weights:(Gen.Uniform (1, 50))
  in
  let opt = M.weight (Wm_exact.Hungarian.solve g ~left:(B.halves 60)) in
  let params = Wm_core.Params.practical ~epsilon:0.15 () in
  let main, _ = Wm_core.Main_alg.solve ~patience:6 params (P.create 102) g in
  let greedy = Wm_algos.Greedy.by_weight g in
  check_bool "main >= greedy" true (M.weight main >= M.weight greedy);
  check_bool "opt >= main" true (opt >= M.weight main);
  check_bool "main >= (1-eps) opt" true
    (float_of_int (M.weight main) >= 0.85 *. float_of_int opt)

let () =
  Alcotest.run "wm_edge_cases"
    [
      ( "exact",
        [
          Alcotest.test_case "hk empty" `Quick test_hk_empty_graph;
          Alcotest.test_case "hk single edge" `Quick test_hk_single_edge;
          Alcotest.test_case "hungarian star" `Quick test_hungarian_star;
          Alcotest.test_case "wb star" `Quick test_wb_star;
          Alcotest.test_case "wb disjoint" `Quick test_wb_two_disjoint_edges;
          Alcotest.test_case "wb equal path" `Quick test_wb_equal_weights_path;
          Alcotest.test_case "wb zero weights" `Quick test_wb_zero_weight_edges;
          Alcotest.test_case "brute single vertex" `Quick test_brute_single_vertex;
          Alcotest.test_case "triangle + pendant" `Quick
            test_mwm_triangle_with_pendant;
        ] );
      ( "aug",
        [
          Alcotest.test_case "free single edge" `Quick
            test_aug_single_edge_free_endpoints;
          Alcotest.test_case "cycle walk closes" `Quick
            test_aug_walk_of_cycle_closes;
          Alcotest.test_case "empty path" `Quick test_aug_empty_path_malformed;
          Alcotest.test_case "cycle vertices" `Quick test_aug_cycle_vertices_unique;
        ] );
      ( "tau",
        [
          Alcotest.test_case "layers" `Quick test_tau_layers_accessor;
        ] );
      ( "decompose",
        [ Alcotest.test_case "figure eight" `Quick test_decompose_figure_eight ] );
      ( "streaming",
        [
          Alcotest.test_case "sb phase cap" `Quick test_sb_max_phases;
          Alcotest.test_case "lr empty stream" `Quick test_lr_empty_stream;
          Alcotest.test_case "greedy decreasing order" `Quick
            test_greedy_decreasing_order_is_by_weight;
        ] );
      ( "random_arrival",
        [
          Alcotest.test_case "uniform weights" `Quick test_ra_uniform_weights;
          Alcotest.test_case "two edges" `Quick test_ra_two_edges;
        ] );
      ( "main_alg",
        [
          Alcotest.test_case "optimal fixed point" `Quick
            test_main_alg_fixed_point_on_optimal;
        ] );
      ( "matching",
        [ Alcotest.test_case "symdiff empty" `Quick test_symdiff_empty ] );
      ( "integration",
        [ Alcotest.test_case "hierarchy" `Quick test_algorithm_hierarchy ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_scale_floor_brackets ] );
    ]
