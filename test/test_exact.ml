(* Tests for the exact solvers: Hopcroft–Karp, Hungarian, Blossom,
   Brute, Mwm_general — including cross-validation properties. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module B = Wm_graph.Bipartition
module Gen = Wm_graph.Gen
module HK = Wm_exact.Hopcroft_karp
module Hungarian = Wm_exact.Hungarian
module Blossom = Wm_exact.Blossom
module Brute = Wm_exact.Brute
module Mwm = Wm_exact.Mwm_general
module WB = Wm_exact.Weighted_blossom

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bip_gen rng ~left ~right ~p ~weights =
  Gen.random_bipartite rng ~left ~right ~p ~weights

(* ------------------------------------------------------------------ *)
(* Hopcroft–Karp *)

let test_hk_path () =
  (* Path 0-1-2-3: maximum matching has 2 edges. *)
  let g = Gen.path_graph [ 1; 1; 1 ] in
  let m = HK.solve g ~left:(fun v -> v mod 2 = 0) in
  check "size" 2 (M.size m);
  check_bool "valid" true (M.is_valid_in m g)

let test_hk_perfect_bipartite () =
  let rng = P.create 31 in
  let g = bip_gen rng ~left:20 ~right:20 ~p:0.8 ~weights:Gen.Unit_weight in
  let m = HK.solve g ~left:(B.halves 20) in
  (* Dense random bipartite: perfect matching exists whp. *)
  check "perfect" 20 (M.size m)

let test_hk_rejects_non_bipartite_edge () =
  let g = G.create ~n:4 [ E.make 0 1 1 ] in
  Alcotest.check_raises "bad side"
    (Invalid_argument "Hopcroft_karp.solve: edge does not cross the bipartition")
    (fun () -> ignore (HK.solve g ~left:(fun _ -> true)))

(* ------------------------------------------------------------------ *)
(* Hungarian *)

let test_hungarian_simple () =
  (* Left {0,1}, right {2,3}.  Optimal picks 0-3 (5) and 1-2 (4). *)
  let g =
    G.create ~n:4
      [ E.make 0 2 3; E.make 0 3 5; E.make 1 2 4; E.make 1 3 1 ]
  in
  let m = Hungarian.solve g ~left:(B.halves 2) in
  check "weight" 9 (M.weight m);
  check_bool "valid" true (M.is_valid_in m g)

let test_hungarian_prefers_fewer_heavier () =
  (* Taking the single heavy edge beats two light ones. *)
  let g = G.create ~n:4 [ E.make 0 2 10; E.make 0 3 1; E.make 1 2 1 ] in
  let m = Hungarian.solve g ~left:(B.halves 2) in
  check "weight" 10 (M.weight m)

let test_hungarian_empty () =
  let g = G.empty 4 in
  let m = Hungarian.solve g ~left:(B.halves 2) in
  check "empty" 0 (M.size m)

let test_hungarian_unbalanced () =
  let g =
    G.create ~n:5 [ E.make 0 3 2; E.make 1 3 7; E.make 2 4 5; E.make 0 4 1 ]
  in
  let m = Hungarian.solve g ~left:(B.halves 3) in
  check "weight" 12 (M.weight m)

let test_hungarian_zero_weight_free () =
  (* Left 0's only edge weighs 0: matching it gains nothing, so it
     stays free; left 1 takes its weight-4 edge. *)
  let g = G.create ~n:4 [ E.make 0 2 0; E.make 1 3 4 ] in
  let m = Hungarian.solve g ~left:(B.halves 2) in
  check "weight" 4 (M.weight m);
  check_bool "0 free" false (M.is_matched m 0);
  check_bool "2 free" false (M.is_matched m 2)

(* ------------------------------------------------------------------ *)
(* Blossom *)

let test_blossom_triangle () =
  let g = Gen.cycle_graph [ 1; 1; 1 ] in
  check "one edge" 1 (M.size (Blossom.solve g))

let test_blossom_odd_cycle_five () =
  let g = Gen.cycle_graph [ 1; 1; 1; 1; 1 ] in
  check "two edges" 2 (M.size (Blossom.solve g))

let test_blossom_petersen () =
  (* The Petersen graph has a perfect matching (5 edges). *)
  let outer = List.init 5 (fun i -> E.make i ((i + 1) mod 5) 1) in
  let spokes = List.init 5 (fun i -> E.make i (i + 5) 1) in
  let inner = List.init 5 (fun i -> E.make (5 + i) (5 + ((i + 2) mod 5)) 1) in
  let g = G.create ~n:10 (outer @ spokes @ inner) in
  check "perfect" 5 (M.size (Blossom.solve g))

let test_blossom_flower () =
  (* A triangle attached to a pendant path — forces a blossom step. *)
  let g =
    G.create ~n:5
      [ E.make 0 1 1; E.make 1 2 1; E.make 0 2 1; E.make 2 3 1; E.make 3 4 1 ]
  in
  check "two edges" 2 (M.size (Blossom.solve g))

(* ------------------------------------------------------------------ *)
(* Brute *)

let test_brute_path () =
  let g = Gen.path_graph [ 3; 10; 3 ] in
  check "takes the middle" 10 (Brute.optimum_weight g);
  let g2 = Gen.path_graph [ 6; 10; 6 ] in
  check "takes the sides" 12 (Brute.optimum_weight g2)

let test_brute_reconstruction () =
  let rng = P.create 41 in
  for _ = 1 to 20 do
    let g = Gen.gnp rng ~n:8 ~p:0.5 ~weights:(Gen.Uniform (1, 10)) in
    let m = Brute.solve g in
    check_bool "valid" true (M.is_valid_in m g);
    check "weight matches optimum" (Brute.optimum_weight g) (M.weight m)
  done

let test_brute_too_large () =
  let g = G.empty 30 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Brute.solve: graph too large") (fun () ->
      ignore (Brute.optimum_weight g))

(* ------------------------------------------------------------------ *)
(* Weighted_blossom *)

let test_wb_paths () =
  check "middle heavy" 10 (WB.optimum_weight (Gen.path_graph [ 3; 10; 3 ]));
  check "sides heavy" 12 (WB.optimum_weight (Gen.path_graph [ 6; 10; 6 ]))

let test_wb_triangle () =
  (* Odd cycle: only one edge fits; it must be the heaviest. *)
  check "triangle" 9 (WB.optimum_weight (Gen.cycle_graph [ 3; 7; 9 ]))

let test_wb_five_cycle () =
  (* 5-cycle (3,4,3,4,9): best two disjoint edges. *)
  check "5-cycle" 13 (WB.optimum_weight (Gen.cycle_graph [ 3; 4; 3; 4; 9 ]))

let test_wb_cycle_family () =
  let g, _ = Gen.augmenting_cycle_family ~cycles:20 ~low:3 ~high:4 in
  check "perfect high matching" 160 (WB.optimum_weight g)

let test_wb_empty_and_single () =
  check "empty" 0 (WB.optimum_weight (G.empty 5));
  check "single edge" 7 (WB.optimum_weight (G.create ~n:2 [ E.make 0 1 7 ]))

let test_wb_paper_examples () =
  let check_inst name (g, _) expect =
    Alcotest.(check int) name expect (WB.optimum_weight g)
  in
  check_inst "fig1" (Gen.paper_fig1 ()) 8;
  check_inst "fig2" (Gen.paper_fig2 ()) 10;
  check_inst "4-cycle" (Gen.paper_four_cycle ()) 8;
  check_inst "non-simple" (Gen.paper_nonsimple_path ()) 4

let test_wb_output_valid () =
  let rng = P.create 61 in
  for _ = 1 to 10 do
    let g = Gen.gnp rng ~n:80 ~p:0.1 ~weights:(Gen.Uniform (1, 50)) in
    let m = WB.solve g in
    check_bool "valid" true (M.is_valid_in m g)
  done

(* ------------------------------------------------------------------ *)
(* Mwm_general *)

let test_mwm_dispatch_bipartite () =
  let rng = P.create 51 in
  let g = bip_gen rng ~left:30 ~right:30 ~p:0.2 ~weights:(Gen.Uniform (1, 50)) in
  match Mwm.solve_opt g with
  | Some m -> check_bool "valid" true (M.is_valid_in m g)
  | None -> Alcotest.fail "bipartite should dispatch to Hungarian"

let test_mwm_dispatch_small () =
  let g = Gen.cycle_graph [ 3; 4; 3; 4; 9 ] in
  match Mwm.solve_opt g with
  | Some m -> check "5-cycle optimum" 13 (M.weight m)
  | None -> Alcotest.fail "non-bipartite should dispatch to the blossom"

let test_mwm_lower_bound_sane () =
  let rng = P.create 52 in
  let g = Gen.gnp rng ~n:60 ~p:0.2 ~weights:(Gen.Uniform (1, 30)) in
  let lb = Mwm.lower_bound g in
  check_bool "valid" true (M.is_valid_in lb g);
  check_bool "maximal" true (M.is_maximal_in lb g)

let test_mwm_lower_bound_order_free () =
  (* Past the blossom cap a non-bipartite graph gets the greedy-and-swaps
     bound; on equal-weight triangles it must not depend on edge order. *)
  let n = 20_001 in
  let edges =
    List.concat_map
      (fun k ->
        let a = 3 * k in
        [ E.make a (a + 1) 5; E.make (a + 1) (a + 2) 5; E.make a (a + 2) 5;
          E.make (a + 2) (a + 3) (1 + (k mod 3)) ])
      (List.init 300 Fun.id)
  in
  let lb = Mwm.lower_bound (G.create ~n edges) in
  let lb' = Mwm.lower_bound (G.create ~n (List.rev edges)) in
  check_bool "valid" true (M.is_valid_in lb (G.create ~n edges));
  check_bool "same bound in either order" true (M.edges lb = M.edges lb')

(* ------------------------------------------------------------------ *)
(* Cross-validation properties *)

let gen_seed = QCheck2.Gen.int_range 0 1_000_000

let prop_hungarian_matches_brute =
  QCheck2.Test.make ~name:"hungarian = brute on small bipartite" ~count:100
    gen_seed (fun seed ->
      let rng = P.create seed in
      let left = 2 + P.int rng 5 and right = 2 + P.int rng 5 in
      let g =
        bip_gen rng ~left ~right ~p:(0.2 +. P.float rng 0.6)
          ~weights:(Gen.Uniform (1, 30))
      in
      M.weight (Hungarian.solve g ~left:(B.halves left))
      = Brute.optimum_weight g)

let prop_hk_matches_brute_cardinality =
  QCheck2.Test.make ~name:"hopcroft-karp = brute cardinality on small bipartite"
    ~count:100 gen_seed (fun seed ->
      let rng = P.create seed in
      let left = 2 + P.int rng 5 and right = 2 + P.int rng 5 in
      let g =
        bip_gen rng ~left ~right ~p:(0.2 +. P.float rng 0.6)
          ~weights:Gen.Unit_weight
      in
      M.size (HK.solve g ~left:(B.halves left)) = Brute.optimum_weight g)

let prop_blossom_matches_hk_on_bipartite =
  QCheck2.Test.make ~name:"blossom = hopcroft-karp on bipartite" ~count:100
    gen_seed (fun seed ->
      let rng = P.create seed in
      let left = 2 + P.int rng 8 and right = 2 + P.int rng 8 in
      let g =
        bip_gen rng ~left ~right ~p:(0.1 +. P.float rng 0.6)
          ~weights:Gen.Unit_weight
      in
      M.size (Blossom.solve g) = M.size (HK.solve g ~left:(B.halves left)))

let prop_blossom_matches_brute_on_general =
  QCheck2.Test.make ~name:"blossom cardinality = brute on small unit graphs"
    ~count:100 gen_seed (fun seed ->
      let rng = P.create seed in
      let n = 3 + P.int rng 9 in
      let g = Gen.gnp rng ~n ~p:(0.2 +. P.float rng 0.6) ~weights:Gen.Unit_weight in
      M.size (Blossom.solve g) = Brute.optimum_weight g)

let prop_blossom_output_is_matching =
  QCheck2.Test.make ~name:"blossom output is a valid maximal matching"
    ~count:100 gen_seed (fun seed ->
      let rng = P.create seed in
      let n = 3 + P.int rng 20 in
      let g = Gen.gnp rng ~n ~p:(0.1 +. P.float rng 0.5) ~weights:Gen.Unit_weight in
      let m = Blossom.solve g in
      M.is_valid_in m g && M.is_maximal_in m g)

let prop_weighted_blossom_matches_brute =
  QCheck2.Test.make ~name:"weighted blossom = brute on small general graphs"
    ~count:300 gen_seed (fun seed ->
      let rng = P.create seed in
      let n = 2 + P.int rng 11 in
      let g =
        Gen.gnp rng ~n ~p:(0.1 +. P.float rng 0.8) ~weights:(Gen.Uniform (1, 30))
      in
      WB.optimum_weight g = Brute.optimum_weight g)

let prop_weighted_blossom_matches_hungarian =
  QCheck2.Test.make ~name:"weighted blossom = hungarian on bipartite"
    ~count:100 gen_seed (fun seed ->
      let rng = P.create seed in
      let left = 3 + P.int rng 20 in
      let g =
        bip_gen rng ~left ~right:left ~p:(0.1 +. P.float rng 0.5)
          ~weights:(Gen.Uniform (1, 100))
      in
      WB.optimum_weight g
      = M.weight (Hungarian.solve g ~left:(B.halves left)))

(* Weights 0..3 force ties and weight-0 edges ([Gen.Uniform] refuses
   0, so the edges are drawn here); sides of 1..40 are unbalanced, and
   the last vertex of each side has no edge. *)
let prop_hungarian_ties_and_zeros =
  QCheck2.Test.make
    ~name:"hungarian = weighted blossom under ties and zero weights"
    ~count:300 gen_seed (fun seed ->
      let rng = P.create seed in
      let left = 1 + P.int rng 40 and right = 1 + P.int rng 40 in
      let p = 0.05 +. P.float rng 0.5 in
      let edges = ref [] in
      for u = 0 to left - 2 do
        for v = left to left + right - 2 do
          if P.float rng 1.0 < p then
            edges := E.make u v (P.int rng 4) :: !edges
        done
      done;
      let g = G.create ~n:(left + right) !edges in
      let m = Hungarian.solve g ~left:(B.halves left) in
      M.weight m = WB.optimum_weight g
      && M.is_valid_in m g
      && M.fold (fun ok e -> ok && E.weight e > 0) true m)

let prop_weighted_blossom_geometric_weights =
  QCheck2.Test.make ~name:"weighted blossom = brute under geometric weights"
    ~count:150 gen_seed (fun seed ->
      let rng = P.create seed in
      let n = 2 + P.int rng 10 in
      let g =
        Gen.gnp rng ~n ~p:(0.2 +. P.float rng 0.6)
          ~weights:(Gen.Geometric_classes 8)
      in
      WB.optimum_weight g = Brute.optimum_weight g)

let prop_hungarian_upper_bounds_greedy =
  QCheck2.Test.make ~name:"hungarian dominates greedy on bipartite" ~count:100
    gen_seed (fun seed ->
      let rng = P.create seed in
      let left = 2 + P.int rng 10 and right = 2 + P.int rng 10 in
      let g =
        bip_gen rng ~left ~right ~p:(0.2 +. P.float rng 0.5)
          ~weights:(Gen.Uniform (1, 100))
      in
      let greedy =
        let edges = Array.copy (G.edges g) in
        Array.sort (fun a b -> Int.compare (E.weight b) (E.weight a)) edges;
        let m = M.create (G.n g) in
        Array.iter (fun e -> ignore (M.try_add m e)) edges;
        m
      in
      M.weight (Hungarian.solve g ~left:(B.halves left)) >= M.weight greedy)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hungarian_matches_brute;
      prop_hk_matches_brute_cardinality;
      prop_blossom_matches_hk_on_bipartite;
      prop_blossom_matches_brute_on_general;
      prop_blossom_output_is_matching;
      prop_weighted_blossom_matches_brute;
      prop_weighted_blossom_matches_hungarian;
      prop_hungarian_ties_and_zeros;
      prop_weighted_blossom_geometric_weights;
      prop_hungarian_upper_bounds_greedy;
    ]

let () =
  Alcotest.run "wm_exact"
    [
      ( "hopcroft_karp",
        [
          Alcotest.test_case "path" `Quick test_hk_path;
          Alcotest.test_case "dense perfect" `Quick test_hk_perfect_bipartite;
          Alcotest.test_case "rejects bad side" `Quick
            test_hk_rejects_non_bipartite_edge;
        ] );
      ( "hungarian",
        [
          Alcotest.test_case "simple" `Quick test_hungarian_simple;
          Alcotest.test_case "heavy edge" `Quick test_hungarian_prefers_fewer_heavier;
          Alcotest.test_case "empty" `Quick test_hungarian_empty;
          Alcotest.test_case "unbalanced" `Quick test_hungarian_unbalanced;
          Alcotest.test_case "weight-0 edge stays free" `Quick
            test_hungarian_zero_weight_free;
        ] );
      ( "blossom",
        [
          Alcotest.test_case "triangle" `Quick test_blossom_triangle;
          Alcotest.test_case "5-cycle" `Quick test_blossom_odd_cycle_five;
          Alcotest.test_case "petersen" `Quick test_blossom_petersen;
          Alcotest.test_case "flower" `Quick test_blossom_flower;
        ] );
      ( "brute",
        [
          Alcotest.test_case "paths" `Quick test_brute_path;
          Alcotest.test_case "reconstruction" `Quick test_brute_reconstruction;
          Alcotest.test_case "too large" `Quick test_brute_too_large;
        ] );
      ( "weighted_blossom",
        [
          Alcotest.test_case "paths" `Quick test_wb_paths;
          Alcotest.test_case "triangle" `Quick test_wb_triangle;
          Alcotest.test_case "5-cycle" `Quick test_wb_five_cycle;
          Alcotest.test_case "cycle family" `Quick test_wb_cycle_family;
          Alcotest.test_case "degenerate" `Quick test_wb_empty_and_single;
          Alcotest.test_case "paper examples" `Quick test_wb_paper_examples;
          Alcotest.test_case "valid outputs" `Quick test_wb_output_valid;
        ] );
      ( "mwm_general",
        [
          Alcotest.test_case "bipartite dispatch" `Quick test_mwm_dispatch_bipartite;
          Alcotest.test_case "small dispatch" `Quick test_mwm_dispatch_small;
          Alcotest.test_case "lower bound" `Quick test_mwm_lower_bound_sane;
          Alcotest.test_case "lower bound order-free past the cap" `Quick
            test_mwm_lower_bound_order_free;
        ] );
      ("properties", qcheck_tests);
    ]
