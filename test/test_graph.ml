(* Tests for the wm_graph substrate: Prng, Edge, Weighted_graph,
   Matching, Bipartition, Gen. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module B = Wm_graph.Bipartition
module Gen = Wm_graph.Gen
module Brute = Wm_exact.Brute

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = P.create 42 and b = P.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (P.bits64 a) (P.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = P.create 1 and b = P.create 2 in
  check_bool "different streams" false (P.bits64 a = P.bits64 b)

let test_prng_int_bounds () =
  let rng = P.create 7 in
  for _ = 1 to 1000 do
    let v = P.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_prng_int_in () =
  let rng = P.create 9 in
  for _ = 1 to 1000 do
    let v = P.int_in rng 5 9 in
    check_bool "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_prng_permutation () =
  let rng = P.create 3 in
  let p = P.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_sample_without_replacement () =
  let rng = P.create 4 in
  let s = P.sample_without_replacement rng 10 100 in
  check "count" 10 (Array.length s);
  let tbl = Hashtbl.create 10 in
  Array.iter
    (fun x ->
      check_bool "range" true (x >= 0 && x < 100);
      check_bool "distinct" false (Hashtbl.mem tbl x);
      Hashtbl.add tbl x ())
    s

let test_prng_split_independent () =
  let a = P.create 11 in
  let b = P.split a in
  check_bool "split differs" false (P.bits64 a = P.bits64 b)

let test_prng_uniformity_rough () =
  let rng = P.create 13 in
  let buckets = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = P.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      check_bool "bucket within 10% of mean" true
        (abs (c - (trials / 10)) < trials / 100))
    buckets

let test_prng_bernoulli () =
  let rng = P.create 17 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if P.bernoulli rng 0.3 then incr hits
  done;
  check_bool "p=0.3 plausible" true (abs (!hits - 30_000) < 1_500)

(* ------------------------------------------------------------------ *)
(* Edge *)

let test_edge_normalisation () =
  let e = E.make 5 2 7 in
  Alcotest.(check (pair int int)) "u<v" (2, 5) (E.endpoints e);
  check "weight" 7 (E.weight e)

let test_edge_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Edge.make: self-loop")
    (fun () -> ignore (E.make 3 3 1))

let test_edge_negative_weight () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Edge.make: negative weight") (fun () ->
      ignore (E.make 1 2 (-1)))

let test_edge_other () =
  let e = E.make 1 2 3 in
  check "other 1" 2 (E.other e 1);
  check "other 2" 1 (E.other e 2)

let test_edge_intersects () =
  let e = E.make 1 2 1 and f = E.make 2 3 1 and g = E.make 3 4 1 in
  check_bool "share 2" true (E.intersects e f);
  check_bool "disjoint" false (E.intersects e g)

let test_edge_order_irrelevant_for_equality () =
  check_bool "normalised equal" true (E.equal (E.make 4 1 9) (E.make 1 4 9))

(* ------------------------------------------------------------------ *)
(* Weighted_graph *)

let small_graph () =
  G.create ~n:5
    [ E.make 0 1 3; E.make 1 2 4; E.make 2 3 5; E.make 3 4 6; E.make 0 4 7 ]

let test_graph_basic () =
  let g = small_graph () in
  check "n" 5 (G.n g);
  check "m" 5 (G.m g);
  check "total weight" 25 (G.total_weight g);
  check "max weight" 7 (G.max_weight g)

let test_graph_neighbors () =
  let g = small_graph () in
  check "degree 0" 2 (G.degree g 0);
  let ns = List.map fst (G.neighbors g 0) |> List.sort Int.compare in
  Alcotest.(check (list int)) "neighbors of 0" [ 1; 4 ] ns

let test_graph_find_edge () =
  let g = small_graph () in
  (match G.find_edge g 2 1 with
  | Some e -> check "weight of 1-2" 4 (E.weight e)
  | None -> Alcotest.fail "edge 1-2 should exist");
  check_bool "no edge 0-2" true (G.find_edge g 0 2 = None)

(* The first bad edge in array order is reported, whether it is out of
   range or parallel to an earlier one. *)
let test_graph_rejects_out_of_range () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Weighted_graph: edge 0-9:1 out of range [0,5)")
    (fun () -> ignore (G.create ~n:5 [ E.make 0 9 1 ]));
  Alcotest.check_raises "out of range before a parallel edge"
    (Invalid_argument "Weighted_graph: edge 0-9:1 out of range [0,5)")
    (fun () -> ignore (G.create ~n:5 [ E.make 0 1 1; E.make 0 9 1; E.make 1 0 2 ]))

let test_graph_rejects_parallel () =
  Alcotest.check_raises "parallel"
    (Invalid_argument "Weighted_graph: parallel edge 0-1:2") (fun () ->
      ignore (G.create ~n:3 [ E.make 0 1 1; E.make 1 0 2 ]));
  Alcotest.check_raises "parallel before an out-of-range edge"
    (Invalid_argument "Weighted_graph: parallel edge 0-1:2") (fun () ->
      ignore (G.create ~n:5 [ E.make 0 1 1; E.make 1 0 2; E.make 0 9 1 ]));
  Alcotest.check_raises "the earliest repeat, not the least pair"
    (Invalid_argument "Weighted_graph: parallel edge 2-3:2") (fun () ->
      ignore
        (G.create ~n:4
           [ E.make 2 3 1; E.make 0 1 1; E.make 3 2 2; E.make 1 0 3 ]))

let test_graph_subgraph () =
  let g = small_graph () in
  let h = G.subgraph g (fun e -> E.weight e >= 5) in
  check "filtered m" 3 (G.m h);
  check "same n" 5 (G.n h)

let test_graph_map_weights () =
  let g = small_graph () in
  let h = G.map_weights g (fun e -> 2 * E.weight e) in
  check "doubled" 50 (G.total_weight h)

let test_graph_is_bipartition () =
  let g = G.create ~n:4 [ E.make 0 2 1; E.make 1 3 1 ] in
  check_bool "even/odd split" true (G.is_bipartition g ~left:(fun v -> v < 2));
  let g2 = G.create ~n:4 [ E.make 0 1 1 ] in
  check_bool "violation" false (G.is_bipartition g2 ~left:(fun v -> v < 2))

(* patch must be indistinguishable from rebuilding the mutated edge
   list from scratch — same digest, same totals, base graph intact. *)
let test_graph_patch () =
  let g = small_graph () in
  let h =
    G.patch g ~add_vertices:1 ~add:[ E.make 0 5 9; E.make 1 3 2 ]
      ~remove:[ (3, 2) ] ()
  in
  let rebuilt =
    G.create ~n:6
      [
        E.make 0 1 3; E.make 1 2 4; E.make 3 4 6; E.make 0 4 7;
        E.make 0 5 9; E.make 1 3 2;
      ]
  in
  Alcotest.(check string)
    "digest matches a from-scratch build"
    (Wm_graph.Graph_io.digest rebuilt)
    (Wm_graph.Graph_io.digest h);
  check "n grows" 6 (G.n h);
  check "m tracks the delta" 6 (G.m h);
  check "total weight" (25 - 5 + 9 + 2) (G.total_weight h);
  (* removal order of the pair is irrelevant *)
  Alcotest.(check string)
    "removal endpoints normalised"
    (Wm_graph.Graph_io.digest (G.patch g ~remove:[ (2, 3) ] ()))
    (Wm_graph.Graph_io.digest (G.patch g ~remove:[ (3, 2) ] ()));
  (* base graph untouched *)
  check "base m intact" 5 (G.m g);
  check "base n intact" 5 (G.n g);
  (* removing and re-adding a pair in one patch is a weight update *)
  let upd = G.patch g ~remove:[ (0, 1) ] ~add:[ E.make 0 1 50 ] () in
  check "weight updated" (25 - 3 + 50) (G.total_weight upd)

let test_graph_patch_rejects () =
  let g = small_graph () in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  raises "missing removal" (fun () -> G.patch g ~remove:[ (0, 2) ] ());
  raises "duplicate removal" (fun () ->
      G.patch g ~remove:[ (0, 1); (1, 0) ] ());
  raises "parallel with base" (fun () -> G.patch g ~add:[ E.make 1 0 2 ] ());
  raises "parallel within delta" (fun () ->
      G.patch g ~add:[ E.make 0 2 1; E.make 2 0 3 ] ());
  raises "addition out of range" (fun () ->
      G.patch g ~add:[ E.make 0 5 1 ] ());
  raises "negative vertex delta" (fun () -> G.patch g ~add_vertices:(-1) ())

(* ------------------------------------------------------------------ *)
(* Matching *)

let test_matching_add_remove () =
  let m = M.create 6 in
  M.add m (E.make 0 1 5);
  M.add m (E.make 2 3 7);
  check "size" 2 (M.size m);
  check "weight" 12 (M.weight m);
  check "weight_at 1" 5 (M.weight_at m 1);
  check "weight_at 4" 0 (M.weight_at m 4);
  M.remove m (E.make 0 1 5);
  check "size after remove" 1 (M.size m);
  check "weight after remove" 7 (M.weight m)

let test_matching_remove_validates_both_endpoints () =
  (* Regression: remove must check the slot at BOTH endpoints before
     mutating anything, so a mismatched call raises and the matching is
     left fully intact — never half-applied. *)
  let m = M.of_edges 6 [ E.make 0 1 5; E.make 2 3 7 ] in
  let unchanged label =
    check (label ^ ": size") 2 (M.size m);
    check (label ^ ": weight") 12 (M.weight m);
    Alcotest.(check (option int)) (label ^ ": mate 1") (Some 0) (M.mate m 1);
    Alcotest.(check (option int)) (label ^ ": mate 2") (Some 3) (M.mate m 2)
  in
  (* Absent edge whose lower endpoint is matched (to someone else). *)
  (try
     M.remove m (E.make 1 2 9);
     Alcotest.fail "remove of absent edge did not raise"
   with Invalid_argument _ -> ());
  unchanged "after absent edge";
  (* Absent edge with both endpoints free. *)
  (try
     M.remove m (E.make 4 5 1);
     Alcotest.fail "remove of unmatched pair did not raise"
   with Invalid_argument _ -> ());
  unchanged "after unmatched pair";
  (* A well-formed remove still works after the failed attempts. *)
  M.remove m (E.make 0 1 5);
  check "size after remove" 1 (M.size m);
  check "weight after remove" 7 (M.weight m)

let test_matching_conflict () =
  let m = M.create 4 in
  M.add m (E.make 0 1 1);
  check_bool "try_add conflict" false (M.try_add m (E.make 1 2 1));
  check_bool "try_add free" true (M.try_add m (E.make 2 3 1))

let test_matching_add_raises () =
  let m = M.create 4 in
  M.add m (E.make 0 1 1);
  Alcotest.check_raises "conflict"
    (Invalid_argument "Matching.add: conflicting edge 1-2:1") (fun () ->
      M.add m (E.make 1 2 1))

let test_matching_mate () =
  let m = M.of_edges 4 [ E.make 0 2 3 ] in
  Alcotest.(check (option int)) "mate 0" (Some 2) (M.mate m 0);
  Alcotest.(check (option int)) "mate 2" (Some 0) (M.mate m 2);
  Alcotest.(check (option int)) "mate 1" None (M.mate m 1)

let test_matching_add_evicting () =
  let m = M.of_edges 6 [ E.make 0 1 2; E.make 2 3 3 ] in
  let evicted = M.add_evicting m (E.make 1 2 10) in
  check "evicted count" 2 (List.length evicted);
  check "new weight" 10 (M.weight m);
  check "new size" 1 (M.size m)

let test_matching_edges_listed_once () =
  let m = M.of_edges 4 [ E.make 0 1 1; E.make 2 3 2 ] in
  check "edges once" 2 (List.length (M.edges m))

let test_matching_is_perfect () =
  check_bool "perfect" true
    (M.is_perfect (M.of_edges 4 [ E.make 0 1 1; E.make 2 3 1 ]));
  check_bool "imperfect" false (M.is_perfect (M.of_edges 4 [ E.make 0 1 1 ]))

let test_matching_validity () =
  let g = small_graph () in
  let good = M.of_edges 5 [ E.make 0 1 3 ] in
  let bad_weight = M.of_edges 5 [ E.make 0 1 99 ] in
  let bad_edge = M.of_edges 5 [ E.make 0 2 1 ] in
  check_bool "valid" true (M.is_valid_in good g);
  check_bool "wrong weight" false (M.is_valid_in bad_weight g);
  check_bool "absent edge" false (M.is_valid_in bad_edge g)

let test_matching_maximality () =
  let g = small_graph () in
  let maximal = M.of_edges 5 [ E.make 0 1 3; E.make 2 3 5 ] in
  let not_maximal = M.of_edges 5 [ E.make 1 2 4 ] in
  check_bool "maximal" true (M.is_maximal_in maximal g);
  check_bool "not maximal" false (M.is_maximal_in not_maximal g)

let test_matching_extend () =
  let m = M.create 4 in
  M.add m (E.make 0 1 5);
  let bigger = M.extend m 7 in
  check "universe grows" 7 (M.n bigger);
  check "size preserved" 1 (M.size bigger);
  check "weight preserved" 5 (M.weight bigger);
  check_bool "new vertices unmatched" true (not (M.is_matched bigger 6));
  (* extend is a copy: mutating the result leaves the original alone *)
  M.add bigger (E.make 5 6 2);
  check "original untouched" 1 (M.size m);
  (* extending to a smaller or equal universe degrades to copy *)
  let same = M.extend m 4 in
  check "no shrink" 4 (M.n same);
  M.add same (E.make 2 3 1);
  check "still a copy" 1 (M.size m)

let test_symmetric_difference_path () =
  (* M1 = {1-2}, M2 = {0-1, 2-3}: one alternating path of 3 edges. *)
  let m1 = M.of_edges 4 [ E.make 1 2 5 ] in
  let m2 = M.of_edges 4 [ E.make 0 1 4; E.make 2 3 4 ] in
  match M.symmetric_difference m1 m2 with
  | [ comp ] -> check "path length" 3 (List.length comp)
  | comps -> Alcotest.failf "expected 1 component, got %d" (List.length comps)

let test_symmetric_difference_cycle () =
  let m1 = M.of_edges 4 [ E.make 0 1 3; E.make 2 3 3 ] in
  let m2 = M.of_edges 4 [ E.make 1 2 4; E.make 0 3 4 ] in
  match M.symmetric_difference m1 m2 with
  | [ comp ] -> check "cycle length" 4 (List.length comp)
  | comps -> Alcotest.failf "expected 1 component, got %d" (List.length comps)

let test_symmetric_difference_common_edge () =
  let m1 = M.of_edges 4 [ E.make 0 1 3 ] in
  let m2 = M.of_edges 4 [ E.make 0 1 3 ] in
  match M.symmetric_difference m1 m2 with
  | [ comp ] -> check "2-cycle" 2 (List.length comp)
  | comps -> Alcotest.failf "expected 1 component, got %d" (List.length comps)

let test_symmetric_difference_random_property () =
  (* On random matching pairs, every component of the symmetric
     difference is an alternating path or cycle: max degree 2, zero or
     two odd-degree vertices, components vertex-disjoint, edges drawn
     from the two matchings with alternating membership. *)
  for seed = 0 to 9 do
    let prng = P.create (300 + seed) in
    let n = 30 in
    let random_matching () =
      let m = M.create n in
      for _ = 1 to 40 do
        let u = P.int prng n and v = P.int prng n in
        if u <> v then
          ignore (M.try_add m (E.make (min u v) (max u v) (1 + P.int prng 9)))
      done;
      m
    in
    let m1 = random_matching () and m2 = random_matching () in
    let global = Hashtbl.create 32 in
    List.iter
      (fun comp ->
        let deg = Hashtbl.create 16 in
        let inc = Hashtbl.create 16 in
        List.iter
          (fun e ->
            check_bool "edge from m1 or m2" true (M.mem m1 e || M.mem m2 e);
            let u, v = E.endpoints e in
            List.iter
              (fun x ->
                Hashtbl.replace deg x
                  (1 + Option.value ~default:0 (Hashtbl.find_opt deg x));
                Hashtbl.add inc x e)
              [ u; v ])
          comp;
        let odd =
          Hashtbl.fold (fun _ d acc -> if d = 1 then acc + 1 else acc) deg 0
        in
        check_bool "path or cycle" true (odd = 0 || odd = 2);
        Hashtbl.iter
          (fun v d ->
            check_bool "degree at most 2" true (d <= 2);
            check_bool "components vertex-disjoint" false (Hashtbl.mem global v);
            if d = 2 then
              match Hashtbl.find_all inc v with
              | [ e1; e2 ] ->
                  check_bool "alternates at vertex" true
                    ((M.mem m1 e1 || M.mem m1 e2)
                    && (M.mem m2 e1 || M.mem m2 e2))
              | _ -> ())
          deg;
        Hashtbl.iter (fun v _ -> Hashtbl.replace global v ()) deg)
      (M.symmetric_difference m1 m2)
  done

(* ------------------------------------------------------------------ *)
(* Bipartition *)

let test_two_color_bipartite () =
  let g = G.create ~n:4 [ E.make 0 1 1; E.make 1 2 1; E.make 2 3 1 ] in
  match B.two_color g with
  | Some side ->
      check_bool "proper" true (G.is_bipartition g ~left:(fun v -> side.(v)))
  | None -> Alcotest.fail "path is bipartite"

let test_two_color_odd_cycle () =
  let g = Gen.cycle_graph [ 1; 1; 1 ] in
  check_bool "triangle not bipartite" true (B.two_color g = None)

let test_random_bipartition_shape () =
  let rng = P.create 5 in
  let side = B.random rng 1000 in
  let lefts = Array.fold_left (fun a b -> if b then a + 1 else a) 0 side in
  check_bool "roughly balanced" true (abs (lefts - 500) < 100)

(* ------------------------------------------------------------------ *)
(* Gen *)

let test_gnp_edge_count () =
  let rng = P.create 21 in
  let g = Gen.gnp rng ~n:100 ~p:0.5 ~weights:Gen.Unit_weight in
  let expected = 100 * 99 / 4 in
  check_bool "about half the pairs" true (abs (G.m g - expected) < 300)

let test_gnm_exact_count () =
  let rng = P.create 22 in
  let g = Gen.gnm rng ~n:50 ~m:200 ~weights:(Gen.Uniform (1, 9)) in
  check "exact m" 200 (G.m g);
  G.iter_edges
    (fun e ->
      check_bool "weight range" true (E.weight e >= 1 && E.weight e <= 9))
    g

let test_gnm_full () =
  let rng = P.create 23 in
  let g = Gen.gnm rng ~n:10 ~m:45 ~weights:Gen.Unit_weight in
  check "complete" 45 (G.m g)

let test_random_bipartite_is_bipartite () =
  let rng = P.create 24 in
  let g =
    Gen.random_bipartite rng ~left:20 ~right:30 ~p:0.3 ~weights:Gen.Unit_weight
  in
  check "n" 50 (G.n g);
  check_bool "bipartition holds" true (G.is_bipartition g ~left:(B.halves 20))

let test_grid () =
  let rng = P.create 25 in
  let g = Gen.grid rng ~rows:3 ~cols:4 ~weights:Gen.Unit_weight in
  check "n" 12 (G.n g);
  check "m" ((2 * 4) + (3 * 3)) (G.m g)

let test_path_and_cycle () =
  let p = Gen.path_graph [ 1; 2; 3 ] in
  check "path n" 4 (G.n p);
  check "path m" 3 (G.m p);
  let c = Gen.cycle_graph [ 1; 2; 3; 4 ] in
  check "cycle n" 4 (G.n c);
  check "cycle m" 4 (G.m c)

let test_geometric_weights_are_powers () =
  let rng = P.create 26 in
  for _ = 1 to 200 do
    let w = Gen.draw_weight rng ~n:10 (Gen.Geometric_classes 5) in
    check_bool "power of two <= 16" true (List.mem w [ 1; 2; 4; 8; 16 ])
  done

let test_augmenting_cycle_family () =
  let g, m = Gen.augmenting_cycle_family ~cycles:3 ~low:3 ~high:4 in
  check "n" 12 (G.n g);
  check "m" 12 (G.m g);
  check_bool "matching valid" true (M.is_valid_in m g);
  check_bool "perfect" true (M.is_perfect m);
  check "matching weight" 18 (M.weight m)

let test_long_augmenting_paths () =
  let rng = P.create 27 in
  let g, m = Gen.long_augmenting_paths rng ~paths:2 ~half_length:3 in
  check_bool "matching valid" true (M.is_valid_in m g);
  check "matched edges" 6 (M.size m);
  check "edges" 14 (G.m g)

let test_planted_three_augmentations () =
  let rng = P.create 28 in
  let g, m =
    Gen.planted_three_augmentations rng ~k:5 ~spare:2 ~weights:Gen.Unit_weight
  in
  check_bool "matching valid" true (M.is_valid_in m g);
  check "matched" 7 (M.size m);
  check "n" 24 (G.n g)

let test_power_law_bipartite () =
  let rng = P.create 29 in
  let g =
    Gen.power_law_bipartite rng ~left:100 ~right:100 ~edges:400 ~exponent:1.5
      ~weights:(Gen.Uniform (1, 9))
  in
  check "n" 200 (G.n g);
  check_bool "edge count near target" true (G.m g >= 350 && G.m g <= 400);
  check_bool "bipartite" true (G.is_bipartition g ~left:(B.halves 100));
  (* Skew: the most popular right vertex should far exceed the median. *)
  let degs =
    List.init 100 (fun i -> G.degree g (100 + i)) |> List.sort Int.compare
  in
  let max_deg = List.nth degs 99 and med = List.nth degs 50 in
  check_bool "skewed degrees" true (max_deg >= 4 * Stdlib.max 1 med)

let test_paper_fig1 () =
  let g, m = Gen.paper_fig1 () in
  check_bool "valid" true (M.is_valid_in m g);
  check "initial weight" 5 (M.weight m);
  (* Optimum is {a,c} + {d,f} of weight 8. *)
  check "optimum" 8 (Brute.optimum_weight g)

let test_paper_fig2 () =
  let g, m = Gen.paper_fig2 () in
  check_bool "valid" true (M.is_valid_in m g);
  check "initial weight" 6 (M.weight m)

let test_paper_four_cycle () =
  let g, m = Gen.paper_four_cycle () in
  check_bool "valid" true (M.is_valid_in m g);
  check_bool "perfect but suboptimal" true (M.is_perfect m);
  check "initial weight" 6 (M.weight m);
  check "optimum" 8 (Brute.optimum_weight g)

let test_paper_nonsimple () =
  let g, m = Gen.paper_nonsimple_path () in
  check_bool "valid" true (M.is_valid_in m g);
  check "initial weight" 3 (M.weight m);
  check "optimum" 4 (Brute.optimum_weight g)

(* ------------------------------------------------------------------ *)
(* Graph_io *)

module IO = Wm_graph.Graph_io

let test_io_roundtrip () =
  let g = small_graph () in
  let g' = IO.of_string (IO.to_string g) in
  check "n" (G.n g) (G.n g');
  check "m" (G.m g) (G.m g');
  check "weight" (G.total_weight g) (G.total_weight g')

let test_io_comments_and_blanks () =
  let s = "c a comment\n\np wm 3 1\nc another\ne 0 2 7\n" in
  let g = IO.of_string s in
  check "n" 3 (G.n g);
  check "m" 1 (G.m g);
  check "weight" 7 (G.total_weight g)

let test_io_errors () =
  let expect_error ?line ?msg s =
    match IO.of_string s with
    | _ -> Alcotest.fail ("expected Parse_error for: " ^ String.escaped s)
    | exception IO.Parse_error { line = l; msg = m } ->
        (match line with
        | Some want -> check ("line for " ^ String.escaped s) want l
        | None -> ());
        (match msg with
        | Some want ->
            let contains hay needle =
              let nh = String.length hay and nn = String.length needle in
              let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
              at 0
            in
            check_bool
              (Printf.sprintf "message %S mentions %S" m want)
              true (contains m want)
        | None -> ())
  in
  expect_error ~line:1 "e 0 1 2\n";
  (* End-of-input diagnostics point at the real last line: the phantom
     empty element after a trailing newline must not count (the
     count-mismatch below is at line 2 whether or not the text ends in
     a newline). *)
  expect_error ~line:2 "p wm 3 2\ne 0 1 2\n";
  expect_error ~line:2 "p wm 3 2\ne 0 1 2";
  expect_error ~line:1 ~msg:"missing problem line" "c only a comment\n";
  expect_error ~line:1 "p wm x y\n";
  expect_error ~line:2 ~msg:"self-loop" "p wm 3 1\ne 0 0 2\n";
  expect_error ~line:1 "p matching 3 0\n";
  (* The kind is checked when its problem line is read, on that line. *)
  expect_error ~line:2 ~msg:"expected 'p wm', got 'p matching'"
    "c hi\np matching 3 1\ne 0 0 2\n";
  expect_error ~line:2 ~msg:"expected 'p wm'" "c x\np matching 3 0\n";
  (* Hardened validation: bad weights, range, duplicates. *)
  expect_error ~line:2 ~msg:"NaN weight" "p wm 3 1\ne 0 1 nan\n";
  expect_error ~line:2 ~msg:"infinite weight" "p wm 3 1\ne 0 1 inf\n";
  expect_error ~line:2 ~msg:"infinite weight" "p wm 3 1\ne 0 1 -inf\n";
  expect_error ~line:2 ~msg:"negative weight" "p wm 3 1\ne 0 1 -4\n";
  expect_error ~line:2 ~msg:"not representable" "p wm 3 1\ne 0 1 2.5\n";
  expect_error ~line:2 ~msg:"bad weight" "p wm 3 1\ne 0 1 heavy\n";
  expect_error ~line:2 ~msg:"out of range" "p wm 3 1\ne 0 7 2\n";
  expect_error ~line:2 ~msg:"out of range" "p wm 3 1\ne -1 1 2\n";
  expect_error ~line:3 ~msg:"duplicate edge" "p wm 3 2\ne 0 1 2\ne 1 0 5\n";
  (* The first bad line wins, whether a duplicate or a later one. *)
  expect_error ~line:3 ~msg:"duplicate edge 0-1 (first at line 2)"
    "p wm 3 3\ne 0 1 2\ne 1 0 5\ne 0 0 1\n";
  expect_error ~line:3 ~msg:"self-loop" "p wm 3 3\ne 0 1 2\ne 0 0 1\ne 1 0 5\n";
  (* A vertex count no array can hold still gets the text's own error. *)
  expect_error ~line:1 ~msg:"announces 5 edges, found 0"
    "p wm 123456789012345678 5\n";
  expect_error ~line:3 ~msg:"self-loop"
    "p wm 4611686018427387903 2\ne 0 1 2\ne 0 0 1\n";
  expect_error ~line:1 "p wm -3 0\n"

(* The content digest must identify the vertex count and edge set:
   invariant under edge order and endpoint order, sensitive to n,
   weights and membership. *)
let test_io_digest_invariance () =
  let es = [ E.make 0 1 4; E.make 2 3 6; E.make 1 3 2 ] in
  let g = G.create ~n:5 es in
  let d = IO.digest g in
  check_bool "hex shape" true
    (String.length d = 16
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
         d);
  check_bool "edge order irrelevant" true
    (d = IO.digest (G.create ~n:5 (List.rev es)));
  check_bool "endpoint order irrelevant" true
    (d = IO.digest (G.create ~n:5 [ E.make 1 0 4; E.make 3 2 6; E.make 3 1 2 ]));
  check_bool "roundtrip stable" true (d = IO.digest (IO.of_string (IO.to_string g)));
  check_bool "n matters" true (d <> IO.digest (G.create ~n:6 es));
  check_bool "weight matters" true
    (d <> IO.digest (G.create ~n:5 [ E.make 0 1 5; E.make 2 3 6; E.make 1 3 2 ]));
  check_bool "membership matters" true
    (d <> IO.digest (G.create ~n:5 [ E.make 0 1 4; E.make 2 3 6 ]))

let test_io_matching_roundtrip () =
  let m = M.of_edges 5 [ E.make 0 1 4; E.make 2 3 6 ] in
  let m' = IO.matching_of_binary (IO.matching_to_binary m) in
  check_bool "equal" true (M.equal m m')

let test_io_file_roundtrip () =
  let rng = P.create 77 in
  let g = Gen.gnp rng ~n:30 ~p:0.3 ~weights:(Gen.Uniform (1, 50)) in
  let path = Filename.temp_file "wm_io" ".wm" in
  IO.write_file path g;
  let g' = IO.read_file path in
  Sys.remove path;
  check "weight" (G.total_weight g) (G.total_weight g');
  check "m" (G.m g) (G.m g')

(* The weight-range guard: a graph's total weight is at most 2^53 on
   every construction path, so solver sums cannot wrap.  Two edges of
   weight 2^62 - 1 used to parse and solve to total weight -2. *)
let test_weight_bound () =
  let bound = 1 lsl 53 and big = max_int in
  let rejects what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": accepted")
    | exception Invalid_argument _ -> ()
  in
  check "bound" bound G.max_total_weight;
  let g = G.create ~n:4 [ E.make 0 1 (bound - 1); E.make 2 3 1 ] in
  check "total weight at the bound is accepted" bound (G.total_weight g);
  rejects "create" (fun () ->
      G.create ~n:4 [ E.make 0 1 (bound - 1); E.make 2 3 2 ]);
  rejects "create, wrapping sum" (fun () ->
      G.create ~n:4 [ E.make 0 1 big; E.make 2 3 big ]);
  rejects "patch" (fun () -> G.patch g ~add:[ E.make 1 2 1 ] ());
  let g' = G.patch g ~remove:[ (2, 3) ] ~add:[ E.make 1 2 1 ] () in
  check "patch within the bound" bound (G.total_weight g');
  (match
     IO.of_string (Printf.sprintf "p wm 4 2\ne 0 1 %d\ne 2 3 2\n" (bound - 1))
   with
  | _ -> Alcotest.fail "text: accepted"
  | exception IO.Parse_error { line; msg } ->
      check "text: line of the crossing edge" 3 line;
      Alcotest.(check string) "text: message" "total weight exceeds 2^53" msg);
  (* a binary frame whose content exceeds the bound is corrupt *)
  let frame =
    Wm_graph.Bin.(
      encode (fun w ->
          add_fixed w "WMB1";
          List.iter (add_varint w) [ 4; 2; 0; 1; big; 2; 3; big ];
          add_fixed w (String.make 16 '0')))
  in
  match IO.of_binary frame with
  | _ -> Alcotest.fail "binary: accepted"
  | exception Wm_graph.Bin.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let gen_small_graph =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* density = float_range 0.1 0.9 in
    let* seed = int_range 0 1_000_000 in
    return
      (let rng = P.create seed in
       Gen.gnp rng ~n ~p:density ~weights:(Gen.Uniform (1, 20))))

let prop_matching_weight_consistent =
  QCheck2.Test.make ~name:"greedy matching weight equals sum of edges"
    ~count:200 gen_small_graph (fun g ->
      let m = M.create (G.n g) in
      G.iter_edges (fun e -> ignore (M.try_add m e)) g;
      M.weight m = List.fold_left (fun a e -> a + E.weight e) 0 (M.edges m)
      && M.size m = List.length (M.edges m))

let prop_symmetric_difference_covers =
  QCheck2.Test.make
    ~name:"symmetric difference components partition both matchings"
    ~count:200 gen_small_graph (fun g ->
      let greedy order =
        let edges = Array.copy (G.edges g) in
        Array.sort order edges;
        let m = M.create (G.n g) in
        Array.iter (fun e -> ignore (M.try_add m e)) edges;
        m
      in
      let m1 = greedy (fun a b -> Int.compare (E.weight b) (E.weight a)) in
      let m2 = greedy E.compare in
      let comps = M.symmetric_difference m1 m2 in
      let total = List.fold_left (fun a c -> a + List.length c) 0 comps in
      (* Every matched edge appears exactly once across components. *)
      total = M.size m1 + M.size m2)

let prop_io_roundtrip =
  QCheck2.Test.make ~name:"graph io round-trips exactly" ~count:100
    gen_small_graph (fun g ->
      let g' = IO.of_string (IO.to_string g) in
      G.n g = G.n g' && G.m g = G.m g'
      && Array.for_all2 E.equal (G.edges g) (G.edges g'))

(* One random corruption of a serialised graph's lines: a bad token, a
   dropped, duplicated or self-looped line, leading garbage, or a
   truncation. *)
let corrupt rng lines =
  let nlines = List.length lines in
  let pick_line () = P.int rng (Stdlib.max 1 nlines) in
  let replace_token line tok =
    match String.split_on_char ' ' line with
    | [] -> tok
    | parts ->
        let i = P.int rng (List.length parts) in
        String.concat " " (List.mapi (fun j p -> if i = j then tok else p) parts)
  in
  let bad_token () =
    let toks =
      [| "nan"; "inf"; "-inf"; "-5"; "2.5"; "x"; "999"; "-1";
         "99999999999999999999999999" |]
    in
    toks.(P.int rng (Array.length toks))
  in
  match P.int rng 6 with
  | 0 ->
      (* Corrupt one token of one line. *)
      let target = pick_line () in
      List.mapi
        (fun i l -> if i = target then replace_token l (bad_token ()) else l)
        lines
  | 1 ->
      (* Drop a line (header, edge, or trailer). *)
      let target = pick_line () in
      List.filteri (fun i _ -> i <> target) lines
  | 2 ->
      (* Duplicate a line. *)
      let target = pick_line () in
      List.concat_map
        (fun (i, l) -> if i = target then [ l; l ] else [ l ])
        (List.mapi (fun i l -> (i, l)) lines)
  | 3 -> [ "garbage" ] @ lines
  | 4 ->
      (* Truncate mid-document. *)
      List.filteri (fun i _ -> i <= nlines / 2) lines
  | _ ->
      let target = pick_line () in
      List.mapi (fun i l -> if i = target then "e 0 0 1" else l) lines

(* Fuzz the parser: mutate a valid serialisation and require that the
   outcome is either a parsed graph or [Parse_error] on a line within
   the document — never a crash, never any other exception. *)
let prop_io_malformed =
  QCheck2.Test.make ~name:"graph io rejects malformed input with Parse_error"
    ~count:400
    QCheck2.Gen.(pair gen_small_graph (int_range 0 1_000_000))
    (fun (g, seed) ->
      let rng = P.create seed in
      let lines = String.split_on_char '\n' (IO.to_string g) in
      let s' = String.concat "\n" (corrupt rng lines) in
      match IO.of_string s' with
      | (_ : Wm_graph.Weighted_graph.t) -> true
      | exception IO.Parse_error { line; _ } -> line >= 1)

(* One random respelling of a serialised graph's lines that the token
   rules must read exactly as [String.trim] and [String.split_on_char ' ']
   do: tabs, carriage returns and form feeds around or inside a line,
   runs of spaces, integers spelled with a sign, a base prefix, an
   underscore or leading zeros (and near-misses of each), comment
   lines, and a line repeated with its endpoints swapped. *)
let respell rng lines =
  let nlines = List.length lines in
  let target = P.int rng (Stdlib.max 1 nlines) in
  let at f = List.mapi (fun i l -> if i = target then f l else l) lines in
  let pick a = a.(P.int rng (Array.length a)) in
  let retoken f l =
    let parts = String.split_on_char ' ' l in
    let k = P.int rng (Stdlib.max 1 (List.length parts)) in
    String.concat " " (List.mapi (fun j p -> if j = k then f p else p) parts)
  in
  match P.int rng 8 with
  | 0 -> at (fun l -> pick [| "\t"; "\r"; "\012"; " \t" |] ^ l)
  | 1 -> at (fun l -> l ^ pick [| "\r"; "\t"; "\012"; " \r"; "\t " |])
  | 2 ->
      let sep = pick [| "  "; "   "; "\t"; " \t "; "\r" |] in
      at (fun l -> String.concat sep (String.split_on_char ' ' l))
  | 3 ->
      at
        (retoken (fun t ->
             match int_of_string_opt t with
             | Some x when x >= 0 ->
                 pick
                   [| "+" ^ t; Printf.sprintf "0x%x" x; "00" ^ t;
                      Printf.sprintf "0b%s" t; "-" ^ t; "-0" |]
             | _ -> t))
  | 4 ->
      at
        (retoken (fun t ->
             if String.length t < 2 then "_" ^ t
             else String.sub t 0 1 ^ "_" ^ String.sub t 1 (String.length t - 1)))
  | 5 ->
      at
        (retoken (fun _ ->
             pick
               [| "1_000"; "0x1f"; "+3"; "0o17"; "0u5"; "_1"; "1__0"; "1e3";
                  "0x"; "4611686018427387903"; "4611686018427387904";
                  "-4611686018427387904"; "000000000000000000007";
                  "123456789012345678"; "1234567890123456789" |]))
  | 6 -> at (fun l -> pick [| "c"; "c "; " c"; "\tc" |] ^ l)
  | _ ->
      List.concat_map
        (fun (i, l) ->
          match String.split_on_char ' ' l with
          | [ "e"; u; v; w ] when i = target ->
              [ l; String.concat " " [ "e"; v; u; w ^ "1" ] ]
          | _ -> [ l ])
        (List.mapi (fun i l -> (i, l)) lines)

(* The cursor parser against the list-and-Hashtbl one it replaced
   ([Io_oracle]), on serialisations with one to three corruptions or
   respellings: [of_string] gives the oracle's graph, edge for edge in
   file order, and [canonical_of_string] its canonical edges, or both
   raise the oracle's [(line, msg)]. *)
let prop_io_matches_oracle =
  (* A vertex count no array can index fails in the graph constructors
     alike. *)
  let outcome f s =
    match f s with
    | g -> Ok g
    | exception IO.Parse_error { line; msg } -> Error (line, msg)
    | exception Invalid_argument msg -> Error (0, msg)
  in
  QCheck2.Test.make ~name:"text parser equals the list-and-Hashtbl oracle"
    ~count:1000
    ~print:(fun (_, _, s) -> String.escaped s)
    QCheck2.Gen.(
      let* g = gen_small_graph and* seed = int_range 0 1_000_000 in
      let rng = P.create seed in
      let lines = ref (String.split_on_char '\n' (IO.to_string g)) in
      for _ = 0 to P.int rng 3 do
        lines := (if P.bool rng then corrupt else respell) rng !lines
      done;
      return (g, seed, String.concat "\n" !lines))
    (fun (_, _, s) ->
      let fails_with e f =
        match outcome f s with Error e' -> e' = e | Ok _ -> false
      in
      match outcome Io_oracle.of_string s with
      | Error e -> fails_with e IO.of_string && fails_with e IO.canonical_of_string
      | Ok want -> (
          let equal edges g =
            G.n g = G.n want
            && Array.length edges = G.m g
            && Array.for_all2 E.equal edges (G.edges g)
          in
          (match outcome IO.of_string s with
          | Ok g -> equal (G.edges want) g
          | Error _ -> false)
          &&
          match outcome IO.canonical_of_string s with
          | Ok g -> equal (G.canonical_edges want) g
          | Error _ -> false))

let prop_two_color_sound =
  QCheck2.Test.make ~name:"two_color produces a proper bipartition" ~count:200
    gen_small_graph (fun g ->
      match B.two_color g with
      | Some side -> G.is_bipartition g ~left:(fun v -> side.(v))
      | None -> true)

(* The sort-based digest the bucketed [Graph_io.digest] replaced, kept
   as its oracle: map every edge to a (min, max, weight) tuple, sort
   with the polymorphic [compare], feed [n] and each tuple through
   FNV-1a 64 byte by byte, 8 little-endian bytes an int. *)
let reference_digest g =
  let edges =
    Array.map
      (fun e ->
        let u, v = E.endpoints e in
        (Stdlib.min u v, Stdlib.max u v, E.weight e))
      (G.edges g)
  in
  Array.sort compare edges;
  let h = ref 0xcbf29ce484222325L in
  let feed_int x =
    for i = 0 to 7 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int ((x asr (8 * i)) land 0xff)))
          0x100000001b3L
    done
  in
  feed_int (G.n g);
  Array.iter
    (fun (u, v, w) ->
      feed_int u;
      feed_int v;
      feed_int w)
    edges;
  Printf.sprintf "%016Lx" !h

(* One edge set on [n] vertices, up to 600 so ids cross the one-byte
   boundary, with a fifth of the draws edgeless.  Weights come from
   byte- and word-boundary values, and one draw in 32 takes whatever is
   left of the 2^53 total budget.  Endpoints are swapped at random
   and the list is shuffled. *)
let gen_digest_case =
  QCheck2.Gen.(
    let* n = oneof [ pure 0; pure 1; int_range 0 600 ] in
    let* seed = int_range 0 1_000_000 in
    return
      (let rng = P.create seed in
       let pairs = n * (n - 1) / 2 in
       let target =
         if pairs = 0 || P.int rng 5 = 0 then 0
         else 1 + P.int rng (Stdlib.min pairs (4 * n))
       in
       let pool = [| 0; 1; 255; 256; 1 lsl 32 |] in
       let seen = Hashtbl.create 64 and edges = ref [] and total = ref 0 in
       while Hashtbl.length seen < target do
         let u = P.int rng n and v = P.int rng n in
         if u <> v && not (Hashtbl.mem seen (Stdlib.min u v, Stdlib.max u v))
         then begin
           Hashtbl.add seen (Stdlib.min u v, Stdlib.max u v) ();
           let left = G.max_total_weight - !total in
           let w =
             if P.int rng 32 = 0 then left
             else Stdlib.min left pool.(P.int rng (Array.length pool))
           in
           total := !total + w;
           let u, v = if P.bool rng then (u, v) else (v, u) in
           edges := E.make u v w :: !edges
         end
       done;
       let es = Array.of_list !edges in
       P.shuffle_in_place rng es;
       (n, seed, Array.to_list es)))

(* The same content built three more ways: patched onto a base that
   holds part of the edges plus the rest at weight 0 (removed and
   re-added, i.e. reweighted) and fewer vertices, in the base's order
   and in canonical order, and round-tripped through the binary frame.
   Each of those is the canonical form of [g], edge for edge. *)
let prop_digest_matches_reference =
  QCheck2.Test.make ~name:"digest equals the sort-based reference" ~count:300
    ~print:(fun (n, seed, es) ->
      Printf.sprintf "n=%d seed=%d m=%d" n seed (List.length es))
    gen_digest_case
    (fun (n, seed, es) ->
      let g = G.create ~n es in
      let d = reference_digest g in
      let rng = P.create (seed + 1) in
      let kept, moved = List.partition (fun _ -> P.bool rng) es in
      let zeroed = List.map (fun e -> E.reweight e 0) moved in
      let base_n =
        List.fold_left (fun a (e : E.t) -> Stdlib.max a (e.v + 1)) 0 es
      in
      let base = G.create ~n:base_n (kept @ zeroed) in
      let patched base =
        G.patch base ~add_vertices:(n - base_n) ~add:moved
          ~remove:(List.map E.endpoints moved) ()
      in
      let decoded = IO.of_binary (IO.to_binary g) in
      let canonical = G.canonical g in
      G.canonical canonical == canonical
      && List.for_all
           (fun g' -> IO.digest g' = d && reference_digest g' = d)
           [ g; canonical ]
      && List.for_all
           (fun g' ->
             IO.digest g' = d
             && G.n g' = n
             && Array.for_all2 E.equal (G.edges canonical) (G.edges g'))
           [ patched base; patched (G.canonical base); decoded ])

(* On a canonical graph [find_edge] binary-searches the edge array; it
   must agree with a scan of the adjacency index, on every edge in both
   endpoint orders, on random pairs (mostly non-edges) and on
   out-of-range ids. *)
let prop_find_edge_matches_scan =
  QCheck2.Test.make ~name:"canonical find_edge equals the index scan"
    ~count:300
    ~print:(fun (n, seed, es) ->
      Printf.sprintf "n=%d seed=%d m=%d" n seed (List.length es))
    gen_digest_case
    (fun (n, seed, es) ->
      let g = G.create ~n es in
      let c = G.canonical g in
      let scan u v =
        if u < 0 || u >= n || v < 0 || v >= n then None
        else
          G.fold_neighbors g u
            (fun acc w e -> if w = v then Some e else acc)
            None
      in
      let rng = P.create seed in
      let queries =
        List.concat_map (fun (e : E.t) -> [ (e.u, e.v); (e.v, e.u) ]) es
        @ List.init (4 * n) (fun _ -> (P.int rng n, P.int rng n))
        @ [ (-1, 0); (0, -1); (0, n); (n, 0); (n, n) ]
      in
      List.for_all
        (fun (u, v) ->
          let want = scan u v in
          Option.equal E.equal (G.find_edge c u v) want
          && G.mem_edge c u v = Option.is_some want)
        queries)

(* [canonical] lays a non-canonical graph's records out afresh in
   canonical order, so no record of the result is one of the input's:
   a shared record could only be the input's record with the same
   (u, v), which [find_edge] names.  The content is the input's, sorted.
   A canonical graph is its own canonical form. *)
let prop_canonical_fresh_records =
  QCheck2.Test.make ~name:"canonical lays out fresh records" ~count:300
    ~print:(fun (n, seed, es) ->
      Printf.sprintf "n=%d seed=%d m=%d" n seed (List.length es))
    gen_digest_case
    (fun (n, _, es) ->
      let g = G.create ~n es in
      let c = G.canonical g in
      let sorted = Array.copy (G.edges g) in
      Array.sort E.compare sorted;
      G.canonical c == c
      && G.n c = n
      && Array.for_all2 E.equal sorted (G.edges c)
      && (c == g
         || Array.for_all
              (fun (e : E.t) ->
                match G.find_edge g e.u e.v with
                | Some old -> old != e
                | None -> false)
              (G.edges c)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matching_weight_consistent;
      prop_symmetric_difference_covers;
      prop_two_color_sound;
      prop_io_roundtrip;
      prop_io_malformed;
      prop_io_matches_oracle;
      prop_digest_matches_reference;
      prop_find_edge_matches_scan;
      prop_canonical_fresh_records;
    ]

let () =
  Alcotest.run "wm_graph"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "permutation" `Quick test_prng_permutation;
          Alcotest.test_case "sampling" `Quick test_prng_sample_without_replacement;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "uniformity" `Slow test_prng_uniformity_rough;
          Alcotest.test_case "bernoulli" `Slow test_prng_bernoulli;
        ] );
      ( "edge",
        [
          Alcotest.test_case "normalisation" `Quick test_edge_normalisation;
          Alcotest.test_case "self loop" `Quick test_edge_self_loop;
          Alcotest.test_case "negative weight" `Quick test_edge_negative_weight;
          Alcotest.test_case "other endpoint" `Quick test_edge_other;
          Alcotest.test_case "intersects" `Quick test_edge_intersects;
          Alcotest.test_case "equality" `Quick
            test_edge_order_irrelevant_for_equality;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "neighbors" `Quick test_graph_neighbors;
          Alcotest.test_case "find_edge" `Quick test_graph_find_edge;
          Alcotest.test_case "out of range" `Quick test_graph_rejects_out_of_range;
          Alcotest.test_case "parallel edges" `Quick test_graph_rejects_parallel;
          Alcotest.test_case "subgraph" `Quick test_graph_subgraph;
          Alcotest.test_case "map_weights" `Quick test_graph_map_weights;
          Alcotest.test_case "is_bipartition" `Quick test_graph_is_bipartition;
          Alcotest.test_case "patch" `Quick test_graph_patch;
          Alcotest.test_case "patch rejects" `Quick test_graph_patch_rejects;
        ] );
      ( "matching",
        [
          Alcotest.test_case "add/remove" `Quick test_matching_add_remove;
          Alcotest.test_case "remove validates both endpoints" `Quick
            test_matching_remove_validates_both_endpoints;
          Alcotest.test_case "conflicts" `Quick test_matching_conflict;
          Alcotest.test_case "add raises" `Quick test_matching_add_raises;
          Alcotest.test_case "mate" `Quick test_matching_mate;
          Alcotest.test_case "add_evicting" `Quick test_matching_add_evicting;
          Alcotest.test_case "edges once" `Quick test_matching_edges_listed_once;
          Alcotest.test_case "is_perfect" `Quick test_matching_is_perfect;
          Alcotest.test_case "validity" `Quick test_matching_validity;
          Alcotest.test_case "maximality" `Quick test_matching_maximality;
          Alcotest.test_case "extend" `Quick test_matching_extend;
          Alcotest.test_case "symdiff path" `Quick test_symmetric_difference_path;
          Alcotest.test_case "symdiff cycle" `Quick test_symmetric_difference_cycle;
          Alcotest.test_case "symdiff common edge" `Quick
            test_symmetric_difference_common_edge;
          Alcotest.test_case "symdiff random property" `Quick
            test_symmetric_difference_random_property;
        ] );
      ( "bipartition",
        [
          Alcotest.test_case "two_color bipartite" `Quick test_two_color_bipartite;
          Alcotest.test_case "two_color odd cycle" `Quick test_two_color_odd_cycle;
          Alcotest.test_case "random split" `Quick test_random_bipartition_shape;
        ] );
      ( "gen",
        [
          Alcotest.test_case "gnp count" `Quick test_gnp_edge_count;
          Alcotest.test_case "gnm exact count" `Quick test_gnm_exact_count;
          Alcotest.test_case "gnm complete" `Quick test_gnm_full;
          Alcotest.test_case "bipartite family" `Quick
            test_random_bipartite_is_bipartite;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "path and cycle" `Quick test_path_and_cycle;
          Alcotest.test_case "geometric weights" `Quick
            test_geometric_weights_are_powers;
          Alcotest.test_case "power law" `Quick test_power_law_bipartite;
          Alcotest.test_case "augmenting cycles" `Quick test_augmenting_cycle_family;
          Alcotest.test_case "long paths" `Quick test_long_augmenting_paths;
          Alcotest.test_case "planted 3-augs" `Quick
            test_planted_three_augmentations;
          Alcotest.test_case "paper fig1" `Quick test_paper_fig1;
          Alcotest.test_case "paper fig2" `Quick test_paper_fig2;
          Alcotest.test_case "paper 4-cycle" `Quick test_paper_four_cycle;
          Alcotest.test_case "paper non-simple" `Quick test_paper_nonsimple;
        ] );
      ( "graph_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "digest invariance" `Quick
            test_io_digest_invariance;
          Alcotest.test_case "matching roundtrip" `Quick test_io_matching_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "weight bound" `Quick test_weight_bound;
        ] );
      ("properties", qcheck_tests);
    ]
