(* Tests for wm_algos: Greedy, Local_ratio, Unw3aug, Approx_bipartite,
   Unweighted_random_arrival. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module B = Wm_graph.Bipartition
module Gen = Wm_graph.Gen
module ES = Wm_stream.Edge_stream
module Meter = Wm_stream.Space_meter
module Greedy = Wm_algos.Greedy
module LR = Wm_algos.Local_ratio
module U3 = Wm_algos.Unw3aug
module AB = Wm_algos.Approx_bipartite
module URA = Wm_algos.Unweighted_random_arrival
module SB = Wm_algos.Streaming_bipartite

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Greedy *)

let test_greedy_maximal () =
  let g = Gen.path_graph [ 1; 1; 1; 1 ] in
  let m = Greedy.maximal g in
  check_bool "maximal" true (M.is_maximal_in m g);
  check_bool "valid" true (M.is_valid_in m g)

let test_greedy_by_weight_half_approx () =
  (* Path (6, 10, 6): greedy takes 10; optimum is 12. *)
  let g = Gen.path_graph [ 6; 10; 6 ] in
  check "greedy" 10 (M.weight (Greedy.by_weight g));
  check "optimum" 12 (Wm_exact.Brute.optimum_weight g)

let test_greedy_stream_equals_offline () =
  let g = Gen.path_graph [ 1; 1; 1; 1; 1 ] in
  let s = ES.of_graph g in
  check "same size" (M.size (Greedy.maximal g)) (M.size (Greedy.maximal_stream s))

(* ------------------------------------------------------------------ *)
(* Local_ratio *)

let test_lr_half_approx_on_path () =
  (* Exact local-ratio on (6, 10, 6): pushes 6, then 10-6=4 residual,
     then 6-4=2 residual; unwinding takes the last-pushed first. *)
  let g = Gen.path_graph [ 6; 10; 6 ] in
  let m = LR.solve (ES.of_graph g) in
  check_bool "at least half" true (2 * M.weight m >= 12);
  check_bool "valid" true (M.is_valid_in m g)

let test_lr_potentials () =
  let t = LR.create ~n:3 () in
  LR.feed t (E.make 0 1 10);
  check "alpha0" 10 (LR.potential t 0);
  check "alpha1" 10 (LR.potential t 1);
  LR.feed t (E.make 1 2 15);
  check "alpha2 gets residual" 5 (LR.potential t 2);
  check "residual of dominated edge" (-12) (LR.residual t (E.make 0 2 3))

let test_lr_skips_dominated () =
  let t = LR.create ~n:3 () in
  LR.feed t (E.make 0 1 10);
  LR.feed t (E.make 1 2 5);
  check "stack has one edge" 1 (LR.stack_size t)

let test_lr_freeze () =
  let t = LR.create ~n:4 () in
  LR.feed t (E.make 0 1 10);
  LR.freeze t;
  LR.feed t (E.make 1 2 20);
  (* Pushed (positive residual) but potentials unchanged. *)
  check "stack grew" 2 (LR.stack_size t);
  check "alpha1 frozen" 10 (LR.potential t 1);
  check "alpha2 frozen" 0 (LR.potential t 2)

let test_lr_eps_truncation () =
  let t = LR.create ~eps:0.5 ~n:3 () in
  LR.feed t (E.make 0 1 10);
  (* Residual 2 <= eps * 10: not pushed. *)
  LR.feed t (E.make 1 2 12);
  check "truncated" 1 (LR.stack_size t);
  (* Residual 8 > eps * 10: pushed. *)
  LR.feed t (E.make 0 2 18);
  check "pushed" 2 (LR.stack_size t)

let test_lr_unwind_onto () =
  let t = LR.create ~n:4 () in
  LR.feed t (E.make 0 1 5);
  LR.feed t (E.make 2 3 5);
  let m = M.of_edges 4 [ E.make 1 2 9 ] in
  LR.unwind_onto t m;
  (* Both stack edges conflict with the existing edge. *)
  check "no additions" 1 (M.size m)

let test_lr_meter () =
  let meter = Meter.create () in
  let t = LR.create ~meter ~n:4 () in
  LR.feed t (E.make 0 1 5);
  LR.feed t (E.make 2 3 5);
  check "metered" 2 (Meter.peak meter)

let test_lr_meter_released_on_unwind () =
  (* Regression: units retained for stacked edges must be handed back
     on unwind (once — repeated unwinds must not double-release), so a
     shared meter does not stay inflated after the instance is done. *)
  let meter = Meter.create () in
  let t = LR.create ~meter ~n:6 () in
  LR.feed t (E.make 0 1 5);
  LR.feed t (E.make 2 3 5);
  check "held while stacked" 2 (Meter.current meter);
  ignore (LR.unwind t);
  check "released on unwind" 0 (Meter.current meter);
  ignore (LR.unwind t);
  check "second unwind releases nothing" 0 (Meter.current meter);
  check "peak preserved" 2 (Meter.peak meter)

let test_lr_reset_reuses_instance () =
  let meter = Meter.create () in
  let t = LR.create ~meter ~n:4 () in
  LR.feed t (E.make 0 1 5);
  LR.freeze t;
  LR.reset t;
  check "meter drained by reset" 0 (Meter.current meter);
  check "stack cleared" 0 (LR.stack_size t);
  (* A reused instance accepts edges the old potentials would block. *)
  check_bool "accepts light edge after reset" true
    (LR.feed_pushed t (E.make 0 1 1));
  check "unfrozen: potentials rise" 1 (LR.potential t 0);
  check "rebuilt matching" 1 (M.weight (LR.unwind t))

let test_lr_guarantee_random =
  QCheck2.Test.make ~name:"local-ratio is 1/2-approximate" ~count:150
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 4 + P.int rng 8 in
      let g = Gen.gnp rng ~n ~p:0.5 ~weights:(Gen.Uniform (1, 30)) in
      let m = LR.solve (ES.of_graph ~order:(ES.Random rng) g) in
      2 * M.weight m >= Wm_exact.Brute.optimum_weight g)

(* ------------------------------------------------------------------ *)
(* Unw3aug *)

let planted k spare seed =
  let rng = P.create seed in
  Gen.planted_three_augmentations rng ~k ~spare ~weights:Gen.Unit_weight

let test_u3_finds_planted () =
  let g, mid = planted 10 0 5 in
  let t = U3.create ~n:(G.n g) ~mid ~beta:1.0 () in
  G.iter_edges (fun e -> if not (M.mem mid e) then U3.feed t e) g;
  let augs = U3.finalize t in
  check "all ten found" 10 (List.length augs)

let test_u3_guarantee_bound () =
  (* Lemma 3.1: at least (beta^2/32)|M| paths when beta|M| exist. *)
  let g, mid = planted 20 20 7 in
  let t = U3.create ~n:(G.n g) ~mid ~beta:0.5 () in
  G.iter_edges (fun e -> if not (M.mem mid e) then U3.feed t e) g;
  let augs = U3.finalize t in
  let beta = 0.5 in
  let bound = beta *. beta /. 32.0 *. float_of_int (M.size mid) in
  check_bool "meets Lemma 3.1 bound" true
    (float_of_int (List.length augs) >= bound)

let test_u3_vertex_disjoint () =
  let g, mid = planted 15 0 9 in
  let t = U3.create ~n:(G.n g) ~mid ~beta:0.8 () in
  G.iter_edges (fun e -> if not (M.mem mid e) then U3.feed t e) g;
  let augs = U3.finalize t in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (a : U3.aug3) ->
      List.iter
        (fun e ->
          let u, v = E.endpoints e in
          List.iter
            (fun x ->
              check_bool "disjoint" false (Hashtbl.mem seen x);
              Hashtbl.replace seen x ())
            [ u; v ])
        [ a.U3.left; a.U3.right ])
    augs

let test_u3_apply () =
  let g, mid = planted 5 0 11 in
  ignore g;
  let t = U3.create ~n:(G.n g) ~mid ~beta:1.0 () in
  G.iter_edges (fun e -> if not (M.mem mid e) then U3.feed t e) g;
  let augs = U3.finalize t in
  let m = M.copy mid in
  U3.apply_all m augs;
  check "size grows by one per augmentation" (M.size mid + List.length augs)
    (M.size m);
  check_bool "valid" true (M.is_valid_in m g)

let test_u3_space_bound () =
  (* Support never exceeds (lambda + 2) per matched edge-ish; check the
     O(|M|) claim with an explicit constant. *)
  let rng = P.create 13 in
  let g = Gen.gnp rng ~n:200 ~p:0.2 ~weights:Gen.Unit_weight in
  let mid = Greedy.maximal g in
  let t = U3.create ~n:(G.n g) ~mid ~beta:0.5 () in
  G.iter_edges (fun e -> if not (M.mem mid e) then U3.feed t e) g;
  check_bool "support linear in |M|" true
    (U3.support_size t <= (U3.lambda t + 2) * 2 * M.size mid)

let test_u3_ignores_matched_matched () =
  let mid = M.of_edges 4 [ E.make 0 1 1; E.make 2 3 1 ] in
  let t = U3.create ~n:4 ~mid ~beta:1.0 () in
  U3.feed t (E.make 1 2 1);
  (* Both endpoints matched: ignored. *)
  check "ignored" 0 (U3.support_size t)

let test_u3_bad_beta () =
  Alcotest.check_raises "beta <= 0"
    (Invalid_argument "Unw3aug.create: beta must be positive") (fun () ->
      ignore (U3.create ~n:4 ~mid:(M.create 4) ~beta:0.0 ()))

(* ------------------------------------------------------------------ *)
(* Approx_bipartite *)

let test_ab_charges () =
  (* k = ceil(1/delta) = 4: passes = 16 + 8 = 24. *)
  check "pass charge" 24 (AB.pass_charge ~delta:0.25);
  check_bool "round charge positive" true (AB.round_charge ~delta:0.25 ~n:1000 > 0);
  check_bool "round charge grows with 1/delta" true
    (AB.round_charge ~delta:0.1 ~n:1000 > AB.round_charge ~delta:0.5 ~n:1000)

let test_ab_zero_delta_charge_raises () =
  Alcotest.check_raises "pass charge at 0"
    (Invalid_argument "Approx_bipartite.pass_charge: delta = 0") (fun () ->
      ignore (AB.pass_charge ~delta:0.0))

(* ------------------------------------------------------------------ *)
(* Streaming_bipartite *)

let test_sb_exact_on_path () =
  let g = Gen.path_graph [ 1; 1; 1 ] in
  let s = ES.of_graph g in
  let m, _ = SB.solve_stream ~delta:0.0 s ~left:(fun v -> v mod 2 = 0) in
  check "max matching" 2 (M.size m);
  check_bool "valid" true (M.is_valid_in m g)

let test_sb_memoryless_passes () =
  (* Pass count is recorded and > 0 when anything gets matched. *)
  let rng = P.create 71 in
  let g = Gen.random_bipartite rng ~left:30 ~right:30 ~p:0.2 ~weights:Gen.Unit_weight in
  let s = ES.of_graph g in
  let m, r = SB.solve_stream ~delta:0.25 s ~left:(B.halves 30) in
  check "stream meter agrees" r.SB.passes (ES.passes s);
  check_bool "phases bounded by matching size" true
    (r.SB.phases <= M.size m + 1)

let test_sb_with_init () =
  (* Path 0-1-2-3 from the matching {1-2}: one augmenting path of three
     edges rebuilds it to {0-1, 2-3}, with the stream's weights. *)
  let mate = [| -1; 2; 1; -1 |] and weight = [| 0; 1; 1; 0 |] in
  let r =
    SB.solve ~left:(fun v -> v mod 2 = 0) ~delta:0.0 ~mate ~weight (fun f ->
        f 0 1 5;
        f 1 2 1;
        f 2 3 7)
  in
  Alcotest.(check (array int)) "rebuilds to max" [| 1; 0; 3; 2 |] mate;
  Alcotest.(check (array int)) "weights" [| 5; 5; 7; 7 |] weight;
  check "one phase" 1 r.SB.phases

let test_sb_ignores_non_crossing () =
  (* Edges within one side are skipped rather than crashing. *)
  let g = G.create ~n:4 [ E.make 0 1 1; E.make 0 2 1 ] in
  let s = ES.of_graph g in
  let m, _ = SB.solve_stream ~delta:0.0 s ~left:(B.halves 2) in
  check "uses only the crossing edge" 1 (M.size m)

let prop_sb_matches_hopcroft_karp =
  QCheck2.Test.make ~name:"streaming matcher (delta=0) = hopcroft-karp"
    ~count:150
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let left = 3 + P.int rng 25 in
      let g =
        Gen.random_bipartite rng ~left ~right:(3 + P.int rng 25)
          ~p:(0.05 +. P.float rng 0.5) ~weights:Gen.Unit_weight
      in
      let s = ES.of_graph g in
      let m, _ = SB.solve_stream ~delta:0.0 s ~left:(B.halves left) in
      M.size m = M.size (Wm_exact.Hopcroft_karp.solve g ~left:(B.halves left))
      && M.is_valid_in m g)

let prop_sb_guarantee =
  QCheck2.Test.make ~name:"streaming matcher meets (1-delta)" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let left = 10 + P.int rng 30 in
      let g =
        Gen.random_bipartite rng ~left ~right:left
          ~p:(0.05 +. P.float rng 0.2) ~weights:Gen.Unit_weight
      in
      let s = ES.of_graph g in
      let delta = 0.34 in
      let m, _ = SB.solve_stream ~delta s ~left:(B.halves left) in
      let opt = M.size (Wm_exact.Hopcroft_karp.solve g ~left:(B.halves left)) in
      float_of_int (M.size m) >= (1.0 -. delta) *. float_of_int opt)

(* The streaming black box on small dense bipartite graphs, the family
   the guarantee was first checked on. *)
let prop_black_box_guarantee =
  QCheck2.Test.make ~name:"(1-delta) black box guarantee" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let left = 5 + P.int rng 15 in
      let g =
        Gen.random_bipartite rng ~left ~right:left ~p:(0.1 +. P.float rng 0.4)
          ~weights:Gen.Unit_weight
      in
      let opt = M.size (Wm_exact.Hopcroft_karp.solve g ~left:(B.halves left)) in
      let delta = 0.25 in
      let m, _ = SB.solve_stream ~delta (ES.of_graph g) ~left:(B.halves left) in
      M.is_valid_in m g
      && float_of_int (M.size m) >= (1.0 -. delta) *. float_of_int opt)

(* ------------------------------------------------------------------ *)
(* Unweighted_random_arrival *)

let test_ura_beats_half_on_trap () =
  let rng = P.create 19 in
  let g = Gen.near_half_trap rng ~blocks:100 in
  let opt = M.size (Wm_exact.Blossom.solve g) in
  let total = ref 0 in
  let trials = 10 in
  for i = 1 to trials do
    let s = ES.of_graph ~order:(ES.Random (P.create (100 + i))) g in
    total := !total + M.size (URA.solve s)
  done;
  let avg = float_of_int !total /. float_of_int trials in
  check_bool "clearly above 0.75 of optimum" true
    (avg >= 0.75 *. float_of_int opt)

let test_ura_result_fields () =
  let rng = P.create 23 in
  let g = Gen.gnp rng ~n:100 ~p:0.05 ~weights:Gen.Unit_weight in
  let s = ES.of_graph ~order:(ES.Random rng) g in
  let r = URA.run s in
  check_bool "m0 nonempty" true (r.URA.m0_size > 0);
  check_bool "valid" true (M.is_valid_in r.URA.matching g);
  check_bool "at least m0" true (M.size r.URA.matching >= r.URA.m0_size)

let test_ura_never_worse_than_greedy_prefix =
  QCheck2.Test.make ~name:"0.506 algorithm dominates its own greedy branch"
    ~count:50
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 20 + P.int rng 50 in
      let g = Gen.gnp rng ~n ~p:0.2 ~weights:Gen.Unit_weight in
      if G.m g = 0 then true
      else begin
        let s = ES.of_graph ~order:(ES.Random rng) g in
        let s2 = ES.of_graph ~order:ES.As_given (ES.to_ordered_graph s) in
        let r = URA.run s2 in
        (* The greedy branch result is a maximal matching of the whole
           stream; ours must be at least as large. *)
        M.size r.URA.matching >= M.size (Greedy.maximal (ES.to_ordered_graph s2))
      end)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      test_lr_guarantee_random;
      test_ura_never_worse_than_greedy_prefix;
      prop_sb_matches_hopcroft_karp;
      prop_sb_guarantee;
      prop_black_box_guarantee;
    ]

let () =
  Alcotest.run "wm_algos"
    [
      ( "greedy",
        [
          Alcotest.test_case "maximal" `Quick test_greedy_maximal;
          Alcotest.test_case "by weight" `Quick test_greedy_by_weight_half_approx;
          Alcotest.test_case "stream = offline" `Quick test_greedy_stream_equals_offline;
        ] );
      ( "local_ratio",
        [
          Alcotest.test_case "half approx path" `Quick test_lr_half_approx_on_path;
          Alcotest.test_case "potentials" `Quick test_lr_potentials;
          Alcotest.test_case "skips dominated" `Quick test_lr_skips_dominated;
          Alcotest.test_case "freeze" `Quick test_lr_freeze;
          Alcotest.test_case "eps truncation" `Quick test_lr_eps_truncation;
          Alcotest.test_case "unwind onto" `Quick test_lr_unwind_onto;
          Alcotest.test_case "meter" `Quick test_lr_meter;
          Alcotest.test_case "meter released on unwind" `Quick
            test_lr_meter_released_on_unwind;
          Alcotest.test_case "reset reuses instance" `Quick
            test_lr_reset_reuses_instance;
        ] );
      ( "unw3aug",
        [
          Alcotest.test_case "finds planted" `Quick test_u3_finds_planted;
          Alcotest.test_case "lemma 3.1 bound" `Quick test_u3_guarantee_bound;
          Alcotest.test_case "vertex disjoint" `Quick test_u3_vertex_disjoint;
          Alcotest.test_case "apply" `Quick test_u3_apply;
          Alcotest.test_case "space bound" `Quick test_u3_space_bound;
          Alcotest.test_case "ignores matched-matched" `Quick
            test_u3_ignores_matched_matched;
          Alcotest.test_case "bad beta" `Quick test_u3_bad_beta;
        ] );
      ( "approx_bipartite",
        [
          Alcotest.test_case "charges" `Quick test_ab_charges;
          Alcotest.test_case "zero delta raises" `Quick
            test_ab_zero_delta_charge_raises;
        ] );
      ( "streaming_bipartite",
        [
          Alcotest.test_case "exact on path" `Quick test_sb_exact_on_path;
          Alcotest.test_case "pass metering" `Quick test_sb_memoryless_passes;
          Alcotest.test_case "with init" `Quick test_sb_with_init;
          Alcotest.test_case "non-crossing edges" `Quick
            test_sb_ignores_non_crossing;
        ] );
      ( "unweighted_random_arrival",
        [
          Alcotest.test_case "beats half on trap" `Quick test_ura_beats_half_on_trap;
          Alcotest.test_case "result fields" `Quick test_ura_result_fields;
        ] );
      ("properties", qcheck_tests);
    ]
