(* Tests for the wm_mpc substrate: Cluster and Mpc_matching. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module C = Wm_mpc.Cluster
module MM = Wm_mpc.Mpc_matching

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_cluster_create () =
  let c = C.create ~machines:4 ~memory_words:100 () in
  check "machines" 4 (C.machines c);
  check "memory" 100 (C.memory_words c);
  check "rounds" 0 (C.rounds c)

let test_cluster_bad_create () =
  Alcotest.check_raises "no machines"
    (Invalid_argument "Cluster.create: need at least one machine") (fun () ->
      ignore (C.create ~machines:0 ~memory_words:10 ()))

let test_scatter () =
  let c = C.create ~machines:3 ~memory_words:10 () in
  let shards = C.scatter c (Array.init 10 Fun.id) in
  check "one round" 1 (C.rounds c);
  check "three shards" 3 (Array.length shards);
  let total = Array.fold_left (fun a s -> a + Array.length s) 0 shards in
  check "all items placed" 10 total;
  check "round robin balance" 4 (Array.length shards.(0))

let test_scatter_overflow () =
  let c = C.create ~machines:2 ~memory_words:3 () in
  let raised =
    try
      ignore (C.scatter c (Array.init 10 Fun.id));
      false
    with C.Memory_exceeded _ -> true
  in
  check_bool "memory exceeded" true raised

let test_broadcast () =
  let c = C.create ~machines:4 ~memory_words:50 () in
  C.broadcast c ~words:30;
  check "two rounds" 2 (C.rounds c);
  check "peak" 30 (C.peak_machine_memory c)

let test_broadcast_overflow () =
  let c = C.create ~machines:2 ~memory_words:10 () in
  let raised =
    try
      C.broadcast c ~words:11;
      false
    with C.Memory_exceeded { used; capacity; _ } -> used = 11 && capacity = 10
  in
  check_bool "broadcast too big" true raised

let test_charge_rounds () =
  let c = C.create ~machines:1 ~memory_words:10 () in
  C.charge_rounds c 5;
  check "charged" 5 (C.rounds c)

(* Mpc_matching *)

let test_greedy_on_machine () =
  let c = C.create ~machines:1 ~memory_words:10 () in
  let edges = [| E.make 0 1 1; E.make 1 2 1; E.make 3 4 1 |] in
  let m = MM.greedy_on_machine c edges ~n:5 in
  check "greedy result" 2 (M.size m)

let test_filtering_maximal () =
  let rng = P.create 31 in
  let g = Gen.gnp rng ~n:100 ~p:0.1 ~weights:Gen.Unit_weight in
  let c = C.create ~machines:8 ~memory_words:(4 * 100) () in
  let m = MM.filtering_maximal c (P.create 7) g in
  check_bool "valid" true (M.is_valid_in m g);
  check_bool "maximal" true (M.is_maximal_in m g);
  check_bool "used multiple rounds" true (C.rounds c >= 3)

let test_filtering_rounds_grow_when_memory_shrinks () =
  let rng = P.create 37 in
  let g = Gen.gnp rng ~n:120 ~p:0.25 ~weights:Gen.Unit_weight in
  let rounds memory =
    let c = C.create ~machines:8 ~memory_words:memory () in
    ignore (MM.filtering_maximal c (P.create 7) g);
    C.rounds c
  in
  check_bool "less memory, at least as many rounds" true
    (rounds 300 >= rounds 2000)

let test_weighted_class_greedy () =
  let rng = P.create 41 in
  let g = Gen.gnp rng ~n:80 ~p:0.15 ~weights:(Gen.Geometric_classes 6) in
  let c = C.create ~machines:4 ~memory_words:(8 * 80) () in
  let m = MM.weighted_greedy_by_class c (P.create 42) g in
  check_bool "valid" true (M.is_valid_in m g);
  check_bool "maximal" true (M.is_maximal_in m g);
  (* Constant-factor guarantee, checked against the exact optimum. *)
  (match Wm_exact.Mwm_general.solve_opt g with
  | Some opt ->
      check_bool "at least 1/4 of optimum" true
        (4 * M.weight m >= M.weight opt)
  | None -> ());
  check_bool "rounds charged" true (C.rounds c > 0)

let test_weighted_class_greedy_prefers_heavy () =
  (* A heavy edge must beat two light ones even if the light class has
     more edges. *)
  let g =
    G.create ~n:4 [ E.make 1 2 100; E.make 0 1 1; E.make 2 3 1 ]
  in
  let c = C.create ~machines:2 ~memory_words:64 () in
  let m = MM.weighted_greedy_by_class c (P.create 1) g in
  check "takes the heavy edge" 100 (M.weight m)

let prop_filtering_always_maximal =
  QCheck2.Test.make ~name:"filtering matching is maximal" ~count:50
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let n = 20 + P.int rng 60 in
      let g = Gen.gnp rng ~n ~p:0.15 ~weights:Gen.Unit_weight in
      let c = C.create ~machines:4 ~memory_words:(8 * n) () in
      let m = MM.filtering_maximal c rng g in
      M.is_valid_in m g && M.is_maximal_in m g)

let () =
  Alcotest.run "wm_mpc"
    [
      ( "cluster",
        [
          Alcotest.test_case "create" `Quick test_cluster_create;
          Alcotest.test_case "bad create" `Quick test_cluster_bad_create;
          Alcotest.test_case "scatter" `Quick test_scatter;
          Alcotest.test_case "scatter overflow" `Quick test_scatter_overflow;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "broadcast overflow" `Quick test_broadcast_overflow;
          Alcotest.test_case "charge" `Quick test_charge_rounds;
        ] );
      ( "mpc_matching",
        [
          Alcotest.test_case "greedy on machine" `Quick test_greedy_on_machine;
          Alcotest.test_case "filtering maximal" `Quick test_filtering_maximal;
          Alcotest.test_case "rounds vs memory" `Quick
            test_filtering_rounds_grow_when_memory_shrinks;
          Alcotest.test_case "weighted class greedy" `Quick
            test_weighted_class_greedy;
          Alcotest.test_case "class greedy heavy edge" `Quick
            test_weighted_class_greedy_prefers_heavy;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_filtering_always_maximal ] );
    ]
