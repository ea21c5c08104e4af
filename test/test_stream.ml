(* Tests for the wm_stream substrate: Edge_stream and Space_meter. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module ES = Wm_stream.Edge_stream
module Meter = Wm_stream.Space_meter

let check = Alcotest.(check int)

(* A meter's holding: a checkpoint restarts the pass peak at it. *)
let held m =
  ignore (Meter.checkpoint m);
  Meter.checkpoint m
let check_bool = Alcotest.(check bool)

let graph () =
  G.create ~n:6
    [ E.make 0 1 5; E.make 1 2 1; E.make 2 3 9; E.make 3 4 2; E.make 4 5 7 ]

let collect s =
  let acc = ref [] in
  ES.iter s (fun e -> acc := e :: !acc);
  List.rev !acc

let test_as_given () =
  let g = graph () in
  let s = ES.of_graph g in
  check "length" 5 (ES.length s);
  check "n" 6 (ES.graph_n s);
  Alcotest.(check (list int))
    "arrival order matches graph order"
    (Array.to_list (Array.map E.weight (G.edges g)))
    (List.map E.weight (collect s))

let test_pass_counting () =
  let s = ES.of_graph (graph ()) in
  check "no passes yet" 0 (ES.passes s);
  ES.iter s ignore;
  ES.iter s ignore;
  check "two passes" 2 (ES.passes s);
  ES.charge_passes s 3;
  check "charged" 5 (ES.passes s)

let test_charge_negative () =
  let s = ES.of_graph (graph ()) in
  Alcotest.check_raises "negative charge"
    (Invalid_argument "Edge_stream.charge_passes: negative") (fun () ->
      ES.charge_passes s (-1))

let test_random_order_is_permutation () =
  let g = graph () in
  let s = ES.of_graph ~order:(ES.Random (P.create 3)) g in
  let weights = List.sort Int.compare (List.map E.weight (collect s)) in
  Alcotest.(check (list int)) "same multiset" [ 1; 2; 5; 7; 9 ] weights

let test_random_order_varies () =
  let g =
    let rng = P.create 9 in
    Gen.gnp rng ~n:20 ~p:0.5 ~weights:(Gen.Uniform (1, 100))
  in
  let order seed =
    List.map E.weight (collect (ES.of_graph ~order:(ES.Random (P.create seed)) g))
  in
  check_bool "different seeds differ" false (order 1 = order 2)

let test_sorted_orders () =
  let g = graph () in
  let inc =
    List.map E.weight (collect (ES.of_graph ~order:ES.Increasing_weight g))
  in
  let dec =
    List.map E.weight (collect (ES.of_graph ~order:ES.Decreasing_weight g))
  in
  Alcotest.(check (list int)) "increasing" [ 1; 2; 5; 7; 9 ] inc;
  Alcotest.(check (list int)) "decreasing" [ 9; 7; 5; 2; 1 ] dec

let test_iteri_positions () =
  let s = ES.of_graph (graph ()) in
  let last = ref (-1) in
  ES.iteri s (fun i _ ->
      check "sequential" (!last + 1) i;
      last := i);
  check "saw all" 4 !last

let test_nth_no_pass () =
  let s = ES.of_graph (graph ()) in
  ignore (ES.nth s 2);
  check "nth free" 0 (ES.passes s)

let test_to_ordered_graph_roundtrip () =
  let g = graph () in
  let s = ES.of_graph ~order:ES.Decreasing_weight g in
  let g' = ES.to_ordered_graph s in
  check "same n" (G.n g) (G.n g');
  check "same m" (G.m g) (G.m g');
  check "same weight" (G.total_weight g) (G.total_weight g')

let test_of_edges () =
  let s = ES.of_edges ~n:4 [ E.make 0 1 1; E.make 2 3 2 ] in
  check "length" 2 (ES.length s);
  check "n" 4 (ES.graph_n s)

(* Space meter *)

let test_meter_basic () =
  let m = Meter.create () in
  Meter.retain m 5;
  Meter.retain m 3;
  check "held" 8 (held m);
  Meter.release m 6;
  check "after release" 2 (held m);
  check "peak" 8 (Meter.peak m)

let test_meter_release_below_zero () =
  let m = Meter.create () in
  Meter.retain m 1;
  Alcotest.check_raises "below zero"
    (Invalid_argument "Space_meter.release: below zero") (fun () ->
      Meter.release m 2)

let test_meter_reset () =
  let m = Meter.create () in
  Meter.retain m 7;
  Meter.reset m;
  check "held" 0 (held m);
  check "peak" 0 (Meter.peak m)

(* Per-pass checkpointing: each checkpoint returns the high-water mark
   since the previous one, resetting to the *current* level (not zero),
   so the lifetime peak is the max over per-pass peaks. *)
let test_meter_checkpoint () =
  let m = Meter.create () in
  Meter.retain m 10;
  Meter.release m 4;
  check "pass 1 peak" 10 (Meter.checkpoint m);
  (* Second pass never exceeds the carried-over level of 6. *)
  Meter.release m 3;
  check "pass 2 peak = carried level" 6 (Meter.checkpoint m);
  Meter.retain m 20;
  check "pass 3 peak" 23 (Meter.checkpoint m);
  check "lifetime peak = max of pass peaks" 23 (Meter.peak m);
  Meter.reset m;
  check "reset clears pass peak" 0 (Meter.checkpoint m)

let test_meter_checkpoint_invariant () =
  (* Against a random retain/release/checkpoint trace, lifetime peak
     equals the max over per-pass peaks (the Thm 3.14 audit relies on
     this). *)
  let m = Meter.create () in
  let rng = P.create 99 in
  let pass_peaks = ref [] and level = ref 0 in
  for _ = 1 to 200 do
    (match P.int rng 3 with
    | 0 ->
        let k = 1 + P.int rng 50 in
        Meter.retain m k;
        level := !level + k
    | 1 ->
        if !level > 0 then begin
          let k = 1 + P.int rng !level in
          Meter.release m k;
          level := !level - k
        end
    | _ -> pass_peaks := Meter.checkpoint m :: !pass_peaks)
  done;
  pass_peaks := Meter.checkpoint m :: !pass_peaks;
  check "peak = max over checkpoints" (Meter.peak m)
    (List.fold_left Stdlib.max 0 !pass_peaks)

(* Property: a full pass visits every edge exactly once, any order. *)
let prop_pass_is_permutation =
  QCheck2.Test.make ~name:"one pass visits each edge once" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = P.create seed in
      let g = Gen.gnp rng ~n:15 ~p:0.4 ~weights:(Gen.Uniform (1, 9)) in
      let s = ES.of_graph ~order:(ES.Random rng) g in
      let seen = Hashtbl.create 32 in
      ES.iter s (fun e ->
          let k = E.endpoints e in
          if Hashtbl.mem seen k then failwith "dup" else Hashtbl.add seen k ());
      Hashtbl.length seen = G.m g)

let () =
  Alcotest.run "wm_stream"
    [
      ( "edge_stream",
        [
          Alcotest.test_case "as given" `Quick test_as_given;
          Alcotest.test_case "pass counting" `Quick test_pass_counting;
          Alcotest.test_case "negative charge" `Quick test_charge_negative;
          Alcotest.test_case "random permutation" `Quick
            test_random_order_is_permutation;
          Alcotest.test_case "random varies" `Quick test_random_order_varies;
          Alcotest.test_case "sorted orders" `Quick test_sorted_orders;
          Alcotest.test_case "iteri positions" `Quick test_iteri_positions;
          Alcotest.test_case "nth free" `Quick test_nth_no_pass;
          Alcotest.test_case "to graph" `Quick test_to_ordered_graph_roundtrip;
          Alcotest.test_case "of edges" `Quick test_of_edges;
        ] );
      ( "space_meter",
        [
          Alcotest.test_case "basic" `Quick test_meter_basic;
          Alcotest.test_case "below zero" `Quick test_meter_release_below_zero;
          Alcotest.test_case "reset" `Quick test_meter_reset;
          Alcotest.test_case "checkpoint" `Quick test_meter_checkpoint;
          Alcotest.test_case "checkpoint invariant" `Quick
            test_meter_checkpoint_invariant;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_pass_is_permutation ] );
    ]
