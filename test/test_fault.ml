(* Tests for the wm_fault layer and its integration with the MPC and
   streaming drivers:

   - Spec parsing round-trips and rejects malformed input with one-line
     messages;
   - a crash-heavy plan completes through checkpoint/retry with the SAME
     final weight as the fault-free run, paying only extra rounds;
   - inert specs leave every result and resource number unchanged;
   - fault patterns, counters, histograms and ledger rows are
     byte-identical at jobs=1 and jobs=4;
   - exhausting the retry budget raises Budget_exhausted;
   - stream tampering is deterministic per spec and never produces an
     invalid weight;
   - Model_driver.mpc bills the per-machine load of the LARGEST layered
     instance, not the per-pair average (regression).                  *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module B = Wm_graph.Bipartition
module Gen = Wm_graph.Gen
module ES = Wm_stream.Edge_stream
module C = Wm_mpc.Cluster
module Pool = Wm_par.Pool
module Obs = Wm_obs.Obs
module Ledger = Wm_obs.Ledger
module J = Wm_obs.Json
module Spec = Wm_fault.Spec
module Injector = Wm_fault.Injector
module Recovery = Wm_fault.Recovery
module MD = Wm_core.Model_driver

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let counter name = Obs.counter_value Obs.default name

let bip_graph ~seed ~n =
  let rng = P.create seed in
  Gen.random_bipartite rng ~left:(n / 2) ~right:(n / 2)
    ~p:(16.0 /. float_of_int n)
    ~weights:(Gen.Uniform (1, 50))

let mpc_memory_words n =
  let log2n =
    int_of_float (Float.ceil (Float.log (float_of_int n) /. Float.log 2.0))
  in
  8 * n * log2n

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_spec_parse () =
  (match Spec.parse "" with
  | Ok s -> check_bool "empty is inert" true (Spec.is_none s)
  | Error e -> Alcotest.fail e);
  (match Spec.parse "none" with
  | Ok s -> check_bool "none is inert" true (Spec.is_none s)
  | Error e -> Alcotest.fail e);
  (match Spec.parse "seed=7,crash=0.05,straggle=0.02,drop=0.001,mem=0.5" with
  | Ok s ->
      check "seed" 7 s.Spec.seed;
      check_bool "crash" true (s.Spec.crash = 0.05);
      check_bool "dup defaults to 0" true (s.Spec.dup = 0.0);
      check "attempts default" 6 s.Spec.max_attempts;
      check_bool "not inert" false (Spec.is_none s);
      (* Round trip through the canonical form. *)
      (match Spec.parse (Spec.to_string s) with
      | Ok s' -> check_bool "round-trips" true (s = s')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  check_str "inert prints none" "none" (Spec.to_string Spec.none);
  let expect_error input =
    match Spec.parse input with
    | Ok _ -> Alcotest.failf "parse %S should fail" input
    | Error msg ->
        check_bool
          (Printf.sprintf "error for %S is one line (%s)" input msg)
          false
          (String.contains msg '\n')
  in
  List.iter expect_error
    [ "crash=1.5"; "crash=-0.1"; "crash=banana"; "bogus=0.5"; "seed=x";
      "attempts=0"; "crash" ]

(* ------------------------------------------------------------------ *)
(* Crash-heavy MPC plan: retry/restore preserves the final weight. *)

let test_mpc_crash_recovery_same_weight () =
  let n = 80 in
  let g = bip_graph ~seed:402 ~n in
  let params = Wm_core.Params.practical ~epsilon:0.25 () in
  let machines = 4 and memory_words = mpc_memory_words n in
  let run spec =
    let cluster = C.create ~faults:spec ~machines ~memory_words () in
    let r = MD.mpc params (P.create 9) cluster g in
    (M.weight r.MD.matching, r.MD.rounds)
  in
  let w_free, rounds_free = run Spec.none in
  let crashes0 = counter "fault.crashes" in
  let restores0 = counter "fault.restores" in
  let w_faulty, rounds_faulty =
    run
      { Spec.none with
        Spec.seed = 2; crash = 0.2; straggle = 0.1; max_attempts = 12 }
  in
  check "same final weight under crashes" w_free w_faulty;
  check_bool "faults cost extra rounds" true (rounds_faulty > rounds_free);
  let crashes = counter "fault.crashes" - crashes0 in
  check_bool
    (Printf.sprintf "crash-heavy plan injected >= 3 crashes (got %d)" crashes)
    true (crashes >= 3);
  check_bool "restores recorded" true (counter "fault.restores" > restores0);
  check_bool "mpc.faults ledger rows present" true
    (Ledger.rows Ledger.default "mpc.faults" <> []);
  check_bool "core.recovery ledger rows present" true
    (Ledger.rows Ledger.default "core.recovery" <> []);
  (* Streaming leg: a crash-only plan replays each crashed round from its
     checkpoint, so it commits the fault-free matching, paying passes. *)
  let run_stream spec =
    let inj = Injector.create ~salt:2 ~section:"stream.faults" spec in
    MD.streaming ~faults:inj params (P.create 9) (ES.of_graph g)
  in
  let free = run_stream Spec.none in
  let crashes0 = counter "fault.crashes" in
  let faulty =
    run_stream { Spec.none with Spec.seed = 2; crash = 0.2; max_attempts = 12 }
  in
  check_bool "streaming returns the fault-free matching" true
    (M.equal free.MD.matching faulty.MD.matching);
  check_bool "streaming plan injected crashes" true
    (counter "fault.crashes" > crashes0);
  check_bool "crashes cost extra passes" true
    (faulty.MD.passes > free.MD.passes)

(* ------------------------------------------------------------------ *)
(* Inert specs change nothing. *)

let test_zero_rate_equivalence () =
  let n = 64 in
  let g = bip_graph ~seed:771 ~n in
  let params = Wm_core.Params.practical ~epsilon:0.3 () in
  (* MPC: a cluster with an explicit inert spec vs the ambient default. *)
  let run_mpc spec =
    let cluster =
      C.create ?faults:spec ~machines:3 ~memory_words:(mpc_memory_words n) ()
    in
    let r = MD.mpc params (P.create 4) cluster g in
    (M.weight r.MD.matching, r.MD.rounds, r.MD.peak_machine_memory)
  in
  check_bool "mpc unchanged by inert spec" true
    (run_mpc None = run_mpc (Some Spec.none));
  (* Streaming: explicit inert injector vs none. *)
  let run_stream inj =
    let r =
      MD.streaming ?faults:inj params (P.create 6) (ES.of_graph g)
    in
    (M.weight r.MD.matching, r.MD.passes, r.MD.peak_edges, r.MD.rounds_run)
  in
  check_bool "streaming unchanged by inert injector" true
    (run_stream None = run_stream (Some Injector.none))

(* ------------------------------------------------------------------ *)
(* Fault pattern, counters and ledger are jobs-invariant. *)

let test_jobs_invariance_under_faults () =
  let n = 64 in
  let g = bip_graph ~seed:913 ~n in
  let params = Wm_core.Params.practical ~epsilon:0.25 () in
  let mspec =
    { Spec.none with Spec.seed = 11; crash = 0.1; straggle = 0.1;
      drop = 0.02; dup = 0.02; corrupt = 0.02; max_attempts = 10 }
  in
  let sspec =
    { Spec.none with Spec.seed = 12; crash = 0.05; drop = 0.02;
      corrupt = 0.05; mem = 0.1; max_attempts = 10 }
  in
  let snapshot jobs =
    Pool.set_default_jobs jobs;
    Obs.reset Obs.default;
    Ledger.reset Ledger.default;
    let cluster =
      C.create ~faults:mspec ~machines:4 ~memory_words:(mpc_memory_words n) ()
    in
    let rm = MD.mpc params (P.create 3) cluster g in
    let inj = Injector.create ~salt:2 ~section:"stream.faults" sspec in
    let rs = MD.streaming ~faults:inj params (P.create 5) (ES.of_graph g) in
    (* Record faults degrade what the drivers read, never what they
       return: both matchings carry the input graph's edges and weights. *)
    check_bool "mpc matching valid in the input graph" true
      (M.is_valid_in rm.MD.matching g);
    check_bool "stream matching valid in the input graph" true
      (M.is_valid_in rs.MD.matching g);
    let section k =
      match J.member k (Obs.to_json Obs.default) with
      | Some j -> J.to_string j
      | None -> Alcotest.fail ("obs snapshot lacks " ^ k)
    in
    (* The "gc" ledger section is allocation accounting and is
       documented as jobs-variant (per-domain minor heaps); every other
       section must stay byte-identical across jobs settings. *)
    let ledger_sans_gc =
      match Ledger.to_json Ledger.default with
      | J.Obj members ->
          J.Obj (List.filter (fun (k, _) -> k <> "gc") members)
      | j -> j
    in
    ( M.weight rm.MD.matching,
      rm.MD.rounds,
      M.weight rs.MD.matching,
      rs.MD.passes,
      section "counters",
      section "histograms",
      J.to_string ledger_sans_gc )
  in
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default_jobs saved;
      Obs.reset Obs.default;
      Ledger.reset Ledger.default)
    (fun () ->
      let w1, r1, sw1, p1, c1, h1, l1 = snapshot 1 in
      let w4, r4, sw4, p4, c4, h4, l4 = snapshot 4 in
      check "mpc weight jobs=1 vs 4" w1 w4;
      check "mpc rounds jobs=1 vs 4" r1 r4;
      check "stream weight jobs=1 vs 4" sw1 sw4;
      check "stream passes jobs=1 vs 4" p1 p4;
      check_str "counters jobs=1 vs 4" c1 c4;
      check_str "histograms jobs=1 vs 4" h1 h4;
      check_str "ledger jobs=1 vs 4" l1 l4;
      check_bool "plan actually injected faults" true
        (counter "fault.crashes" > 0 || counter "fault.corrupted" > 0))

(* ------------------------------------------------------------------ *)
(* Budget exhaustion. *)

let test_budget_exhaustion () =
  let n = 48 in
  let g = bip_graph ~seed:221 ~n in
  let params = Wm_core.Params.practical ~epsilon:0.3 () in
  let spec = { Spec.none with Spec.seed = 2; crash = 1.0; max_attempts = 2 } in
  let cluster =
    C.create ~faults:spec ~machines:3 ~memory_words:(mpc_memory_words n) ()
  in
  let exhausted0 = counter "fault.budget_exhausted" in
  (match MD.mpc params (P.create 8) cluster g with
  | _ -> Alcotest.fail "crash=1.0 must exhaust the retry budget"
  | exception Injector.Budget_exhausted { attempts; _ } ->
      check "budget attempts" 2 attempts);
  check_bool "exhaustion counted" true
    (counter "fault.budget_exhausted" > exhausted0)

(* ------------------------------------------------------------------ *)
(* Stream tampering: deterministic per spec, weights stay valid. *)

let test_stream_tamper_determinism () =
  let g = bip_graph ~seed:37 ~n:60 in
  let spec =
    { Spec.none with Spec.seed = 17; drop = 0.1; dup = 0.1; corrupt = 0.2 }
  in
  let deliver () =
    let s = ES.of_graph ~faults:spec g in
    let acc = ref [] in
    ES.iter s (fun e ->
        let u, v = E.endpoints e in
        acc := (u, v, E.weight e) :: !acc);
    List.rev !acc
  in
  let a = deliver () and b = deliver () in
  check_bool "same spec => same delivered sequence" true (a = b);
  check_bool "tampering changed the stream" true
    (a
    <> List.map
         (fun e ->
           let u, v = E.endpoints e in
           (u, v, E.weight e))
         (G.edges (ES.to_ordered_graph (ES.of_graph g)) |> Array.to_list));
  List.iter
    (fun (_, _, w) -> check_bool "weights stay non-negative" true (w >= 0))
    a;
  (* Ground truth is untouched by the fault plan. *)
  let sum g =
    Array.fold_left (fun acc e -> acc + E.weight e) 0 (G.edges g)
  in
  check "to_ordered_graph is faithful" (sum g)
    (sum (ES.to_ordered_graph (ES.of_graph ~faults:spec g)))

(* ------------------------------------------------------------------ *)
(* Regression: MPC memory is billed at the largest single layered
   instance, not the average over pairs. *)

let test_peak_load_not_average () =
  let stats ~pairs ~total ~largest =
    {
      Wm_core.Aug_class.pairs_tried = pairs;
      layered_edges = total;
      layered_edges_max = largest;
      paths_found = 0;
      black_box_calls = pairs;
      black_box_passes = 1;
    }
  in
  (* One skewed class: 4 pairs, 4000 edges total, but one instance holds
     3700 of them.  The old per-pair average (1000) fits a 2000-word
     machine; the true peak does not. *)
  let skewed =
    [ (1.0, stats ~pairs:4 ~total:4000 ~largest:3700);
      (2.0, stats ~pairs:2 ~total:800 ~largest:500) ]
  in
  check "peak is the max single instance" 3700 (MD.peak_instance_load skewed);
  let capacity = 2000 in
  let average =
    List.fold_left
      (fun acc (_, s) ->
        Stdlib.max acc
          (s.Wm_core.Aug_class.layered_edges
          / Stdlib.max 1 s.Wm_core.Aug_class.pairs_tried))
      0 skewed
  in
  check_bool "the old average-based bill would have fit" true
    (average <= capacity);
  let cluster = C.create ~machines:2 ~memory_words:capacity () in
  match
    C.check_load cluster ~machine:0 ~words:(MD.peak_instance_load skewed)
  with
  | () -> Alcotest.fail "skewed instance must trip the memory guard"
  | exception C.Memory_exceeded { used; capacity = cap; _ } ->
      check "used is the peak instance" 3700 used;
      check "capacity" capacity cap

let () =
  Alcotest.run "wm_fault"
    [
      ("spec", [ Alcotest.test_case "parse/round-trip/errors" `Quick
                   test_spec_parse ]);
      ( "recovery",
        [
          Alcotest.test_case "crash-heavy mpc keeps the weight" `Quick
            test_mpc_crash_recovery_same_weight;
          Alcotest.test_case "budget exhaustion raises" `Quick
            test_budget_exhaustion;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "zero-rate specs change nothing" `Quick
            test_zero_rate_equivalence;
          Alcotest.test_case "fault pattern jobs=1 vs 4" `Slow
            test_jobs_invariance_under_faults;
          Alcotest.test_case "stream tamper deterministic" `Quick
            test_stream_tamper_determinism;
        ] );
      ( "integration",
        [
          Alcotest.test_case "memory billed at peak instance" `Quick
            test_peak_load_not_average;
        ] );
    ]
