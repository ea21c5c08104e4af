(* Tests for the wm_par domain pool and the guarantees the rest of the
   codebase builds on it:

   - [Pool.map] / [Pool.parallel_map_array] return results in input
     order and agree with their sequential counterparts;
   - nested pool calls degrade to sequential instead of deadlocking;
   - a raising task poisons only its call and leaves the pool usable;
   - the CSR [Weighted_graph] is safe to read from many domains at once,
     including the first neighbour query that builds its index;
   - [Main_alg.solve] is byte-identical at jobs=1 and jobs=4 on the
     T1/T3/F6-style workloads.                                          *)

module Pool = Wm_par.Pool
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module B = Wm_graph.Bipartition
module Gen = Wm_graph.Gen
module E = Wm_graph.Edge

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.destroy pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Pool semantics *)

let test_map_matches_sequential () =
  with_pool ~domains:4 (fun pool ->
      let xs = List.init 1_000 (fun i -> i) in
      let f x = (x * x) - (3 * x) in
      check_bool "map agrees with List.map in order" true
        (Pool.map pool f xs = List.map f xs);
      check_bool "empty list" true (Pool.map pool f [] = []);
      check_bool "singleton" true (Pool.map pool f [ 41 ] = [ f 41 ]);
      let arr = Array.init 257 (fun i -> i * 7) in
      check_bool "array agrees with Array.map" true
        (Pool.parallel_map_array pool f arr = Array.map f arr))

let test_size_and_inline_pool () =
  with_pool ~domains:4 (fun pool -> check "size 4" 4 (Pool.size pool));
  with_pool ~domains:1 (fun pool ->
      check "size clamps to 1" 1 (Pool.size pool);
      check_bool "inline pool still maps" true
        (Pool.map pool succ [ 1; 2; 3 ] = [ 2; 3; 4 ]))

let test_nested_map_falls_back () =
  with_pool ~domains:4 (fun pool ->
      check_bool "not inside a task at top level" false (Pool.inside_task ());
      (* Tasks only report what they saw: Alcotest's formatter is not
         domain-safe, so every assertion runs here on the caller. *)
      let rows =
        Pool.map pool
          (fun i ->
            (* A nested call from inside a task must run inline. *)
            let inner = Pool.map pool (fun j -> (i * 10) + j) [ 0; 1; 2 ] in
            (Pool.inside_task (), inner))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      check_bool "inside_task inside every task" true
        (List.for_all fst rows);
      let want = List.init 8 (fun k ->
          let i = k + 1 in
          [ (i * 10); (i * 10) + 1; (i * 10) + 2 ])
      in
      check_bool "nested results correct and ordered" true
        (List.map snd rows = want))

exception Boom of int

let test_exception_poisons_call_only () =
  with_pool ~domains:4 (fun pool ->
      (match
         Pool.map pool
           (fun x -> if x = 37 then raise (Boom x) else x)
           (List.init 100 (fun i -> i))
       with
      | _ -> Alcotest.fail "raising task should poison the call"
      | exception Boom 37 -> ()
      | exception Boom _ -> Alcotest.fail "wrong task's exception");
      (* The pool survives a poisoned call. *)
      check_bool "pool reusable after exception" true
        (Pool.map pool succ [ 10; 20 ] = [ 11; 21 ]))

(* A worker raising a domain-specific exception (the MPC memory guard)
   mid-fan-out must propagate that exact exception — payload intact, no
   deadlock — and leave the default pool reusable. *)
let test_memory_exceeded_poisons_call_only () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 4;
      let pool = Pool.default () in
      (match
         Pool.parallel_map_array pool
           (fun x ->
             if x = 61 then
               raise
                 (Wm_mpc.Cluster.Memory_exceeded
                    { machine = 3; used = 9999; capacity = 1024 })
             else x * 2)
           (Array.init 200 (fun i -> i))
       with
      | _ -> Alcotest.fail "overloaded worker should poison the call"
      | exception Wm_mpc.Cluster.Memory_exceeded { machine; used; capacity } ->
          check "machine" 3 machine;
          check "used" 9999 used;
          check "capacity" 1024 capacity);
      check_bool "default pool reusable after Memory_exceeded" true
        (Pool.map pool succ [ 10; 20 ] = [ 11; 21 ]))

let test_default_pool_resize () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 3;
      check "configured jobs" 3 (Pool.default_jobs ());
      check "default pool size" 3 (Pool.size (Pool.default ()));
      check_bool "default pool maps" true
        (Pool.map (Pool.default ()) succ [ 5; 6 ] = [ 6; 7 ]);
      Pool.set_default_jobs 1;
      check "resized down" 1 (Pool.size (Pool.default ())))

(* ------------------------------------------------------------------ *)
(* CSR graph: concurrent readers of an indexed graph, then of a fresh
   one whose index the readers build. *)

let graph_checksum g =
  let acc = ref 0 in
  for v = 0 to G.n g - 1 do
    acc := !acc + (G.degree g v * (v + 1));
    G.iter_neighbors g v (fun u e -> acc := !acc + u + E.weight e);
    List.iter
      (fun (u, e) ->
        match G.find_edge g v u with
        | Some e' -> if E.weight e' <> E.weight e then acc := !acc - 1_000_000
        | None -> acc := !acc - 1_000_000)
      (G.neighbors g v)
  done;
  !acc

let test_concurrent_graph_reads () =
  let rng = P.create 99 in
  let g = Gen.gnp rng ~n:150 ~p:0.08 ~weights:(Gen.Uniform (1, 50)) in
  let reference = graph_checksum g in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 25 do
              if graph_checksum g <> reference then ok := false
            done;
            !ok))
  in
  List.iter
    (fun d -> check_bool "domain saw a consistent graph" true (Domain.join d))
    workers

(* Every vertex's degree and neighbour slice, as one query kind sees it. *)
let adjacency g first =
  let slice v = List.map (fun (u, e) -> (u, E.weight e)) (G.neighbors g v) in
  (* Each domain opens with a different query, so all of them race to
     build the index. *)
  (match first with
  | 0 -> G.iter_neighbors g 0 (fun _ _ -> ())
  | 1 -> ignore (G.degree g 0)
  | 2 -> ignore (G.neighbors g 0)
  | _ -> ignore (G.fold_neighbors g 0 (fun k _ _ -> k + 1) 0));
  Array.init (G.n g) (fun v ->
      let folded =
        G.fold_neighbors g v (fun acc u e -> (u, E.weight e) :: acc) []
      in
      (G.degree g v, slice v, List.rev folded))

(* A canonical graph leaves its index to the first neighbour query.  Four
   domains make that query on the same fresh graph at once (released
   together by a spin barrier), and each must see exactly the adjacency
   a sequential copy has. *)
let test_concurrent_first_query () =
  for seed = 1 to 50 do
    let g0 =
      Gen.gnp (P.create seed) ~n:200 ~p:0.05 ~weights:(Gen.Uniform (1, 50))
    in
    (* [patch] with an empty delta returns a fresh canonical copy. *)
    let reference = adjacency (G.patch g0 ()) 0 in
    let g = G.patch g0 () in
    let ready = Atomic.make 0 in
    let workers =
      List.init 4 (fun d ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < 4 do
                Domain.cpu_relax ()
              done;
              adjacency g d))
    in
    List.iteri
      (fun d w ->
        check_bool
          (Printf.sprintf "seed %d: domain %d saw the sequential adjacency"
             seed d)
          true
          (Domain.join w = reference))
      workers
  done

(* ------------------------------------------------------------------ *)
(* Determinism: solve at jobs=1 and jobs=4 must agree exactly. *)

let t1_workload seed =
  let n = 80 in
  let rng = P.create (seed + 1) in
  Gen.random_bipartite rng ~left:(n / 2) ~right:(n / 2)
    ~p:(16.0 /. float_of_int n)
    ~weights:(Gen.Uniform (1, 50))

let t3_workload seed =
  let rng = P.create (seed + 2) in
  Gen.gnp rng ~n:80 ~p:0.1 ~weights:(Gen.Uniform (1, 50))

let f6_workload seed =
  let n = 100 in
  let rng = P.create (seed + 21) in
  Gen.random_bipartite rng ~left:(n / 2) ~right:(n / 2)
    ~p:(16.0 /. float_of_int n)
    ~weights:(Gen.Uniform (1, 50))

let solve_trace params seed g =
  let m, stats = Wm_core.Main_alg.solve ~patience:2 params (P.create seed) g in
  let gains =
    List.map (fun r -> r.Wm_core.Main_alg.gain) stats.Wm_core.Main_alg.rounds
  in
  (m, gains)

let check_deterministic name make_graph =
  let params = Wm_core.Params.practical ~epsilon:0.15 () in
  let seed = 4242 in
  let g = make_graph seed in
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 1;
      let m1, gains1 = solve_trace params seed g in
      Pool.set_default_jobs 4;
      let m4, gains4 = solve_trace params seed g in
      check_bool (name ^ ": matchings identical") true (M.equal m1 m4);
      check (name ^ ": same weight") (M.weight m1) (M.weight m4);
      check_bool (name ^ ": same per-round gains") true (gains1 = gains4))

let test_determinism_t1 () = check_deterministic "T1" t1_workload
let test_determinism_t3 () = check_deterministic "T3" t3_workload
let test_determinism_f6 () = check_deterministic "F6" f6_workload

(* Per-seed experiment sweeps go through the same pool; a quick sanity
   check that parallel seed mapping preserves order. *)
let test_seed_sweep_order () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 4;
      let seeds = List.init 12 (fun i -> 100 + i) in
      let f s =
        let g = t3_workload s in
        M.weight (fst (solve_trace (Wm_core.Params.practical ~epsilon:0.2 ()) s g))
      in
      let par = Pool.map (Pool.default ()) f seeds in
      Pool.set_default_jobs 1;
      let seq = List.map f seeds in
      check_bool "per-seed results order-stable" true (par = seq))

(* The observability snapshot must be a pure function of the work, not
   of the domain layout: counters and value histograms recorded through
   Obs.default during a Main_alg solve are byte-identical at jobs=1 and
   jobs=4 (atomic buckets commute; root-path spans pin attribution).
   Timers are excluded — they hold wall-clock data. *)
let test_obs_snapshot_jobs_invariant () =
  let module Obs = Wm_obs.Obs in
  let module J = Wm_obs.Json in
  let params = Wm_core.Params.practical ~epsilon:0.15 () in
  let seed = 7777 in
  let g = t3_workload seed in
  let snapshot jobs =
    Pool.set_default_jobs jobs;
    Obs.reset Obs.default;
    ignore (Wm_core.Main_alg.solve ~patience:2 params (P.create seed) g);
    let json = Obs.to_json Obs.default in
    let section k =
      match J.member k json with
      | Some j -> J.to_string j
      | None -> Alcotest.fail ("snapshot lacks " ^ k)
    in
    (section "counters", section "histograms")
  in
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default_jobs saved;
      Obs.reset Obs.default)
    (fun () ->
      let c1, h1 = snapshot 1 in
      let c4, h4 = snapshot 4 in
      Alcotest.(check string) "counters jobs=1 vs 4" c1 c4;
      Alcotest.(check string) "histograms jobs=1 vs 4" h1 h4;
      check_bool "histograms non-trivial" true (h1 <> "{}"))

(* Every timer path and its span count after one [Main_alg.solve] of
   [g] at [jobs] worker domains, from a freshly reset registry. *)
let solve_timer_paths ~jobs params seed g =
  let module Obs = Wm_obs.Obs in
  let module J = Wm_obs.Json in
  Pool.set_default_jobs jobs;
  Obs.reset Obs.default;
  ignore (Wm_core.Main_alg.solve ~patience:2 params (P.create seed) g);
  match J.member "timers" (Obs.to_json Obs.default) with
  | Some (J.Obj fields) ->
      List.filter_map
        (fun (path, v) ->
          match J.member "count" v with
          | Some (J.Int c) -> Some (path, c)
          | _ -> None)
        fields
  | _ -> Alcotest.fail "no timers in snapshot"

let with_default_jobs_restored f =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default_jobs saved;
      Wm_obs.Obs.reset Wm_obs.Obs.default)
    f

(* Span durations recorded from pool workers land in the same timer
   paths as at jobs=1: per-scale round spans and their per-class
   [/pairs] and [/eval] spans are opened with with_span_root, so the
   path set (though not the durations) is jobs-invariant. *)
let test_span_paths_jobs_invariant () =
  let params = Wm_core.Params.practical ~epsilon:0.15 () in
  let seed = 8888 in
  let g = t1_workload seed in
  with_default_jobs_restored (fun () ->
      let p1 = solve_timer_paths ~jobs:1 params seed g in
      let p4 = solve_timer_paths ~jobs:4 params seed g in
      check_bool "same span paths and counts" true (p1 = p4);
      check_bool "per-scale spans attributed" true
        (List.exists
           (fun (path, _) ->
             String.length path >= 20
             && String.sub path 0 20 = "core.main_alg.round/")
           p1))

(* The timer table stays bounded: no span is keyed on a tau pair, and
   each [round/scale=S] span has only the [/pairs] and [/eval]
   children, so the timer count grows with the scales, not with the
   distinct pairs a solve happens to try. *)
let test_timer_paths_bounded () =
  let params = Wm_core.Params.practical ~epsilon:0.15 () in
  let seed = 8888 in
  let g = t1_workload seed in
  let prefix = "core.main_alg.round/scale=" in
  let lp = String.length prefix in
  with_default_jobs_restored (fun () ->
      let paths = List.map fst (solve_timer_paths ~jobs:1 params seed g) in
      let contains sub s =
        let ls = String.length sub in
        let rec go i =
          i + ls <= String.length s && (String.sub s i ls = sub || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun path ->
          check_bool (path ^ " names no pair") false (contains "pair=" path))
        paths;
      let scale_paths =
        List.filter
          (fun p -> String.length p > lp && String.sub p 0 lp = prefix)
          paths
      in
      let scales =
        List.filter (fun p -> not (String.contains_from p lp '/')) scale_paths
      in
      check_bool "per-scale spans recorded" true (scales <> []);
      List.iter
        (fun path ->
          let i = String.index_from path lp '/' in
          let scale = String.sub path 0 i in
          let child = String.sub path i (String.length path - i) in
          check_bool (path ^ " is a per-scale span's child") true
            (List.mem scale scales);
          check_bool (path ^ " is /pairs or /eval") true
            (child = "/pairs" || child = "/eval"))
        (List.filter (fun p -> String.contains_from p lp '/') scale_paths))

(* ------------------------------------------------------------------ *)
(* Destroy semantics: the serving layer tears the default pool down on
   shutdown, and the process at_exit hook destroys it again — destroy
   must be idempotent, and using a destroyed pool must fail loudly
   instead of hanging on a dead work queue. *)

let test_destroy_idempotent () =
  let pool = Pool.create ~domains:3 in
  check "configured size" 3 (Pool.size pool);
  (* Repeated destroys join disjoint worker sets: the calls below must
     return (no hang on a dead queue, no double-join crash). *)
  Pool.destroy pool;
  Pool.destroy pool;
  Pool.destroy pool

let test_map_after_destroy_raises () =
  let pool = Pool.create ~domains:2 in
  check_bool "usable before destroy" true
    (Pool.map pool (fun x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ]);
  Pool.destroy pool;
  (match Pool.map pool (fun x -> x + 1) [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "map on a destroyed pool returned"
  | exception Invalid_argument msg ->
      check_bool "one-line diagnostic" true
        (String.length msg > 0 && not (String.contains msg '\n')));
  match Pool.parallel_map_array pool (fun x -> x) [| 1 |] with
  | _ -> Alcotest.fail "parallel_map_array on a destroyed pool returned"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  ignore B.halves;
  Alcotest.run "wm_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "size and inline pool" `Quick
            test_size_and_inline_pool;
          Alcotest.test_case "nested map falls back" `Quick
            test_nested_map_falls_back;
          Alcotest.test_case "Memory_exceeded poisons call only" `Quick
            test_memory_exceeded_poisons_call_only;
          Alcotest.test_case "exception poisons call only" `Quick
            test_exception_poisons_call_only;
          Alcotest.test_case "default pool resize" `Quick
            test_default_pool_resize;
          Alcotest.test_case "destroy idempotent" `Quick
            test_destroy_idempotent;
          Alcotest.test_case "map after destroy raises" `Quick
            test_map_after_destroy_raises;
        ] );
      ( "csr-graph",
        [
          Alcotest.test_case "concurrent readers" `Quick
            test_concurrent_graph_reads;
          Alcotest.test_case "concurrent first neighbour query" `Quick
            test_concurrent_first_query;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "T1 workload jobs=1 vs 4" `Slow
            test_determinism_t1;
          Alcotest.test_case "T3 workload jobs=1 vs 4" `Slow
            test_determinism_t3;
          Alcotest.test_case "F6 workload jobs=1 vs 4" `Slow
            test_determinism_f6;
          Alcotest.test_case "seed sweep order" `Slow test_seed_sweep_order;
          Alcotest.test_case "obs snapshot jobs=1 vs 4" `Slow
            test_obs_snapshot_jobs_invariant;
          Alcotest.test_case "span paths jobs=1 vs 4" `Slow
            test_span_paths_jobs_invariant;
          Alcotest.test_case "timer paths bounded" `Slow
            test_timer_paths_bounded;
        ] );
    ]
