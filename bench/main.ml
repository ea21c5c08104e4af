(* Benchmark harness: regenerates every table and figure of DESIGN.md §4
   (the empirical analogues of the paper's theorems), then runs bechamel
   micro-benchmarks of the hot kernels.  With [--json PATH] the run is
   additionally serialized as a BENCH_v1 report (schema in DESIGN.md §4);
   with [--trace PATH] span begin/end and instant events are recorded and
   written as a Chrome/Perfetto trace_event JSON array.

   Usage:  dune exec bench/main.exe -- [--full] [--only T1,F4]
           [--seed N] [--no-micro] [--json PATH] [--trace PATH]        *)

module P = Wm_graph.Prng
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module Gen = Wm_graph.Gen
module B = Wm_graph.Bipartition
module J = Wm_obs.Json
module Report = Wm_harness.Report

let micro_benchmarks () =
  let open Bechamel in
  let rng = P.create 2024 in
  let bip =
    Gen.random_bipartite rng ~left:200 ~right:200 ~p:0.05
      ~weights:(Gen.Uniform (1, 50))
  in
  let gnp = Gen.gnp rng ~n:300 ~p:0.05 ~weights:(Gen.Uniform (1, 50)) in
  let stream_graph = Gen.gnp rng ~n:400 ~p:0.05 ~weights:(Gen.Uniform (1, 100)) in
  let params = Wm_core.Params.practical ~epsilon:0.2 () in
  let matching = Wm_algos.Greedy.by_weight gnp in
  (* The serve-session window's graph layers, on its canonical graph;
     the served load of its text; and the canonicalisation of a
     file-order graph. *)
  let loaded =
    Gen.power_law_scale (P.create 20191) ~n:10_000 ~attach:8
      ~weights:(Gen.Uniform (1, 100))
  in
  let text = Wm_graph.Graph_io.to_string loaded in
  let session = G.canonical loaded in
  let digest = Wm_graph.Graph_io.digest session in
  let delta = List.init 32 (fun i -> Wm_graph.Edge.make (300 * i) (10_000 + i) 7) in
  (* The layered-build micro's pair and scale, and its L' for the black
     box: 35 edges on 69 vertices, two passes.  At a smaller scale the
     pair keeps no edge. *)
  let tp = Wm_core.Params.tau_params params in
  let pair = { Wm_core.Tau.a = [| 0; 4; 0 |]; b = [| 3; 3 |] } in
  let layered_gp () =
    Wm_core.Layered.parametrize (P.create 17)
      (Wm_core.Layered.view gnp matching)
  in
  let lay = Wm_core.Layered.build tp (layered_gp ()) pair ~scale:512.0 in
  let layer name f =
    Test.make ~name:(name ^ "(n=10^4)") (Staged.stage (fun () -> ignore (f ())))
  in
  let tests =
    [
      Test.make ~name:"T1:random-arrival(n=400)"
        (Staged.stage (fun () ->
             let s =
               Wm_stream.Edge_stream.of_graph
                 ~order:(Wm_stream.Edge_stream.Random (P.create 7))
                 stream_graph
             in
             ignore (Wm_core.Random_arrival.solve ~rng:(P.create 11) s)));
      Test.make ~name:"T2:unweighted-0.506(n=400)"
        (Staged.stage (fun () ->
             let s =
               Wm_stream.Edge_stream.of_graph
                 ~order:(Wm_stream.Edge_stream.Random (P.create 7))
                 stream_graph
             in
             ignore (Wm_algos.Unweighted_random_arrival.solve s)));
      Test.make ~name:"T3/T4:improve-once(n=300)"
        (Staged.stage (fun () ->
             let m = M.copy matching in
             ignore (Wm_core.Main_alg.improve_once params (P.create 13) gnp m)));
      Test.make ~name:"T5:unw3aug-feed(n=300)"
        (Staged.stage (fun () ->
             let t =
               Wm_algos.Unw3aug.create ~n:(G.n gnp) ~mid:matching ~beta:0.5 ()
             in
             G.iter_edges
               (fun e ->
                 if not (M.mem matching e) then Wm_algos.Unw3aug.feed t e)
               gnp;
             ignore (Wm_algos.Unw3aug.finalize t)));
      Test.make ~name:"substrate:hopcroft-karp(n=400)"
        (Staged.stage (fun () ->
             ignore (Wm_exact.Hopcroft_karp.solve bip ~left:(B.halves 200))));
      Test.make ~name:"substrate:hungarian(n=400)"
        (Staged.stage (fun () ->
             ignore (Wm_exact.Hungarian.solve bip ~left:(B.halves 200))));
      Test.make ~name:"substrate:blossom(n=300)"
        (Staged.stage (fun () -> ignore (Wm_exact.Blossom.solve gnp)));
      Test.make ~name:"substrate:local-ratio(n=400)"
        (Staged.stage (fun () ->
             let s = Wm_stream.Edge_stream.of_graph stream_graph in
             ignore (Wm_algos.Local_ratio.solve s)));
      Test.make ~name:"substrate:weighted-blossom(n=300)"
        (Staged.stage (fun () ->
             ignore (Wm_exact.Weighted_blossom.solve gnp)));
      Test.make ~name:"substrate:streaming-bip(n=400)"
        (Staged.stage (fun () ->
             ignore
               (Wm_algos.Streaming_bipartite.solve ~left:(B.halves 200)
                  ~delta:0.1
                  ~mate:(Array.make (G.n bip) (-1))
                  ~weight:(Array.make (G.n bip) 0)
                  (fun f ->
                    G.iter_edges
                      (fun e -> f e.Wm_graph.Edge.u e.v e.w)
                      bip))));
      Test.make ~name:"substrate:layered-build(n=300)"
        (Staged.stage (fun () ->
             ignore (Wm_core.Layered.build tp (layered_gp ()) pair ~scale:512.0)));
      Test.make ~name:"substrate:black-box(n=300)"
        (Staged.stage (fun () ->
             ignore (Wm_core.Layered.black_box ~delta:params.Wm_core.Params.delta lay)));
      layer "serve:load" (fun () -> Wm_graph.Graph_io.canonical_of_string text);
      layer "serve:canonical" (fun () -> G.canonical loaded);
      layer "serve:greedy-by-weight" (fun () -> Wm_algos.Greedy.by_weight session);
      layer "serve:digest" (fun () -> Wm_graph.Graph_io.digest session);
      layer "serve:patch" (fun () -> G.patch session ~add_vertices:32 ~add:delta ());
      layer "serve:to-binary" (fun () ->
          Wm_graph.Graph_io.to_binary ~digest session);
    ]
  in
  Printf.printf "\n=== micro-benchmarks (bechamel; monotonic clock) ===\n%!";
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "%-36s %12.0f ns/run\n%!" name est;
              estimates := (name, est) :: !estimates
          | Some _ | None -> Printf.printf "%-36s (no estimate)\n%!" name)
        results)
    tests;
  List.rev !estimates

let write_report ~path ~quick ~seed ~jobs ~trace_path ~sections ~micro ~gc =
  (* Solve-mode reports must carry a "gc" ledger section even when no
     improvement round ran (T1's random-arrival solves never enter
     Main_alg): the run total is itself a row. *)
  Wm_obs.Ledger.record ~label:"total" Wm_obs.Ledger.default ~section:"gc"
    (List.filter
       (fun (k, _) -> k <> "compactions")
       (Wm_obs.Gcstat.fields gc));
  Wm_fault.Bench_v1.write path
    (Wm_fault.Bench_v1.report
       ~mode:(if quick then "quick" else "full")
       ~seed ~jobs ~gc ~trace_path
       ~experiments:(List.map Report.to_json sections)
       ~micro ());
  Printf.printf "\nwrote %s\n%!" path

let () =
  let full = ref false in
  let only = ref "" in
  let seed = ref 42 in
  let micro = ref true in
  let json_path = ref "" in
  let trace_path = ref "" in
  let jobs = ref 0 in
  let faults = ref "" in
  let scale = ref false in
  let args =
    [
      ("--full", Arg.Set full, "full-size experiments (slower)");
      ( "--scale",
        Arg.Set scale,
        "run the T11 million-edge scale tier at full size (n up to 10^6), \
         regardless of --full/--only" );
      ("--only", Arg.Set_string only, "comma-separated experiment ids");
      ("--seed", Arg.Set_int seed, "base random seed (default 42)");
      ("--no-micro", Arg.Clear micro, "skip bechamel micro-benchmarks");
      ("--json", Arg.Set_string json_path, "write a BENCH_v1 JSON report to PATH");
      ( "--trace",
        Arg.Set_string trace_path,
        "record span/instant events and write a Chrome trace_event JSON \
         array to PATH (loadable in Perfetto)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "worker domains for the parallel substrate (default: \
         recommended_domain_count, capped at 8; results are identical at \
         any setting)" );
      ( "--faults",
        Arg.Set_string faults,
        "fault-injection SPEC (e.g. seed=7,crash=0.05,drop=0.01; default \
         none) applied to every experiment; injections and recoveries land \
         in the report's \"faults\" block" );
    ]
  in
  let usage =
    "bench/main.exe [--full] [--scale] [--only IDS] [--seed N] [--no-micro] \
     [--json PATH] [--trace PATH] [--jobs N] [--faults SPEC]"
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    usage;
  (if !faults <> "" then
     match Wm_fault.Spec.parse !faults with
     | Ok spec -> Wm_fault.Spec.set_default spec
     | Error msg ->
         Printf.eprintf "%s: --faults: %s\n" Sys.argv.(0) msg;
         exit 2);
  let quick = not !full in
  let jobs =
    if !jobs <= 0 then Wm_par.Pool.recommended_jobs () else !jobs
  in
  Wm_par.Pool.set_default_jobs jobs;
  Printf.printf
    "Weighted Matchings via Unweighted Augmentations — experiment harness\n";
  Printf.printf "mode: %s, seed: %d, jobs: %d\n%!"
    (if quick then "quick" else "full")
    !seed jobs;
  (* The report carries the ledger, so only a reporting run keeps its
     rows. *)
  if !json_path <> "" then begin
    Report.start_capture ();
    Wm_obs.Ledger.retain Wm_obs.Ledger.default
  end;
  if !trace_path <> "" then Wm_obs.Trace.set_enabled true;
  (if !scale then
     match Wm_harness.Experiments.find "T11" with
     | Some e -> e.Wm_harness.Experiments.run ~quick:false ~seed:!seed
     | None -> Printf.printf "unknown experiment id: T11\n"
   else if !only = "" then Wm_harness.Experiments.run_all ~quick ~seed:!seed
   else
     String.split_on_char ',' !only
     |> List.iter (fun id ->
            match Wm_harness.Experiments.find (String.trim id) with
            | Some e -> e.Wm_harness.Experiments.run ~quick ~seed:!seed
            | None -> Printf.printf "unknown experiment id: %s\n" id));
  (* Snapshot the GC delta before the micro benches: the report's "gc"
     block accounts the experiment phase only. *)
  let gc = Wm_obs.Gcstat.since_start () in
  let micro_estimates = if !micro then micro_benchmarks () else [] in
  (* Stop tracing before export: export reads the per-domain buffers
     without synchronising with writers. *)
  if !trace_path <> "" then begin
    Wm_obs.Trace.set_enabled false;
    (* Compact, not pretty: traces run to tens of thousands of events. *)
    let oc = open_out !trace_path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (J.to_string (Wm_obs.Trace.export ()));
        output_char oc '\n');
    Printf.printf "\nwrote %s\n%!" !trace_path
  end;
  if !json_path <> "" then
    write_report ~path:!json_path ~quick ~seed:!seed ~jobs
      ~trace_path:!trace_path ~sections:(Report.capture ())
      ~micro:micro_estimates ~gc
