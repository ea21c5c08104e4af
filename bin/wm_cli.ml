(* Command-line interface for the weighted-matching library.

     wm_cli solve --family bip --n 200 --algo main --epsilon 0.1
     wm_cli stats --algo random-arrival --n 300
     wm_cli experiment T1 F4 --full
     wm_cli list                                                     *)

module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module B = Wm_graph.Bipartition
module Gen = Wm_graph.Gen
module ES = Wm_stream.Edge_stream

(* ------------------------------------------------------------------ *)
(* Error discipline: user errors become one-line stderr messages with
   distinct exit codes instead of leaked exceptions/backtraces.
   2 = usage (bad flags / bad --faults spec), 3 = bad input (missing or
   malformed instance file, unrecoverable --wal-dir), 4 = fault budget
   exhausted. *)

let exit_usage = 2
let exit_bad_input = 3
let exit_fault_budget = 4

let guard f =
  try f () with
  | Wm_graph.Graph_io.Parse_error { line; msg } ->
      Printf.eprintf "wm_cli: input line %d: %s\n" line msg;
      exit_bad_input
  | Sys_error msg ->
      Printf.eprintf "wm_cli: %s\n" msg;
      exit_bad_input
  | Invalid_argument msg ->
      Printf.eprintf "wm_cli: invalid input: %s\n" msg;
      exit_bad_input
  | Wm_fault.Injector.Budget_exhausted { site; attempts } ->
      Printf.eprintf "wm_cli: fault budget exhausted at %s after %d attempts\n"
        site attempts;
      exit_fault_budget
  | Wm_serve.Server.Unrecoverable msg ->
      Printf.eprintf "wm_cli: %s\n" msg;
      exit_bad_input
  | Wm_mpc.Cluster.Memory_exceeded { machine; used; capacity } ->
      Printf.eprintf "wm_cli: machine %d exceeded memory (%d > %d words)\n"
        machine used capacity;
      1

(* Parse the [--faults] spec, install it as the process-wide default
   (clusters, streams and drivers created without an explicit spec pick
   it up), and run the guarded command body. *)
let with_faults spec_str k =
  match Wm_fault.Spec.parse spec_str with
  | Error msg ->
      Printf.eprintf "wm_cli: --faults: %s\n" msg;
      exit_usage
  | Ok spec ->
      Wm_fault.Spec.set_default spec;
      guard k

(* ------------------------------------------------------------------ *)
(* Instance construction *)

(* Worker-domain count for the parallel substrate.  0 means "auto"
   (recommended_domain_count, capped).  Results are identical at any
   setting, so this is purely a throughput knob. *)
let set_jobs jobs =
  Wm_par.Pool.set_default_jobs
    (if jobs <= 0 then Wm_par.Pool.recommended_jobs () else jobs)

type family =
  | Bip
  | Gnp
  | Cycles
  | Trap
  | Quintuples
  | Power_law
  | Geometric
  | Bip_skew

let family_conv =
  Cmdliner.Arg.enum
    [ ("bip", Bip); ("gnp", Gnp); ("cycles", Cycles); ("trap", Trap);
      ("quintuples", Quintuples);
      (* Scale-tier families: flat-array generators that stay O(m) ints
         of working set, usable up to n = 10^6 / m = 10^7. *)
      ("power-law", Power_law); ("geometric", Geometric);
      ("bip-skew", Bip_skew) ]

type weights_kind = Wunit | Wuniform | Wgeom

let weights_conv =
  Cmdliner.Arg.enum [ ("unit", Wunit); ("uniform", Wuniform); ("geom", Wgeom) ]

let build_instance ~family ~n ~density ~weights ~seed =
  let rng = P.create seed in
  let w =
    match weights with
    | Wunit -> Gen.Unit_weight
    | Wuniform -> Gen.Uniform (1, 100)
    | Wgeom -> Gen.Geometric_classes 8
  in
  let p = density /. float_of_int n in
  match family with
  | Bip ->
      let g = Gen.random_bipartite rng ~left:(n / 2) ~right:(n / 2) ~p:(2.0 *. p) ~weights:w in
      (g, None)
  | Gnp -> (Gen.gnp rng ~n ~p ~weights:w, None)
  | Cycles ->
      let g, m = Gen.augmenting_cycle_family ~cycles:(n / 4) ~low:3 ~high:4 in
      (g, Some m)
  | Trap -> (Gen.near_half_trap rng ~blocks:(n / 4), None)
  | Quintuples ->
      let g, m = Gen.planted_quintuples rng ~k:(n / 6) ~weights:w in
      (g, Some m)
  | Power_law ->
      (* m = attach * n up to the warm-up; density is an average degree,
         and each edge contributes two endpoint-degrees. *)
      let attach = Stdlib.max 1 (int_of_float (density /. 2.0)) in
      (Gen.power_law_scale rng ~n ~attach ~weights:w, None)
  | Geometric -> (Gen.geometric_scale rng ~n ~avg_degree:density ~weights:w, None)
  | Bip_skew ->
      let edges = int_of_float (density *. float_of_int n /. 2.0) in
      ( Gen.bipartite_skew_scale rng ~left:(n / 2) ~right:(n - (n / 2))
          ~edges ~exponent:1.5 ~weights:w,
        None )

(* ------------------------------------------------------------------ *)
(* Algorithms *)

type algo =
  | Greedy_algo
  | Local_ratio_algo
  | Random_arrival_algo
  | Unweighted_ra_algo
  | Main_algo
  | Streaming_algo
  | Mpc_algo
  | Exact_algo

let algos =
  [
    ("greedy", Greedy_algo);
    ("local-ratio", Local_ratio_algo);
    ("random-arrival", Random_arrival_algo);
    ("unweighted-ra", Unweighted_ra_algo);
    ("main", Main_algo);
    ("streaming", Streaming_algo);
    ("mpc", Mpc_algo);
    ("exact", Exact_algo);
  ]

let algo_conv = Cmdliner.Arg.enum algos

(* The exact reference of a non-bipartite graph is the cubic blossom;
   past a thousand vertices it would dominate the run it grades, so
   such scale-tier instances report no optimum rather than stalling.
   A bipartite graph's sparse solver is fast at any size. *)
let optimum_n_cap = 1024

let optimum g =
  if G.n g > optimum_n_cap && Option.is_none (Wm_graph.Bipartition.two_color g)
  then None
  else Option.map M.weight (Wm_exact.Mwm_general.solve_opt g)

(* Build/load the instance, run one algorithm.  [verbose] guards the
   incidental text output so the [stats] subcommand can emit clean JSON
   on stdout. *)
let execute ~verbose ~family ~n ~density ~weights ~seed ~algo ~epsilon ~input =
  let g, init =
    match input with
    | Some path -> (Wm_graph.Graph_io.read_file path, None)
    | None -> build_instance ~family ~n ~density ~weights ~seed
  in
  if verbose then
    Printf.printf "instance: n=%d m=%d total-weight=%d%s\n" (G.n g) (G.m g)
      (G.total_weight g)
      (match init with
      | Some m -> Printf.sprintf " initial-matching=%d" (M.weight m)
      | None -> "");
  let rng = P.create (seed + 1) in
  let stream () = ES.of_graph ~order:(ES.Random (P.create (seed + 2))) g in
  let result =
    match algo with
    | Greedy_algo -> Wm_algos.Greedy.by_weight g
    | Local_ratio_algo -> Wm_algos.Local_ratio.solve (stream ())
    | Random_arrival_algo -> Wm_core.Random_arrival.solve ~rng (stream ())
    | Unweighted_ra_algo -> Wm_algos.Unweighted_random_arrival.solve (stream ())
    | Main_algo ->
        let params = Wm_core.Params.practical ~epsilon () in
        fst (Wm_core.Main_alg.solve ?init params rng g)
    | Streaming_algo ->
        let params = Wm_core.Params.practical ~epsilon () in
        let s = stream () in
        let r = Wm_core.Model_driver.streaming params rng s in
        if verbose then
          Printf.printf "passes=%d peak-edges=%d rounds=%d\n"
            r.Wm_core.Model_driver.passes r.Wm_core.Model_driver.peak_edges
            r.Wm_core.Model_driver.rounds_run;
        r.Wm_core.Model_driver.matching
    | Mpc_algo ->
        let params = Wm_core.Params.practical ~epsilon () in
        let r =
          Wm_core.Model_driver.(mpc params rng (mpc_cluster g) g)
        in
        if verbose then
          Printf.printf "rounds=%d peak-machine-memory=%d machines=%d\n"
            r.Wm_core.Model_driver.rounds
            r.Wm_core.Model_driver.peak_machine_memory
            r.Wm_core.Model_driver.machines;
        r.Wm_core.Model_driver.matching
    | Exact_algo -> (
        match Wm_exact.Mwm_general.solve_opt g with
        | Some m -> m
        | None ->
            if verbose then
              Printf.printf "no exact solver applies; greedy+swaps lower bound\n";
            Wm_exact.Mwm_general.lower_bound g)
  in
  (g, result)

(* WM_STATS_v1: the per-run JSON report shared by `solve --json` and
   `stats`.  Counter names are documented in DESIGN.md §4. *)
let run_json ~g ~algo ~result =
  let open Wm_obs.Json in
  let opt_fields =
    match optimum g with
    | Some opt when opt > 0 ->
        [
          ("optimum", Int opt);
          ("ratio", Float (float_of_int (M.weight result) /. float_of_int opt));
        ]
    | Some _ | None -> []
  in
  Obj
    ([
       ("schema", Str "WM_STATS_v1");
       ( "instance",
         Obj
           [
             ("n", Int (G.n g));
             ("m", Int (G.m g));
             ("total_weight", Int (G.total_weight g));
             ("digest", Str (Wm_graph.Graph_io.digest g));
           ] );
       ("algo", Str (fst (List.find (fun (_, a) -> a = algo) algos)));
       ( "matching",
         Obj
           [
             ("size", Int (M.size result));
             ("weight", Int (M.weight result));
             ("valid", Bool (M.is_valid_in result g));
           ] );
     ]
    @ opt_fields
    @ [
        ("obs", Wm_obs.Obs.to_json Wm_obs.Obs.default);
        ("faults", Wm_fault.Recovery.report_json ());
      ])

let run_solve family n density weights seed algo epsilon input jobs json faults =
  with_faults faults @@ fun () ->
  set_jobs jobs;
  let g, result =
    execute ~verbose:true ~family ~n ~density ~weights ~seed ~algo ~epsilon
      ~input
  in
  Printf.printf "matching: size=%d weight=%d valid=%b\n" (M.size result)
    (M.weight result)
    (M.is_valid_in result g);
  (match optimum g with
  | Some opt when opt > 0 ->
      Printf.printf "optimum: %d  ratio: %.4f\n" opt
        (float_of_int (M.weight result) /. float_of_int opt)
  | Some _ | None -> ());
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Wm_obs.Json.to_channel oc (run_json ~g ~algo ~result);
          output_char oc '\n');
      Printf.printf "wrote %s\n" path);
  0

(* Flatten the WM_STATS_v1 tree into [key TAB value] rows: objects
   nest with ".", scalar leaves are emitted, lists (histogram buckets,
   experiment tables) are skipped — pipelines that want those should
   consume the JSON form. *)
let rec tsv_rows prefix j acc =
  let open Wm_obs.Json in
  let key k = if prefix = "" then k else prefix ^ "." ^ k in
  match j with
  | Obj fields ->
      List.fold_left (fun acc (k, v) -> tsv_rows (key k) v acc) acc fields
  | Int n -> (prefix, string_of_int n) :: acc
  | Float f -> (prefix, Printf.sprintf "%.6g" f) :: acc
  | Bool b -> (prefix, string_of_bool b) :: acc
  | Str s -> (prefix, s) :: acc
  | Null | List _ -> acc

type stats_format = Fjson | Ftsv

let format_conv = Cmdliner.Arg.enum [ ("json", Fjson); ("tsv", Ftsv) ]

let run_stats family n density weights seed algo epsilon input jobs format faults =
  with_faults faults @@ fun () ->
  set_jobs jobs;
  let g, result =
    execute ~verbose:false ~family ~n ~density ~weights ~seed ~algo ~epsilon
      ~input
  in
  let json = run_json ~g ~algo ~result in
  (match format with
  | Fjson -> print_endline (Wm_obs.Json.to_string_pretty json)
  | Ftsv ->
      List.iter
        (fun (k, v) -> Printf.printf "%s\t%s\n" k v)
        (List.rev (tsv_rows "" json [])));
  0

(* Like [solve], but with the trace sink enabled: spans and instants
   recorded during the run are written as a Chrome/Perfetto
   trace_event JSON array (load via https://ui.perfetto.dev). *)
let run_trace family n density weights seed algo epsilon input jobs out faults =
  with_faults faults @@ fun () ->
  set_jobs jobs;
  Wm_obs.Trace.set_enabled true;
  let g, result =
    execute ~verbose:true ~family ~n ~density ~weights ~seed ~algo ~epsilon
      ~input
  in
  Wm_obs.Trace.set_enabled false;
  Printf.printf "matching: size=%d weight=%d valid=%b\n" (M.size result)
    (M.weight result)
    (M.is_valid_in result g);
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Wm_obs.Json.to_channel oc (Wm_obs.Trace.export ());
      output_char oc '\n');
  (match Wm_obs.Trace.meta () with
  | Wm_obs.Json.Obj fields ->
      let int k =
        match List.assoc_opt k fields with
        | Some (Wm_obs.Json.Int n) -> n
        | _ -> 0
      in
      Printf.printf "wrote %s: %d events (%d dropped) from %d domains\n" out
        (int "events") (int "dropped") (int "domains")
  | _ -> Printf.printf "wrote %s\n" out);
  0

(* ------------------------------------------------------------------ *)
(* Experiment commands *)

let run_experiments ids quick seed jobs faults =
  with_faults faults @@ fun () ->
  set_jobs jobs;
  match ids with
  | [] ->
      Wm_harness.Experiments.run_all ~quick ~seed;
      0
  | ids ->
      List.fold_left
        (fun code id ->
          match Wm_harness.Experiments.find id with
          | Some e ->
              e.Wm_harness.Experiments.run ~quick ~seed;
              code
          | None ->
              Printf.eprintf "wm_cli: unknown experiment id: %s\n" id;
              exit_usage)
        0 ids

(* ------------------------------------------------------------------ *)
(* The serving loop: line-delimited WM_REQ_v1 on stdin, WM_RESP_v1 on
   stdout.  See lib/serve and DESIGN.md §5.3. *)

let parse_kill_shard s =
  match String.index_opt s ':' with
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some k, Some n -> Some (k, n)
      | _ -> None)
  | None -> None

let run_serve jobs queue_depth cache_entries deadline_ms no_warm report faults
    wal_dir snapshot_every crash_after shards kill_shard =
  let kill =
    match kill_shard with
    | None -> None
    | Some s -> (
        match parse_kill_shard s with
        | Some plan -> Some plan
        | None ->
            Printf.eprintf "wm_cli: --kill-shard expects K:N (e.g. 1:2)\n";
            exit exit_usage)
  in
  if shards < 0 then begin
    Printf.eprintf "wm_cli: --shards must be non-negative\n";
    exit_usage
  end
  else if shards > 0 && crash_after <> None then begin
    Printf.eprintf "wm_cli: --crash-after is incompatible with --shards\n";
    exit_usage
  end
  else if
    match kill with
    | None -> false
    | Some (k, n) -> shards = 0 || k < 0 || k >= shards || n < 1
  then begin
    Printf.eprintf
      "wm_cli: --kill-shard needs --shards N with 0 <= K < N and a \
       positive dispatch count\n";
    exit_usage
  end
  else if queue_depth < 1 then begin
    Printf.eprintf "wm_cli: --queue-depth must be at least 1\n";
    exit_usage
  end
  else if cache_entries < 0 then begin
    Printf.eprintf "wm_cli: --cache-entries must be non-negative\n";
    exit_usage
  end
  else if deadline_ms < 0 then begin
    Printf.eprintf "wm_cli: --deadline-ms must be non-negative\n";
    exit_usage
  end
  else if snapshot_every < 0 then begin
    Printf.eprintf "wm_cli: --snapshot-every must be non-negative\n";
    exit_usage
  end
  else if wal_dir = None && (snapshot_every <> 8 || crash_after <> None) then begin
    Printf.eprintf
      "wm_cli: --snapshot-every/--crash-after require --wal-dir\n";
    exit_usage
  end
  else
    with_faults faults @@ fun () ->
    set_jobs jobs;
    (* The --report file carries the ledger; a server that writes none
       keeps no rows, however long it serves. *)
    if report <> None then Wm_obs.Ledger.retain Wm_obs.Ledger.default;
    let config =
      {
        (Wm_serve.Server.default_config ()) with
        queue_depth;
        cache_entries;
        deadline_ms;
        warm_start = not no_warm;
        wal_dir;
        snapshot_every;
        crash_after;
      }
    in
    let report_json =
      if shards = 0 then begin
        let server = Wm_serve.Server.create config in
        Wm_serve.Server.run server stdin stdout;
        Wm_serve.Server.report_json server
      end
      else Wm_shard.Router.serve ~shards ?kill ~config stdin stdout
    in
    Option.iter (fun path -> Wm_fault.Bench_v1.write path report_json) report;
    0

(* Restore from a durability directory without serving: print a
   WM_RECOVER_v1 summary of what a restart would resume from. *)
let run_recover wal_dir jobs faults =
  with_faults faults @@ fun () ->
  set_jobs jobs;
  let config =
    { (Wm_serve.Server.default_config ()) with wal_dir = Some wal_dir }
  in
  let server = Wm_serve.Server.create config in
  let r =
    match Wm_serve.Server.recovery server with
    | Some r -> r
    | None -> assert false
  in
  let sessions =
    List.map
      (fun (digest, n, m) ->
        Wm_obs.Json.Obj
          [
            ("digest", Wm_obs.Json.Str digest);
            ("n", Wm_obs.Json.Int n);
            ("m", Wm_obs.Json.Int m);
          ])
      (Wm_serve.Server.sessions server)
  in
  let json =
    Wm_obs.Json.Obj
      [
        ("schema", Wm_obs.Json.Str "WM_RECOVER_v1");
        ("replayed", Wm_obs.Json.Int r.Wm_serve.Server.replayed);
        ( "truncated_bytes",
          Wm_obs.Json.Int r.Wm_serve.Server.truncated_bytes );
        ( "snapshots_restored",
          Wm_obs.Json.Int r.Wm_serve.Server.snapshots_restored );
        ("restore_ms", Wm_obs.Json.Int r.Wm_serve.Server.restore_ms);
        ("sessions", Wm_obs.Json.List sessions);
        ("stopped", Wm_obs.Json.Bool (Wm_serve.Server.stopped server));
      ]
  in
  print_endline (Wm_obs.Json.to_string json);
  0

let run_list () =
  List.iter
    (fun (e : Wm_harness.Experiments.experiment) ->
      Printf.printf "%-4s %-40s (%s)\n" e.Wm_harness.Experiments.id
        e.Wm_harness.Experiments.title e.Wm_harness.Experiments.claim)
    Wm_harness.Experiments.all;
  0

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

open Cmdliner

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let family_t =
  Arg.(value & opt family_conv Bip & info [ "family" ] ~doc:"Instance family: $(docv).")

let n_t = Arg.(value & opt int 200 & info [ "n"; "size" ] ~doc:"Vertex count.")

let density_t =
  Arg.(value & opt float 16.0 & info [ "density" ] ~doc:"Average degree.")

let weights_t =
  Arg.(value & opt weights_conv Wuniform & info [ "weights" ] ~doc:"Weight distribution.")

let algo_t =
  Arg.(value & opt algo_conv Main_algo & info [ "algo" ] ~doc:"Algorithm.")

let eps_t =
  Arg.(value & opt float 0.1 & info [ "epsilon" ] ~doc:"Target slack for (1-eps) algorithms.")

let jobs_t =
  Arg.(
    value
    & opt int 0
    & info [ "jobs" ]
        ~doc:
          "Worker domains for the parallel substrate (0 = auto: \
           recommended_domain_count, capped at 8).  Results are identical \
           at any setting.")

let input_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "input" ] ~docv:"FILE" ~doc:"Read the instance from a DIMACS-style file instead of generating one.")

let faults_t =
  Arg.(
    value
    & opt string "none"
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault plan, e.g. \
           $(b,seed=7,crash=0.05,straggle=0.02,drop=0.001,mem=0.05,attempts=6). \
           Rates are per-event probabilities; crashed rounds are retried \
           from checkpoints with the backoff billed to the model's \
           round/pass meters.  $(b,none) (the default) disables \
           injection.")

let solve_cmd =
  let json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write a WM_STATS_v1 JSON report (result + obs counters) to $(docv).")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Generate (or load) an instance and run one algorithm")
    Term.(
      const run_solve $ family_t $ n_t $ density_t $ weights_t $ seed_t
      $ algo_t $ eps_t $ input_t $ jobs_t $ json_t $ faults_t)

let stats_cmd =
  let format_t =
    Arg.(
      value
      & opt format_conv Fjson
      & info [ "format" ]
          ~doc:
            "Output format: $(b,json) (the WM_STATS_v1 report) or $(b,tsv) \
             (flat key/value rows over the same data — counters, gauges, \
             timer and histogram percentiles — for shell pipelines).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run one algorithm and print only the WM_STATS_v1 report \
             (result, approximation ratio, obs counters) on stdout")
    Term.(
      const run_stats $ family_t $ n_t $ density_t $ weights_t $ seed_t
      $ algo_t $ eps_t $ input_t $ jobs_t $ format_t $ faults_t)

let trace_cmd =
  let out_t =
    Arg.(
      value
      & opt string "wm_trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Trace output file (Chrome trace_event JSON array).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one algorithm with span tracing enabled and write a \
             Chrome/Perfetto trace_event file (open in ui.perfetto.dev or \
             chrome://tracing)")
    Term.(
      const run_trace $ family_t $ n_t $ density_t $ weights_t $ seed_t
      $ algo_t $ eps_t $ input_t $ jobs_t $ out_t $ faults_t)

let experiment_cmd =
  let ids_t =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let full_t =
    Arg.(value & flag & info [ "full" ] ~doc:"Full-size experiments (slower).")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper's tables and figures")
    Term.(
      const (fun ids full seed jobs faults ->
          run_experiments ids (not full) seed jobs faults)
      $ ids_t $ full_t $ seed_t $ jobs_t $ faults_t)

let gen_cmd =
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run family n density weights seed out =
    guard @@ fun () ->
    let g, _ = build_instance ~family ~n ~density ~weights ~seed in
    Wm_graph.Graph_io.write_file out g;
    Printf.printf "wrote %s: n=%d m=%d total-weight=%d\n" out (G.n g) (G.m g)
      (G.total_weight g);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate an instance and write it to a file")
    Term.(const run $ family_t $ n_t $ density_t $ weights_t $ seed_t $ out_t)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List available experiments")
    Term.(const run_list $ const ())

let serve_cmd =
  let queue_depth_t =
    Arg.(
      value
      & opt int 16
      & info [ "queue-depth" ]
          ~doc:
            "Max solves admitted per batch; further solve requests are \
             answered $(b,overloaded) until the next batch boundary.")
  in
  let cache_entries_t =
    Arg.(
      value
      & opt int 64
      & info [ "cache-entries" ]
          ~doc:"LRU result-cache capacity (0 disables the cache).")
  in
  let deadline_ms_t =
    Arg.(
      value
      & opt int 0
      & info [ "deadline-ms" ]
          ~doc:
            "Default per-solve wall-clock deadline in milliseconds, \
             enforced cooperatively at improvement-round boundaries \
             (0 disables; requests may override with their own \
             $(b,deadline_ms) field).")
  in
  let no_warm_t =
    Arg.(
      value & flag
      & info [ "no-warm" ]
          ~doc:
            "Disable warm-started incremental re-solves: every solve \
             starts from the empty matching even after session \
             mutations (the cold baseline of experiment T10).")
  in
  let report_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"PATH"
          ~doc:
            "After the session ends, write a BENCH_v1 report (mode \
             $(b,serve)) with the serve.* counters, latency histograms \
             and request ledger to $(docv).")
  in
  let wal_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:
            "Durability directory.  Every state-mutating request line is \
             appended to a CRC-checked, fsynced write-ahead log before \
             its responses are emitted, and sessions are snapshotted \
             periodically; starting with the same $(docv) restores the \
             previous incarnation byte-identically and resumes.")
  in
  let snapshot_every_t =
    Arg.(
      value
      & opt int 8
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "With $(b,--wal-dir): write session snapshots every $(docv) \
             WAL records (0 = only on shutdown/drain/EOF).")
  in
  let crash_after_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after" ] ~docv:"N"
          ~doc:
            "Testing hook for the crash-recovery fixtures: SIGKILL the \
             process immediately after emitting the responses of the \
             $(docv)-th input line.")
  in
  let shards_t =
    Arg.(
      value
      & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Fork $(docv) worker processes, each a full matching server, \
             and route sessions to them by consistent hashing on the \
             content digest.  The fronting router keeps the whole \
             client-visible control plane (admission, chaos, result \
             cache), so responses are byte-identical to $(b,--shards) 0 \
             (the default single-process path); with $(b,--wal-dir) each \
             worker gets its own durability directory and a killed \
             worker is respawned and recovered transparently.")
  in
  let kill_shard_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "kill-shard" ] ~docv:"K:N"
          ~doc:
            "Testing hook for the shard-recovery fixtures: SIGKILL \
             worker $(b,K) right after its $(b,N)-th dispatch group is \
             sent, before its responses are read.  Requires \
             $(b,--shards).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batched matching service: line-delimited WM_REQ_v1 \
          JSON requests on stdin (load/solve/add_edges/remove_edges/\
          add_vertices/stats/evict/shutdown), one WM_RESP_v1 JSON \
          response per line on stdout.  Solves batch up to the next \
          non-solve request (or blank line) and fan out across the \
          worker pool; mutation verbs patch a loaded session in place \
          and re-key it under its new content digest, and later solves \
          warm-start from the session's last matching; responses are \
          byte-identical at any $(b,--jobs).")
    Term.(
      const run_serve $ jobs_t $ queue_depth_t $ cache_entries_t
      $ deadline_ms_t $ no_warm_t $ report_t $ faults_t $ wal_dir_t
      $ snapshot_every_t $ crash_after_t $ shards_t $ kill_shard_t)

let recover_cmd =
  let wal_dir_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:"The durability directory to restore from.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Restore a serve session from its durability directory without \
          serving: install the compacted log's sessions from their \
          snapshots, replay the write-ahead log records past it \
          (truncating any torn tail), and print a \
          WM_RECOVER_v1 JSON summary — replayed records, truncated \
          bytes, snapshots restored, restore time, and the recovered \
          sessions.")
    Term.(const run_recover $ wal_dir_t $ jobs_t $ faults_t)

let version_string = "wm_cli 1.0.0"

let version_cmd =
  Cmd.v
    (Cmd.info "version" ~doc:"Print the version line and exit")
    Term.(
      const (fun () ->
          print_endline version_string;
          0)
      $ const ())

let help_cmd =
  Cmd.v
    (Cmd.info "help" ~doc:"Show a one-screen overview of the subcommands")
    Term.(
      const (fun () ->
          print_endline
            "wm_cli — weighted matchings via unweighted augmentations (PODC \
             2019)";
          print_endline "";
          List.iter print_endline
            [
              "  solve       generate (or load) an instance and run one \
               algorithm";
              "  stats       run one algorithm, print the WM_STATS_v1 report";
              "  trace       run with span tracing, write a Perfetto trace";
              "  gen         generate an instance file";
              "  experiment  regenerate the paper's tables and figures";
              "  list        list available experiments";
              "  serve       run the batched matching service on stdin/stdout";
              "  recover     restore a serve session from its durability \
               directory";
              "  version     print the version line";
            ];
          print_endline "";
          print_endline "Run 'wm_cli SUBCOMMAND --help' for details.";
          0)
      $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "wm_cli" ~version:version_string
       ~doc:"Weighted matchings via unweighted augmentations (PODC 2019)")
    [
      solve_cmd; stats_cmd; trace_cmd; gen_cmd; experiment_cmd; list_cmd;
      serve_cmd; recover_cmd; version_cmd; help_cmd;
    ]

(* Cmdliner reports its own parse errors (unknown flags, bad enum
   values) with exit 124; fold those into the usage-error code so
   callers see one consistent contract. *)
let () = exit (match Cmd.eval' main_cmd with 124 -> exit_usage | code -> code)
