(* The repository benchmark.  Run through perfbench/run.py, which builds
   this executable and wm_cli from source and passes their locations:

     wmbench --workload W --seed N --seconds S --trace 0|1
             --cli PATH/wm_cli.exe --work DIR

   Prints one diagnostics line, then, as the last line, the result
   object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1
   its per-layer ones.  Metric names and units are read from
   BENCHMARK.json, so the table there is the only list of them. *)

module J = Wm_obs.Json
module U = Util

let die = U.die

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | k :: _ -> die "unexpected argument %s" k
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> die "missing --%s" k

let int_arg k =
  match int_of_string_opt (arg k) with Some i -> i | None -> die "--%s expects an integer" k

(* (name, unit) of each metric in one BENCHMARK.json list. *)
let metric_table key =
  let doc =
    match J.of_string (U.read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> die "BENCHMARK.json: %s" e
    | exception Sys_error e -> die "%s" e
  in
  match J.member key doc with
  | Some (J.List ms) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.Str n), Some (J.Str u) -> (n, u)
          | _ -> die "BENCHMARK.json: malformed %s entry" key)
        ms
  | _ -> die "BENCHMARK.json: no %s list" key

(* The per-layer metrics each workload must report.  A traced run that
   lacks one stops without a result; any other per-layer metric is of a
   layer the workload does not reach, and reads 0. *)
let must_report = function
  | "main-stream" ->
      [
        "edge_stream.arrange_ms"; "edge_stream.passes_per_op"; "greedy.by_weight_ms";
        "gc.minor_words_per_op"; "gc.major_words_per_op";
        "model_driver.streaming_ms"; "main_alg.round_ms"; "main_alg.scales_ms";
        "main_alg.select_ms"; "main_alg.rounds_per_op"; "layered.builds_per_op";
        "layered.edges_per_op"; "main_alg.augmentations_per_op";
        "random_arrival.run_ms"; "random_arrival.prefix_ms"; "random_arrival.suffix_ms";
        "random_arrival.finalize_ms"; "random_arrival.m1_exact_ms"; "random_arrival.t_edges";
        "trace.overhead_frac"; "layer.unattributed_frac";
      ]
  | "serve-session" ->
      [
        "server.load_ms"; "server.mutate_ms"; "server.solve_miss_ms"; "server.solve_hit_ms";
        "graph_io.digest_ms"; "weighted_graph.patch_ms"; "greedy.by_weight_ms";
        "graph_io.to_binary_ms"; "snapshot.write_ms"; "protocol.parse_us"; "json.render_us";
        "snapshot.writes_per_op"; "wal.records_per_op"; "wal.bytes_per_op"; "cache.hit_ratio";
        "serve.pipe_ms"; "router.overhead_ms"; "transport.bytes_per_op";
        "transport.messages_per_op"; "router.migrations_per_op";
        "trace.overhead_frac"; "layer.unattributed_frac";
      ]
  | w -> die "unknown workload %s" w

let () =
  let workload = arg "workload" in
  let seed = int_arg "seed" and seconds = int_arg "seconds" in
  let trace = int_arg "trace" = 1 in
  let cli = arg "cli" and work = Filename.concat (arg "work") workload in
  let table = metric_table (if trace then "per_layer" else "end_to_end") in
  if seconds < 1 then die "--seconds must be positive";
  U.rm_rf work;
  U.mkdir_p work;
  Wm_par.Pool.set_default_jobs 1;
  (* A hung server must not outlive the run.  A run is sized to take
     about [seconds] on the reference host, plus set-up; the limit leaves
     room for a host several times slower. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> Serve.kill_all (); die "timed out"));
  ignore (Unix.alarm (30 + (5 * seconds)));
  at_exit Serve.kill_all;
  (* A server that dies shows up as End_of_file or EPIPE, not a kill. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cpu0 = U.cpu_jiffies () and load0 = U.loadavg () and t0 = U.now () in
  let o =
    match workload with
    | "main-stream" -> Inproc.run_main_stream ~seed ~seconds ~trace
    | "serve-session" ->
        (if trace then Serve.run_traced else Serve.run_plain) ~cli ~work ~seed ~seconds
    | w -> die "unknown workload %s" w
  in
  let cpu1 = U.cpu_jiffies () in
  let steal =
    float_of_int (snd cpu1 - snd cpu0) /. float_of_int (Stdlib.max 1 (fst cpu1 - fst cpu0))
  in
  if trace then
    Out_channel.with_open_bin (Filename.concat work "trace.json") (fun oc ->
        J.to_channel oc (Wm_obs.Trace.export ()));
  List.iter
    (fun (k, _) -> if not (List.mem_assoc k table) then die "metric %s is not in BENCHMARK.json" k)
    o.U.metrics;
  if trace then
    List.iter
      (fun k -> if not (List.mem_assoc k o.U.metrics) then die "%s reported no %s" workload k)
      (must_report workload);
  let metrics =
    List.map
      (fun (k, unit_) ->
        let v = Option.value ~default:0.0 (List.assoc_opt k o.U.metrics) in
        if Float.is_nan v then die "metric %s is not a number" k;
        (k, J.Obj [ ("value", J.Float v); ("unit", J.Str unit_) ]))
      table
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ( "diagnostics",
              J.Obj
                ([
                   ("workload", J.Str workload);
                   ("seed", J.Int seed);
                   ("trace", J.Bool trace);
                   ("wall_s", J.Float (U.now () -. t0));
                   ("host_steal_frac", J.Float steal);
                   ("host_loadavg_start", J.Float load0);
                   ("host_loadavg_end", J.Float (U.loadavg ()));
                   ("checks", J.Obj (List.map (fun (k, b) -> (k, J.Bool b)) o.U.checks));
                 ]
                @ o.U.notes) );
          ]));
  let correct = o.U.failed = 0 && List.for_all snd o.U.checks in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int o.U.attempted);
            ("failed", J.Int o.U.failed);
            ("metrics", J.Obj metrics);
          ]))
