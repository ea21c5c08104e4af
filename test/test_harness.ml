(* Tests for the experiment harness metadata and report helpers. *)

module Ex = Wm_harness.Experiments
module R = Wm_harness.Report

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_ids_unique () =
  let ids = List.map (fun e -> e.Ex.id) Ex.all in
  check "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_find_case_insensitive () =
  check_bool "t1 lowercase" true (Ex.find "t1" <> None);
  check_bool "F4 exact" true (Ex.find "F4" <> None);
  check_bool "unknown" true (Ex.find "Z9" = None)

let test_expected_ids_present () =
  List.iter
    (fun id -> check_bool id true (Ex.find id <> None))
    [ "T1"; "T2"; "T3"; "T4"; "T5"; "T6"; "T11"; "F1"; "F2"; "F3"; "F4";
      "F5"; "F6"; "A1"; "A2" ]

let test_claims_nonempty () =
  List.iter
    (fun e ->
      check_bool (e.Ex.id ^ " claim") true (String.length e.Ex.claim > 0);
      check_bool (e.Ex.id ^ " title") true (String.length e.Ex.title > 0))
    Ex.all

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (R.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (R.mean [])

(* What [R.row] prints, read back from a temporary file behind stdout. *)
let printed_row cells =
  let path = Filename.temp_file "wm_report" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    (fun () -> R.row cells);
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let test_cells () =
  (* Floats with 4 decimals, ints in decimal, each padded to 12. *)
  Alcotest.(check string) "printed row"
    "0.1235       42           x           \n"
    (printed_row [ R.cell_f 0.12349; R.cell_i 42; R.cell_s "x" ])

(* ------------------------------------------------------------------ *)
(* Bench_diff: the regression gate's comparison logic. *)

module D = Wm_harness.Bench_diff
module J = Wm_obs.Json

(* A minimal BENCH_v1 report with one micro estimate and a few obs
   counters; [scale] multiplies the candidate-side values under test. *)
let report ?(ns = 1000.0) ?(space = 500) ?(work = 100) () =
  J.Obj
    [
      ("schema", J.Str "BENCH_v1");
      ( "micro",
        J.List
          [
            J.Obj
              [ ("name", J.Str "T1:kernel"); ("ns_per_run", J.Float ns) ];
          ] );
      ( "obs",
        J.Obj
          [
            ( "counters",
              J.Obj
                [
                  ("space.peak_max", J.Int space);
                  ("core.wap.fed", J.Int work);
                  ("tiny.count", J.Int 3);
                ] );
          ] );
    ]

let findings ~base ~cand () =
  match D.compare_reports ~base cand with
  | Ok fs -> fs
  | Error e -> Alcotest.fail e

let test_diff_identical_passes () =
  let r = report () in
  let fs = findings ~base:r ~cand:r () in
  check_bool "no regression on self-diff" false (D.has_regression fs);
  (* tiny.count (baseline 3 < min_counter_base 16) is skipped. *)
  check "metrics compared" 3 (List.length fs);
  check_bool "all ok" true (List.for_all (fun f -> f.D.verdict = D.Ok) fs)

let test_diff_ns_regression_trips () =
  (* The acceptance check: an injected 2x ns/run regression must trip
     the gate (default ns threshold is +50%). *)
  let fs =
    findings ~base:(report ~ns:1000.0 ()) ~cand:(report ~ns:2000.0 ()) ()
  in
  check_bool "2x ns/run regresses" true (D.has_regression fs);
  (match List.find_opt (fun f -> f.D.metric = "micro:T1:kernel") fs with
  | Some f ->
      check_bool "verdict" true (f.D.verdict = D.Regression);
      Alcotest.(check (float 1e-9)) "rel" 1.0 f.D.rel
  | None -> Alcotest.fail "micro metric missing");
  (* +40% stays under the default 50% threshold. *)
  let fs =
    findings ~base:(report ~ns:1000.0 ()) ~cand:(report ~ns:1400.0 ()) ()
  in
  check_bool "+40%% ns within threshold" false (D.has_regression fs)

let test_diff_space_regression_trips () =
  (* space.* counters use the tight 10% threshold. *)
  let fs =
    findings ~base:(report ~space:500 ()) ~cand:(report ~space:600 ()) ()
  in
  check_bool "+20%% space regresses" true (D.has_regression fs);
  let fs =
    findings ~base:(report ~space:500 ()) ~cand:(report ~space:520 ()) ()
  in
  check_bool "+4%% space ok" false (D.has_regression fs)

let test_diff_improvement_passes () =
  let fs =
    findings
      ~base:(report ~ns:2000.0 ~space:600 ~work:200 ())
      ~cand:(report ~ns:500.0 ~space:300 ~work:80 ())
      ()
  in
  check_bool "improvements never trip the gate" false (D.has_regression fs);
  check_bool "classified as improvements" true
    (List.exists (fun f -> f.D.verdict = D.Improvement) fs)

let test_diff_rejects_non_bench () =
  match D.compare_reports ~base:(J.Obj []) (report ()) with
  | Ok _ -> Alcotest.fail "accepted a schema-less report"
  | Error _ -> ()

let test_diff_render_marks_regressions () =
  let fs =
    findings ~base:(report ~ns:1000.0 ()) ~cand:(report ~ns:3000.0 ()) ()
  in
  let text = D.render fs in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "REGRESSION in output" true (contains text "REGRESSION")

(* ------------------------------------------------------------------ *)
(* Bench_v1.check: the report schema.  Three minimal valid reports, one
   per mode, and a table of named mutations each of which must be
   rejected on every report it applies to. *)

module V = Wm_fault.Bench_v1

let ints kvs = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) kvs)

let table columns rows =
  J.Obj
    [
      ("columns", J.List (List.map (fun c -> J.Str c) columns));
      ("rows", J.List (List.map (fun r -> J.List r) rows));
    ]

let section id tables =
  J.Obj
    [
      ("id", J.Str id);
      ("title", J.Str (id ^ " title"));
      ("claim", J.Str (id ^ " claim"));
      ("tables", J.List tables);
      ("notes", J.List []);
    ]

let gc_block minor =
  ints
    [
      ("minor_words", minor); ("promoted_words", 10); ("major_words", 20);
      ("minor_collections", 2); ("major_collections", 1); ("compactions", 0);
      ("top_heap_words", 4096); ("rounds", 1); ("minor_words_per_round", minor);
    ]

let envelope ~mode ~experiments ~gc ~ledger extra =
  J.Obj
    ([
       ("schema", J.Str "BENCH_v1");
       ("mode", J.Str mode);
       ("seed", J.Int 42);
       ("jobs", J.Int 2);
       ("experiments", J.List experiments);
       ("micro", J.List []);
     ]
    @ extra
    @ [
        ("obs", J.Obj [ ("counters", ints [ ("core.wap.fed", 7) ]) ]);
        ("gc", gc);
        ( "histograms",
          J.Obj
            [
              ( "serve.latency_ns",
                J.Obj
                  [
                    ("count", J.Int 3); ("sum", J.Int 9); ("min", J.Int 1);
                    ("max", J.Int 4); ("p50", J.Float 2.0);
                    ("p90", J.Float 4.0); ("p99", J.Float 4.0);
                    ( "buckets",
                      J.List
                        [
                          J.List [ J.Int 1; J.Int 1 ];
                          J.List [ J.Int 4; J.Int 2 ];
                        ] );
                  ] );
            ] );
        ("ledger", J.Obj ledger);
        ( "faults",
          J.Obj
            [
              ("spec", J.Str "none");
              ("injected", ints [ ("crashes", 0) ]);
              ("recovery", ints [ ("retries", 0) ]);
            ] );
        ( "durability",
          ints
            (List.map
               (fun k -> (k, 0))
               [
                 "wal_records"; "wal_bytes"; "wal_replayed";
                 "wal_truncated_bytes"; "snapshots"; "snapshot_restores";
                 "wal_compacted"; "worker_restarts"; "checkpoints"; "restores";
               ]) );
        ( "trace_meta",
          J.Obj [ ("enabled", J.Bool false); ("events", J.Int 0) ] );
      ])

let solve_report =
  envelope ~mode:"quick"
    ~experiments:
      [
        section "T7"
          [
            table
              [ "jobs"; "wall-ms"; "speedup"; "weight"; "identical" ]
              [
                [ J.Int 1; J.Float 10.0; J.Float 1.0; J.Int 90; J.Str "yes" ];
                [ J.Int 2; J.Float 6.0; J.Float 1.6667; J.Int 90; J.Str "yes" ];
              ];
          ];
        section "T12"
          [
            table [ "jobs"; "replayed"; "identical" ]
              [ [ J.Int 1; J.Int 3; J.Str "yes" ] ];
          ];
      ]
    ~gc:(gc_block 1000)
    ~ledger:
      [
        ( "gc",
          J.List
            [ J.Obj [ ("label", J.Str "total"); ("minor_words", J.Int 1000) ] ]
        );
        ("core.rounds", J.List [ ints [ ("gain", 5) ] ]);
      ]
    []

let serve_block =
  J.Obj
    [
      ("requests", J.Int 6); ("batches", J.Int 2); ("sessions", J.Int 1);
      ("queue_depth", J.Int 4);
      ("counters", ints [ ("requests", 6); ("solves", 3) ]);
      ( "incremental",
        ints
          [
            ("mutations", 1); ("edges_added", 2); ("edges_removed", 0);
            ("vertices_added", 0); ("warm_solves", 1);
          ] );
      ( "cache",
        ints
          [
            ("entries", 1); ("capacity", 8); ("hits", 1); ("misses", 2);
            ("evictions", 0);
          ] );
      ("recovery", J.Obj []);
    ]

let serve_envelope shard =
  envelope ~mode:"serve" ~experiments:[] ~gc:(gc_block 0)
    ~ledger:[ ("serve.requests", J.List [ ints [ ("latency_ns", 12) ] ]) ]
    [ ("serve", serve_block); ("shard", shard) ]

let serve_report = serve_envelope (J.Obj [ ("shards", J.Int 0) ])

let per_shard k ~messages ~sent ~recv =
  J.Obj
    [
      ("shard", J.Int k); ("restarts", J.Int 0); ("messages", J.Int messages);
      ("bytes_sent", J.Int sent); ("bytes_received", J.Int recv);
      ("load", J.Int 1); ("serve", serve_block);
    ]

let sharded_report =
  serve_envelope
    (J.Obj
       [
         ("shards", J.Int 2);
         ( "router",
           ints [ ("migrations", 1); ("worker_restarts", 0); ("sessions", 2) ]
         );
         ( "transport",
           ints
             [ ("messages", 5); ("bytes_sent", 30); ("bytes_received", 70) ]
         );
         ("totals", ints [ ("requests", 6) ]);
         ( "per_shard",
           J.List
             [
               per_shard 0 ~messages:2 ~sent:10 ~recv:20;
               per_shard 1 ~messages:3 ~sent:20 ~recv:50;
             ] );
       ])

(* [edit path f j] replaces the value at [path] by [f v], or drops it
   when [f] returns [None]; list elements are addressed by index. *)
let rec edit path f j =
  let step v =
    match path with
    | [ _ ] -> f v
    | _ :: rest -> Some (edit rest f v)
    | [] -> None
  in
  match (path, j) with
  | k :: _, J.Obj fs ->
      J.Obj
        (List.filter_map
           (fun (k', v) ->
             if k' = k then Option.map (fun v -> (k', v)) (step v)
             else Some (k', v))
           fs)
  | i :: _, J.List l ->
      let i = int_of_string i in
      J.List
        (List.concat
           (List.mapi
              (fun i' v -> if i' = i then Option.to_list (step v) else [ v ])
              l))
  | _ -> invalid_arg ("edit: no such path " ^ String.concat "." path)

let set path v = edit path (fun _ -> Some v)
let drop path = edit path (fun _ -> None)

type mode = Solve | Serve | Sharded

let reports =
  [
    (Solve, "solve", solve_report);
    (Serve, "serve", serve_report);
    (Sharded, "sharded", sharded_report);
  ]

let all = [ Solve; Serve; Sharded ]

(* Path of a cell in the first table of experiments[section]. *)
let cell section row col =
  [ "experiments"; string_of_int section; "tables"; "0"; "rows" ]
  @ [ string_of_int row; string_of_int col ]

let mutations =
  List.map
    (fun k -> ("drop " ^ k, all, drop [ k ]))
    [
      "schema"; "jobs"; "experiments"; "obs"; "gc"; "histograms"; "ledger";
      "faults"; "durability"; "trace_meta";
    ]
  @ [
      ("jobs 0", all, set [ "jobs" ] (J.Int 0));
      ( "bucket sum <> count", all,
        set [ "histograms"; "serve.latency_ns"; "count" ] (J.Int 4) );
      ( "percentiles out of order", all,
        set [ "histograms"; "serve.latency_ns"; "p90" ] (J.Float 1.0) );
      ( "non-int ledger field", [ Solve ],
        set [ "ledger"; "core.rounds"; "0"; "gain" ] (J.Str "5") );
      ( "solve-mode minor_words 0", [ Solve ],
        set [ "gc"; "minor_words" ] (J.Int 0) );
      ("missing gc ledger section", [ Solve ], drop [ "ledger"; "gc" ]);
      ("serve report without shard", [ Serve; Sharded ], drop [ "shard" ]);
      ( "per_shard count mismatch", [ Sharded ],
        set [ "shard"; "shards" ] (J.Int 3) );
      ( "per_shard out of order", [ Sharded ],
        set [ "shard"; "per_shard"; "1"; "shard" ] (J.Int 0) );
      ( "transport sum mismatch", [ Sharded ],
        set [ "shard"; "transport"; "bytes_sent" ] (J.Int 31) );
      ( "warm_solves > solves", [ Serve; Sharded ],
        set [ "serve"; "incremental"; "warm_solves" ] (J.Int 4) );
      ( "touched edges without mutations", [ Serve; Sharded ],
        set [ "serve"; "incremental"; "mutations" ] (J.Int 0) );
      ( "cache entries > capacity", [ Serve; Sharded ],
        set [ "serve"; "cache"; "entries" ] (J.Int 9) );
      ("T7 row not identical", [ Solve ], set (cell 0 1 4) (J.Str "no"));
      ("T7 non-positive wall-ms", [ Solve ], set (cell 0 0 1) (J.Float 0.0));
      ("T12 row not identical", [ Solve ], set (cell 1 0 2) (J.Str "no"));
    ]

let test_valid_reports_pass () =
  List.iter
    (fun (_, name, r) ->
      match V.check r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s report rejected: %s" name e)
    reports

let test_mutation (name, modes, f) () =
  List.iter
    (fun (mode, mode_name, r) ->
      if List.mem mode modes then
        match V.check (f r) with
        | Ok () -> Alcotest.failf "%s report accepted with %s" mode_name name
        | Error _ -> ())
    reports

let () =
  Alcotest.run "wm_harness"
    [
      ( "experiments",
        [
          Alcotest.test_case "unique ids" `Quick test_ids_unique;
          Alcotest.test_case "find" `Quick test_find_case_insensitive;
          Alcotest.test_case "all ids" `Quick test_expected_ids_present;
          Alcotest.test_case "metadata" `Quick test_claims_nonempty;
        ] );
      ( "report",
        [
          Alcotest.test_case "statistics" `Quick test_mean;
          Alcotest.test_case "cells" `Quick test_cells;
        ] );
      ( "bench_diff",
        [
          Alcotest.test_case "identical reports pass" `Quick
            test_diff_identical_passes;
          Alcotest.test_case "2x ns/run trips" `Quick
            test_diff_ns_regression_trips;
          Alcotest.test_case "space threshold is tight" `Quick
            test_diff_space_regression_trips;
          Alcotest.test_case "improvements pass" `Quick
            test_diff_improvement_passes;
          Alcotest.test_case "rejects non-BENCH_v1" `Quick
            test_diff_rejects_non_bench;
          Alcotest.test_case "render marks regressions" `Quick
            test_diff_render_marks_regressions;
        ] );
      ( "bench_v1",
        Alcotest.test_case "valid reports pass" `Quick test_valid_reports_pass
        :: List.map
             (fun ((name, _, _) as m) ->
               Alcotest.test_case ("rejects " ^ name) `Quick (test_mutation m))
             mutations );
    ]
