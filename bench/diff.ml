(* Regression gate over two BENCH_v1 reports: compares micro-bench
   ns/run, space counters, and work counters against relative
   thresholds (Wm_harness.Bench_diff) and exits non-zero when the
   candidate regresses.  Backs the @bench-diff dune alias.

   Usage: diff.exe BASE.json CAND.json *)

module J = Wm_obs.Json
module D = Wm_harness.Bench_diff

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let parse path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "%s" e
  in
  match J.of_string text with
  | Ok j -> j
  | Error e -> fail "%s: invalid JSON: %s" path e

let () =
  let usage = "diff.exe BASE.json CAND.json" in
  let base_path, cand_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ -> fail "%s" usage
  in
  match D.compare_reports ~base:(parse base_path) (parse cand_path) with
  | Error e -> fail "%s" e
  | Ok findings ->
      print_string (D.render findings);
      if D.has_regression findings then begin
        Printf.eprintf "bench-diff: %s regresses against %s\n" cand_path
          base_path;
        exit 1
      end
      else
        Printf.printf "bench-diff: %s within thresholds of %s (%d metrics)\n"
          cand_path base_path (List.length findings)
