(* Validator for BENCH_v1 reports: parses the file and checks it against
   the schema declared in Wm_fault.Bench_v1.  Exits 1 with a diagnostic
   naming the JSON path of the first violation, which is what makes the
   smoke aliases fail on a malformed report.

   Usage: json_check.exe REPORT.json *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ -> fail "usage: json_check.exe REPORT.json"
  in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "%s" e
  in
  match Wm_obs.Json.of_string text with
  | Error e -> fail "%s: invalid JSON: %s" path e
  | Ok json -> (
      match Wm_fault.Bench_v1.check json with
      | Ok () -> Printf.printf "%s: BENCH_v1 report ok\n" path
      | Error e -> fail "%s: %s" path e)
