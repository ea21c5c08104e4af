module J = Wm_obs.Json

(* Max tolerated relative increase of a micro-benchmark's ns_per_run:
   bechamel estimates on sub-millisecond kernels are noisy, and a
   genuine 2x slowdown still trips the gate. *)
let ns_threshold = 0.5

(* space.* counters (peak and retained edges) are deterministic. *)
let space_threshold = 0.1
let counter_threshold = 0.5

(* Non-space counters with a smaller baseline are skipped: tiny counts
   flip on legitimate changes. *)
let min_counter_base = 16

(* Program-wide quick_stat deltas carry a few percent of scheduling
   noise, and the fault-stress leg diffs reports taken at different
   --jobs settings. *)
let gc_threshold = 1.0

(* GC-block fields the gate compares.  Deliberately the allocation
   tallies only: collection counts and heap peaks depend on per-domain
   minor-heap sizing and so legitimately differ across --jobs settings,
   which the fault-stress j1-vs-j4 diff leg would then trip on. *)
let gc_metrics = [ "minor_words"; "major_words"; "minor_words_per_round" ]

(* Word tallies below this are measurement noise (a single quick_stat
   pair costs a few hundred words); skip them. *)
let min_gc_base = 65536

type verdict = Ok | Regression | Improvement

type finding = {
  metric : string;
  base : float;
  cand : float;
  rel : float;
  verdict : verdict;
}

let classify ~threshold ~base ~cand =
  let rel = if base = 0.0 then 0.0 else (cand -. base) /. base in
  let verdict =
    if rel > threshold then Regression
    else if rel < -.threshold then Improvement
    else Ok
  in
  (rel, verdict)

let finding ~threshold metric base cand =
  let rel, verdict = classify ~threshold ~base ~cand in
  { metric; base; cand; rel; verdict }

let check_schema path json =
  match J.member "schema" json with
  | Some (J.Str tag) when tag = Wm_fault.Bench_v1.schema -> Stdlib.Ok ()
  | Some j ->
      Stdlib.Error (Printf.sprintf "%s: unexpected schema %s" path (J.to_string j))
  | None ->
      Stdlib.Error
        (Printf.sprintf "%s: not a %s report" path Wm_fault.Bench_v1.schema)

(* micro: [{"name": .., "ns_per_run": ..}] -> assoc *)
let micro_estimates json =
  match J.member "micro" json with
  | Some (J.List items) ->
      List.filter_map
        (fun item ->
          match (J.member "name" item, J.member "ns_per_run" item) with
          | Some (J.Str name), Some (J.Float ns) -> Some (name, ns)
          | Some (J.Str name), Some (J.Int ns) -> Some (name, float_of_int ns)
          | _ -> None)
        items
  | _ -> []

let obs_counters json =
  match J.member "obs" json with
  | Some obs -> (
      match J.member "counters" obs with
      | Some (J.Obj fields) ->
          List.filter_map
            (fun (k, v) ->
              match v with J.Int n -> Some (k, n) | _ -> None)
            fields
      | _ -> [])
  | None -> []

let is_space_counter name =
  String.length name >= 6 && String.sub name 0 6 = "space."

let gc_fields json =
  match J.member "gc" json with
  | Some g ->
      List.filter_map
        (fun k ->
          match J.member k g with
          | Some (J.Int n) -> Some (k, n)
          | _ -> None)
        gc_metrics
  | None -> []

let compare_reports ~base cand =
  match (check_schema "base" base, check_schema "candidate" cand) with
  | Stdlib.Error e, _ | _, Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok (), Stdlib.Ok () ->
      let micro_base = micro_estimates base in
      let micro_cand = micro_estimates cand in
      let micro_findings =
        List.filter_map
          (fun (name, b) ->
            match List.assoc_opt name micro_cand with
            | Some c ->
                Some (finding ~threshold:ns_threshold ("micro:" ^ name) b c)
            | None -> None)
          micro_base
      in
      let counters_base = obs_counters base in
      let counters_cand = obs_counters cand in
      let counter_findings space =
        List.filter_map
          (fun (name, b) ->
            if is_space_counter name <> space then None
            else if (not space) && b < min_counter_base then None
            else
              match List.assoc_opt name counters_cand with
              | Some c ->
                  let threshold =
                    if space then space_threshold else counter_threshold
                  in
                  Some
                    (finding ~threshold ("counter:" ^ name) (float_of_int b)
                       (float_of_int c))
              | None -> None)
          counters_base
      in
      let gc_base = gc_fields base in
      let gc_cand = gc_fields cand in
      let gc_findings =
        List.filter_map
          (fun (name, b) ->
            if b < min_gc_base then None
            else
              match List.assoc_opt name gc_cand with
              | Some c ->
                  Some
                    (finding ~threshold:gc_threshold ("gc:" ^ name)
                       (float_of_int b) (float_of_int c))
              | None -> None)
          gc_base
      in
      Stdlib.Ok
        (micro_findings @ counter_findings true @ counter_findings false
        @ gc_findings)

let has_regression = List.exists (fun f -> f.verdict = Regression)

let verdict_tag = function
  | Regression -> "REGRESSION "
  | Improvement -> "improvement"
  | Ok -> "ok         "

let render findings =
  match findings with
  | [] -> "bench-diff: no shared metrics to compare\n"
  | fs ->
      let lines =
        List.map
          (fun f ->
            Printf.sprintf "%s %-48s base=%14.1f cand=%14.1f (%+.1f%%)"
              (verdict_tag f.verdict) f.metric f.base f.cand (100.0 *. f.rel))
          fs
      in
      String.concat "\n" lines ^ "\n"
