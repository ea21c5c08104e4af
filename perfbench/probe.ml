(* Readings of the program's own instruments (Obs timers and counters)
   and of the GC, taken around a traced op. *)

module J = Wm_obs.Json
module Obs = Wm_obs.Obs

(* Per-op count name -> Obs counter it is read from. *)
let counters =
  [
    ("edge_stream.passes_per_op", "stream.passes");
    ("layered.builds_per_op", "core.layered.builds");
    ("layered.edges_per_op", "core.layered.edges");
    ("main_alg.rounds_per_op", "core.main_alg.rounds");
    ("main_alg.augmentations_per_op", "core.main_alg.augmentations");
  ]

type snap = {
  timers : (string * int) list;  (** span path -> accumulated ns *)
  counts : (string * int) list;
  minor_words : float;
  major_words : float;
}

type delta = snap

let snap () =
  let doc = Obs.to_json Obs.default in
  let section k = match J.member k doc with Some (J.Obj l) -> l | _ -> [] in
  let timers =
    List.filter_map
      (fun (k, v) ->
        match J.member "total_ns" v with Some (J.Int ns) -> Some (k, ns) | _ -> None)
      (section "timers")
  in
  (* Only registered counters: one the program no longer registers must
     not read as a count of 0. *)
  let registered = section "counters" in
  let st = Gc.quick_stat () in
  {
    timers;
    counts =
      List.filter_map
        (fun (k, c) ->
          match List.assoc_opt c registered with Some (J.Int v) -> Some (k, v) | _ -> None)
        counters;
    minor_words = st.Gc.minor_words;
    major_words = st.Gc.major_words;
  }

(* Stop the run unless every named counter is registered:
   [Obs.counter_value] reads an unknown name as 0. *)
let require_counters names =
  let registered =
    match J.member "counters" (Obs.to_json Obs.default) with Some (J.Obj l) -> l | _ -> []
  in
  List.iter
    (fun c -> if not (List.mem_assoc c registered) then Util.die "program counter %s not found" c)
    names

let diff a b =
  let sub xs ys =
    List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k xs))) ys
  in
  {
    timers = sub a.timers b.timers;
    counts = sub a.counts b.counts;
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
  }

let ns_to_ms ns = float_of_int ns /. 1e6

(* A span path the program no longer records stops the run: its time
   would otherwise move silently into a residual. *)
let timer_ms d path =
  match List.assoc_opt path d.timers with
  | Some ns -> ns_to_ms ns
  | None -> Util.die "program timer %s not found" path

(* Sum of the spans directly under [prefix] (e.g. one per weight
   scale), not counting their own children. *)
let timers_ms d ~prefix =
  let lp = String.length prefix in
  match
    List.filter
      (fun (k, _) ->
        String.length k > lp
        && String.sub k 0 lp = prefix
        && not (String.contains_from k lp '/'))
      d.timers
  with
  | [] -> Util.die "no program timer under %s" prefix
  | spans -> List.fold_left (fun acc (_, ns) -> acc +. ns_to_ms ns) 0.0 spans

(* Sum of the second-level spans (["parent/child"]): the finest level
   every span path shares, so a span added inside a call later counts as
   covered without a change here. *)
let child_spans_ms d =
  List.fold_left
    (fun acc (k, ns) ->
      match String.index_opt k '/' with
      | Some i when not (String.contains_from k (i + 1) '/') -> acc +. ns_to_ms ns
      | _ -> acc)
    0.0 d.timers

let counts d =
  ("gc.minor_words_per_op", d.minor_words)
  :: ("gc.major_words_per_op", d.major_words)
  :: List.map (fun (k, v) -> (k, float_of_int v)) d.counts
