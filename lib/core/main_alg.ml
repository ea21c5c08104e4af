module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module Obs = Wm_obs.Obs

let log_src = Logs.Src.create "wm.main_alg" ~doc:"Algorithm 3 improvement rounds"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_rounds = Obs.counter Obs.default "core.main_alg.rounds"
let c_applied = Obs.counter Obs.default "core.main_alg.augmentations"
let c_gain = Obs.counter Obs.default "core.main_alg.gain"
let h_aug_gain = Obs.histogram Obs.default "core.main_alg.aug_gain"

type round_stats = {
  scales_tried : int;
  augmentations_applied : int;
  gain : int;
  class_stats : (float * Aug_class.stats) list;
}

type run_stats = { rounds : round_stats list; final_weight : int }

let used_slot = Wm_graph.Arena.slot (fun () -> Wm_graph.Arena.Stamp.create ())

let scales_for params g =
  let wmax = G.max_weight g in
  if wmax = 0 then []
  else begin
    let upper = float_of_int (wmax * params.Params.max_layers) in
    let all =
      Weight_class.geometric_scales ~ratio:Params.class_ratio ~max_value:upper
    in
    (* An unmatched edge needs bucket >= 2, i.e. w >= 2 g W; scales above
       w_max / (2 g) host none and are pruned. *)
    let cap = float_of_int wmax /. (2.0 *. params.Params.granularity) in
    List.filter (fun w -> w <= cap) all
  end

let improve_once params rng g m =
  Obs.span_open Obs.default "core.main_alg.round";
  Obs.incr c_rounds;
  let gc_before =
    if Wm_obs.Ledger.retained Wm_obs.Ledger.default then
      Some (Wm_obs.Gcstat.snapshot ())
    else None
  in
  let scales = scales_for params g in
  (* Collect augmentations per scale against the round-start matching —
     Algorithm 3 runs the classes "in parallel", and they only read [g]
     and the round-start [m], so they fan out across the domain pool.
     Each class gets its own generator, split off the caller's stream in
     scale order *before* any class runs: the per-class random streams
     (and hence the results) are identical whether the classes then
     execute sequentially or on any number of domains.  The k = 1 class
     (single-edge augmentations) is solved exactly and swept first, as a
     pseudo-class of infinite scale.  The walks' unmatched-incidence
     CSR depends on [g] and [m] alone, so it is built once here. *)
  let inc = Aug_class.incidence g m in
  let tasks =
    List.map (fun scale -> (scale, Wm_graph.Prng.split rng)) scales
  in
  (* Spans inside the fan-out use explicit root paths: a pool worker's
     ambient span stack is empty, so relying on nesting would attribute
     the same work differently at jobs=1 (under the round span) and
     jobs>1 (top-level).  Root paths make the timer table identical. *)
  let per_scale =
    Wm_par.Pool.map (Wm_par.Pool.default ())
      (fun (scale, class_rng) ->
        let span_path =
          Printf.sprintf "core.main_alg.round/scale=%g" scale
        in
        Obs.with_span_root Obs.default span_path (fun () ->
            ( scale,
              Aug_class.run params class_rng g m ~inc ~scale ~span_path )))
      tasks
  in
  let one_augs = Aug_class.one_augmentations g m in
  (* Greedy cross-class selection, heaviest scale first (lines 5-8). *)
  let used = Wm_graph.Arena.get used_slot in
  Wm_graph.Arena.Stamp.reset used (G.n g);
  let applied = ref 0 and gain = ref 0 in
  let select augs =
    List.iter
      (fun c ->
        let touched = Aug.touched_vertices c m in
        let clear =
          List.for_all
            (fun v -> not (Wm_graph.Arena.Stamp.mem used v))
            touched
        in
        if clear && Aug.is_alternating c m then begin
          let gc = Aug.gain c m in
          if gc > 0 then begin
            Aug.apply c m;
            List.iter (Wm_graph.Arena.Stamp.mark used) touched;
            incr applied;
            gain := !gain + gc;
            Obs.observe h_aug_gain gc
          end
        end)
      augs
  in
  select one_augs;
  let by_scale_desc =
    List.sort (fun (w1, _) (w2, _) -> Float.compare w2 w1) per_scale
  in
  List.iter (fun (_scale, (augs, _)) -> select augs) by_scale_desc;
  Log.debug (fun f ->
      f "round: %d scales, %d augmentations, gain %d, weight %d"
        (List.length scales) !applied !gain (M.weight m));
  Obs.add c_applied !applied;
  Obs.add c_gain (Stdlib.max 0 !gain);
  Wm_obs.Ledger.record Wm_obs.Ledger.default ~section:"core.main_alg"
    [
      ("round", Obs.value c_rounds);
      ("scales", List.length scales);
      ("augmentations", !applied);
      ("gain", !gain);
    ];
  (* Per-round allocation accounting, taken only when the ledger keeps
     rows: a program-wide quick_stat delta around the round (the
     per-scale fan-out included), so the "gc" ledger section exposes the
     round hot path's constant factor.  The values are comparable across
     --jobs settings (see Gcstat), though not byte-identical —
     jobs-invariance checks exclude the "gc" section for exactly this
     reason. *)
  Option.iter
    (fun before ->
      let gc_delta = Wm_obs.Gcstat.delta ~before (Wm_obs.Gcstat.snapshot ()) in
      Wm_obs.Ledger.record ~label:"round" Wm_obs.Ledger.default ~section:"gc"
        (("round", Obs.value c_rounds)
         :: List.filter
              (fun (k, _) -> k <> "top_heap_words" && k <> "compactions")
              (Wm_obs.Gcstat.fields gc_delta)))
    gc_before;
  if Wm_obs.Trace.enabled () then
    Wm_obs.Trace.instant "core.main_alg.round-done"
      ~args:
        [
          ("applied", string_of_int !applied); ("gain", string_of_int !gain);
        ];
  Obs.span_close Obs.default;
  {
    scales_tried = List.length scales;
    augmentations_applied = !applied;
    gain = !gain;
    class_stats = List.map (fun (w, (_, s)) -> (w, s)) per_scale;
  }

let solve ?init ?(patience = 4) params rng g =
  let m = match init with Some m -> M.copy m | None -> M.create (G.n g) in
  let rounds = ref [] in
  let dry = ref 0 in
  let i = ref 0 in
  (* Each round draws a fresh random bipartition, which captures any
     fixed augmentation only with constant probability; stop after
     [patience] consecutive fruitless rounds rather than the first. *)
  while !dry < patience && !i < params.Params.max_iterations do
    let r = improve_once params rng g m in
    rounds := r :: !rounds;
    incr i;
    if r.gain = 0 then incr dry else dry := 0
  done;
  (m, { rounds = List.rev !rounds; final_weight = M.weight m })
