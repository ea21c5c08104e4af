(* The in-process workload, main-stream, and the Algorithm 2 ops its
   traced run adds to measure the exact layer.  Each op is one call chain
   into the solver library on one fixed graph:
   [Edge_stream.of_graph ~order:Random] followed by the algorithm, timed
   from outside.  A run is a cycle of per-op seeds made twice, so every
   run of one seed does identical work and every op's weight must repeat
   exactly one cycle later.  The cycle is as long as the run allows: op
   cost depends on the seeds, and the median over many distinct seeds
   moves little from one --seed to the next. *)

module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module Gio = Wm_graph.Graph_io
module S = Wm_stream.Edge_stream
module J = Wm_obs.Json
module Obs = Wm_obs.Obs
module Trace = Wm_obs.Trace
module U = Util

type sample = Time of string * float | Count of string * float

type spec = {
  rate : float;
      (** nominal ops per second on the reference host; a run is
          [rate * seconds] ops *)
  gen : P.t -> G.t;  (** the workload's one graph, from a fixed seed *)
  call : string;  (** per-layer name of the algorithm call *)
  solve : S.t -> int -> M.t * (string * float) list;
      (** run the algorithm on a stream with a seed; the list carries
          per-op counts only the algorithm's result knows *)
  layers : delta:Probe.delta -> call_ms:float -> sample list;
      (** per-layer samples of one traced op, from the program's own
          timers and counters *)
}

(* Both graphs keep an op's working set close to the core's own caches.
   At twice these sizes (bip-skew n = 2000, power-law n = 100) the dense
   M1 cost table and the rounds' allocation spilled into the shared
   cache, and on a host with busy neighbours the op median spread about
   twice as much from run to run. *)
let ra_bipskew =
  {
    rate = 25.0;
    gen =
      (fun rng ->
        Gen.bipartite_skew_scale rng ~left:500 ~right:500 ~edges:8_000
          ~exponent:1.5 ~weights:(Gen.Uniform (1, 100)));
    call = "random_arrival.run_ms";
    solve =
      (fun stream seed ->
        let r = Wm_core.Random_arrival.run ~rng:(P.create seed) stream in
        ( r.Wm_core.Random_arrival.matching,
          [ ("random_arrival.t_edges", float_of_int r.t_size) ] ));
    layers =
      (fun ~delta ~call_ms ->
        let span s = Probe.timer_ms delta ("core.random_arrival/" ^ s) in
        let prefix = span "prefix"
        and suffix = span "suffix"
        and finalize = span "finalize" in
        [
          Time ("random_arrival.prefix_ms", prefix);
          Time ("random_arrival.suffix_ms", suffix);
          Time ("random_arrival.finalize_ms", finalize);
          Time ("random_arrival.m1_exact_ms", call_ms -. prefix -. suffix -. finalize);
        ]);
  }

let main_stream =
  let params = Wm_core.Params.practical ~epsilon:0.3 () in
  {
    rate = 10.0;
    gen =
      (fun rng ->
        Gen.power_law_scale rng ~n:60 ~attach:8 ~weights:(Gen.Uniform (1, 100)));
    call = "model_driver.streaming_ms";
    solve =
      (fun stream seed ->
        let r = Wm_core.Model_driver.streaming params (P.create seed) stream in
        (r.Wm_core.Model_driver.matching, []));
    layers =
      (fun ~delta ~call_ms:_ ->
        let round = Probe.timer_ms delta "core.main_alg.round" in
        let scales = Probe.timers_ms delta ~prefix:"core.main_alg.round/scale=" in
        [
          Time ("main_alg.round_ms", round);
          Time ("main_alg.scales_ms", scales);
          Time ("main_alg.select_ms", round -. scales);
        ]);
  }

(* One op: arrange the stream, run the algorithm.  Returns the matching,
   the op's wall time and the two call times. *)
let op spec g (order_seed, alg_seed) =
  let t0 = U.now () in
  let stream =
    U.span "edge_stream.arrange" (fun () -> S.of_graph ~order:(S.Random (P.create order_seed)) g)
  in
  let t1 = U.now () in
  let m, extra = U.span spec.call (fun () -> spec.solve stream alg_seed) in
  let t2 = U.now () in
  let ms a b = (b -. a) *. 1000.0 in
  (m, ms t0 t2, ms t0 t1, ms t1 t2, extra)

(* The graph and the warm-up ops are fixed parts of the workload; --seed
   draws the per-op stream orders and algorithm seeds.  (A graph drawn
   per seed made the op cost differ by up to 2.7x between seeds.) *)
let graph_seed = 20191

(* Set-ups per plain run, and warm-up ops per set-up: a set-up of one
   op was as noisy as one op. *)
let setup_samples = 9
let warm_ops = 3

let run spec ~seed ~seconds ~trace =
  let g0 = spec.gen (P.create graph_seed) in
  let text = Gio.to_string g0 in
  let draw rng = (P.int rng 0x3FFF_FFFF, P.int rng 0x3FFF_FFFF) in
  let warm_seeds = (let rng = P.create graph_seed in List.init warm_ops (fun _ -> draw rng)) in
  let cycle = Stdlib.max 10 (int_of_float (Float.ceil (spec.rate *. float_of_int seconds /. 2.0))) in
  (* The traced run makes each op twice, once plain and once traced,
     and reads the program's instruments around each traced op, so it
     runs a quarter as many to end in about the same time. *)
  let cycle = if trace then Stdlib.max 5 (cycle / 4) else cycle in
  let n_ops = 2 * cycle in
  let rng = P.create seed in
  let seeds = Array.init cycle (fun _ -> draw rng) in
  (* Set-up: parse the input text, then untimed warm-up ops with fixed
     seeds.  It is made once before the first timed op and again, from
     scratch, at even intervals through the run, so that its median sees
     the same host as the ops do (back to back, the samples all caught
     the host's speed of one moment). *)
  let warm_weights = ref [] and setup_ok = ref true in
  let setup_once () =
    let t0 = U.now () in
    let g = Gio.of_string text in
    let ms = List.map (fun s -> let m, _, _, _, _ = op spec g s in m) warm_seeds in
    let dt = U.now () -. t0 in
    let ws = List.map M.weight ms in
    if !warm_weights = [] then warm_weights := ws;
    setup_ok := !setup_ok && List.for_all (fun m -> M.is_valid_in m g) ms && ws = !warm_weights;
    (g, dt)
  in
  let g, first_setup = setup_once () in
  let setup = ref [ first_setup ] and setup_wall = ref 0.0 in
  let n_setups = if trace then 1 else setup_samples in
  let setup_due i = i > 0 && i * n_setups / n_ops <> (i - 1) * n_setups / n_ops in
  let greedy = M.weight (Wm_algos.Greedy.by_weight g) in
  let failed = ref 0 and total_weight = ref 0 in
  let first_weight = Array.make cycle (-1) in
  let check i m =
    let c = i mod cycle in
    let w = M.weight m in
    if first_weight.(c) < 0 then first_weight.(c) <- w;
    if not (M.is_valid_in m g && w = first_weight.(c)) then incr failed;
    total_weight := !total_weight + w
  in
  let plain = ref [] and traced = ref [] and samples = ref [] in
  let t_start = U.now () in
  for i = 0 to n_ops - 1 do
    if setup_due i then begin
      let t0 = U.now () in
      setup := snd (setup_once ()) :: !setup;
      setup_wall := !setup_wall +. (U.now () -. t0)
    end;
    let s = seeds.(i mod cycle) in
    let plain_op () =
      let m, op_ms, _, _, _ = op spec g s in
      check i m;
      plain := op_ms :: !plain
    in
    if not trace then plain_op ()
    else begin
      let traced_op () =
        let before = Probe.snap () in
        Trace.set_enabled true;
        let m, op_ms, arrange_ms, call_ms, extra = op spec g s in
        Trace.set_enabled false;
        let delta = Probe.diff before (Probe.snap ()) in
        check i m;
        traced := op_ms :: !traced;
        samples :=
          (Time ("edge_stream.arrange_ms", arrange_ms)
           :: Time (spec.call, call_ms)
           :: Time
                ( "layer.unattributed_frac",
                  (op_ms -. arrange_ms -. Probe.child_spans_ms delta) /. op_ms )
           :: List.map (fun (k, v) -> Count (k, v)) (extra @ Probe.counts delta)
          @ spec.layers ~delta ~call_ms)
          @ !samples
      in
      (* Alternate which of the pair goes first, so drift cancels. *)
      if i mod 2 = 0 then (plain_op (); traced_op ()) else (traced_op (); plain_op ())
    end
  done;
  let wall_s = U.now () -. t_start -. !setup_wall in
  let attempted = if trace then 2 * n_ops else n_ops in
  let weight_ratio =
    float_of_int !total_weight /. float_of_int (attempted * Stdlib.max 1 greedy)
  in
  let checks = [ ("weights_repeat_per_cycle", !failed = 0); ("setup_ops_ok", !setup_ok) ] in
  if not trace then
    let metrics, notes =
      U.end_to_end ~setup:(List.rev !setup) ~ops:!plain ~wall_s ~weight_ratio
        ~rss_kb:(U.vm_hwm_kb (Unix.getpid ()))
    in
    { U.attempted; failed = !failed; checks; metrics; notes }
  else begin
    (* Times are medians over the traced ops; counts are means over
       whole cycles, so they repeat exactly. *)
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let k, v, kind = match s with Time (k, v) -> (k, v, `Time) | Count (k, v) -> (k, v, `Count) in
        let _, vs = Option.value ~default:(kind, []) (Hashtbl.find_opt by_name k) in
        Hashtbl.replace by_name k (kind, v :: vs))
      !samples;
    let layer =
      Hashtbl.fold
        (fun k (kind, vs) acc ->
          (k, match kind with `Time -> U.median vs | `Count -> U.mean vs) :: acc)
        by_name []
    in
    let g_t0 = U.now () in
    ignore (Wm_algos.Greedy.by_weight g);
    let layer =
      ("greedy.by_weight_ms", U.ms_since g_t0)
      :: ("trace.overhead_frac", (U.median !traced /. U.median !plain) -. 1.0)
      :: layer
    in
    {
      U.attempted;
      failed = !failed;
      checks;
      metrics = layer;
      notes = [ ("traced_ops", J.Int n_ops) ];
    }
  end

(* main-stream.  Its traced run also makes Algorithm 2 ops on the
   bip-skew graph, whose M1 solve is the exact layer's work, for a
   quarter as long, and keeps their random_arrival.* metrics; the rest are
   main-stream's.  (Those ops are not an end-to-end workload of their
   own: over ten runs their median swung by up to 1.5x with the host's
   speed, beyond the bound of any end-to-end metric; see README.md.) *)
let run_main_stream ~seed ~seconds ~trace =
  let o = run main_stream ~seed ~seconds ~trace in
  if not trace then o
  else begin
    let e = run ra_bipskew ~seed ~seconds:(Stdlib.max 1 (seconds / 4)) ~trace in
    let exact =
      List.filter (fun (k, _) -> String.starts_with ~prefix:"random_arrival." k) e.U.metrics
    in
    {
      U.attempted = o.U.attempted + e.U.attempted;
      failed = o.U.failed + e.U.failed;
      checks = o.U.checks @ List.map (fun (k, b) -> ("ra_bipskew." ^ k, b)) e.U.checks;
      metrics = o.U.metrics @ exact;
      notes = o.U.notes @ [ ("ra_bipskew", J.Obj e.U.notes) ];
    }
  end
