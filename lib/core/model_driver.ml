module M = Wm_graph.Matching
module G = Wm_graph.Weighted_graph
module E = Wm_graph.Edge
module P = Wm_graph.Prng
module S = Wm_stream.Edge_stream
module C = Wm_mpc.Cluster
module Injector = Wm_fault.Injector
module Recovery = Wm_fault.Recovery

type streaming_result = {
  matching : M.t;
  passes : int;
  peak_edges : int;
  rounds_run : int;
  cancelled : bool;
  warm : bool;
}

let round_memory (r : Main_alg.round_stats) =
  List.fold_left
    (fun acc (_, (s : Aug_class.stats)) -> acc + s.Aug_class.layered_edges)
    0 r.Main_alg.class_stats

let peak_instance_load class_stats =
  List.fold_left
    (fun acc (_, (s : Aug_class.stats)) ->
      Stdlib.max acc s.Aug_class.layered_edges_max)
    0 class_stats

(* Graceful degradation: under injected memory pressure, shed the
   lowest-excess retained edges — for a matched edge, the excess is its
   weight — until at most [target] edges remain.  Returns (edges shed,
   weight shed). *)
let shed_to ~target m =
  let by_weight =
    List.sort (fun a b -> Int.compare (E.weight a) (E.weight b)) (M.edges m)
  in
  (* Early exit: once the matching fits the budget there is nothing left
     to shed, so don't keep walking the (possibly long) sorted tail. *)
  let rec go shed lost = function
    | [] -> (shed, lost)
    | _ when M.size m <= target -> (shed, lost)
    | e :: rest ->
        M.remove m e;
        go (shed + 1) (lost + E.weight e) rest
  in
  go 0 0 by_weight

(* Warm-start repair: carry a previous matching onto [g], growing the
   ambient vertex set if the graph gained vertices and dropping (via
   [M.remove]) any matched edge that is no longer present with the same
   weight — deleted, reweighted, or out of range.  The result is always
   valid in [g], so a warm start can never smuggle stale edges into the
   improvement loop. *)
let repair g m0 =
  let m = M.extend m0 (G.n g) in
  List.iter
    (fun e ->
      let u, v = E.endpoints e in
      let ok =
        match G.find_edge g u v with
        | Some e' -> E.weight e' = E.weight e
        | None -> false
      in
      if not ok then M.remove m e)
    (M.edges m);
  m

(* The improvement loop of Theorem 4.1, shared by both models; a model
   supplies only how a round is billed:
   - [round ~at rng m] runs one improvement round on [m], with the
     model's charges and crash sites;
   - [recover ~at ~words attempt] bills a checkpoint of [words] words,
     then runs [attempt] until it returns, billing every retry;
   - [settle ~rounds m r] is the charge after a round commits; it
     returns the number of matched edges shed.
   Cooperative cancellation: [cancel] is consulted exactly once per
   round, at the round boundary, with the number of rounds already
   committed — never mid-round, so a cancelled run always holds a
   committed (round-atomic) matching.  A round is dry when it gains
   nothing and sheds nothing; [patience] dry rounds in a row stop the
   loop, and a graph with no positive-weight edge, where every round
   is dry, runs none.  Under an active fault plan every attempt runs on
   copies of the round-start matching and rng, so a crash discards
   partial state and the copies are committed only when the round
   returns. *)
let improve ~patience ~init ~cancel ~active ~round ~recover ~settle params
    rng g =
  let m =
    ref (match init with None -> M.create (G.n g) | Some m0 -> repair g m0)
  in
  let cancelled = ref false in
  let stop_requested i =
    match cancel with
    | Some f when f ~rounds_run:i ->
        cancelled := true;
        true
    | _ -> false
  in
  let gainless = G.max_weight g = 0 in
  let dry = ref 0 and i = ref 0 in
  while
    (not gainless)
    && !dry < patience
    && !i < params.Params.max_iterations
    && not (stop_requested !i)
  do
    let at = !i in
    let r =
      if not active then round ~at rng !m
      else begin
        let mc, rc, r =
          recover ~at ~words:(1 + (2 * M.size !m)) (fun () ->
              let mc = M.copy !m and rc = P.copy rng in
              (mc, rc, round ~at rc mc))
        in
        m := mc;
        P.assign rng rc;
        r
      end
    in
    incr i;
    let shed = settle ~rounds:!i !m r in
    if r.Main_alg.gain = 0 && shed = 0 then incr dry else dry := 0
  done;
  (!m, !i, !cancelled)

let streaming ?(patience = 4) ?init ?cancel ?faults params rng stream =
  let inj =
    match faults with
    | Some i -> i
    | None ->
        Injector.create ~salt:2 ~section:"stream.faults"
          (Wm_fault.Spec.default ())
  in
  let g_true = S.to_ordered_graph stream in
  let n = G.n g_true in
  (* Ingest under record faults: the algorithm works from a degraded
     view (dropped records vanish, corrupted ones keep their perturbed
     weight), while [g_true] stays available to ground-truth solvers.
     Duplicated records dedup at ingest, so only drop/corrupt bite.
     Warm start repairs against this view too: the improvement loop must
     only ever see edges it could itself have read. *)
  let g =
    if Injector.has_record_faults inj then
      G.of_array ~n
        (Injector.tamper_array inj ~site:"ingest" ~at:0 ~dup:false
           ~corrupt:(fun inj e ->
             E.reweight e (Injector.corrupt_weight inj (E.weight e)))
           (G.edges g_true))
    else g_true
  in
  let attempts = (Injector.spec inj).Wm_fault.Spec.max_attempts in
  let round ~at rng m =
    (* One pass feeds every (W, tau) filter; the black-box instances
       then run in parallel over the same stream, so the round's pass
       bill is the measured pass count of the slowest instance. *)
    S.charge_passes stream 1;
    Injector.crash inj ~site:"stream.feed" ~at ~machines:1;
    let r = Main_alg.improve_once params rng g m in
    Injector.crash inj ~site:"stream.collect" ~at ~machines:1;
    r
  in
  let recover ~at ~words attempt =
    Recovery.note_checkpoint ~words ~at;
    Recovery.with_retry ~attempts ~site:"stream.round" attempt
      ~on_retry:(fun ~attempt:_ ~backoff ->
        (* Resuming re-reads the checkpoint (one pass) and idles through
           the backoff — both billed to the pass meter. *)
        S.charge_passes stream (1 + backoff);
        Recovery.note_restore ~words ~at)
  in
  let peak = ref 0 in
  let settle ~rounds m r =
    let bb_passes =
      List.fold_left
        (fun acc (_, (s : Aug_class.stats)) ->
          Stdlib.max acc s.Aug_class.black_box_passes)
        0 r.Main_alg.class_stats
    in
    S.charge_passes stream bb_passes;
    let round_peak = round_memory r + M.size m in
    peak := Stdlib.max !peak round_peak;
    (* One ledger row per improvement round: the pass bill (feeding pass
       + black-box passes) and the round's peak stored-edge count, the
       per-round shape behind Thm 4.1's pass-overhead claim. *)
    Wm_obs.Ledger.record Wm_obs.Ledger.default
      ~section:"core.model_driver.stream"
      [
        ("round", rounds);
        ("passes", 1 + bb_passes);
        ("peak_edges", round_peak);
        ("gain", r.Main_alg.gain);
      ];
    (* Injected memory pressure squeezes the retained-edge budget; shed
       the lightest matched edges instead of aborting, and keep
       iterating so later rounds can win some of the weight back. *)
    match Injector.memory_pressure inj ~at:rounds with
    | Some keep ->
        let target = int_of_float (keep *. float_of_int (M.size m)) in
        let edges, weight = shed_to ~target m in
        if edges > 0 then Recovery.note_shed ~edges ~weight ~at:rounds;
        edges
    | None -> 0
  in
  let m, rounds_run, cancelled =
    improve ~patience ~init ~cancel ~active:(Injector.is_active inj) ~round
      ~recover ~settle params rng g
  in
  (* A corrupted record leaves its perturbed weight on the matched edge;
     the answer is expressed on the input graph's edges.  Ingest only
     drops and reweights, so every matched pair is an edge of [g_true]. *)
  if g != g_true then
    List.iter
      (fun e ->
        let u, v = E.endpoints e in
        M.remove m e;
        M.add m (Option.get (G.find_edge g_true u v)))
      (M.edges m);
  {
    matching = m;
    passes = S.passes stream;
    peak_edges = !peak;
    rounds_run;
    cancelled;
    warm = Option.is_some init;
  }

type mpc_result = {
  matching : M.t;
  rounds : int;
  peak_machine_memory : int;
  machines : int;
  rounds_run : int;
  cancelled : bool;
  warm : bool;
}

let mpc_cluster g =
  (* An empty graph still runs on machines of positive memory. *)
  let n = Stdlib.max 1 (G.n g) in
  C.create ~machines:(Stdlib.max 2 (G.m g / n)) ~memory_words:(16 * n * 10) ()

let mpc ?(patience = 4) ?init ?cancel params rng cluster g =
  let inj = C.faults cluster in
  let n = G.n g in
  (* Initial placement of the edge set across machines; stateless, so a
     crashed scatter is simply repeated. *)
  C.with_retry cluster ~on_retry:ignore (fun () ->
      ignore (C.scatter cluster (G.edges g)));
  let round ~at:_ rng m =
    (* Section 4.4 choreography: broadcast the bipartition and the
       current matching, run the black box on every instance in
       parallel, gather the augmentations on one machine. *)
    C.broadcast cluster ~words:(n + (2 * M.size m));
    let r = Main_alg.improve_once params rng g m in
    Injector.crash inj ~site:"mpc.collect" ~at:(C.rounds cluster)
      ~machines:(C.machines cluster);
    (* Each (W, tau) instance must fit one machine; charge the largest
       single pair's layered graph — the peak load, not the per-class
       average, which understates skewed instances. *)
    C.check_load cluster ~machine:0
      ~words:(peak_instance_load r.Main_alg.class_stats);
    C.charge_rounds cluster
      (Wm_algos.Approx_bipartite.round_charge ~delta:params.Params.delta ~n);
    C.charge_rounds cluster 1 (* gather augmentations *);
    r
  in
  (* The checkpoint is replicated across the cluster; a retry restores
     it before replaying the round. *)
  let recover ~at:_ ~words attempt =
    C.checkpoint cluster ~words;
    C.with_retry cluster attempt ~on_retry:(fun () ->
        C.restore cluster ~words)
  in
  let m, rounds_run, cancelled =
    improve ~patience ~init ~cancel ~active:(Injector.is_active inj) ~round
      ~recover ~settle:(fun ~rounds:_ _ _ -> 0) params rng g
  in
  {
    matching = m;
    rounds = C.rounds cluster;
    peak_machine_memory = C.peak_machine_memory cluster;
    machines = C.machines cluster;
    rounds_run;
    cancelled;
    warm = Option.is_some init;
  }
