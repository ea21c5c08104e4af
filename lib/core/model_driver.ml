module M = Wm_graph.Matching
module G = Wm_graph.Weighted_graph
module E = Wm_graph.Edge
module P = Wm_graph.Prng
module S = Wm_stream.Edge_stream
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

(* Cooperative cancellation: the [cancel] hook is consulted exactly once
   per improvement round, at the round boundary — never mid-round, so a
   cancelled run always holds a committed (round-atomic) matching.  The
   hook sees the number of rounds already committed. *)
let check_cancel cancel ~rounds_run =
  match cancel with None -> false | Some f -> f ~rounds_run

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

let streaming ?(patience = 4) ?init ?cancel ?faults params rng stream =
  let inj =
    match faults with
    | Some i -> i
    | None ->
        Injector.create ~salt:2 ~section:"stream.faults"
          (Wm_fault.Spec.default ())
  in
  let active = Injector.is_active inj in
  let g_true = S.to_ordered_graph stream in
  let n = G.n g_true in
  (* Ingest under record faults: the algorithm works from a degraded
     view (dropped records vanish, corrupted ones keep their perturbed
     weight), while [g_true] stays available to ground-truth solvers.
     Duplicated records dedup at ingest, so only drop/corrupt bite. *)
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
  (* Warm start repairs against the ingested (possibly fault-degraded)
     view, not the ground truth: the improvement loop must only ever see
     edges it could itself have read. *)
  let m = ref (match init with None -> M.create n | Some m0 -> repair g m0) in
  let peak = ref 0 in
  let cancelled = ref false in
  let stop_requested i =
    check_cancel cancel ~rounds_run:i && (cancelled := true; true)
  in
  let dry = ref 0 and i = ref 0 in
  while
    !dry < patience && !i < params.Params.max_iterations
    && not (stop_requested !i)
  do
    (* Per-round checkpoint: matching + rng position, so a crashed round
       resumes from the last round boundary instead of aborting. *)
    let snap =
      if active then begin
        Recovery.note_checkpoint ~words:(1 + (2 * M.size !m)) ~at:!i;
        Some (M.copy !m, P.copy rng)
      end
      else None
    in
    let round () =
      (* Under faults the round works on copies of the checkpoint, so a
         crash discards partial state; commit happens on success. *)
      let mc, rc =
        match snap with
        | None -> (!m, rng)
        | Some (m0, r0) -> (M.copy m0, P.copy r0)
      in
      (* One pass feeds every (W, tau) filter; the black-box instances
         then run in parallel over the same stream, so the round's pass
         bill is the measured pass count of the slowest instance. *)
      S.charge_passes stream 1;
      Injector.crash inj ~site:"stream.feed" ~at:!i ~machines:1;
      let r = Main_alg.improve_once params rc g mc in
      Injector.crash inj ~site:"stream.collect" ~at:!i ~machines:1;
      (mc, rc, r)
    in
    let mc, rc, r =
      match snap with
      | None -> round ()
      | Some (m0, _) ->
          Recovery.with_retry ~attempts ~site:"stream.round" round
            ~on_retry:(fun ~attempt:_ ~backoff ->
              (* Resuming re-reads the checkpoint (one pass) and idles
                 through the backoff — both billed to the pass meter. *)
              S.charge_passes stream (1 + backoff);
              Recovery.note_restore ~words:(1 + (2 * M.size m0)) ~at:!i)
    in
    (match snap with
    | Some _ ->
        m := mc;
        P.assign rng rc
    | None -> ());
    let bb_passes =
      List.fold_left
        (fun acc (_, (s : Aug_class.stats)) ->
          Stdlib.max acc s.Aug_class.black_box_passes)
        0 r.Main_alg.class_stats
    in
    S.charge_passes stream bb_passes;
    let round_peak = round_memory r + M.size !m in
    peak := Stdlib.max !peak round_peak;
    incr i;
    (* One ledger row per improvement round: the pass bill (feeding pass
       + black-box passes) and the round's peak stored-edge count, the
       per-round shape behind Thm 4.1's pass-overhead claim. *)
    Wm_obs.Ledger.record Wm_obs.Ledger.default
      ~section:"core.model_driver.stream"
      [
        ("round", !i);
        ("passes", 1 + bb_passes);
        ("peak_edges", round_peak);
        ("gain", r.Main_alg.gain);
      ];
    (* Injected memory pressure squeezes the retained-edge budget; shed
       the lightest matched edges instead of aborting, and keep
       iterating so later rounds can win some of the weight back. *)
    let shed =
      match Injector.memory_pressure inj ~at:!i with
      | Some keep ->
          let target = int_of_float (keep *. float_of_int (M.size !m)) in
          let edges, weight = shed_to ~target !m in
          if edges > 0 then Recovery.note_shed ~edges ~weight ~at:!i;
          edges
      | None -> 0
    in
    if r.Main_alg.gain = 0 && shed = 0 then incr dry else dry := 0
  done;
  {
    matching = !m;
    passes = S.passes stream;
    peak_edges = !peak;
    rounds_run = !i;
    cancelled = !cancelled;
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
  let n = G.n g in
  Wm_mpc.Cluster.create
    ~machines:(Stdlib.max 2 (G.m g / Stdlib.max 1 n))
    ~memory_words:(16 * n * 10) ()

let mpc ?(patience = 4) ?init ?cancel params rng cluster g =
  let module C = Wm_mpc.Cluster in
  let inj = C.faults cluster in
  let active = Injector.is_active inj in
  let n = G.n g in
  let m = ref (match init with None -> M.create n | Some m0 -> repair g m0) in
  (* Initial placement of the edge set across machines; stateless, so a
     crashed scatter is simply repeated. *)
  let place () = ignore (C.scatter cluster (G.edges g)) in
  if active then C.with_retry cluster ~on_retry:(fun _ -> ()) place
  else place ();
  let cancelled = ref false in
  let stop_requested i =
    check_cancel cancel ~rounds_run:i && (cancelled := true; true)
  in
  let dry = ref 0 and i = ref 0 in
  while
    !dry < patience && !i < params.Params.max_iterations
    && not (stop_requested !i)
  do
    (* Per-round checkpoint replicated across the cluster: matching +
       rng position, the state a retry restarts the choreography from. *)
    let snap =
      if active then
        Some
          (C.checkpoint cluster
             ~words:(1 + (2 * M.size !m))
             (M.copy !m, P.copy rng))
      else None
    in
    let round () =
      let mc, rc =
        match snap with
        | None -> (!m, rng)
        | Some s ->
            let m0, r0 = C.peek s in
            (M.copy m0, P.copy r0)
      in
      (* Section 4.4 choreography: broadcast the bipartition and the
         current matching, run the black box on every instance in
         parallel, gather the augmentations on one machine. *)
      C.broadcast cluster ~words:(n + (2 * M.size mc));
      let r = Main_alg.improve_once params rc g mc in
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
      (mc, rc, r)
    in
    let mc, rc, r =
      match snap with
      | None -> round ()
      | Some s ->
          C.with_retry cluster round ~on_retry:(fun _ -> ignore (C.restore cluster s))
    in
    (match snap with
    | Some _ ->
        m := mc;
        P.assign rng rc
    | None -> ());
    incr i;
    if r.Main_alg.gain = 0 then incr dry else dry := 0
  done;
  {
    matching = !m;
    rounds = C.rounds cluster;
    peak_machine_memory = C.peak_machine_memory cluster;
    machines = C.machines cluster;
    rounds_run = !i;
    cancelled = !cancelled;
    warm = Option.is_some init;
  }
