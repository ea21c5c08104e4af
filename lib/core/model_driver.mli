(** Model instantiations of the [(1 - eps)] reduction (Theorem 1.2).

    The computation is the one performed by {!Main_alg}, and both
    drivers run the same improvement loop (warm-start repair, the
    round-boundary [cancel] hook, the patience rule, checkpoint/retry;
    on a graph with no positive-weight edge it runs no round at all);
    what they add is the {e model accounting} of Theorem 4.1's
    implementation sections:

    - streaming: each improvement round costs one pass to materialise
      the filters plus [U_S = pass_charge delta] passes for the
      black-box invocations, which all run in parallel across the
      [(W, tau)] instances; retained memory is metered as the layered
      graphs' edges plus the matching;
    - MPC: each round costs the scatter/broadcast/gather choreography of
      Section 4.4 plus [U_M = round_charge delta n] rounds for the
      black box; per-machine memory is checked against the cluster
      capacity.

    See DESIGN.md (black-box accounting) for why charges are metered
    rather than induced by a native streaming/MPC execution.

    {b Faults and recovery.}  Both drivers ride out injected faults
    (DESIGN.md §"Fault model & recovery semantics").  Each improvement
    round starts with a billed checkpoint of the matching and the rng
    position (MPC: one round, replicated; streaming: a [core.recovery]
    row) and runs on copies of that state, which commit when the round
    returns.  A round that crashes (an {!Wm_fault.Injector.Injected_crash}
    from the substrate or the driver's own fault points) is re-run on
    fresh copies with exponential backoff billed to the model's resource
    meter (MPC rounds / stream passes).  Because every attempt starts
    from the same state, a run that rides out crashes and stragglers
    commits exactly the fault-free sequence of matchings — same final
    matching, more rounds/passes.  The streaming driver additionally
    degrades gracefully: injected memory pressure sheds the lowest-excess
    retained edges instead of aborting.  With no active fault plan every
    hook short-circuits and both drivers are byte-identical to their
    fault-free behaviour. *)

type streaming_result = {
  matching : Wm_graph.Matching.t;
  passes : int;  (** total stream passes charged *)
  peak_edges : int;  (** peak retained edges across instances *)
  rounds_run : int;  (** improvement rounds executed *)
  cancelled : bool;  (** stopped early by the [cancel] hook *)
  warm : bool;  (** started from a warm-start matching ([init]) *)
}

val repair :
  Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t -> Wm_graph.Matching.t
(** [repair g m] carries a matching computed on an earlier version of a
    graph onto [g]: the ambient vertex set grows to [G.n g] if needed,
    and every matched edge that is not present in [g] with the same
    weight (deleted, reweighted, or out of range) is dropped via
    {!Wm_graph.Matching.remove}.  The result is always valid in [g];
    [m] itself is not mutated.  This is the warm-start entry repair the
    drivers apply to [init], exposed for the serving layer and tests. *)

val shed_to : target:int -> Wm_graph.Matching.t -> int * int
(** [shed_to ~target m] removes the lightest matched edges until at most
    [target] remain, returning [(edges shed, weight shed)].  Stops as
    soon as the matching fits — edges that survive are exactly the
    heaviest [target].  Exposed for the degradation tests; the streaming
    driver calls it under injected memory pressure. *)

val streaming :
  ?patience:int ->
  ?init:Wm_graph.Matching.t ->
  ?cancel:(rounds_run:int -> bool) ->
  ?faults:Wm_fault.Injector.t ->
  Params.t ->
  Wm_graph.Prng.t ->
  Wm_stream.Edge_stream.t ->
  streaming_result
(** Multi-pass streaming [(1 - eps)]-approximate weighted matching
    (Theorem 1.2.2).  [faults] (default: an injector over the
    process-wide {!Wm_fault.Spec.default}) drives the driver-level fault
    points: round crashes retried from per-round checkpoints (extra
    passes billed), record faults applied at ingest (the ground-truth
    graph is untouched, and the returned matching carries its edges and
    weights), and memory-pressure shedding.  Raises
    {!Wm_fault.Injector.Budget_exhausted} when a round crashes on every
    retry attempt.

    [cancel] is the cooperative-cancellation hook of the serving layer
    (per-request deadlines): it is consulted once per improvement round,
    at the round boundary, with the number of rounds already committed.
    Returning [true] stops the loop immediately — the result carries the
    last committed matching with [cancelled = true].  The hook is never
    called mid-round, so a cancelled run is always round-atomic, and a
    hook that keys on [rounds_run] (rather than wall clock) cancels at
    the same point on every run.

    [init] warm-starts the improvement loop from a previous matching
    instead of the empty one: it is first passed through {!repair}
    against the ingested (possibly fault-degraded) view, so only the
    delta between the old matching and the current graph flows through
    the augmentation machinery.  The result reports [warm = true] and
    [rounds_run] is the rounds-to-converge from the warm point. *)

type mpc_result = {
  matching : Wm_graph.Matching.t;
  rounds : int;  (** MPC rounds charged *)
  peak_machine_memory : int;
  machines : int;
  rounds_run : int;
  cancelled : bool;  (** stopped early by the [cancel] hook *)
  warm : bool;  (** started from a warm-start matching ([init]) *)
}

val mpc :
  ?patience:int ->
  ?init:Wm_graph.Matching.t ->
  ?cancel:(rounds_run:int -> bool) ->
  Params.t ->
  Wm_graph.Prng.t ->
  Wm_mpc.Cluster.t ->
  Wm_graph.Weighted_graph.t ->
  mpc_result
(** MPC [(1 - eps)]-approximate weighted matching (Theorem 1.2.1).
    Raises {!Wm_mpc.Cluster.Memory_exceeded} if a shard or broadcast
    exceeds machine memory.  Faults come from the cluster's own
    injector ({!Wm_mpc.Cluster.faults}): crashed rounds are retried
    from replicated checkpoints with the backoff billed to the round
    clock; {!Wm_fault.Injector.Budget_exhausted} is raised when the
    retry budget runs out.  [cancel] and [init] as in {!streaming}:
    cancellation is checked at round boundaries and stops with the last
    committed matching; a warm-start matching is repaired against [g]
    before the first round. *)

val mpc_cluster : Wm_graph.Weighted_graph.t -> Wm_mpc.Cluster.t
(** The fault-free cluster an MPC solve of [g] runs on: [m / n]
    machines (at least 2), each of [160 max(n, 1)] words — the [O(m / n)]
    machines of [O~(n)] memory of Theorem 1.2.1. *)

val peak_instance_load : (float * Aug_class.stats) list -> int
(** The largest single [(W, tau)]-pair layered graph across all scales
    of one round — the per-machine load the MPC driver charges.  (A
    per-class average here once understated skewed instances; see the
    regression test.) *)
