(** The long-running matching service.

    A server owns a {e session store} of loaded CSR graphs keyed by
    content digest, a bounded {e solve queue}, and an LRU {e result
    cache} ({!Cache}).  Solve requests are admitted into the queue (or
    rejected with an ["overloaded"] response when the queue is at
    [queue_depth] — admission control never blocks and never hangs) and
    executed as a {e batch} at the next batch boundary (any non-solve
    request, a blank line, or end of input).  A batch is deduplicated by
    result-cache key — identical solves are computed once — and the
    distinct jobs fan out across the default {!Wm_par.Pool}, whose
    order-preserving [map] plus per-request seeds make every response
    body byte-identical at any [--jobs] setting.

    {b Deadlines.}  Each solve carries an optional wall-clock deadline
    (request [deadline_ms], else the server default).  Deadlines are
    enforced {e cooperatively}: the drivers consult the request's cancel
    hook at improvement-round boundaries
    ({!Wm_core.Model_driver.streaming}/[mpc]) and stop with the last
    committed matching, answered as [status = "deadline"].

    {b Chaos.}  The [faults] spec drives deterministic request-level
    chaos through a private {!Wm_fault.Injector} (section
    [serve.faults]): per-request injected crashes are replayed through
    {!Wm_fault.Recovery.with_retry} (billed to [fault.retries] /
    [serve.retries]; exhausting the budget yields an ["error"]
    response, never a dead server), straggler draws inject deadline
    expiry at a deterministic round, and per-batch memory pressure
    squeezes the admitted batch — the tail is answered ["overloaded"].
    All draws happen sequentially on the request-loop domain, so the
    chaos pattern — and therefore every response — is byte-identical at
    any [--jobs].

    {b Incremental sessions.}  The mutation verbs ([add_edges],
    [remove_edges], [add_vertices]) rewrite a loaded session in place at
    a batch boundary: the graph is rebuilt from the delta
    ({!Wm_graph.Weighted_graph.patch}), the content digest recomputed,
    and the session re-keyed under it.  Each completed (non-cancelled)
    solve stores its matching as the session's warm-start state for its
    canonical params; a later solve on the (possibly mutated) session
    re-starts the improvement loop from that matching — repaired by
    {!Wm_core.Model_driver.repair}, so deleted or reweighted edges are
    dropped first — instead of from scratch, and reports
    [warm = true] plus its rounds-to-converge.  Warm capture happens
    sequentially at admission, so warm dispatch is a pure function of
    the request history and transcripts stay jobs-invariant.  Cache
    keys are content-addressed, so mutation purges nothing: results for
    untouched sessions survive, and content a session returns to
    re-hits its old entries.

    {b Observability.}  Every request bumps [serve.*] counters, lands
    one row in the [serve.requests] ledger section, and records its
    latency in the [serve.latency_ns] histogram; a [serve.queue_depth]
    gauge tracks queue occupancy; mutations land rows in
    [serve.mutations] labelled with their canonical delta.
    {!report_json} snapshots everything as a BENCH_v1 report with a
    [serve] block, including an [incremental] sub-block (mutations,
    edge/vertex delta tallies, warm solves). *)

type job = {
  job_key : string;  (** result-cache key ({!Protocol.cache_key}) *)
  job_id : int;  (** arrival number — unique within the batch *)
  job_digest : string;
  job_graph : Wm_graph.Weighted_graph.t;
  job_params : Protocol.solve_params;
  job_warm : Wm_graph.Matching.t option;
      (** warm-start matching captured at admission *)
  job_expire : int option;  (** injected deadline-expiry round *)
  job_crashes : int;  (** planned crashed attempts before success *)
}
(** One deduplicated solve (a batch leader), as handed to a delegating
    [executor].  Carries everything a remote worker needs to reproduce
    the exact outcome a local {!Wm_par.Pool} execution would commit:
    the graph, the params, the pre-drawn chaos plan and the warm-start
    matching. *)

type outcome =
  [ `Ok of Wm_obs.Json.t * Wm_graph.Matching.t
  | `Deadline of Wm_obs.Json.t * Wm_graph.Matching.t
  | `Error of string ]
(** A solve's result: the response's [result] JSON plus the matching
    (which feeds the cache/warm-start stores), or a failure message. *)

type config = {
  queue_depth : int;  (** max queued solves per batch (default 16) *)
  cache_entries : int;  (** LRU result-cache capacity (default 64) *)
  deadline_ms : int;
      (** default per-solve wall-clock deadline; [0] disables *)
  faults : Wm_fault.Spec.t;  (** request-chaos plan *)
  destroy_pool_on_shutdown : bool;
      (** tear down the default pool when [shutdown] is acknowledged
          (the CLI sets this; in-process embedders usually keep the
          pool) *)
  warm_start : bool;
      (** warm-start solves from the session's last matching (default
          [true]); [false] forces every solve cold — the T10 baseline *)
  wal_dir : string option;
      (** durability directory (default [None] = volatile).  When set,
          every state-mutating input line is appended to a CRC-checked,
          fsynced write-ahead log {e before} its responses are emitted,
          sessions are snapshotted periodically, and {!create} restores
          the newest valid snapshots plus the WAL suffix — resuming the
          crashed server byte-identically (transcripts, stats, digests,
          generations, cache state) *)
  snapshot_every : int;
      (** write session snapshots every this many WAL records
          (default 8); [0] disables periodic snapshots (one is still
          written on shutdown, drain, and EOF).  Each snapshot point
          also compacts the WAL to one base record and deletes the
          snapshots of sessions that are no longer live *)
  crash_after : int option;
      (** test hook: {!run} SIGKILLs the process after emitting the
          responses of this many input lines — the deterministic
          mid-stream kill of the crash-recovery fixtures *)
  shard_id : int;
      (** reported by the [ping] verb (default [0]; the shard router
          assigns each worker its index) *)
  executor : (job list -> (string * outcome) list) option;
      (** delegate batch execution: when set, {!flush} hands the
          deduplicated leader jobs to this function instead of the
          default {!Wm_par.Pool} — the shard router's hook.  Must
          return one [(job_key, outcome)] per job.  Admission, chaos
          draws, caching, warm-start bookkeeping and response
          rendering all stay here, which is what keeps transcripts
          byte-identical across [--shards] settings. *)
  observe : (Wal.body -> unit) option;
      (** called with every state effect a live request applies — the
          same {!Wal.body} the WAL records — right after it is applied;
          never for effects replayed by {!create}.  The shard router
          uses it to tear down re-keyed and evicted sessions on their
          home workers. *)
  reporter : (unit -> Wm_obs.Json.t) option;
      (** override for the [report] verb's payload (the router answers
          with the merged multi-shard report); [None] = {!report_json} *)
}

val default_config : unit -> config
(** Defaults as above, with [faults] = the process-wide
    {!Wm_fault.Spec.default}, [destroy_pool_on_shutdown = false] and
    [warm_start = true]. *)

type recovery = {
  replayed : int;  (** WAL records replayed *)
  truncated_bytes : int;  (** torn/corrupt tail bytes cut by the scan *)
  snapshots_restored : int;  (** sessions installed from snapshots *)
  restore_ms : int;  (** wall-clock restore cost *)
}

type t

exception Unrecoverable of string
(** Raised by {!create} when [wal_dir] holds a log it cannot replay —
    say, a compacted log naming a session whose snapshot is gone. *)

val create : config -> t
(** With [wal_dir = Some dir]: create the directory if needed, load the
    newest valid snapshot per session, scan the WAL (truncating any
    torn tail), and replay it through the same state transition live
    requests use, installing sessions from their snapshots where the
    log allows; then open the log for appending — the returned server
    continues exactly where the previous incarnation stopped. *)

val recovery : t -> recovery option
(** Restore accounting: [Some] iff the server was created with a
    [wal_dir] (all-zero for a fresh directory). *)

val stopped : t -> bool
(** True once a [shutdown] request has been acknowledged; further
    requests are answered with an error. *)

val handle_line : t -> string -> Wm_obs.Json.t list
(** Process one input line and return the responses to emit, in order.
    Queued solves return [[]] until a batch boundary; a blank line is a
    pure boundary (flush, no own response). *)

val handle_request : t -> Protocol.request -> Wm_obs.Json.t list
(** As {!handle_line}, from an already-parsed request (the in-process
    embedding used by the load generator and the tests). *)

val flush : t -> Wm_obs.Json.t list
(** Force a batch boundary: execute the queued solves and return their
    responses in arrival order. *)

val eof : t -> Wm_obs.Json.t list
(** End of input: {!flush}, commit the WAL, and write a final snapshot
    of every session (so the next start replays nothing). *)

val drain : t -> Wm_obs.Json.t list
(** Orderly drain — what the SIGTERM/SIGINT handler runs: execute and
    answer the queued solves, commit the WAL, final-snapshot every
    session.  (Same as {!eof}.) *)

val run : t -> in_channel -> out_channel -> unit
(** The stdin/stdout transport: read request lines until EOF or
    [shutdown], emitting each response as one compact JSON line
    (flushed per batch).  While running, SIGTERM and SIGINT trigger
    {!drain} (responses for queued solves are still emitted) instead of
    killing the process; the previous handlers are restored on
    return. *)

val sessions : t -> (string * int * int) list
(** Loaded sessions as [(digest, n, m)] in load order (for tests). *)

val report_json : t -> Wm_obs.Json.t
(** A BENCH_v1 report (mode ["serve"], empty [experiments]; see
    {!Wm_fault.Bench_v1}) whose [serve] block carries the
    request/batch/cache tallies, with the single-process shard block
    [{shards: 0}]. *)
