(** Deterministic fault injection.

    An injector owns a private {!Wm_graph.Prng} seeded from its
    {!Spec.t}, and answers "does a fault strike here?" queries from
    sequential substrate code (cluster ops, stream passes, driver
    rounds).  Because every decision is drawn from the injector's own
    generator — never from a shared or domain-local one — the fault
    pattern is a pure function of (spec, query sequence) and is
    byte-identical at any [--jobs], preserving the PR-2 determinism
    contract.

    Every injected fault bumps a [fault.*] counter in
    {!Wm_obs.Obs.default} and appends a row to the injector's ledger
    section ([mpc.faults] for cluster-owned injectors, [stream.faults]
    for stream-owned ones), so fault-laden runs are fully auditable in
    BENCH_v1 reports.

    An injector built from an inert spec ({!Spec.is_none}) holds no
    generator: every query short-circuits and the instrumented code
    paths stay byte-identical to a build without fault hooks. *)

type t

exception Injected_crash of { site : string; at : int }
(** Raised by {!crash} when a simulated machine/worker failure strikes.
    [site] names the operation, [at] the round.  Catch via
    {!Recovery.with_retry}. *)

exception Budget_exhausted of { site : string; attempts : int }
(** Raised by {!Recovery.with_retry} when every attempt crashed. *)

val create : ?salt:int -> ?section:string -> Spec.t -> t
(** [create spec] builds an injector.  [salt] (default 0) decorrelates
    injectors sharing a spec (e.g. the MPC and streaming legs of one
    experiment); [section] (default ["mpc.faults"]) is the ledger
    section injected faults are recorded under. *)

val none : t
(** The inert injector ([create Spec.none]). *)

val spec : t -> Spec.t

val is_active : t -> bool
(** [false] exactly when the spec is inert; inactive injectors answer
    every query without drawing randomness or recording anything. *)

val rng_state : t -> int64 option
(** The injector's current generator position ([None] for inert
    injectors).  The serving layer's write-ahead log persists it so a
    recovered server continues the {e same} draw sequence the crashed
    process would have produced — chaos decisions survive process
    death. *)

val set_rng_state : t -> int64 -> unit
(** Restore a position captured with {!rng_state}.  A no-op on inert
    injectors. *)

val has_record_faults : t -> bool
(** Active and at least one of drop/dup/corrupt is nonzero — gates the
    per-record tampering loop so fault-free streams pay nothing. *)

(** {1 Control-flow faults} *)

val crash : t -> site:string -> at:int -> machines:int -> unit
(** Draw a crash decision for one operation; on a hit, records the
    fault (picking a victim machine in [0, machines)]) and raises
    {!Injected_crash}. *)

val straggler : t -> site:string -> at:int -> int
(** Draw a straggler decision; returns the extra rounds to bill (0 on a
    miss, 1–3 on a hit). *)

val memory_pressure : t -> at:int -> float option
(** Draw a memory-pressure decision for one round; on a hit returns
    [Some keep] with [keep] in [0.5, 0.9): the fraction of retained
    matching edges that survive the squeeze. *)

(** {1 Record faults} *)

type record_fault = Keep | Drop | Duplicate | Corrupt

val record_fault : t -> record_fault
(** Draw one per-record decision (a single uniform draw classified
    against the cumulative drop/dup/corrupt rates). *)

val corrupt_weight : t -> int -> int
(** [corrupt_weight t w] is a perturbed replacement weight, uniform in
    [0, 2w] — always a valid non-negative edge weight. *)

val tamper_array :
  ?corrupt:(t -> 'a -> 'a) ->
  ?dup:bool ->
  t ->
  site:string ->
  at:int ->
  'a array ->
  'a array
(** Apply per-record faults to a batch (a scatter payload, a gathered
    shard, a parsed edge list).  Records without a [corrupt] transformer
    pass corruption decisions through unchanged; [dup:false] (default
    [true]) turns duplication hits into keeps, for sinks that reject
    parallel records.  Returns the input array physically unchanged when
    {!has_record_faults} is false.  Per-batch totals are recorded as one
    ledger row when any fault struck. *)

val count_drop : t -> int -> unit
(** Record [n] dropped records against this injector's counters/ledger
    (for call sites that stream records one at a time rather than
    through {!tamper_array}). *)

val count_dup : t -> int -> unit

val count_corrupt : t -> int -> unit

(** {1 Reporting} *)

val injected_json : unit -> Wm_obs.Json.t
(** Snapshot of the process-wide injected-fault counters
    ([fault.crashes], [fault.straggler_rounds], [fault.dropped],
    [fault.duplicated], [fault.corrupted], [fault.mem_pressure]) as a
    JSON object, for the BENCH_v1 [faults] block. *)
