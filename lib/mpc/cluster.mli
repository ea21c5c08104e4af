(** The MPC (massively parallel computation) model substrate.

    A cluster is [machines] machines with [memory_words] words each;
    computation proceeds in synchronous rounds and data moves between
    machines only at round boundaries.  The simulator executes the
    local computation natively but {e meters} the two quantities the
    model charges for — rounds, and per-machine memory — and raises
    when a machine would exceed its memory, so that experiment T4 can
    verify the paper's [O_eps(log log n)]-rounds / [O~(n)]-memory
    claims structurally.

    Besides the lifetime counters ([mpc.rounds],
    [mpc.machine_load_max] in {!Wm_obs.Obs.default}), every
    communication primitive appends a row to the [mpc.ops] section of
    {!Wm_obs.Ledger.default} — the primitive's name, its round bill,
    the words it moved and the largest per-machine load it induced —
    so reports can audit round/memory costs per operation, not just in
    aggregate.

    {b Faults.}  A cluster owns a {!Wm_fault.Injector.t} built from the
    [?faults] spec (default: the process-wide {!Wm_fault.Spec.default}).
    Every primitive consults it: stragglers bill 1–3 extra rounds,
    crashes raise {!Wm_fault.Injector.Injected_crash} mid-operation,
    scatter payloads can lose or duplicate records, and a
    corrupted broadcast is repeated at a two-round cost.  Recovery is
    billed here and kept by the caller: {!checkpoint}/{!restore} charge
    one round each for state the driver holds itself, and {!with_retry}
    re-runs a crashed step with exponential round-backoff billed to the
    same round clock, so the price of riding out a fault plan shows up
    in [mpc.rounds] and the [mpc.faults] ledger section.  With an inert
    spec every hook short-circuits and the op sequence is
    byte-identical to the fault-free build. *)

type t

exception Memory_exceeded of { machine : int; used : int; capacity : int }

val create : ?faults:Wm_fault.Spec.t -> machines:int -> memory_words:int -> unit -> t

val machines : t -> int
val memory_words : t -> int

val rounds : t -> int
(** Communication rounds elapsed so far. *)

val peak_machine_memory : t -> int
(** Largest per-machine load observed in any round. *)

val charge_rounds : t -> int -> unit
(** Account for rounds performed by a black-box subroutine. *)

val check_load : t -> machine:int -> words:int -> unit
(** Record that a machine holds [words] this round; raises
    {!Memory_exceeded} if over capacity. *)

val scatter : t -> 'a array -> 'a array array
(** Distribute items round-robin over the machines: one round; each
    shard's size is checked against machine memory. *)

val broadcast : t -> words:int -> unit
(** Charge the two-step broadcast of [words] words to every machine
    (Section 4.4's MPC implementation detail): two rounds, and every
    machine must be able to hold the broadcast data. *)

val run_round : t -> ('a -> 'b) -> 'a array -> 'b array
(** [run_round t f shard_inputs] executes one synchronous round: [f] is
    applied to each machine's input (machine [i] gets
    [shard_inputs.(i mod machines)]). *)

(** {1 Faults and recovery} *)

val faults : t -> Wm_fault.Injector.t
(** The cluster's injector; drivers use it for their own fault points
    (e.g. a crash between compute and the gather round). *)

val checkpoint : t -> words:int -> unit
(** [checkpoint t ~words] bills replicating a [words]-word checkpoint of
    driver state to every machine: one round, and each machine must
    hold [words].  Recorded in [core.recovery].  The state itself stays
    with the caller. *)

val restore : t -> words:int -> unit
(** [restore t ~words] bills reloading a [words]-word checkpoint after a
    failure: one round, recorded in [core.recovery]. *)

val with_retry : t -> on_retry:(unit -> unit) -> (unit -> 'a) -> 'a
(** [with_retry t ~on_retry f] runs [f], retrying on
    {!Wm_fault.Injector.Injected_crash} with exponential backoff
    ([2^(k-1)] rounds after attempt [k]) billed to this cluster's round
    clock and recorded as [retry_backoff] rows in [mpc.faults].
    [on_retry] runs after each backoff, before the next attempt — bill
    the {!restore} there.  After the fault spec's [max_attempts] failed
    attempts it raises {!Wm_fault.Injector.Budget_exhausted}. *)
