(** Recovery actions: bounded retry, checkpoint/restore accounting,
    graceful degradation.

    Every recovery action lands in the [core.recovery] ledger section
    and bumps a [fault.*] counter, so the cost of riding out a fault
    plan (extra rounds, restored checkpoints, shed edges) is auditable
    next to the injected faults that caused it. *)

val with_retry :
  attempts:int ->
  site:string ->
  on_retry:(attempt:int -> backoff:int -> unit) ->
  (unit -> 'a) ->
  'a
(** [with_retry ~attempts ~site ~on_retry f] runs [f], catching
    {!Injector.Injected_crash}.  Attempt [k] that crashes (for
    [k < attempts]) triggers [on_retry ~attempt:k ~backoff:(2^(k-1))] —
    the caller bills the exponential backoff to its own resource meter
    (MPC rounds, stream passes) — and retries.  When all [attempts]
    crash, raises {!Injector.Budget_exhausted}.  Other exceptions pass
    through untouched. *)

val note_checkpoint : words:int -> at:int -> unit
(** Record that a recovery checkpoint of [words] words was taken. *)

val note_restore : words:int -> at:int -> unit
(** Record that execution resumed from a checkpoint. *)

val note_shed : edges:int -> weight:int -> at:int -> unit
(** Record a graceful-degradation shed: [edges] matched edges totalling
    [weight] dropped under injected memory pressure. *)

(** {1 Durability accounting}

    Real restore accounting for the serving layer's write-ahead log and
    snapshot subsystem (DESIGN.md §5.5).  Counters are process-wide
    [fault.wal_*] / [fault.snapshot*] instruments, so they appear in
    every report's obs block and are gated by [bench/diff.exe] like any
    other counter. *)

val note_wal_append : bytes:int -> unit
(** One WAL record of [bytes] bytes appended (and fsynced). *)

val note_wal_replay : records:int -> unit
(** [records] WAL records replayed during a restore. *)

val note_wal_truncated : bytes:int -> unit
(** A torn or corrupt WAL tail of [bytes] bytes was truncated. *)

val note_snapshot : bytes:int -> at:int -> unit
(** One session snapshot of [bytes] bytes written atomically; also
    counts as a {!note_checkpoint}. *)

val note_snapshot_restore : bytes:int -> at:int -> unit
(** One session restored from a snapshot; also counts as a
    {!note_restore}. *)

val note_wal_compacted : records:int -> unit
(** [records] physical WAL records were folded into a base record by
    log compaction. *)

val note_worker_restart : unit -> unit
(** The shard router killed and respawned a dead worker process. *)

val durability_json : unit -> Wm_obs.Json.t
(** The BENCH_v1 [durability] block: WAL records/bytes appended,
    records replayed, bytes truncated, snapshots written/restored, and
    the underlying checkpoint/restore tallies. *)

val report_json : unit -> Wm_obs.Json.t
(** The BENCH_v1 [faults] block:
    [{"spec": .., "injected": {..}, "recovery": {..}}], where [spec] is
    the installed process-wide default ({!Spec.default}) in
    {!Spec.to_string} form. *)
