(** Per-operation communication metering, shared by the simulated MPC
    cluster and the real shard transport.

    A meter owns a ledger section and emits one row per operation with
    the canonical field set — [round] (the caller's round/dispatch
    clock), [rounds] (the operation's round bill), [words] (data
    moved), [max_load] (largest per-machine holding) — exactly the
    shape {!Cluster}'s accounting always used, so extracting it changes
    no ledger bytes.  It also keeps per-label running tallies for
    report blocks, and can optionally mirror every operation onto a
    pair of process-wide counters ([<prefix>.messages] /
    [<prefix>.bytes]) — the shard router uses that to turn simulated
    word-accounting into real bytes-on-the-wire metering. *)

type t

val create : section:string -> ?counters:string -> unit -> t
(** [create ~section ()] meters into ledger section [section].  With
    [?counters:(Some prefix)], each {!op} additionally bumps the
    process-wide counters [prefix ^ ".messages"] (by one) and
    [prefix ^ ".bytes"] (by [words]). *)

val op :
  t -> label:string -> round:int -> rounds:int -> words:int -> max_load:int ->
  unit
(** Record one operation: a ledger row plus the label's tally. *)

val ops : t -> label:string -> int
(** Operations recorded under [label]. *)

val words : t -> label:string -> int
(** Total words moved under [label]. *)
