(** The resource ledger: per-pass / per-round accounting rows.

    Counters ({!Obs}) answer "how much, in total"; the ledger answers
    "where, and when".  A ledger is a set of named {e sections}, each an
    append-only list of {e rows}; a row is an optional label plus named
    integer fields.  Algorithms append one row per accounting unit —
    one per stream pass ([peak_words], retained-edge counts), one per
    MPC communication step ([rounds], [words] moved, max machine load)
    — so reports can audit the paper's resource claims (Thm 3.14 space,
    Thm 4.1 pass/round overhead) at the granularity the theorems are
    stated at, not just as lifetime totals.

    {b Retention.}  A ledger keeps rows only once {!retain} has been
    called on it; until then {!record} drops every row, so a process
    that writes no report holds none of them.  The library records
    into {!default} on every pass, round and request; only a program
    that writes a BENCH_v1 report from this process retains it: the
    bench harness ([bench/main.exe --json]) and [wm_cli serve
    --report].  Tests that read rows retain too.  There is no flag or
    environment variable for it.

    Recording is mutex-guarded and safe from any domain; note that rows
    appended concurrently (e.g. from a parallel per-seed sweep) land in
    completion order, which may differ between runs. *)

type t

type row = { label : string option; fields : (string * int) list }

val create : unit -> t

val default : t
(** The process-wide ledger the library instruments itself against;
    serialised into the [ledger] section of BENCH_v1 reports. *)

val retain : t -> unit
(** [retain t] makes [t] keep the rows recorded from now on, for the
    rest of the process.  Call it before the work whose rows a report
    carries. *)

val retained : t -> bool
(** Whether {!retain} has been called on [t]: a recorder whose row
    costs work of its own (a GC snapshot) skips that work when not. *)

val record : ?label:string -> t -> section:string -> (string * int) list -> unit
(** [record ?label t ~section fields] appends one row when [t] is
    {!retained}, and does nothing otherwise.  Sections are created on
    first use and keep first-seen order in snapshots. *)

val rows : t -> string -> row list
(** The rows of a section in append order ([[]] if never recorded). *)

val sections : t -> string list
(** Section names in first-seen order. *)

val to_json : t -> Json.t
(** [{section: [{"label": .., field: int, ..}, ..], ..}] — sections in
    first-seen order, rows in append order, fields in record order. *)

val reset : t -> unit
(** Drop every section and row. *)
