(** Fault-plan specifications.

    A spec is a bundle of per-event fault rates plus the seed that makes
    every injection decision deterministic.  Rates are probabilities in
    [0, 1]; a spec with all rates zero is inert and injectors built from
    it cost nothing (see {!Injector.is_active}).

    Specs are parsed from the [--faults] command-line syntax:

    {v seed=7,crash=0.05,straggle=0.02,drop=0.001,dup=0.001,corrupt=0.001,mem=0.05,attempts=6 v}

    Every key is optional; omitted rates default to zero, [seed]
    defaults to 1 and [attempts] (the retry budget consumed by
    {!Recovery.with_retry}) to 6.  The literal ["none"] (or the empty
    string) denotes the inert spec. *)

type t = {
  seed : int;  (** Seeds the injector's private {!Wm_graph.Prng}. *)
  crash : float;
      (** Per-operation machine-crash probability (MPC ops, driver
          rounds).  A crash raises
          {!Injector.Injected_crash}; recovery is the caller's job. *)
  straggle : float;
      (** Per-operation straggler probability.  A straggler bills 1–3
          extra rounds to the affected operation. *)
  drop : float;  (** Per-record drop probability (scatter/ingest/stream). *)
  dup : float;  (** Per-record duplication probability. *)
  corrupt : float;
      (** Per-record corruption probability.  Corrupted edge records get
          a perturbed (still valid, non-negative) weight. *)
  mem : float;
      (** Per-round memory-pressure probability (streaming driver).
          Under pressure the driver sheds lowest-excess retained edges
          down to a squeezed budget instead of aborting. *)
  max_attempts : int;
      (** Retry budget for {!Recovery.with_retry}; exhausting it raises
          {!Injector.Budget_exhausted}. *)
}

val none : t
(** The inert spec: all rates zero. *)

val is_none : t -> bool
(** [true] when every rate is zero (seed and budget are irrelevant for
    an inert spec). *)

val parse : string -> (t, string) result
(** Parse the [--faults] syntax above.  Errors are one-line,
    user-facing messages (unknown key, rate out of range, ...). *)

val to_string : t -> string
(** Canonical round-trippable form; ["none"] for inert specs. *)

val set_default : t -> unit
(** Install the process-wide default spec, consulted by components that
    are not handed an explicit spec ({!Wm_mpc.Cluster.create},
    {!Wm_stream.Edge_stream.make}, the drivers).  Call once at startup,
    before any parallel work; defaults to {!none}. *)

val default : unit -> t
(** The installed process-wide default spec. *)
