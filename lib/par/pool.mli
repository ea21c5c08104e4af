(** Fixed-size work pool on OCaml 5 [Domain]s.

    The pool owns [domains - 1] worker domains blocked on a shared task
    queue; the caller of {!map} participates as the remaining worker, so
    a pool of size [d] computes with exactly [d] domains and spawns
    nothing per call.  Results are collected {e by task index}, so
    {!map} returns results in input order no matter which domain
    computed which element — scheduling can never leak into output
    order.

    Calls made from inside a pool task (and pools of size 1) degrade to
    a plain sequential [map] on the calling domain: nesting is safe and
    never oversubscribes or deadlocks, but only the outermost fan-out is
    parallel.  Tasks must not themselves block on the pool's results.

    A task that raises poisons the whole call: the first exception (in
    completion order) is re-raised in the caller once every task of that
    call has finished, so the pool is reusable afterwards.

    The {e default pool} is a process-wide instance sized by
    {!set_default_jobs} (wired to the [--jobs] CLI flag); library code
    that wants ambient parallelism uses [map (default ()) f xs].  The
    default pool is created lazily and torn down at exit. *)

type t
(** A pool handle.  Pools are domain-safe: any domain may submit work,
    though nested submissions run sequentially (see above). *)

val create : domains:int -> t
(** [create ~domains] spawns [max 1 domains - 1] worker domains.  A pool
    with [domains <= 1] spawns nothing and runs everything inline. *)

val size : t -> int
(** Total parallelism of the pool (worker domains + the caller), [>= 1]. *)

val destroy : t -> unit
(** Signal the workers to exit once the queue drains and join them.
    Idempotent, and safe to race from several domains: the first caller
    joins the workers, later callers are no-ops.  {!map} on a destroyed
    pool raises a one-line [Invalid_argument] instead of queueing work
    no worker will drain. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element, fanning the applications
    across the pool's domains, and returns the results in input order.
    Falls back to a sequential map when the pool has one domain, when
    called from inside a pool task, or when [xs] has at most one
    element. *)

val inside_task : unit -> bool
(** True while the calling domain is executing a pool task (of any
    pool); nested pool calls check this to fall back sequentially. *)

(** {1 The process-wide default pool} *)

val recommended_jobs : ?cap:int -> unit -> int
(** [Domain.recommended_domain_count ()] capped at [cap] (default 8) —
    the default value of the [--jobs] flag. *)

val set_default_jobs : int -> unit
(** Resize the default pool to [max 1 n] domains.  Tears the current
    default pool down (joining its workers) so the next {!default} call
    rebuilds it at the new size.  Must not be called while work is in
    flight on the default pool. *)

val default_jobs : unit -> int
(** The currently configured default-pool size (initially 1: code that
    never opts in via [--jobs]/{!set_default_jobs} stays sequential). *)

val default : unit -> t
(** The process-wide pool, created lazily at the configured size. *)
