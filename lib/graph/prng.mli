(** Deterministic, splittable pseudo-random number generator.

    All randomness in the library flows through this module so that every
    algorithm run, test and experiment row is reproducible from an explicit
    seed.  The generator is splitmix64, which is fast, has a 64-bit state
    and supports cheap splitting into independent sub-streams.

    The state is 8 mutable bytes, read and written unboxed, so a draw
    updates it in place: {!int} and {!bool} allocate nothing, and
    {!float} at most its boxed result (none where the call is
    inlined). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator derived from [seed]. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val assign : t -> t -> unit
(** [assign dst src] overwrites [dst]'s state with [src]'s, so [dst]
    continues from [src]'s position.  Used to commit or roll back a
    generator around a checkpointed region: snapshot with {!copy}, run,
    then [assign] the survivor back into the caller's handle. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Uniform Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] returns [k] distinct values drawn
    uniformly from [0..n-1], in random order.  Requires [k <= n]. *)

val state : t -> int64
(** The raw 64-bit splitmix state, for durable checkpoints (the serving
    layer's write-ahead log persists injector positions with it).
    Opaque outside {!set_state}. *)

val set_state : t -> int64 -> unit
(** [set_state t s] rewinds/advances [t] to a state previously captured
    with {!state}; the stream continues exactly from that position. *)
