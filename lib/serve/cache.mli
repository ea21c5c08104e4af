(** A string-keyed LRU cache with O(1) lookup, insert and eviction.

    The serving layer keys entries by
    {!Protocol.cache_key} — (graph digest, canonical solve params,
    seed) — so a repeat solve is answered without re-running the solver
    (and without billing any [core.*]/[stream.*]/[mpc.*] resources).
    When the cache is full, inserting evicts the least-recently-used
    entry; {!find} counts as a use.

    Not domain-safe: the server touches the cache only from the
    request-loop domain (lookups and inserts happen at batch
    boundaries, never inside pool tasks). *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] holds at most [capacity] entries.
    [capacity <= 0] disables the cache: {!add} is a no-op and {!find}
    always misses. *)

val capacity : 'a t -> int

val length : 'a t -> int

val mem : 'a t -> string -> bool
(** Membership without bumping recency. *)

val peek : 'a t -> string -> 'a option
(** Lookup without bumping recency. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit moves the entry to most-recently-used. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or replace) and mark most-recently-used, evicting the LRU
    entry if the cache would exceed capacity. *)

val remove : 'a t -> string -> unit
(** Drop one entry ([()] if absent).  Does not count as an eviction. *)

val remove_where : 'a t -> (string -> bool) -> int
(** Drop every entry whose key satisfies the predicate; returns how
    many were dropped.  Used to purge a digest's results when its
    session is evicted.  Does not count as evictions. *)

val clear : 'a t -> unit
(** Drop every entry and reset the eviction counter — a cleared cache
    is statistically indistinguishable from a fresh one. *)

val evictions : 'a t -> int
(** Capacity evictions since creation or the last {!clear}. *)

val keys : 'a t -> string list
(** Keys from most- to least-recently-used (for tests and stats). *)

val dump : 'a t -> (string * 'a) list
(** Entries from {e least}- to most-recently-used — the order that
    replays into an empty cache (via repeated {!add}) to reproduce both
    contents and recency.  Used by WAL compaction. *)

val set_evictions : 'a t -> int -> unit
(** Restore the eviction tally after rebuilding from a {!dump}. *)
