(** Reusable flat-array scratch for allocation-free hot paths.

    The round hot path (layered-graph builds, τ-pair enumeration,
    used-vertex filtering) used to allocate list cells and Hashtbls per
    element; these helpers replace them with int arrays that are
    allocated once and reused across calls, so a steady-state round
    allocates nothing per element.

    {b Determinism.} Arenas hold {e scratch only}: no algorithmic
    decision ever reads a value left over from a previous use (a
    {!Stamp} distinguishes current-epoch marks by construction, an
    {!Ints} is explicitly cleared), so replacing the old temporaries
    with arenas cannot change any result — under [wm_par] included,
    because arenas are obtained through per-domain {!slot}s and never
    cross domains.

    {b Reuse lifetime.} A per-domain slot lives as long as its domain.
    Pool worker domains persist across calls, which is exactly what
    makes the reuse effective; the retained memory is bounded by the
    largest instance the domain has processed. *)

module Stamp : sig
  (** An epoch-stamped membership set over a dense int universe
      [0..n-1]: a Hashtbl/bool-array replacement whose [reset] is O(1)
      — bumping the epoch unmarks everything at once, so one array
      serves any number of uses without clearing. *)

  type t

  val create : unit -> t

  val reset : t -> int -> unit
  (** [reset t n] starts a fresh epoch over universe size [n], growing
      the backing array if needed.  O(1) unless growing. *)

  val mark : t -> int -> unit

  val mem : t -> int -> bool

  val add : t -> int -> bool
  (** [add t i] marks [i] and returns whether it was {e newly} marked
      this epoch. *)
end

module Ints : sig
  (** A growable int vector: a [ref list] accumulator replacement with
      amortised O(1) push and no per-element allocation. *)

  type t

  val create : unit -> t

  val clear : t -> unit
  (** Forget the contents; capacity is retained. *)

  val reserve : t -> int -> unit
  (** [reserve t cap] grows the backing array to at least [cap] slots,
      so a consumer that knows its final length pushes with no
      doubling copies. *)

  val push : t -> int -> unit

  val length : t -> int

  val get : t -> int -> int
  (** [get t i] for [0 <= i < length t]; unchecked beyond the usual
      array bounds against the (larger) backing capacity. *)

  val data : t -> int array
  (** The backing array: slots [0 .. length t - 1] are the pushed
      values, the rest is garbage.  Exposed so a consumer such as
      {!Weighted_graph.of_flat} can read the vector without a copy;
      invalidated by the next [push] that grows the vector. *)
end

type 'a slot
(** A per-domain lazily-initialised cell (backed by [Domain.DLS]):
    each domain that touches the slot gets its own instance, so
    pool workers reuse their scratch across tasks without sharing. *)

val slot : (unit -> 'a) -> 'a slot

val get : 'a slot -> 'a
