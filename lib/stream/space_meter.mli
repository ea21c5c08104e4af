(** Accounting of algorithm-retained memory in the streaming model.

    Streaming algorithms are charged for every edge (or word) they retain
    across stream elements; the meter records the current and peak
    retained counts so that experiments can verify the paper's
    [O(n polylog n)] memory claims (Lemmas 3.3 and 3.15) empirically. *)

type t

val create : unit -> t

val retain : t -> int -> unit
(** [retain t k] records that [k] more words are now held. *)

val release : t -> int -> unit
(** [release t k] records that [k] words were dropped.
    Raises [Invalid_argument] if more is released than held. *)

val peak : t -> int
(** Highest holding ever reached. *)

val checkpoint : t -> int
(** [checkpoint t] closes the current accounting pass: it returns the
    peak reached since the previous checkpoint and restarts the
    per-pass high-water mark at the {e current} holding (space carried
    across the boundary is charged to the next pass too).  Multi-pass
    algorithms call this at pass boundaries so reports show per-pass
    peaks rather than lifetime peaks; the lifetime {!peak} equals the
    maximum over all per-pass peaks. *)

val reset : t -> unit
