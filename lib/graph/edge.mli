(** Weighted undirected edges.

    Vertices are integer indices.  An edge is stored with [u < v] so that
    structural equality and hashing behave as expected for undirected
    graphs.  Weights are positive integers, as assumed by the paper
    (positive integers bounded by [poly n]). *)

type t = private { u : int; v : int; w : int }
(** An undirected edge [{u; v; w}] with [u < v] and [w >= 0]. *)

val make : int -> int -> int -> t
(** [make u v w] builds the edge between [u] and [v] of weight [w],
    normalising endpoint order.  Raises [Invalid_argument] on self-loops
    or negative weights. *)

val endpoints : t -> int * int
(** [(u, v)] with [u < v]. *)

val weight : t -> int

val other : t -> int -> int
(** [other e x] is the endpoint of [e] that is not [x].
    Raises [Invalid_argument] if [x] is not an endpoint. *)

val mem_vertex : t -> int -> bool
(** [mem_vertex e x] is true iff [x] is an endpoint of [e]. *)

val same_endpoints : t -> t -> bool
(** Equality on endpoints, ignoring weights. *)

val compare : t -> t -> int
(** Total order: by endpoints, then weight. *)

val equal : t -> t -> bool

val reweight : t -> int -> t
(** [reweight e w] is [e] with weight [w]. *)

val sort_by_weight : descending:bool -> t array -> t array
(** A copy of the array sorted by weight, stably: equal weights keep
    their input order.  O(m) per 11 bits of the largest weight (an LSD
    radix sort); [edges] is not modified. *)

val pp : Format.formatter -> t -> unit
(** Prints as [u-v:w]. *)

val to_string : t -> string
