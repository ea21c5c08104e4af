(** A genuine multi-pass streaming algorithm for (1-delta)-approximate
    maximum-cardinality bipartite matching — the UNW-BIP-MATCHING black
    box of Algorithm 4.

    Memory is O(n): per-vertex [mate]/[weight] arrays for the matching
    plus one BFS level/parent table.  Each phase finds a set of
    vertex-disjoint augmenting paths of length at most [2K - 1] (with
    [K = ceil (1/delta)]) by growing BFS layers one stream pass per
    level; when a phase finds none, no such path exists and the matching
    is [(1 - 1/(K+1))]-approximate, hence [(1 - delta)]-approximate.

    The module also prices the box: the paper consumes it as an opaque
    subroutine characterised only by its guarantee and its model cost
    ([U_S] passes / [U_M] rounds).  The MPC driver bills
    {!round_charge} (DESIGN.md, black-box accounting); experiment T6
    compares the measured pass count against {!pass_charge}. *)

type pass = (int -> int -> int -> unit) -> unit
(** One pass over the (bipartite) edge stream: calls the callback once
    per edge [u v w], in arrival order. *)

type result = {
  passes : int;  (** stream passes consumed *)
  phases : int;  (** augmentation phases executed *)
}

val solve :
  left:(int -> bool) ->
  delta:float ->
  mate:int array ->
  weight:int array ->
  pass ->
  result
(** [solve ~left ~delta ~mate ~weight pass] improves the matching held in
    [mate] ([mate.(v)] is [v]'s partner, [-1] when free) and [weight]
    (the weight of [v]'s matched edge) in place, over the vertices
    [0 .. Array.length mate - 1], until a phase finds no augmenting path
    of length [<= 2 * ceil(1/delta) - 1].  Edges that do not cross the
    bipartition are ignored.  [delta = 0.] means exact (path length
    unbounded up to [n]). *)

val solve_stream :
  delta:float ->
  Wm_stream.Edge_stream.t ->
  left:(int -> bool) ->
  Wm_graph.Matching.t * result
(** {!solve} from the empty matching over a {!Wm_stream.Edge_stream}
    (which meters the passes too), returned as a matching. *)

val pass_charge : delta:float -> int
(** Streaming passes one invocation costs: one pass per BFS level over
    [k = ceil(1/delta)] phases, i.e. [sum_(i<=k) (2i+1) = k^2 + 2k]
    (matching the [O(1/delta^2)]-type bounds of [AG13, EKMS12] up to a
    [log log] factor).  Raises [Invalid_argument] at [delta = 0.]. *)

val round_charge : delta:float -> n:int -> int
(** MPC rounds one invocation costs with [~n]-memory machines:
    [ceil(1/delta) * ceil(log2 (log2 n))], the [O_delta (log log n)]
    shape of [GGK+18, ABB+19] combined with McGregor's reduction.
    Raises [Invalid_argument] at [delta = 0.]. *)
