(** A genuine multi-pass streaming algorithm for (1-delta)-approximate
    maximum-cardinality bipartite matching — the UNW-BIP-MATCHING black
    box of Algorithm 4.

    Memory is O(n): per-vertex [mate]/[weight] arrays for the matching
    plus one BFS level/parent table.  Each phase finds a set of
    vertex-disjoint augmenting paths of length at most [2K - 1] (with
    [K = ceil (1/delta)]) by growing BFS layers one stream pass per
    level; when a phase finds none, no such path exists and the matching
    is [(1 - 1/(K+1))]-approximate, hence [(1 - delta)]-approximate.

    Experiment T6 compares its measured pass count against the
    {!Approx_bipartite.pass_charge} formula the model drivers bill. *)

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
