(** Weighted undirected graphs on vertices [0 .. n-1].

    The representation stores the edge list plus a CSR (compressed
    sparse row) adjacency index — int-array offsets plus a packed
    edge-index array — so both the streaming algorithms (which consume
    edge lists in a given order) and the offline solvers (which need
    neighbourhood queries) are served without duplication.  The index is
    built on the first neighbour query ({!iter_neighbors},
    {!fold_neighbors}, {!neighbors}, {!degree}, or {!find_edge} on a
    non-canonical graph); after that [degree] is O(1) and
    [iter_neighbors] walks a contiguous slice.  The general constructors
    ({!create}, {!of_array}, {!of_flat}, {!subgraph}, {!map_weights})
    build it at once; {!canonical}, {!canonical_of_array} and {!patch}
    leave it to that first query, so a graph that is only read edge by
    edge (a served session) never pays its 2m + n words.

    The edges of a graph are immutable once constructed, and the index
    is published through an [Atomic]: any number of domains may read a
    graph concurrently, including its first neighbour query.  Domains
    that race on that query each build the same index and one copy is
    kept.  Polymorphic equality on graphs is not meaningful (it sees
    whether the index is built yet); compare [(n g, edges g)].

    {b Canonical order.}  A graph is {e canonical} when its edge array
    is in strictly increasing [(u, v)] order.  Constructors keep the
    order they are given and solvers read edges in array order;
    {!canonical}, {!canonical_of_array} and {!patch} return canonical
    graphs, and the serving layer holds only those, so a served answer
    depends on content alone.

    {b Record layout.}  A graph made canonical by {!canonical} holds
    fresh edge records allocated in slot order, and a canonical array
    decoded in order (as [Graph_io.of_binary] decodes a frame) or parsed
    and bucketed first (as [Graph_io.canonical_of_string] builds one) is
    already laid out so; the edge-array passes of a served session
    then read memory in order.  {!patch} shares its base's records and
    adds the delta's wherever they were allocated, so the layout decays
    with each patch ({!canonical} returns a patched graph as itself);
    decoding its binary frame lays it out afresh. *)

type t

val max_total_weight : int
(** [2^53], the largest total edge weight a graph may carry.  Solver
    sums then stay far below [max_int] even after
    [Weighted_blossom] doubles every weight, and weights
    converted to floats (the [Tau] buckets) stay exact. *)

val create : n:int -> Edge.t list -> t
(** [create ~n edges] builds a graph with vertex set [0..n-1].
    Raises [Invalid_argument] if an edge mentions a vertex outside the
    range, if two edges share the same endpoints (parallel edges), or
    if the total weight exceeds {!max_total_weight}. *)

val of_array : n:int -> Edge.t array -> t
(** As {!create} from an array (the array is copied).  An array in
    canonical order needs no duplicate check: the order rules out
    parallel edges. *)

val of_flat :
  n:int -> m:int -> src:int array -> dst:int array -> w:int array -> t
(** [of_flat ~n ~m ~src ~dst ~w] builds the graph whose [i]-th edge
    ([i < m]) joins [src.(i)] and [dst.(i)] with weight [w.(i)],
    reading only the first [m] slots (the arrays may be larger reusable
    arenas; they are not retained).  {b Trusted}: the caller promises
    there are no parallel edges — the duplicate check of
    {!of_array} is skipped, which is what makes per-τ-pair layered
    builds and the million-edge generators allocation-lean.  Endpoint
    range, self-loops and negative weights are still rejected.  Edge
    order (hence CSR slice order) follows slot order. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] vertices. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val edges : t -> Edge.t array
(** All edges; do not mutate the returned array. *)

val edge_list : t -> Edge.t list

val iter_edges : (Edge.t -> unit) -> t -> unit

val fold_edges : ('a -> Edge.t -> 'a) -> 'a -> t -> 'a

val neighbors : t -> int -> (int * Edge.t) list
(** [neighbors g v] lists [(u, e)] for every edge [e] joining [v] to
    [u], in edge-array order.  Allocates; prefer {!iter_neighbors} or
    {!fold_neighbors} on hot paths. *)

val iter_neighbors : t -> int -> (int -> Edge.t -> unit) -> unit
(** Allocation-free iteration over a contiguous CSR slice, once the
    index is built. *)

val fold_neighbors : t -> int -> ('a -> int -> Edge.t -> 'a) -> 'a -> 'a

val degree : t -> int -> int
(** O(1) once the index is built: an offset subtraction. *)

val find_edge : t -> int -> int -> Edge.t option
(** [find_edge g u v] is the edge joining [u] and [v], if present.  On
    a canonical graph, a binary search of the edge array (O(log m), no
    index); otherwise a scan of the smaller incidence slice. *)

val mem_edge : t -> int -> int -> bool
(** As {!find_edge}, allocation-free. *)

val total_weight : t -> int

val max_weight : t -> int
(** Maximum edge weight; [0] for the edgeless graph. *)

val subgraph : t -> (Edge.t -> bool) -> t
(** [subgraph g keep] has the same vertex set and the edges satisfying
    [keep].  Skips re-validation: filtering a valid edge set cannot
    introduce range or parallel-edge violations. *)

val map_weights : t -> (Edge.t -> int) -> t
(** Reweight every edge.  Skips re-validation (endpoints unchanged);
    negative weights are still rejected by [Edge.reweight]. *)

val canonical_edges : t -> Edge.t array
(** The edges in canonical order: [edges g] itself, in O(1), when [g]
    is canonical (each graph records whether it is), else an
    O(n + m) bucketed copy read through the index.  Do not mutate the
    result. *)

val canonical : t -> t
(** [g] itself when it is canonical, otherwise the same graph rebuilt
    on {!canonical_edges}, with its index not yet built and one fresh
    [Edge.t] per edge, allocated in canonical slot order (see Record
    layout above): no record of the result is one of [g]'s.  Its
    callers are {!canonical_of_array} on a non-canonical binary frame,
    and the benchmarks. *)

val canonical_of_array : n:int -> Edge.t array -> t
(** [canonical (of_array ~n edges)], validated alike.  An array already
    in canonical order is taken as it is, not copied (the caller must
    not mutate it afterwards), is checked for range and total weight
    only, and gets no index until a neighbour query asks for one. *)

val canonical_order :
  n:int -> m:int -> lo:int array -> hi:int array -> int array
(** [canonical_order ~n ~m ~lo ~hi] is the slots [0 .. m-1] of the
    endpoint columns [lo] and [hi] sorted by [(lo.(i), hi.(i))], with
    equal pairs in slot order: two O(n + m) counting passes.  Every
    endpoint must lie in [\[0, n)]; the columns may be longer than [m].
    The duplicate check of {!of_array} and of the text parser. *)

val first_repeat :
  int array -> lo:int array -> hi:int array -> (int * int) option
(** [first_repeat order ~lo ~hi], for [order] from {!canonical_order},
    is [Some (first, i)] for the least slot [i] whose pair repeats an
    earlier slot's, where [first] is that pair's first slot; [None]
    when no pair repeats. *)

val patch :
  t -> ?add_vertices:int -> ?add:Edge.t list -> ?remove:(int * int) list ->
  unit -> t
(** [patch g ~add_vertices ~add ~remove ()] is the canonical graph of
    [g] plus a delta: [add_vertices] fresh isolated vertices, the edges
    in [add], minus the endpoint pairs in [remove] (order-insensitive),
    by one merge over {!canonical_edges}.  Only the delta is validated —
    kept base edges were checked when [g] was built.  Raises
    [Invalid_argument] if a removal names a missing edge (or repeats a
    pair), or an addition is out of range or would create a parallel
    edge.  Removing then re-adding a pair in the same patch expresses a
    weight update.  On a canonical [g] the delta checks binary-search its
    edges, so neither [g] nor the result gets an index. *)

val is_bipartition : t -> left:(int -> bool) -> bool
(** [is_bipartition g ~left] checks that every edge joins a [left] vertex
    to a non-[left] vertex. *)

val pp : Format.formatter -> t -> unit
