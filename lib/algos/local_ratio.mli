(** The local-ratio streaming algorithm for weighted matching
    (Paz–Schwartzman, with Ghaffari–Wajc's analysis).

    Each arriving edge with positive residual weight
    [w(e) - alpha_u - alpha_v] is pushed on a stack and the endpoint
    potentials are raised by the residual; unwinding the stack greedily
    (last pushed first) yields a 1/2-approximate weighted matching.

    The structure supports the two regimes the paper uses:
    - [eps > 0]: push only when [w(e) > (1+eps)(alpha_u + alpha_v)],
      bounding the stack at [O(n log_(1+eps) W)] under adversarial
      arrivals at the price of a [1/(2(1+eps))] guarantee ([PS17]);
    - frozen potentials: after {!freeze}, arriving edges with positive
      residual are still pushed but potentials stay fixed — the key
      adaptation behind the paper's structural Lemma 3.13. *)

type t

val create : ?eps:float -> ?meter:Wm_stream.Space_meter.t -> n:int -> unit -> t
(** Fresh state with zero potentials and an empty stack.  [eps]
    defaults to [0.] (the exact local-ratio rule); the optional meter
    tracks the retained stack edges. *)

val feed : t -> Wm_graph.Edge.t -> unit
(** Process one arriving edge. *)

val feed_pushed : t -> Wm_graph.Edge.t -> bool
(** Like {!feed}, but reports whether the edge was pushed on the stack.
    Callers that key auxiliary state by endpoints (e.g. the
    original-edge table of [Wgt_aug_paths]) must only update it for
    pushed edges: a filtered duplicate can never surface in
    {!unwind}. *)

val freeze : t -> unit
(** Freeze vertex potentials: subsequent {!feed} calls still push
    qualifying edges but no longer raise potentials. *)

val potential : t -> int -> int
(** Current vertex potential [alpha_v]. *)

val residual : t -> Wm_graph.Edge.t -> int
(** [w(e) - alpha_u - alpha_v] under the current potentials. *)

val stack_size : t -> int

val unwind : t -> Wm_graph.Matching.t
(** Greedy matching from the stack, most recent edge first; the stack is
    not consumed.  The first unwind releases the stack's retained units
    from the space meter — the content is handed over to the output
    matching — so that a meter shared across phases does not stay
    permanently elevated; repeated unwinds release nothing further. *)

val unwind_onto : t -> Wm_graph.Matching.t -> unit
(** Pops conceptually onto an existing matching: each stack edge (most
    recent first) is added when both endpoints are free (Algorithm 2,
    lines 15–17).  Mutates the given matching.  Releases meter units
    like {!unwind}. *)

val reset : t -> unit
(** Return the instance to its freshly-created state: clears the stack,
    zeroes potentials, unfreezes, and releases any still-charged meter
    units.  For reusing one instance (and its meter) across phases. *)

val solve : ?eps:float -> Wm_stream.Edge_stream.t -> Wm_graph.Matching.t
(** One-shot: feed one full pass and unwind. *)
