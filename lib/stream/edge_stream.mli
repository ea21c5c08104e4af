(** Edge streams: the (semi-)streaming model's input discipline.

    A stream fixes an arrival order over the edges of a graph and counts
    the passes an algorithm takes over it.  Random-order streams (the
    setting of Theorem 1.1) are drawn with an explicit {!Wm_graph.Prng.t}.

    {b Faults.}  A stream owns a {!Wm_fault.Injector.t} built from the
    [?faults] spec (default: the process-wide {!Wm_fault.Spec.default}).
    When the spec carries record-fault rates, each {!iter}/{!iteri} pass
    may drop, duplicate, or weight-corrupt individual records as they
    are delivered — the decision stream is drawn from the stream's own
    injector, so two streams built from the same spec misbehave
    identically at any [--jobs].  Per-pass tallies land in the
    [stream.faults] ledger section, as a [tamper@pass] row whose [at]
    field is the pass number.  {!to_ordered_graph} always returns
    the {e true} underlying graph — ground-truth solvers must not see
    injected noise. *)

type order =
  | As_given  (** the graph's internal edge order (adversarial baseline) *)
  | Random of Wm_graph.Prng.t  (** uniformly random permutation *)
  | Increasing_weight
      (** lightest first — adversarial for local-ratio stack size *)
  | Decreasing_weight  (** heaviest first — friendly for greedy *)

type t

val of_graph :
  ?faults:Wm_fault.Spec.t -> ?order:order -> Wm_graph.Weighted_graph.t -> t
(** [of_graph ~order g] fixes an arrival order for [g]'s edges.  The
    default order is [As_given]. *)

val of_edges :
  ?faults:Wm_fault.Spec.t -> ?order:order -> n:int -> Wm_graph.Edge.t list -> t

val graph_n : t -> int
(** Number of vertices in the underlying graph. *)

val length : t -> int
(** Number of edges in one pass. *)

val passes : t -> int
(** How many passes have been {e started} so far. *)

val iter : t -> (Wm_graph.Edge.t -> unit) -> unit
(** One full pass, in arrival order; increments the pass counter. *)

val iteri : t -> (int -> Wm_graph.Edge.t -> unit) -> unit
(** One full pass with 0-based arrival positions. *)

val charge_passes : t -> int -> unit
(** [charge_passes t k] accounts for [k] passes performed by a black-box
    subroutine simulated offline (see DESIGN.md on black-box pass
    accounting). *)

val nth : t -> int -> Wm_graph.Edge.t
(** Random access for tests; does not count as a pass. *)

val to_ordered_graph : t -> Wm_graph.Weighted_graph.t
(** The underlying graph (vertex count preserved); for handing the
    instance to offline ground-truth solvers. *)
