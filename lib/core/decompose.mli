(** Translating layered-graph paths back to augmentations in the
    original graph (Lemma 4.11).

    An augmenting path of the layered graph projects to a walk in [G]
    that may repeat vertices.  Because every retained edge is oriented
    (matched edges L→R inside a layer, unmatched edges R→L between
    layers), the projected walk decomposes into a simple alternating
    path plus simple alternating even-length cycles — each of which is
    individually a candidate augmentation. *)

val project : base_n:int -> Layered.path -> int list * Wm_graph.Edge.t list
(** [project ~base_n layered_path] maps a layered-graph path (as
    produced by {!Layered.augmenting_paths}) to its walk in the base
    graph: the ordered vertex sequence (possibly with repeats) and the
    corresponding base edges. *)

val decompose : verts:int list -> edges:Wm_graph.Edge.t list -> Aug.t list
(** Stack-based cycle extraction: scanning the walk, every first return
    to a vertex still on the stack pops a simple cycle; the residue is
    a simple path.  Components are returned with their edges in walk
    order.  Requires [length verts = length edges + 1]. *)

val best_component :
  Aug.t list -> Wm_graph.Matching.t -> (Aug.t * int) option
(** The component with the largest gain against the given matching
    (Algorithm 4, line 11), with its gain; [None] on an empty list. *)
