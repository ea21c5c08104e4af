(** The 0.506-approximation for {e unweighted} matching in random-order
    streams (Section 3.1, Theorem 3.4).

    One pass: a greedy maximal matching [M0] is built on the first [p]
    fraction of the stream; on the remainder, three algorithms run in
    parallel — (1) collect edges between [M0]-free vertices and finish
    with an offline maximum matching on them, (2) keep growing the
    greedy matching, (3) recover 3-augmentations with UNW-3-AUG-PATHS —
    and the best of the three results is returned. *)

type result = {
  matching : Wm_graph.Matching.t;  (** the best of the three matchings *)
  m0_size : int;  (** greedy matching size at the prefix cut *)
  s1_size : int;  (** retained free-free edges (algorithm 1's memory) *)
  augmentations : int;  (** 3-augmenting paths applied by algorithm 3 *)
  winner : [ `Free_edges | `Greedy | `Three_aug ];
}

val run : Wm_stream.Edge_stream.t -> result
(** [run stream] consumes one pass.  The prefix is the first 1% of the
    stream, and UNW-3-AUG-PATHS runs with [beta = 0.4] (its
    support-degree cap).  The 0.506 guarantee holds in expectation when
    the stream order is uniformly random. *)

val solve : Wm_stream.Edge_stream.t -> Wm_graph.Matching.t
(** [run] projected to the matching. *)
