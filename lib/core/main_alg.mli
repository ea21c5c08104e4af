(** MAIN-ALG (Algorithm 3) and the [(1 - eps)] iteration (Theorems 4.1
    and 1.2).

    One improvement round sweeps every augmentation-class scale
    [W = ratio^i] — in parallel, across the [Wm_par.Pool] default pool,
    exactly as Algorithm 3 runs the classes against the round-start
    matching — then greedily applies non-conflicting augmentations from
    the heaviest class down (that cross-class selection stays
    sequential).  Each class draws from its own generator split off the
    caller's [Prng] in scale order before any class runs, so results
    are byte-identical for every jobs setting.  Repeating the round
    [O_eps(1)] times from the empty matching converges to a
    [(1 - eps)]-approximate maximum weighted matching in expectation. *)

type round_stats = {
  scales_tried : int;
  augmentations_applied : int;
  gain : int;  (** weight added to the matching this round *)
  class_stats : (float * Aug_class.stats) list;  (** per-scale details *)
}

type run_stats = {
  rounds : round_stats list;  (** in execution order *)
  final_weight : int;
}

val scales_for :
  Params.t -> Wm_graph.Weighted_graph.t -> float list
(** The augmentation-class scales swept by one round: powers of
    {!Params.class_ratio} from 1 up to [max_layers * max_weight], pruned to
    scales that can host an unmatched edge ([W <= w_max / (2 g)]). *)

val improve_once :
  Params.t ->
  Wm_graph.Prng.t ->
  Wm_graph.Weighted_graph.t ->
  Wm_graph.Matching.t ->
  round_stats
(** One round of Algorithm 3; mutates the matching. *)

val solve :
  ?init:Wm_graph.Matching.t ->
  ?patience:int ->
  Params.t ->
  Wm_graph.Prng.t ->
  Wm_graph.Weighted_graph.t ->
  Wm_graph.Matching.t * run_stats
(** Iterate {!improve_once} from [init] (default: empty) until
    [patience] (default 4) consecutive rounds yield no gain or
    [max_iterations] rounds have run. *)
