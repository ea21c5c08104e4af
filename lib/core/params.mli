(** Parameters of the Section 4 reduction.

    The paper fixes every constant as a function of [epsilon]:
    granularity [eps^12], at most [2/eps * 16/eps + 1] layers,
    black-box slack [delta = eps^(28 + 900/eps^2)], class ratio
    [1 + eps^4] and exhaustive tau-pair enumeration.  Those values are
    existentially sufficient but cannot run: at [eps = 1/16] the bucket
    universe {!Tau.max_granules} alone is about [2.8 * 10^14] granules,
    so the first layered-graph cache runs out of memory on a 12-vertex
    graph.  The implementation keeps the identical structure with
    tractable values: {!practical} sets the ones experiments vary, and
    the rest are the constants below. *)

type t = {
  epsilon : float;  (** target approximation slack *)
  granularity : float;  (** Tau granule, fraction of the class scale W *)
  max_layers : int;  (** longest [tau^A] considered *)
  delta : float;  (** slack of the unweighted bipartite black box *)
  max_iterations : int;  (** outer improvement iterations *)
}

val class_ratio : float
(** Ratio between consecutive class scales W: 2. *)

val tau_budget : int
(** Tau pairs tried per augmentation class, at most: 3000. *)

val tau_samples : int
(** Walk-sampled tau pairs drawn per augmentation class (plus a quarter
    as many uniform draws): 300. *)

val practical : ?epsilon:float -> unit -> t
(** Tractable defaults (default [epsilon = 0.1]): granularity 1/32,
    9 layers and [delta = 0.1].  The number of iterations scales as
    [ceil (4 / epsilon)]. *)

val tau_params : t -> Tau.params
(** The projection used by {!Tau} ([slack = epsilon^4]). *)
