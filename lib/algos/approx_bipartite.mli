(** The model cost of the [(1-delta)]-approximate bipartite unweighted
    matching black box (UNW-BIP-MATCHING in Algorithm 4).

    The paper consumes this box as an opaque subroutine characterised
    only by its approximation guarantee and its model cost ([U_S]
    passes / [U_M] rounds).  {!Streaming_bipartite} realises the
    guarantee; this module prices it, following the black-box
    accounting convention in DESIGN.md: the pass and round meters are
    charged what a streaming/MPC execution of the black box costs. *)

val pass_charge : delta:float -> int
(** Streaming passes one invocation costs: one pass per BFS level over
    [k = ceil(1/delta)] phases, i.e. [sum_(i<=k) (2i+1) = k^2 + 2k]
    (matching the [O(1/delta^2)]-type bounds of [AG13, EKMS12] up to a
    [log log] factor). *)

val round_charge : delta:float -> n:int -> int
(** MPC rounds one invocation costs with [~n]-memory machines:
    [ceil(1/delta) * ceil(log2 (log2 n))], the [O_delta (log log n)]
    shape of [GGK+18, ABB+19] combined with McGregor's reduction. *)
