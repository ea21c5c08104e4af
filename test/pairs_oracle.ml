(* The list-based tau-pair pool that [Aug_class.candidate_pairs]'s
   streamed pipeline replaced, kept as its differential oracle: every
   source's pairs are copied into lists, the concatenation (homogeneous
   family, walk captures newest walk first, uniform samples) is
   deduplicated first-wins in a hash table keyed by content, cut at
   [Params.tau_budget], and each pool pair is split by a full
   [Layered.build_opt]. *)

module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module Tau = Wm_core.Tau
module Layered = Wm_core.Layered
module Params = Wm_core.Params

module Tbl = Hashtbl.Make (struct
  type t = Tau.pair

  let equal (p : Tau.pair) (q : Tau.pair) = p.a = q.a && p.b = q.b

  let hash (p : Tau.pair) =
    let mix h x = (h * 31) + x in
    Array.fold_left mix (Array.fold_left mix 7 p.a) p.b land max_int
end)

(* The count-then-scan walk that the unmatched-incidence CSR replaced:
   each step counts the current vertex's unmatched edges, draws an
   index, and scans for that edge.  Returns the good captures newest
   walk first, not deduplicated. *)
let walk_pairs params rng (gp : Layered.parametrized) ~scale ~count =
  let tp = Params.tau_params params in
  let g = gp.Layered.graph and m = gp.Layered.matching in
  let n = G.n g in
  if n = 0 then []
  else begin
    let granule = params.Params.granularity *. scale in
    let pairs = ref [] in
    for _ = 1 to count do
      let start = P.int rng n in
      let a_buckets = ref [] and b_buckets = ref [] in
      let cur = ref start in
      (match M.edge_at m start with
      | Some e ->
          a_buckets := [ Tau.bucket_up ~granule (E.weight e) ];
          cur := E.other e start
      | None -> a_buckets := [ 0 ]);
      let steps = 1 + P.int rng (params.Params.max_layers - 1) in
      (try
         for _ = 1 to steps do
           let unmatched_count =
             G.fold_neighbors g !cur
               (fun acc _ e -> if M.mem m e then acc else acc + 1)
               0
           in
           if unmatched_count = 0 then raise Exit;
           let idx = P.int rng unmatched_count in
           let picked = ref None in
           let seen = ref 0 in
           G.iter_neighbors g !cur (fun _ e ->
               if not (M.mem m e) then begin
                 if !seen = idx then picked := Some e;
                 incr seen
               end);
           let o = Option.get !picked in
           b_buckets := Tau.bucket_down ~granule (E.weight o) :: !b_buckets;
           let x = E.other o !cur in
           match M.edge_at m x with
           | Some e' ->
               a_buckets := Tau.bucket_up ~granule (E.weight e') :: !a_buckets;
               cur := E.other e' x
           | None ->
               a_buckets := 0 :: !a_buckets;
               raise Exit
         done
       with Exit -> ());
      if !b_buckets <> [] then
        match
          Tau.capture_path tp ~a_buckets:(List.rev !a_buckets)
            ~b_buckets:(List.rev !b_buckets)
        with
        | Some pr -> pairs := pr :: !pairs
        | None -> ()
    done;
    !pairs
  end

(* [count] uniform draws, the good ones as fresh pairs in draw order. *)
let sample (p : Tau.params) rng ~a_values ~b_values ~count =
  let avs = Array.of_list (List.sort_uniq Int.compare (0 :: a_values)) in
  let interior = Array.of_list (List.filter (fun v -> v >= 2) a_values) in
  let bs = Array.of_list (List.sort_uniq Int.compare b_values) in
  let out = ref [] in
  for _ = 1 to count do
    let k = 1 + P.int rng (p.Tau.max_layers - 1) in
    if k = 1 || Array.length interior > 0 then begin
      let pick arr = arr.(P.int rng (Array.length arr)) in
      let a =
        Array.init (k + 1) (fun i ->
            if i = 0 || i = k then pick avs else pick interior)
      in
      let b = Array.init k (fun _ -> pick bs) in
      let pr = { Tau.a; b } in
      if Tau.is_good p pr then out := pr :: !out
    end
  done;
  List.rev !out

(* The deduplicated pool, trivial pairs included, in arrival order. *)
let pool params rng gp ~cache ~scale =
  let tp = Params.tau_params params in
  let a_values, b_values = Layered.present cache in
  if b_values = [] then []
  else begin
    let homogeneous = ref [] in
    Tau.iter_homogeneous tp ~a_values ~b_values (fun pr ->
        homogeneous :=
          { Tau.a = Array.copy pr.Tau.a; b = Array.copy pr.Tau.b }
          :: !homogeneous);
    let walks = walk_pairs params rng gp ~scale ~count:Params.tau_samples in
    let samples =
      sample tp rng ~a_values ~b_values ~count:(Params.tau_samples / 4)
    in
    let seen = Tbl.create 256 in
    List.filteri
      (fun i _ -> i < Params.tau_budget)
      (List.filter
         (fun pr ->
           (not (Tbl.mem seen pr))
           && begin
                Tbl.add seen pr ();
                true
              end)
         (List.rev_append !homogeneous (walks @ samples)))
  end

let candidate_pairs params rng gp ~cache ~scale =
  let c =
    List.fold_left
      (fun (c : Wm_core.Aug_class.candidates) pr ->
        match Layered.build_opt cache pr with
        | Layered.Graph _ -> { c with pairs = pr :: c.pairs }
        | Layered.Trivial x ->
            {
              c with
              trivial = c.trivial + 1;
              trivial_edges = c.trivial_edges + x;
              trivial_edges_max = Stdlib.max c.trivial_edges_max x;
            })
      { pairs = []; trivial = 0; trivial_edges = 0; trivial_edges_max = 0 }
      (pool params rng gp ~cache ~scale)
  in
  { c with pairs = List.rev c.pairs }
