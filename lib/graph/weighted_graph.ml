(* CSR (compressed sparse row) adjacency: [off] has length [n + 1];
   vertex [v]'s incident edges occupy slots [off.(v) .. off.(v+1) - 1]
   of the packed [eix] (index into [edges]) array; a neighbour is read
   off the edge record, which every visit loads anyway.  Built eagerly
   at construction, so a graph value is immutable after [of_array]
   returns and can be shared freely across domains. *)
type t = {
  n : int;
  edges : Edge.t array;
  off : int array;
  eix : int array;
}

let max_total_weight = 1 lsl 53

(* The bound is checked before each addition, so the running sum itself
   never overflows. *)
let check_total_weight edges =
  ignore
    (Array.fold_left
       (fun acc e ->
         if Edge.weight e > max_total_weight - acc then
           invalid_arg "Weighted_graph: total weight exceeds 2^53"
         else acc + Edge.weight e)
       0 edges)

(* Canonical order: strictly increasing (u, v). *)
let before (a : Edge.t) (b : Edge.t) = a.u < b.u || (a.u = b.u && a.v < b.v)

let in_canonical_order edges =
  let rec go i =
    i >= Array.length edges || (before edges.(i - 1) edges.(i) && go (i + 1))
  in
  go 1

let validate n edges =
  check_total_weight edges;
  let seen = Hashtbl.create (Array.length edges) in
  Array.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      (* [Edge.make] normalises u < v, but check all four bounds
         explicitly rather than rely on that invariant. *)
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Weighted_graph: edge %s out of range [0,%d)"
             (Edge.to_string e) n);
      if Hashtbl.mem seen (u, v) then
        invalid_arg
          (Printf.sprintf "Weighted_graph: parallel edge %s" (Edge.to_string e));
      Hashtbl.add seen (u, v) ())
    edges

(* Counting sort into CSR; per-vertex slices come out in edge order. *)
let index ~n edges =
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun (e : Edge.t) ->
      off.(e.u + 1) <- off.(e.u + 1) + 1;
      off.(e.v + 1) <- off.(e.v + 1) + 1)
    edges;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let total = 2 * Array.length edges in
  let eix = Array.make total 0 in
  let cursor = Array.sub off 0 n in
  Array.iteri
    (fun i ({ u; v; _ } : Edge.t) ->
      eix.(cursor.(u)) <- i;
      cursor.(u) <- cursor.(u) + 1;
      eix.(cursor.(v)) <- i;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  (off, eix)

(* Internal constructor for edge arrays already known to be in range and
   parallel-edge-free (owned, not aliased by the caller). *)
let unsafe_of_owned_array ~n ~edges =
  let off, eix = index ~n edges in
  { n; edges; off; eix }

let of_array ~n edges =
  if n < 0 then invalid_arg "Weighted_graph: negative n";
  let edges = Array.copy edges in
  validate n edges;
  unsafe_of_owned_array ~n ~edges

(* Trusted flat constructor: endpoints/weights come as parallel int
   arrays from a caller that guarantees validity by construction (the
   layered-graph builder, the scale generators), so the per-edge
   Hashtbl pass of [validate] is skipped along with any intermediate
   edge list.  [Edge.make] still normalises endpoint order and rejects
   self-loops and negative weights per edge. *)
let of_flat ~n ~m ~src ~dst ~w =
  if n < 0 then invalid_arg "Weighted_graph.of_flat: negative n";
  if m < 0 || m > Array.length src || m > Array.length dst
     || m > Array.length w
  then invalid_arg "Weighted_graph.of_flat: bad m";
  let edges = Array.init m (fun i -> Edge.make src.(i) dst.(i) w.(i)) in
  Array.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      if u < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Weighted_graph.of_flat: edge %s out of range [0,%d)"
             (Edge.to_string e) n))
    edges;
  unsafe_of_owned_array ~n ~edges

let create ~n edges = of_array ~n (Array.of_list edges)

let empty n = of_array ~n [||]

let n g = g.n
let m g = Array.length g.edges
let edges g = g.edges
let edge_list g = Array.to_list g.edges
let iter_edges f g = Array.iter f g.edges
let fold_edges f init g = Array.fold_left f init g.edges

let degree g v = g.off.(v + 1) - g.off.(v)

(* The endpoint of [e] that is not [v], for [v] an endpoint. *)
let other (e : Edge.t) v = if e.u = v then e.v else e.u

let neighbors g v =
  let acc = ref [] in
  for i = g.off.(v + 1) - 1 downto g.off.(v) do
    let e = g.edges.(g.eix.(i)) in
    acc := (other e v, e) :: !acc
  done;
  !acc

let iter_neighbors g v f =
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    let e = g.edges.(g.eix.(i)) in
    f (other e v) e
  done

let fold_neighbors g v f init =
  let acc = ref init in
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    let e = g.edges.(g.eix.(i)) in
    acc := f !acc (other e v) e
  done;
  !acc

let find_edge g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then None
  else begin
    (* Scan the smaller of the two incidence slices. *)
    let u, v = if degree g u <= degree g v then (u, v) else (v, u) in
    let rec scan i =
      if i >= g.off.(u + 1) then None
      else
        let e = g.edges.(g.eix.(i)) in
        if other e u = v then Some e else scan (i + 1)
    in
    scan g.off.(u)
  end

let mem_edge g u v = Option.is_some (find_edge g u v)

let total_weight g = Array.fold_left (fun acc e -> acc + Edge.weight e) 0 g.edges

let max_weight g = Array.fold_left (fun acc e -> Stdlib.max acc (Edge.weight e)) 0 g.edges

(* [subgraph] and [map_weights] cannot introduce out-of-range vertices
   or parallel edges (they filter / reweight a validated edge set), so
   they skip the Hashtbl re-validation pass of [of_array]. *)
let subgraph g keep =
  unsafe_of_owned_array ~n:g.n
    ~edges:(Array.of_seq (Seq.filter keep (Array.to_seq g.edges)))

let map_weights g f =
  unsafe_of_owned_array ~n:g.n
    ~edges:(Array.map (fun e -> Edge.reweight e (f e)) g.edges)

(* Canonicalisation, O(n + m): count the edges per min endpoint u, then
   visit max endpoints v = 0 .. n-1 through the CSR and drop each edge
   with u < v into u's bucket, which so fills in increasing v.  The fill
   overwrites every slot of the [sorted] copy. *)
let canonical_edges g =
  if in_canonical_order g.edges then g.edges
  else begin
    let off = Array.make (g.n + 1) 0 in
    Array.iter (fun (e : Edge.t) -> off.(e.u + 1) <- off.(e.u + 1) + 1) g.edges;
    for u = 1 to g.n do
      off.(u) <- off.(u) + off.(u - 1)
    done;
    let sorted = Array.copy g.edges in
    for v = 0 to g.n - 1 do
      for i = g.off.(v) to g.off.(v + 1) - 1 do
        let e = g.edges.(g.eix.(i)) in
        if e.u < v then begin
          sorted.(off.(e.u)) <- e;
          off.(e.u) <- off.(e.u) + 1
        end
      done
    done;
    sorted
  end

let canonical g =
  let edges = canonical_edges g in
  if edges == g.edges then g else unsafe_of_owned_array ~n:g.n ~edges

(* Delta rebuild: kept base edges were validated when [g] was built, so
   only the delta is checked — removals must name existing edges, and
   additions must be in range for the grown vertex set and must not
   parallel a kept base edge or another addition.  Then one merge over
   the canonical base edges drops the sorted removals as it meets them
   and slots the sorted additions in, so the result is canonical. *)
let patch g ?(add_vertices = 0) ?(add = []) ?(remove = []) () =
  if add_vertices < 0 then
    invalid_arg "Weighted_graph.patch: negative add_vertices";
  let n' = g.n + add_vertices in
  let removed = Hashtbl.create (max 1 (2 * List.length remove)) in
  List.iter
    (fun (u, v) ->
      let u, v = if u <= v then (u, v) else (v, u) in
      if Hashtbl.mem removed (u, v) then
        invalid_arg
          (Printf.sprintf "Weighted_graph.patch: edge %d-%d removed twice" u v);
      if not (mem_edge g u v) then
        invalid_arg
          (Printf.sprintf "Weighted_graph.patch: no edge %d-%d to remove" u v);
      Hashtbl.add removed (u, v) ())
    remove;
  let seen_add = Hashtbl.create (max 1 (2 * List.length add)) in
  List.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      if u < 0 || u >= n' || v < 0 || v >= n' then
        invalid_arg
          (Printf.sprintf "Weighted_graph.patch: edge %s out of range [0,%d)"
             (Edge.to_string e) n');
      if Hashtbl.mem seen_add (u, v)
         || (mem_edge g u v && not (Hashtbl.mem removed (u, v)))
      then
        invalid_arg
          (Printf.sprintf "Weighted_graph.patch: parallel edge %s"
             (Edge.to_string e));
      Hashtbl.add seen_add (u, v) ())
    add;
  let base = canonical_edges g and adds = Array.of_list add in
  let gone = Array.of_seq (Hashtbl.to_seq_keys removed) in
  Array.sort Edge.compare adds;
  Array.sort compare gone;
  let m = Array.length base and a = Array.length adds in
  let edges = Array.make (m - Array.length gone + a) (Edge.make 0 1 0) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let next_gone (e : Edge.t) =
    !k < Array.length gone && (let u, v = gone.(!k) in e.u = u && e.v = v)
  in
  for o = 0 to Array.length edges - 1 do
    while !i < m && next_gone base.(!i) do
      incr i;
      incr k
    done;
    if !j < a && (!i >= m || before adds.(!j) base.(!i)) then begin
      edges.(o) <- adds.(!j);
      incr j
    end
    else begin
      edges.(o) <- base.(!i);
      incr i
    end
  done;
  check_total_weight edges;
  unsafe_of_owned_array ~n:n' ~edges

let is_bipartition g ~left =
  Array.for_all
    (fun e ->
      let u, v = Edge.endpoints e in
      left u <> left v)
    g.edges

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>graph(n=%d, m=%d:@ %a)@]" g.n (m g)
    (Format.pp_print_array ~pp_sep:Format.pp_print_space Edge.pp)
    g.edges
