(* CSR (compressed sparse row) adjacency: [off] has length [n + 1];
   vertex [v]'s incident edges occupy slots [off.(v) .. off.(v+1) - 1]
   of the packed [eix] (index into [edges]) array; a neighbour is read
   off the edge record, which every visit loads anyway.

   The index is a memo behind an [Atomic]: [no_index] until the first
   neighbour query builds and publishes it.  The general constructors
   build it at once; [canonical], [patch] and [canonical_of_array] leave
   it unbuilt, since the serving layer only reads their edges.  [canon]
   records that [edges] is in strictly increasing (u, v) order, which
   lets [find_edge] binary-search the edge array with no index. *)
type index = { off : int array; eix : int array }

type t = {
  n : int;
  edges : Edge.t array;
  canon : bool;
  index : index Atomic.t;
}

let no_index = { off = [||]; eix = [||] }

let max_total_weight = 1 lsl 53

(* The bound is checked before each addition, so the running sum itself
   never overflows. *)
let check_total_weight edges =
  let total = ref 0 in
  for i = 0 to Array.length edges - 1 do
    let w = Edge.weight edges.(i) in
    if w > max_total_weight - !total then
      invalid_arg "Weighted_graph: total weight exceeds 2^53";
    total := !total + w
  done

(* Canonical order: strictly increasing (u, v). *)
let before (a : Edge.t) (b : Edge.t) = a.u < b.u || (a.u = b.u && a.v < b.v)

let in_canonical_order edges =
  let rec go i =
    i >= Array.length edges || (before edges.(i - 1) edges.(i) && go (i + 1))
  in
  go 1

(* The first slot of a canonical edge array whose (u, v) is not below
   (a, b). *)
let lower_bound edges a b =
  let lo = ref 0 and hi = ref (Array.length edges) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let e : Edge.t = edges.(mid) in
    if e.u < a || (e.u = a && e.v < b) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Slots [0 .. m-1] of the endpoint columns [lo], [hi] (each in
   [0, n)), sorted by (lo, hi) in O(n + m): a counting pass by [hi], then
   a stable one by [lo].  Equal pairs keep slot order. *)
let canonical_order ~n ~m ~lo ~hi =
  let count = Array.make (n + 1) 0 in
  let by (key : int array) slot_at =
    Array.fill count 0 (n + 1) 0;
    for i = 0 to m - 1 do
      count.(key.(i) + 1) <- count.(key.(i) + 1) + 1
    done;
    for b = 1 to n do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    let sorted = Array.make m 0 in
    for k = 0 to m - 1 do
      let i = slot_at k in
      let b = key.(i) in
      sorted.(count.(b)) <- i;
      count.(b) <- count.(b) + 1
    done;
    sorted
  in
  let by_hi = by hi Fun.id in
  by lo (Array.get by_hi)

(* Repeated pairs are equal neighbours of [order], each run in slot
   order, so the earliest repeat is the least slot that is not first in
   its run. *)
let first_repeat order ~lo ~hi =
  let first = ref (-1) and repeat = ref (-1) and run = ref 0 in
  for k = 1 to Array.length order - 1 do
    let i = order.(k) and j = order.(k - 1) in
    if lo.(i) <> lo.(j) || hi.(i) <> hi.(j) then run := k
    else if !repeat < 0 || i < !repeat then begin
      repeat := i;
      first := order.(!run)
    end
  done;
  if !repeat < 0 then None else Some (!first, !repeat)

(* Range-checks every edge, and rejects parallel edges unless the array
   is [canon]ical: strictly increasing (u, v) order already rules them
   out.  The first bad edge in array order is the one reported, so
   parallel edges are sought only before the first out-of-range one. *)
let validate n ~canon edges =
  check_total_weight edges;
  (* [Edge.make] normalises u < v, but check all four bounds
     explicitly rather than rely on that invariant. *)
  let in_range (e : Edge.t) = e.u >= 0 && e.u < n && e.v >= 0 && e.v < n in
  let r = ref 0 in
  while !r < Array.length edges && in_range edges.(!r) do
    incr r
  done;
  if not canon then begin
    let lo = Array.init !r (fun i -> edges.(i).Edge.u)
    and hi = Array.init !r (fun i -> edges.(i).Edge.v) in
    match first_repeat (canonical_order ~n ~m:!r ~lo ~hi) ~lo ~hi with
    | Some (_, i) ->
        invalid_arg
          (Printf.sprintf "Weighted_graph: parallel edge %s"
             (Edge.to_string edges.(i)))
    | None -> ()
  end;
  if !r < Array.length edges then
    invalid_arg
      (Printf.sprintf "Weighted_graph: edge %s out of range [0,%d)"
         (Edge.to_string edges.(!r)) n)

(* Counting sort into CSR; per-vertex slices come out in edge order. *)
let build_index ~n edges =
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun (e : Edge.t) ->
      off.(e.u + 1) <- off.(e.u + 1) + 1;
      off.(e.v + 1) <- off.(e.v + 1) + 1)
    edges;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let eix = Array.make (2 * Array.length edges) 0 in
  let cursor = Array.sub off 0 n in
  Array.iteri
    (fun i ({ u; v; _ } : Edge.t) ->
      eix.(cursor.(u)) <- i;
      cursor.(u) <- cursor.(u) + 1;
      eix.(cursor.(v)) <- i;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  { off; eix }

(* The memo.  Domains racing on a fresh graph each build the same index
   and the compare-and-set keeps one copy.  (A [Lazy.t] forced from two
   domains at once raises instead.) *)
let index g =
  let ix = Atomic.get g.index in
  if ix != no_index then ix
  else begin
    ignore
      (Atomic.compare_and_set g.index no_index (build_index ~n:g.n g.edges));
    Atomic.get g.index
  end

(* Internal constructors for edge arrays already known to be in range
   and parallel-edge-free (owned, not aliased by the caller): [lazily]
   leaves the index to the first neighbour query, [indexed] builds it. *)
let lazily ~n ~canon edges = { n; edges; canon; index = Atomic.make no_index }

let indexed ~n ~canon edges =
  let g = lazily ~n ~canon edges in
  ignore (index g);
  g

let of_array ~n edges =
  if n < 0 then invalid_arg "Weighted_graph: negative n";
  let edges = Array.copy edges in
  let canon = in_canonical_order edges in
  validate n ~canon edges;
  indexed ~n ~canon edges

(* Trusted flat constructor: endpoints/weights come as parallel int
   arrays from a caller that guarantees validity by construction (the
   scale generators, the text parser), so the
   duplicate pass of [validate] is skipped along with any
   intermediate edge list.  [Edge.make] still normalises endpoint order
   and rejects self-loops and negative weights per edge. *)
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
  indexed ~n ~canon:(in_canonical_order edges) edges

let create ~n edges = of_array ~n (Array.of_list edges)

let empty n = of_array ~n [||]

let n g = g.n
let m g = Array.length g.edges
let edges g = g.edges
let iter_edges f g = Array.iter f g.edges
let fold_edges f init g = Array.fold_left f init g.edges

let degree g v =
  let { off; _ } = index g in
  off.(v + 1) - off.(v)

(* The endpoint of [e] that is not [v], for [v] an endpoint. *)
let other (e : Edge.t) v = if e.u = v then e.v else e.u

let neighbors g v =
  let { off; eix } = index g in
  let acc = ref [] in
  for i = off.(v + 1) - 1 downto off.(v) do
    let e = g.edges.(eix.(i)) in
    acc := (other e v, e) :: !acc
  done;
  !acc

let iter_neighbors g v f =
  let { off; eix } = index g in
  for i = off.(v) to off.(v + 1) - 1 do
    let e = g.edges.(eix.(i)) in
    f (other e v) e
  done

let fold_neighbors g v f init =
  let { off; eix } = index g in
  let acc = ref init in
  for i = off.(v) to off.(v + 1) - 1 do
    let e = g.edges.(eix.(i)) in
    acc := f !acc (other e v) e
  done;
  !acc

(* The slot in [edges] of the edge joining [u] and [v], or -1.  A
   canonical edge array is binary-searched for (min, max); otherwise
   the smaller of the two incidence slices is scanned. *)
let slot g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then -1
  else if g.canon then begin
    let a = if u < v then u else v and b = if u < v then v else u in
    let i = lower_bound g.edges a b in
    if i < Array.length g.edges && g.edges.(i).u = a && g.edges.(i).v = b
    then i
    else -1
  end
  else begin
    let { off; eix } = index g in
    let u, v =
      if off.(u + 1) - off.(u) <= off.(v + 1) - off.(v) then (u, v) else (v, u)
    in
    let rec scan i =
      if i >= off.(u + 1) then -1
      else if other g.edges.(eix.(i)) u = v then eix.(i)
      else scan (i + 1)
    in
    scan off.(u)
  end

let find_edge g u v =
  let i = slot g u v in
  if i < 0 then None else Some g.edges.(i)

let mem_edge g u v = slot g u v >= 0

let total_weight g = Array.fold_left (fun acc e -> acc + Edge.weight e) 0 g.edges

let max_weight g = Array.fold_left (fun acc e -> Stdlib.max acc (Edge.weight e)) 0 g.edges

(* Canonicalisation, O(n + m): count the edges per min endpoint u, then
   visit max endpoints v = 0 .. n-1 through the CSR and drop each edge
   with u < v into u's bucket, which so fills in increasing v.  The fill
   overwrites every slot of the [sorted] copy. *)
let canonical_edges g =
  if g.canon then g.edges
  else begin
    let { off = csr; eix } = index g in
    let off = Array.make (g.n + 1) 0 in
    Array.iter (fun (e : Edge.t) -> off.(e.u + 1) <- off.(e.u + 1) + 1) g.edges;
    for u = 1 to g.n do
      off.(u) <- off.(u) + off.(u - 1)
    done;
    let sorted = Array.copy g.edges in
    for v = 0 to g.n - 1 do
      for i = csr.(v) to csr.(v + 1) - 1 do
        let e = g.edges.(eix.(i)) in
        if e.u < v then begin
          sorted.(off.(e.u)) <- e;
          off.(e.u) <- off.(e.u) + 1
        end
      done
    done;
    sorted
  end

(* A canonical graph's passes walk its edge array in slot order, so a
   non-canonical input's records are copied afresh in that order: the
   records then sit in memory in the order the passes read them. *)
let canonical g =
  if g.canon then g
  else
    lazily ~n:g.n ~canon:true
      (Array.map (fun (e : Edge.t) -> Edge.make e.u e.v e.w) (canonical_edges g))

let canonical_of_array ~n edges =
  if n < 0 then invalid_arg "Weighted_graph: negative n";
  if in_canonical_order edges then begin
    validate n ~canon:true edges;
    lazily ~n ~canon:true edges
  end
  else canonical (of_array ~n edges)

(* Delta rebuild: kept base edges were validated when [g] was built, so
   only the delta is checked — removals must name existing edges, and
   additions must be in range for the grown vertex set and must not
   parallel a kept base edge or another addition.  Then the runs of the
   canonical base edges between removed slots are blitted into place,
   with each sorted addition at its binary-searched slot, so the result
   is canonical.  On a canonical [g] the membership checks
   binary-search its edge array and no index is built. *)
let patch g ?(add_vertices = 0) ?(add = []) ?(remove = []) () =
  if add_vertices < 0 then
    invalid_arg "Weighted_graph.patch: negative add_vertices";
  (* Every solver allocates one array slot per vertex; compared this way
     round, the bound cannot overflow. *)
  if add_vertices > Sys.max_array_length - 1 - g.n then
    invalid_arg
      (Printf.sprintf
         "Weighted_graph.patch: %d more vertices exceed the array bound %d"
         add_vertices Sys.max_array_length);
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
  Array.sort Edge.compare adds;
  let gone =
    Array.of_seq
      (Seq.map
         (fun (u, v) -> lower_bound base u v)
         (Hashtbl.to_seq_keys removed))
  in
  Array.sort Int.compare gone;
  let m = Array.length base and r = Array.length gone in
  (* Seeded with an old edge: a fresh one would make [Array.make] force a
     minor collection before allocating on the major heap. *)
  let edges =
    Array.make (m - r + Array.length adds)
      (if m > 0 then base.(0) else Edge.make 0 1 0)
  in
  (* Blit the runs of [base] up to slot [stop], skipping removed slots. *)
  let i = ref 0 and o = ref 0 and k = ref 0 in
  let copy_to stop =
    while !i < stop do
      let next = if !k < r && gone.(!k) < stop then gone.(!k) else stop in
      Array.blit base !i edges !o (next - !i);
      o := !o + next - !i;
      i := next;
      if next < stop then begin
        incr i;
        incr k
      end
    done
  in
  Array.iter
    (fun (e : Edge.t) ->
      copy_to (lower_bound base e.u e.v);
      edges.(!o) <- e;
      incr o)
    adds;
  copy_to m;
  check_total_weight edges;
  lazily ~n:n' ~canon:true edges

let is_bipartition g ~left =
  Array.for_all
    (fun e ->
      let u, v = Edge.endpoints e in
      left u <> left v)
    g.edges
