type t = {
  mates : Edge.t option array; (* mates.(v) = matching edge at v *)
  mutable size : int;
  mutable weight : int;
}

let create nv =
  if nv < 0 then invalid_arg "Matching.create: negative n";
  { mates = Array.make nv None; size = 0; weight = 0 }

let n m = Array.length m.mates
let size m = m.size
let weight m = m.weight

let copy m = { mates = Array.copy m.mates; size = m.size; weight = m.weight }

let extend m nv =
  let cur = Array.length m.mates in
  if nv <= cur then copy m
  else
    let mates = Array.make nv None in
    Array.blit m.mates 0 mates 0 cur;
    { mates; size = m.size; weight = m.weight }

let edge_at m v = m.mates.(v)
let is_matched m v = Option.is_some m.mates.(v)

let mate m v = Option.map (fun e -> Edge.other e v) m.mates.(v)

let weight_at m v =
  match m.mates.(v) with Some e -> Edge.weight e | None -> 0

let mem m e =
  let u, _ = Edge.endpoints e in
  match m.mates.(u) with
  | Some e' -> Edge.same_endpoints e e'
  | None -> false

let add m e =
  let u, v = Edge.endpoints e in
  if is_matched m u || is_matched m v then
    invalid_arg
      (Printf.sprintf "Matching.add: conflicting edge %s" (Edge.to_string e));
  m.mates.(u) <- Some e;
  m.mates.(v) <- Some e;
  m.size <- m.size + 1;
  m.weight <- m.weight + Edge.weight e

let try_add m e =
  let u, v = Edge.endpoints e in
  if is_matched m u || is_matched m v then false
  else (
    add m e;
    true)

let remove m e =
  let u, v = Edge.endpoints e in
  (* Validate both slots: removing while only one endpoint agrees would
     leave a stale mate behind and silently desync [size]/[weight]. *)
  let slot x =
    match m.mates.(x) with
    | Some e' when Edge.same_endpoints e e' -> e'
    | Some e' ->
        invalid_arg
          (Printf.sprintf "Matching.remove: stale mate %s at vertex %d while removing %s"
             (Edge.to_string e') x (Edge.to_string e))
    | None ->
        invalid_arg
          (Printf.sprintf "Matching.remove: edge %s not in matching"
             (Edge.to_string e))
  in
  let eu = slot u and ev = slot v in
  if Edge.weight eu <> Edge.weight ev then
    invalid_arg
      (Printf.sprintf "Matching.remove: mate weights desynced (%s at %d, %s at %d)"
         (Edge.to_string eu) u (Edge.to_string ev) v);
  m.mates.(u) <- None;
  m.mates.(v) <- None;
  m.size <- m.size - 1;
  m.weight <- m.weight - Edge.weight eu

let remove_at m v =
  match m.mates.(v) with
  | None -> None
  | Some e ->
      remove m e;
      Some e

let add_evicting m e =
  let u, v = Edge.endpoints e in
  let evicted = List.filter_map (remove_at m) [ u; v ] in
  add m e;
  evicted

let of_edges nv edges =
  let m = create nv in
  List.iter (add m) edges;
  m

let iter f m =
  Array.iteri
    (fun v eo ->
      match eo with
      | Some e when fst (Edge.endpoints e) = v -> f e
      | Some _ | None -> ())
    m.mates

let fold f init m =
  let acc = ref init in
  iter (fun e -> acc := f !acc e) m;
  !acc

let edges m = List.rev (fold (fun acc e -> e :: acc) [] m)

let equal m1 m2 =
  n m1 = n m2
  && size m1 = size m2
  && fold (fun ok e -> ok && mem m2 e && weight_at m2 (fst (Edge.endpoints e)) = Edge.weight e) true m1

let is_maximal_in m g =
  Weighted_graph.fold_edges
    (fun ok e ->
      let u, v = Edge.endpoints e in
      ok && (is_matched m u || is_matched m v))
    true g

let is_valid_in m g =
  fold
    (fun ok e ->
      let u, v = Edge.endpoints e in
      ok
      &&
      match Weighted_graph.find_edge g u v with
      | Some e' -> Edge.weight e = Edge.weight e'
      | None -> false)
    true m
