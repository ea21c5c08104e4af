module E = Wm_graph.Edge
module M = Wm_graph.Matching

type t = Path of E.t list | Cycle of E.t list

let edges = function Path es | Cycle es -> es

let weight c = List.fold_left (fun acc e -> acc + E.weight e) 0 (edges c)

(* The ordered vertex walk along the structure.  For a path of k edges
   the walk has k+1 vertices; for a cycle the first vertex is not
   repeated at the end. *)
let walk c =
  match edges c with
  | [] -> []
  | [ e ] ->
      let u, v = E.endpoints e in
      [ u; v ]
  | e1 :: (e2 :: _ as rest) ->
      let start =
        let u, v = E.endpoints e1 in
        if E.mem_vertex e2 u && not (E.mem_vertex e2 v) then v
        else if E.mem_vertex e2 v && not (E.mem_vertex e2 u) then u
        else if E.mem_vertex e2 u then v (* both shared: 2-cycle; pick v *)
        else invalid_arg "Aug.walk: disconnected edges"
      in
      let _, acc =
        List.fold_left
          (fun (cur, acc) e -> (E.other e cur, E.other e cur :: acc))
          (start, [ start ])
          (e1 :: rest)
      in
      let full = List.rev acc in
      full

let vertices c =
  match c with
  | Path _ -> walk c
  | Cycle _ -> (
      match walk c with
      | [] -> []
      | w ->
          (* Drop the closing repetition. *)
          let rec drop_last = function
            | [] | [ _ ] -> []
            | x :: rest -> x :: drop_last rest
          in
          drop_last w)

let is_wellformed c =
  match edges c with
  | [] -> false
  | es -> (
      try
        let w = walk c in
        let distinct l =
          let tbl = Hashtbl.create (List.length l) in
          List.for_all
            (fun v ->
              if Hashtbl.mem tbl v then false
              else (
                Hashtbl.add tbl v ();
                true))
            l
        in
        match c with
        | Path _ -> distinct w
        | Cycle _ -> (
            List.length es >= 2
            &&
            match (w, List.rev w) with
            | first :: _, last :: _ -> first = last && distinct (vertices c)
            | _ -> false)
      with Invalid_argument _ -> false)

let is_alternating c m =
  let es = edges c in
  let flags = List.map (fun e -> M.mem m e) es in
  let rec alternates = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a <> b && alternates rest
  in
  alternates flags
  &&
  match (c, flags, List.rev flags) with
  | Cycle _, first :: _, last :: _ -> first <> last
  | Cycle _, _, _ -> false
  | Path _, _, _ -> true

let matching_neighborhood c m =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun v ->
      match M.edge_at m v with
      | Some e ->
          let key = E.endpoints e in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some e
          end
      | None -> None)
    (vertices c)

let unmatched_part c m = List.filter (fun e -> not (M.mem m e)) (edges c)

let gain c m =
  let added = List.fold_left (fun a e -> a + E.weight e) 0 (unmatched_part c m) in
  let removed =
    List.fold_left (fun a e -> a + E.weight e) 0 (matching_neighborhood c m)
  in
  added - removed

let apply c m =
  if not (is_wellformed c) then invalid_arg "Aug.apply: malformed augmentation";
  if not (is_alternating c m) then invalid_arg "Aug.apply: not alternating";
  (* Snapshot both sides before mutating: removal changes membership. *)
  let to_remove = matching_neighborhood c m in
  let to_add = unmatched_part c m in
  List.iter (M.remove m) to_remove;
  List.iter (M.add m) to_add

let touched_vertices c m =
  let tbl = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace tbl v ()) (vertices c);
  List.iter
    (fun e ->
      let u, v = E.endpoints e in
      Hashtbl.replace tbl u ();
      Hashtbl.replace tbl v ())
    (matching_neighborhood c m);
  Hashtbl.fold (fun v () acc -> v :: acc) tbl []

(* Canonical key: the lexicographically least vertex walk over every
   presentation of the same structure — both directions for a path, all
   rotations of both directions for a cycle (lengths are bounded by the
   layer cap, so the O(len^2) scan is trivial).  A leading tag keeps
   path and cycle keys disjoint. *)
let canonical_key c =
  match c with
  | Path _ ->
      let w = walk c in
      let r = List.rev w in
      0 :: (if Stdlib.compare w r <= 0 then w else r)
  | Cycle _ ->
      let vs = Array.of_list (vertices c) in
      let n = Array.length vs in
      if n = 0 then [ 1 ]
      else begin
        let best = ref None in
        let consider l =
          match !best with
          | Some b when Stdlib.compare b l <= 0 -> ()
          | _ -> best := Some l
        in
        for s = 0 to n - 1 do
          consider (List.init n (fun i -> vs.((s + i) mod n)));
          consider (List.init n (fun i -> vs.((s - i + n) mod n)))
        done;
        1 :: Option.get !best
      end

let pp ppf c =
  let tag = match c with Path _ -> "path" | Cycle _ -> "cycle" in
  Format.fprintf ppf "@[<hov 2>%s(%a)@]" tag
    (Format.pp_print_list ~pp_sep:Format.pp_print_space E.pp)
    (edges c)
