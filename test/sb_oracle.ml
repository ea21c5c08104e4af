(* The Matching-based streaming black box that
   [Streaming_bipartite.solve]'s mate arrays replaced, and the
   symmetric-difference path extraction that [Layered.augmenting_paths]
   replaced, kept as their differential oracle: the matching is a
   [Matching.t] of edge records, BFS parents are [Some e] options, and
   augmenting paths are the components of [M' xor init] with one more
   [M'] edge, as edge lists. *)

module E = Wm_graph.Edge
module M = Wm_graph.Matching

type result = { matching : M.t; passes : int; phases : int }

let solve ?init ~n ~left ~delta pass =
  let cap =
    if delta = 0. then Stdlib.max 1 n
    else Stdlib.max 1 (int_of_float (Float.ceil (1.0 /. delta)))
  in
  let m = match init with Some m -> M.copy m | None -> M.create n in
  let passes = ref 0 in
  let phases = ref 0 in
  let level = Array.make n (-1) in
  let parent : E.t option array = Array.make n None in
  let running = ref true in
  while !running do
    Array.fill level 0 n (-1);
    Array.fill parent 0 n None;
    for v = 0 to n - 1 do
      if left v && not (M.is_matched m v) then level.(v) <- 0
    done;
    let found_depth = ref (-1) in
    let depth = ref 0 in
    let dead = ref false in
    while !found_depth = -1 && (not !dead) && !depth < cap do
      let frontier = ref false in
      for v = 0 to n - 1 do
        if level.(v) = 2 * !depth then frontier := true
      done;
      if not !frontier then dead := true
      else begin
        incr passes;
        pass (fun e ->
            let u, v = E.endpoints e in
            if left u <> left v then begin
              let l, r = if left u then (u, v) else (v, u) in
              if
                (not (M.mem m e))
                && level.(l) = 2 * !depth
                && level.(r) = -1
              then begin
                level.(r) <- (2 * !depth) + 1;
                parent.(r) <- Some e
              end
            end);
        let any_free = ref false in
        let grew = ref false in
        for r = 0 to n - 1 do
          if (not (left r)) && level.(r) = (2 * !depth) + 1 then
            match M.edge_at m r with
            | None -> any_free := true
            | Some me ->
                let l' = E.other me r in
                if level.(l') = -1 then begin
                  level.(l') <- (2 * !depth) + 2;
                  parent.(l') <- Some me;
                  grew := true
                end
        done;
        if !any_free then found_depth := !depth
        else if not !grew then dead := true
        else incr depth
      end
    done;
    if !found_depth = -1 then running := false
    else begin
      let used = Array.make n false in
      let applied = ref 0 in
      let target_level = (2 * !found_depth) + 1 in
      for r0 = 0 to n - 1 do
        if (not (left r0)) && level.(r0) = target_level && not (M.is_matched m r0)
        then begin
          let rec trace r acc verts =
            match parent.(r) with
            | None -> None
            | Some e_un -> (
                let l = E.other e_un r in
                if level.(l) = 0 then Some (e_un :: acc, l :: r :: verts)
                else
                  match parent.(l) with
                  | None -> None
                  | Some e_m ->
                      let r' = E.other e_m l in
                      trace r' (e_m :: e_un :: acc) (l :: r :: verts))
          in
          match trace r0 [] [] with
          | None -> ()
          | Some (path_edges, verts) ->
              if List.for_all (fun v -> not used.(v)) verts then begin
                List.iter (fun v -> used.(v) <- true) verts;
                List.iter
                  (fun e -> if M.mem m e then M.remove m e)
                  path_edges;
                List.iteri
                  (fun i e -> if i mod 2 = 0 then M.add m e)
                  path_edges;
                incr applied
              end
        end
      done;
      incr phases;
      if !applied = 0 then running := false
    end
  done;
  { matching = m; passes = !passes; phases = !phases }

(* [m1 xor m2] plus [m1 ∩ m2] as alternating components: common edges
   as 2-cycles, then paths walked from their lower end, then cycles;
   each list newest first. *)
let symmetric_difference m1 m2 =
  if M.n m1 <> M.n m2 then invalid_arg "symmetric_difference: size mismatch";
  let nv = M.n m1 in
  let visited = Array.make nv false in
  let comps = ref [] in
  for v = 0 to nv - 1 do
    if not visited.(v) then
      match (M.edge_at m1 v, M.edge_at m2 v) with
      | Some e1, Some e2 when E.same_endpoints e1 e2 ->
          let u, w = E.endpoints e1 in
          visited.(u) <- true;
          visited.(w) <- true;
          comps := [ e1; e2 ] :: !comps
      | _ -> ()
  done;
  let degree v =
    Bool.to_int (M.is_matched m1 v) + Bool.to_int (M.is_matched m2 v)
  in
  let walk_from start =
    let acc = ref [] in
    let v = ref start in
    let prev = ref None in
    let fresh = function
      | Some e as o -> (
          match !prev with
          | Some p when E.same_endpoints e p -> None
          | _ -> o)
      | None -> None
    in
    let running = ref true in
    while !running do
      visited.(!v) <- true;
      let next =
        match fresh (M.edge_at m1 !v) with
        | Some _ as o -> o
        | None -> fresh (M.edge_at m2 !v)
      in
      match next with
      | None -> running := false
      | Some e ->
          acc := e :: !acc;
          let u = E.other e !v in
          if visited.(u) then running := false
          else (
            prev := next;
            v := u)
    done;
    List.rev !acc
  in
  for v = 0 to nv - 1 do
    if (not visited.(v)) && degree v = 1 then comps := walk_from v :: !comps
  done;
  for v = 0 to nv - 1 do
    if (not visited.(v)) && degree v > 0 then comps := walk_from v :: !comps
  done;
  !comps

(* The components of [m' xor init] that augment [init]. *)
let augmenting_paths m' init =
  let count m comp =
    List.fold_left (fun k e -> if M.mem m e then k + 1 else k) 0 comp
  in
  List.filter
    (fun comp -> count m' comp = count init comp + 1)
    (symmetric_difference m' init)

(* The vertex sequence of an edge-list path, from the end of its first
   edge that the second does not touch. *)
let walk = function
  | [] -> []
  | [ e ] ->
      let u, v = E.endpoints e in
      [ u; v ]
  | e1 :: (e2 :: _ as rest) ->
      let u, v = E.endpoints e1 in
      let start = if E.mem_vertex e2 u then v else u in
      let _, acc =
        List.fold_left
          (fun (cur, acc) e ->
            let nxt = E.other e cur in
            (nxt, nxt :: acc))
          (start, [ start ])
          (e1 :: rest)
      in
      List.rev acc
