module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching

type witness = {
  side : bool array;
  pair : Tau.pair;
  scale : float;
  repetitions : int;
}

(* Assign sides along a vertex sequence, alternating starting from
   [first_left]; off-structure matched mates get the side opposite to
   their endpoint.  None on conflicting requirements (the structure is
   not parametrizable this way). *)
let assign_sides n ~first_left verts mates =
  let want = Hashtbl.create 16 in
  let ok = ref true in
  let demand v s =
    match Hashtbl.find_opt want v with
    | Some s' -> if s <> s' then ok := false
    | None -> Hashtbl.add want v s
  in
  List.iteri
    (fun i v -> demand v (if i mod 2 = 0 then first_left else not first_left))
    verts;
  List.iter
    (fun (v, mate) ->
      match Hashtbl.find_opt want v with
      | Some s -> demand mate (not s)
      | None -> ())
    mates;
  if not !ok then None
  else begin
    let side = Array.make n false in
    Hashtbl.iter (fun v s -> side.(v) <- s) want;
    Some side
  end

(* Shape check for paths: o e o ... o (odd length, unmatched ends). *)
let path_shape_ok edges m =
  let len = List.length edges in
  len mod 2 = 1
  && (not (M.mem m (List.hd edges)))
  && not (M.mem m (List.nth edges (len - 1)))

let rotate_cycle_to_matched edges m =
  let len = List.length edges in
  if len < 2 || len mod 2 <> 0 then None
  else begin
    let arr = Array.of_list edges in
    let start = ref (-1) in
    Array.iteri (fun i e -> if !start = -1 && M.mem m e then start := i) arr;
    if !start = -1 then None
    else Some (Array.to_list (Array.init len (fun i -> arr.((i + !start) mod len))))
  end

type resolve_check = {
  valid : bool;
  warm_weight : int;
  cold_weight : int;
  within : bool;
}

(* Warm re-solve spot-check (incremental serving): a matching produced
   by warm-starting on a mutated graph must (a) be valid in that graph —
   no deleted or reweighted edge survives — and (b) not trail the
   cold-solve weight by more than the tolerance.  The warm path may
   legitimately beat the cold one (it starts from accumulated gain), so
   only the downside is bounded. *)
let check_resolve ~tolerance g ~warm ~cold =
  if tolerance < 0.0 || tolerance >= 1.0 then
    invalid_arg "Certify.check_resolve: tolerance must be in [0, 1)";
  let valid = M.is_valid_in warm g in
  let warm_weight = M.weight warm in
  let cold_weight = M.weight cold in
  let within =
    float_of_int warm_weight >= (1.0 -. tolerance) *. float_of_int cold_weight
  in
  { valid; warm_weight; cold_weight; within }

type recovery_check = {
  identical : bool;
  compared : int;
  divergence : (int * string * string) option;
}

let check_recovery ~control ~recovered =
  let compared =
    Stdlib.max (List.length control) (List.length recovered)
  in
  let rec go i c r =
    match (c, r) with
    | [], [] -> None
    | x :: c', y :: r' -> if x = y then go (i + 1) c' r' else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "")
    | [], y :: _ -> Some (i, "", y)
  in
  let divergence = go 0 control recovered in
  { identical = divergence = None; compared; divergence }

let witness tp ~class_ratio g m aug =
  let n = G.n g in
  if not (Aug.is_wellformed aug && Aug.is_alternating aug m) then None
  else
    match aug with
    | Aug.Path edges ->
        if not (path_shape_ok edges m) then None
        else begin
          let verts = Aug.walk aug in
          let ends =
            match (verts, List.rev verts) with
            | v0 :: _, vl :: _ -> [ v0; vl ]
            | _ -> []
          in
          let mates =
            List.filter_map
              (fun v -> Option.map (fun x -> (v, x)) (M.mate m v))
              ends
          in
          (* The walk starts at an R endpoint. *)
          match assign_sides n ~first_left:false verts mates with
          | None -> None
          | Some side -> (
              let wq =
                Aug.weight aug
                + List.fold_left (fun acc v -> acc + M.weight_at m v) 0 ends
              in
              (* With a coarse class ratio, scale_floor may undershoot
                 so that constraint (E) fails (Lemma 4.12 assumes the
                 ratio 1 + eps^4); bump the scale up to twice. *)
              let base = Weight_class.scale_floor ~ratio:class_ratio (float_of_int wq) in
              let rec try_scale i =
                if i > 2 then None
                else begin
                  let scale = base *. (class_ratio ** float_of_int i) in
                  let granule = tp.Tau.granularity *. scale in
                  let interior_a =
                    List.filter_map
                      (fun e ->
                        if M.mem m e then
                          Some (Tau.bucket_up ~granule (E.weight e))
                        else None)
                      edges
                  in
                  let b_buckets =
                    List.filter_map
                      (fun e ->
                        if M.mem m e then None
                        else Some (Tau.bucket_down ~granule (E.weight e)))
                      edges
                  in
                  let a_buckets =
                    match ends with
                    | [ v0; vl ] ->
                        (Tau.bucket_up ~granule (M.weight_at m v0) :: interior_a)
                        @ [ Tau.bucket_up ~granule (M.weight_at m vl) ]
                    | _ -> interior_a
                  in
                  match Tau.capture_path tp ~a_buckets ~b_buckets with
                  | Some pair -> Some { side; pair; scale; repetitions = 1 }
                  | None -> try_scale (i + 1)
                end
              in
              try_scale 0)
        end
    | Aug.Cycle cedges -> (
        match rotate_cycle_to_matched cedges m with
        | None -> None
        | Some edges -> (
            let cyc = Aug.Cycle edges in
            let verts = Aug.vertices cyc in
            (* a1 = (v0, v1) with v0 in L. *)
            match assign_sides n ~first_left:true verts [] with
            | None -> None
            | Some side ->
                let t = List.length edges / 2 in
                let max_reps = Stdlib.max 1 ((tp.Tau.max_layers - 1) / t) in
                let try_at ~d ~scale =
                  let granule = tp.Tau.granularity *. scale in
                  let a_buckets =
                    List.filter_map
                      (fun e ->
                        if M.mem m e then
                          Some (Tau.bucket_up ~granule (E.weight e))
                        else None)
                      edges
                  in
                  let b_buckets =
                    List.filter_map
                      (fun e ->
                        if M.mem m e then None
                        else Some (Tau.bucket_down ~granule (E.weight e)))
                      edges
                  in
                  match
                    Tau.capture_cycle tp ~a_buckets ~b_buckets ~repetitions:d
                  with
                  | Some pair -> Some { side; pair; scale; repetitions = d }
                  | None -> None
                in
                let rec try_reps d =
                  if d > max_reps then None
                  else begin
                    let ws = (d * Aug.weight cyc) + E.weight (List.hd edges) in
                    let base =
                      Weight_class.scale_floor ~ratio:class_ratio
                        (float_of_int ws)
                    in
                    let rec bump i =
                      if i > 2 then None
                      else
                        match
                          try_at ~d ~scale:(base *. (class_ratio ** float_of_int i))
                        with
                        | Some w -> Some w
                        | None -> bump (i + 1)
                    in
                    match bump 0 with
                    | Some w -> Some w
                    | None -> try_reps (d + 1)
                  end
                in
                try_reps 1))

(* The L'-walk of the witness in the base graph: for a path it is the
   augmentation itself; for a cycle it is the repeated traversal minus
   the first and last (dropped) matched edges. *)
let base_walk w m aug =
  match aug with
  | Aug.Path edges ->
      if path_shape_ok edges m then Some (Aug.walk aug, edges) else None
  | Aug.Cycle cedges -> (
      match rotate_cycle_to_matched cedges m with
      | None -> None
      | Some edges ->
          let verts = Array.of_list (Aug.vertices (Aug.Cycle edges)) in
          let arre = Array.of_list edges in
          let t2 = Array.length arre in
          let es = ref [] in
          for rep = 0 to w.repetitions - 1 do
            for j = 1 to t2 - 1 do
              es := arre.(j) :: !es
            done;
            if rep < w.repetitions - 1 then es := arre.(0) :: !es
          done;
          let es = List.rev !es in
          let seq = ref [ verts.(1) ] in
          let cur = ref verts.(1) in
          List.iter
            (fun e ->
              cur := E.other e !cur;
              seq := !cur :: !seq)
            es;
          Some (List.rev !seq, es))

let verify tp w g m aug =
  match base_walk w m aug with
  | None -> false
  | Some (walk_verts, walk_edges) -> (
      let n = G.n g in
      let gp = Layered.parametrize_with ~side:w.side g m in
      let lay = Layered.build tp gp w.pair ~scale:w.scale in
      (* Lay the walk into layers: unmatched edges advance the layer. *)
      match walk_verts with
      | [] -> false
      | v0 :: _ ->
          let layer = ref 1 in
          let cur = ref v0 in
          let layered_edges =
            List.map
              (fun e ->
                let next = E.other e !cur in
                let le =
                  if M.mem m e then
                    E.make
                      (Layered.vertex_id ~base_n:n ~layer:!layer !cur)
                      (Layered.vertex_id ~base_n:n ~layer:!layer next)
                      (E.weight e)
                  else begin
                    let le =
                      E.make
                        (Layered.vertex_id ~base_n:n ~layer:!layer !cur)
                        (Layered.vertex_id ~base_n:n ~layer:(!layer + 1) next)
                        (E.weight e)
                    in
                    incr layer;
                    le
                  end
                in
                cur := next;
                le)
              walk_edges
          in
          let contained =
            List.for_all
              (fun le ->
                let x, y = E.endpoints le in
                match Layered.find_edge lay x y with
                | Some e' -> E.weight e' = E.weight le
                | None -> false)
              layered_edges
          in
          contained
          &&
          let verts, edges =
            Decompose.project ~base_n:n layered_edges
          in
          ignore verts;
          let comps =
            Decompose.decompose
              ~verts:(List.map (Layered.base_vertex ~base_n:n)
                        (let seq = ref [] in
                         let c = ref (Layered.vertex_id ~base_n:n ~layer:1 v0) in
                         seq := [ !c ];
                         List.iter
                           (fun le ->
                             c := E.other le !c;
                             seq := !c :: !seq)
                           layered_edges;
                         List.rev !seq))
              ~edges
          in
          (* Two augmentations are equivalent when they add and remove
             the same edge sets (a 1-repetition cycle capture appears as
             a path whose matching neighbourhood closes the cycle). *)
          let effect c =
            ( List.sort E.compare (Aug.unmatched_part c m),
              List.sort E.compare (Aug.matching_neighborhood c m) )
          in
          let target = effect aug in
          List.exists (fun c -> effect c = target) comps)
