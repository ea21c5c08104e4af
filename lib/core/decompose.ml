module E = Wm_graph.Edge

let project ~base_n (p : Layered.path) =
  let verts = List.map (Layered.base_vertex ~base_n) p.Layered.verts in
  let rec steps vs ws =
    match (vs, ws) with
    | u :: (v :: _ as rest), w :: ws -> E.make u v w :: steps rest ws
    | _ -> []
  in
  (verts, steps verts p.Layered.weights)

let decompose ~verts ~edges =
  let len = List.length edges in
  if List.length verts <> len + 1 then
    invalid_arg "Decompose.decompose: vertex/edge count mismatch";
  match (verts, edges) with
  | _, [] -> []
  | v0 :: vrest, e0 :: _ ->
      let vstack = Array.make (len + 1) 0 in
      let estack = Array.make (len + 1) e0 in
      let top = ref 0 in
      vstack.(0) <- v0;
      let pos = Hashtbl.create (len + 1) in
      Hashtbl.add pos v0 0;
      let cycles = ref [] in
      List.iter2
        (fun v e ->
          match Hashtbl.find_opt pos v with
          | Some d ->
              (* Close the cycle back to depth d, in walk order. *)
              let cyc = ref [ e ] in
              for i = !top downto d + 1 do
                Hashtbl.remove pos vstack.(i)
              done;
              for i = !top downto d + 1 do
                cyc := estack.(i) :: !cyc
              done;
              top := d;
              cycles := Aug.Cycle !cyc :: !cycles
          | None ->
              incr top;
              vstack.(!top) <- v;
              estack.(!top) <- e;
              Hashtbl.add pos v !top)
        vrest edges;
      let path =
        if !top = 0 then []
        else begin
          let acc = ref [] in
          for i = !top downto 1 do
            acc := estack.(i) :: !acc
          done;
          [ Aug.Path !acc ]
        end
      in
      List.rev_append !cycles path
  | [], _ -> assert false

let best_component comps m =
  List.fold_left
    (fun best c ->
      let g = Aug.gain c m in
      match best with
      | Some (_, bg) when bg >= g -> best
      | _ -> Some (c, g))
    None comps
