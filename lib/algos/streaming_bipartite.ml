module E = Wm_graph.Edge
module M = Wm_graph.Matching

type pass = (int -> int -> int -> unit) -> unit

type result = { passes : int; phases : int }

let solve ~left ~delta ~mate ~weight pass =
  if delta < 0. then invalid_arg "Streaming_bipartite.solve: negative delta";
  let n = Array.length mate in
  let cap =
    if delta = 0. then Stdlib.max 1 n
    else Stdlib.max 1 (int_of_float (Float.ceil (1.0 /. delta)))
  in
  let passes = ref 0 in
  let phases = ref 0 in
  let level = Array.make n (-1) in
  (* BFS parents are vertices: a right vertex's is the left vertex whose
     unmatched edge reached it (that edge's weight in [reach_w]), a left
     vertex's is the right vertex it was matched to when reached. *)
  let parent = Array.make n (-1) in
  let reach_w = Array.make n 0 in
  let used = Array.make n false in
  let running = ref true in
  while !running do
    (* One phase: BFS from the free left vertices, one pass per level,
       until some free right vertex is reached (shortest augmenting
       paths) or the depth cap exhausts. *)
    Array.fill level 0 n (-1);
    for v = 0 to n - 1 do
      if left v && mate.(v) < 0 then level.(v) <- 0
    done;
    let found_depth = ref (-1) in
    let depth = ref 0 in
    let dead = ref false in
    while !found_depth = -1 && (not !dead) && !depth < cap do
      (* Is there any left vertex on the current frontier? *)
      let frontier = ref false in
      for v = 0 to n - 1 do
        if level.(v) = 2 * !depth then frontier := true
      done;
      if not !frontier then dead := true
      else begin
        incr passes;
        pass (fun u v w ->
            if left u <> left v then begin
              let l, r = if left u then (u, v) else (v, u) in
              if mate.(l) <> r && level.(l) = 2 * !depth && level.(r) = -1
              then begin
                level.(r) <- (2 * !depth) + 1;
                parent.(r) <- l;
                reach_w.(r) <- w
              end
            end);
        let any_free = ref false in
        let grew = ref false in
        for r = 0 to n - 1 do
          if (not (left r)) && level.(r) = (2 * !depth) + 1 then begin
            let l' = mate.(r) in
            if l' < 0 then any_free := true
            else if level.(l') = -1 then begin
              level.(l') <- (2 * !depth) + 2;
              parent.(l') <- r;
              grew := true
            end
          end
        done;
        if !any_free then found_depth := !depth
        else if not !grew then dead := true
        else incr depth
      end
    done;
    if !found_depth = -1 then running := false
    else begin
      (* Take vertex-disjoint augmenting paths greedily, in increasing
         order of their free right end, and flip each. *)
      Array.fill used 0 n false;
      let applied = ref 0 in
      let target_level = (2 * !found_depth) + 1 in
      for r0 = 0 to n - 1 do
        if (not (left r0)) && level.(r0) = target_level && mate.(r0) < 0
        then begin
          (* Trace back to the free left vertex the path starts from. *)
          let free = ref true and r = ref r0 and at_root = ref false in
          while not !at_root do
            let l = parent.(!r) in
            if used.(!r) || used.(l) then free := false;
            if level.(l) = 0 then at_root := true else r := parent.(l)
          done;
          if !free then begin
            let r = ref r0 and at_root = ref false in
            while not !at_root do
              let l = parent.(!r) in
              let next = parent.(l) in
              used.(!r) <- true;
              used.(l) <- true;
              mate.(!r) <- l;
              mate.(l) <- !r;
              weight.(!r) <- reach_w.(!r);
              weight.(l) <- reach_w.(!r);
              if level.(l) = 0 then at_root := true else r := next
            done;
            incr applied
          end
        end
      done;
      incr phases;
      if !applied = 0 then running := false
    end
  done;
  { passes = !passes; phases = !phases }

let solve_stream ~delta stream ~left =
  let n = Wm_stream.Edge_stream.graph_n stream in
  let mate = Array.make n (-1) and weight = Array.make n 0 in
  let r =
    solve ~left ~delta ~mate ~weight (fun f ->
        Wm_stream.Edge_stream.iter stream (fun e ->
            let u, v = E.endpoints e in
            f u v (E.weight e)))
  in
  let m = M.create n in
  Array.iteri (fun u v -> if u < v then M.add m (E.make u v weight.(u))) mate;
  (m, r)
