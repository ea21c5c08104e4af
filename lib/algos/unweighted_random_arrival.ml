module M = Wm_graph.Matching
module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module S = Wm_stream.Edge_stream
module Meter = Wm_stream.Space_meter

type result = {
  matching : M.t;
  m0_size : int;
  s1_size : int;
  augmentations : int;
  winner : [ `Free_edges | `Greedy | `Three_aug ];
}

(* The prefix fraction and UNW-3-AUG-PATHS's support-degree knob. *)
let p = 0.01
let beta = 0.4

let run stream =
  let n = S.graph_n stream in
  let m_edges = S.length stream in
  let meter = Meter.create () in
  let cut = int_of_float (Float.ceil (p *. float_of_int m_edges)) in
  let m0 = M.create n in
  let greedy = ref None in
  let s1 = ref [] in
  let s1_size = ref 0 in
  let wa = ref None in
  S.iteri stream (fun i e ->
      if i < cut then ignore (M.try_add m0 e)
      else begin
        (* The prefix matching is frozen the moment we cross the cut. *)
        let g =
          match !greedy with
          | Some g -> g
          | None ->
              let g = M.copy m0 in
              greedy := Some g;
              g
        in
        let w =
          match !wa with
          | Some w -> w
          | None ->
              let w = Unw3aug.create ~meter ~n ~mid:m0 ~beta () in
              wa := Some w;
              w
        in
        (* Algorithm 1: retain edges among M0-free vertices. *)
        let u, v = E.endpoints e in
        if (not (M.is_matched m0 u)) && not (M.is_matched m0 v) then begin
          s1 := e :: !s1;
          incr s1_size;
          Meter.retain meter 1
        end;
        (* Algorithm 2: keep growing the greedy matching. *)
        ignore (M.try_add g e);
        (* Algorithm 3: look for 3-augmentations w.r.t. M0. *)
        Unw3aug.feed w e
      end);
  let m0_size = M.size m0 in
  (* Finish algorithm 1: maximum matching among the retained edges. *)
  let m1 =
    let m1 = M.copy m0 in
    if !s1 <> [] then begin
      (* The free-free edges form a graph on M0-free vertices only, so a
         maximum matching there extends M0 disjointly. *)
      let dedup = Hashtbl.create (List.length !s1) in
      List.iter
        (fun e -> Hashtbl.replace dedup (E.endpoints e) e)
        !s1;
      let edges = Hashtbl.fold (fun _ e acc -> e :: acc) dedup [] in
      let sub = G.create ~n edges in
      M.iter (fun e -> M.add m1 e) (Wm_exact.Blossom.solve sub);
      ()
    end;
    m1
  in
  let m_greedy = match !greedy with Some g -> g | None -> M.copy m0 in
  let augs = match !wa with Some w -> Unw3aug.finalize w | None -> [] in
  let m2 = M.copy m0 in
  Unw3aug.apply_all m2 augs;
  let best, winner =
    let candidates =
      [ (m1, `Free_edges); (m_greedy, `Greedy); (m2, `Three_aug) ]
    in
    List.fold_left
      (fun (bm, bw) (m, w) -> if M.size m > M.size bm then (m, w) else (bm, bw))
      (List.hd candidates |> fun (m, w) -> (m, w))
      (List.tl candidates)
  in
  {
    matching = best;
    m0_size;
    s1_size = !s1_size;
    augmentations = List.length augs;
    winner;
  }

let solve stream = (run stream).matching
