type weight_dist =
  | Unit_weight
  | Uniform of int * int
  | Geometric_classes of int
  | Polynomial of int

let draw_weight rng ~n dist =
  match dist with
  | Unit_weight -> 1
  | Uniform (lo, hi) ->
      if lo < 1 || hi < lo then invalid_arg "Gen.draw_weight: bad uniform range";
      Prng.int_in rng lo hi
  | Geometric_classes classes ->
      if classes < 1 then invalid_arg "Gen.draw_weight: bad class count";
      1 lsl Prng.int rng classes
  | Polynomial k ->
      if k < 1 then invalid_arg "Gen.draw_weight: bad exponent";
      let bound =
        let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
        Stdlib.max 1 (pow 1 k)
      in
      Prng.int_in rng 1 bound

let gnp rng ~n ~p ~weights =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli rng p then
        acc := Edge.make u v (draw_weight rng ~n weights) :: !acc
    done
  done;
  Weighted_graph.create ~n !acc

(* Decode the [i]-th pair (u, v), u < v, in lexicographic order. *)
let decode_pair n i =
  let rec find u offset =
    let row = n - 1 - u in
    if i < offset + row then (u, u + 1 + (i - offset)) else find (u + 1) (offset + row)
  in
  (* Jump close with the closed form, then correct with the exact scan. *)
  let approx =
    let fi = float_of_int i and fn = float_of_int n in
    let u = fn -. 2.0 -. Float.of_int (int_of_float (sqrt ((2.0 *. (fn -. 1.0) *. fn -. (8.0 *. fi) -. 7.0) /. 4.0) -. 0.5)) in
    Stdlib.max 0 (min (n - 2) (int_of_float u) - 2)
  in
  let offset_of u = (u * (2 * n - u - 1)) / 2 in
  let rec back u = if u > 0 && offset_of u > i then back (u - 1) else u in
  let u0 = back approx in
  find u0 (offset_of u0)

let gnm rng ~n ~m ~weights =
  let max_m = n * (n - 1) / 2 in
  if m > max_m then invalid_arg "Gen.gnm: too many edges";
  let picks = Prng.sample_without_replacement rng m max_m in
  let edges =
    Array.to_list
      (Array.map
         (fun i ->
           let u, v = decode_pair n i in
           Edge.make u v (draw_weight rng ~n weights))
         picks)
  in
  Weighted_graph.create ~n edges

let random_bipartite rng ~left ~right ~p ~weights =
  let n = left + right in
  let acc = ref [] in
  for u = 0 to left - 1 do
    for v = left to n - 1 do
      if Prng.bernoulli rng p then
        acc := Edge.make u v (draw_weight rng ~n weights) :: !acc
    done
  done;
  Weighted_graph.create ~n !acc

let power_law_bipartite rng ~left ~right ~edges ~exponent ~weights =
  if exponent <= 1.0 then invalid_arg "Gen.power_law_bipartite: exponent <= 1";
  let n = left + right in
  (* Zipf-ish sampling of the right side: advertiser/firm popularity. *)
  let cum = Array.make right 0.0 in
  let total = ref 0.0 in
  for i = 0 to right - 1 do
    total := !total +. (1.0 /. (float_of_int (i + 1) ** exponent));
    cum.(i) <- !total
  done;
  let sample_right () =
    let x = Prng.float rng !total in
    let rec bsearch lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if cum.(mid) < x then bsearch (mid + 1) hi else bsearch lo mid
      end
    in
    left + bsearch 0 (right - 1)
  in
  let seen = Hashtbl.create edges in
  let acc = ref [] in
  let attempts = ref 0 in
  while Hashtbl.length seen < edges && !attempts < 20 * edges do
    incr attempts;
    let u = Prng.int rng left in
    let v = sample_right () in
    if not (Hashtbl.mem seen (u, v)) then begin
      Hashtbl.add seen (u, v) ();
      acc := Edge.make u v (draw_weight rng ~n weights) :: !acc
    end
  done;
  Weighted_graph.create ~n !acc

(* ------------------------------------------------------------------ *)
(* Scale tier: streaming generators that materialise n >= 10^6 /
   m >= 10^7 instances directly into flat endpoint/weight arrays and
   hand them to the trusted CSR constructor — no intermediate edge
   lists, no Hashtbl dedup (uniqueness holds by construction, with an
   epoch-stamped scratch set for the per-vertex target draws). *)

let power_law_scale rng ~n ~attach ~weights =
  if n < 2 then invalid_arg "Gen.power_law_scale: n < 2";
  if attach < 1 then invalid_arg "Gen.power_law_scale: attach < 1";
  let m_cap = attach * n in
  let src = Array.make m_cap 0 and dst = Array.make m_cap 0 in
  let w = Array.make m_cap 0 in
  let m = ref 0 in
  let seen = Arena.Stamp.create () in
  (* Preferential attachment: vertex u attaches to min(attach, u)
     distinct earlier vertices, drawn degree-proportionally by
     sampling a uniform slot of the endpoint arrays built so far (the
     standard repeated-endpoint trick — no degree array needed).
     Duplicate draws for the same u are rejected via the stamp set,
     falling back to a linear probe so termination never depends on
     luck.  Right-skewed degrees emerge for any attach >= 1. *)
  for u = 1 to n - 1 do
    let k = Stdlib.min attach u in
    Arena.Stamp.reset seen u;
    for _ = 1 to k do
      let pick () =
        if !m = 0 then Prng.int rng u
        else begin
          let slot = Prng.int rng (2 * !m) in
          let v = if slot land 1 = 0 then src.(slot / 2) else dst.(slot / 2) in
          if v < u then v else Prng.int rng u
        end
      in
      let rec draw attempts =
        let v = pick () in
        if Arena.Stamp.add seen v then v
        else if attempts >= 16 then begin
          (* Saturated or unlucky: probe linearly from a random start
             — u > k-1 guarantees a free earlier vertex exists. *)
          let start = Prng.int rng u in
          let rec probe i =
            let v = (start + i) mod u in
            if Arena.Stamp.add seen v then v else probe (i + 1)
          in
          probe 0
        end
        else draw (attempts + 1)
      in
      let v = draw 0 in
      src.(!m) <- u;
      dst.(!m) <- v;
      w.(!m) <- draw_weight rng ~n weights;
      incr m
    done
  done;
  Weighted_graph.of_flat ~n ~m:!m ~src ~dst ~w

let geometric_scale rng ~n ~avg_degree ~weights =
  if n < 2 then invalid_arg "Gen.geometric_scale: n < 2";
  if avg_degree <= 0.0 then invalid_arg "Gen.geometric_scale: avg_degree <= 0";
  (* Random geometric graph on the unit square: connect points within
     Euclidean distance r, with r chosen so the expected degree
     (pi r^2 n, ignoring boundary) matches [avg_degree].  Neighbour
     search uses a cell grid of width >= r: only the 3x3 cell
     neighbourhood can contain partners, and ordering u < v emits each
     pair exactly once. *)
  let r = Float.sqrt (avg_degree /. (Float.pi *. float_of_int n)) in
  let r = Stdlib.min r 1.0 in
  let gx = Stdlib.max 1 (int_of_float (1.0 /. r)) in
  let cells = gx * gx in
  let px = Array.make n 0.0 and py = Array.make n 0.0 in
  let cell = Array.make n 0 in
  let cell_of x y =
    let ix = Stdlib.min (gx - 1) (int_of_float (x *. float_of_int gx)) in
    let iy = Stdlib.min (gx - 1) (int_of_float (y *. float_of_int gx)) in
    (iy * gx) + ix
  in
  for v = 0 to n - 1 do
    px.(v) <- Prng.float rng 1.0;
    py.(v) <- Prng.float rng 1.0;
    cell.(v) <- cell_of px.(v) py.(v)
  done;
  (* Counting-sort the points into a CSR over cells. *)
  let off = Array.make (cells + 1) 0 in
  for v = 0 to n - 1 do
    off.(cell.(v) + 1) <- off.(cell.(v) + 1) + 1
  done;
  for c = 1 to cells do
    off.(c) <- off.(c) + off.(c - 1)
  done;
  let order = Array.make n 0 in
  let cursor = Array.sub off 0 cells in
  for v = 0 to n - 1 do
    order.(cursor.(cell.(v))) <- v;
    cursor.(cell.(v)) <- cursor.(cell.(v)) + 1
  done;
  let src = Arena.Ints.create () and dst = Arena.Ints.create () in
  let wts = Arena.Ints.create () in
  let r2 = r *. r in
  for u = 0 to n - 1 do
    let cx = cell.(u) mod gx and cy = cell.(u) / gx in
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let x = cx + dx and y = cy + dy in
        if x >= 0 && x < gx && y >= 0 && y < gx then begin
          let c = (y * gx) + x in
          for i = off.(c) to off.(c + 1) - 1 do
            let v = order.(i) in
            if v > u then begin
              let ddx = px.(u) -. px.(v) and ddy = py.(u) -. py.(v) in
              if (ddx *. ddx) +. (ddy *. ddy) <= r2 then begin
                Arena.Ints.push src u;
                Arena.Ints.push dst v;
                Arena.Ints.push wts (draw_weight rng ~n weights)
              end
            end
          done
        end
      done
    done
  done;
  Weighted_graph.of_flat ~n ~m:(Arena.Ints.length src)
    ~src:(Arena.Ints.data src) ~dst:(Arena.Ints.data dst)
    ~w:(Arena.Ints.data wts)

let bipartite_skew_scale rng ~left ~right ~edges ~exponent ~weights =
  if left < 1 || right < 1 then
    invalid_arg "Gen.bipartite_skew_scale: empty side";
  if exponent <= 1.0 then invalid_arg "Gen.bipartite_skew_scale: exponent <= 1";
  if edges > left * right then
    invalid_arg "Gen.bipartite_skew_scale: too many edges";
  let n = left + right in
  (* Zipf cumulative over the right side, as in power_law_bipartite —
     but edges stream out grouped by left vertex (degree = an even
     split of the budget), so cross-vertex duplicates are impossible
     and the per-vertex stamp set is the only dedup needed. *)
  let cum = Array.make right 0.0 in
  let total = ref 0.0 in
  for i = 0 to right - 1 do
    total := !total +. (1.0 /. (float_of_int (i + 1) ** exponent));
    cum.(i) <- !total
  done;
  let sample_right () =
    let x = Prng.float rng !total in
    let rec bsearch lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if cum.(mid) < x then bsearch (mid + 1) hi else bsearch lo mid
      end
    in
    bsearch 0 (right - 1)
  in
  let src = Array.make (Stdlib.max 1 edges) 0 in
  let dst = Array.make (Stdlib.max 1 edges) 0 in
  let w = Array.make (Stdlib.max 1 edges) 0 in
  let m = ref 0 in
  let seen = Arena.Stamp.create () in
  for u = 0 to left - 1 do
    let deg = (edges / left) + (if u < edges mod left then 1 else 0) in
    let deg = Stdlib.min deg right in
    Arena.Stamp.reset seen right;
    for _ = 1 to deg do
      let rec draw attempts =
        let v = sample_right () in
        if Arena.Stamp.add seen v then v
        else if attempts >= 16 then begin
          let start = Prng.int rng right in
          let rec probe i =
            let v = (start + i) mod right in
            if Arena.Stamp.add seen v then v else probe (i + 1)
          in
          probe 0
        end
        else draw (attempts + 1)
      in
      let v = draw 0 in
      src.(!m) <- u;
      dst.(!m) <- left + v;
      w.(!m) <- draw_weight rng ~n weights;
      incr m
    done
  done;
  Weighted_graph.of_flat ~n ~m:!m ~src ~dst ~w

let path_graph ws =
  let k = List.length ws in
  let edges = List.mapi (fun i w -> Edge.make i (i + 1) w) ws in
  Weighted_graph.create ~n:(k + 1) edges

let cycle_graph ws =
  let k = List.length ws in
  if k < 3 then invalid_arg "Gen.cycle_graph: need at least 3 edges";
  let edges = List.mapi (fun i w -> Edge.make i ((i + 1) mod k) w) ws in
  Weighted_graph.create ~n:k edges

let augmenting_cycle_family ~cycles ~low ~high =
  let n = 4 * cycles in
  let acc = ref [] in
  let matched = ref [] in
  for c = 0 to cycles - 1 do
    let b = 4 * c in
    let e01 = Edge.make b (b + 1) low in
    let e23 = Edge.make (b + 2) (b + 3) low in
    acc := Edge.make (b + 3) b high :: Edge.make (b + 1) (b + 2) high :: e23 :: e01 :: !acc;
    matched := e01 :: e23 :: !matched
  done;
  (Weighted_graph.create ~n !acc, Matching.of_edges n !matched)

let long_augmenting_paths rng ~paths ~half_length =
  let per_path = (2 * half_length) + 2 in
  let n = paths * per_path in
  let acc = ref [] in
  let matched = ref [] in
  for p = 0 to paths - 1 do
    let base = p * per_path in
    let w = Prng.int_in rng 1 16 in
    for i = 0 to (2 * half_length) do
      let e = Edge.make (base + i) (base + i + 1) w in
      acc := e :: !acc;
      if i mod 2 = 1 then matched := e :: !matched
    done
  done;
  (Weighted_graph.create ~n !acc, Matching.of_edges n !matched)

let planted_three_augmentations rng ~k ~spare ~weights =
  let n = (4 * k) + (2 * spare) in
  let acc = ref [] in
  let matched = ref [] in
  for i = 0 to k - 1 do
    let a = 4 * i and m1 = (4 * i) + 1 and m2 = (4 * i) + 2 and b = (4 * i) + 3 in
    let wm = draw_weight rng ~n weights in
    let mid = Edge.make m1 m2 wm in
    (* Side edges carry the same weight as the middle: the augmentation
       gains +wm, the excess weight at each side is 0 (so the edges pass
       Algorithm 1's small-excess filter), and all three edges share a
       doubling weight class. *)
    acc := Edge.make m2 b wm :: Edge.make a m1 wm :: mid :: !acc;
    matched := mid :: !matched
  done;
  for i = 0 to spare - 1 do
    let u = (4 * k) + (2 * i) in
    let e = Edge.make u (u + 1) (draw_weight rng ~n weights) in
    acc := e :: !acc;
    matched := e :: !matched
  done;
  (Weighted_graph.create ~n !acc, Matching.of_edges n !matched)

let planted_quintuples rng ~k ~weights =
  let n = 6 * k in
  let acc = ref [] in
  let matched = ref [] in
  for i = 0 to k - 1 do
    let x = 6 * i and a = (6 * i) + 1 and m1 = (6 * i) + 2 in
    let m2 = (6 * i) + 3 and b = (6 * i) + 4 and y = (6 * i) + 5 in
    (* Quintuple (e1, o1, e2, o2, e3): middle e2 of weight w, outer
       matched edges of weight w/4, unmatched o edges of weight w — the
       shape passes Algorithm 1's filters and gains w/2 when applied. *)
    let w = Stdlib.max 4 (draw_weight rng ~n weights) in
    let e1 = Edge.make x a (w / 4) in
    let e2 = Edge.make m1 m2 w in
    let e3 = Edge.make b y (w / 4) in
    acc :=
      Edge.make m2 b w :: Edge.make a m1 w :: e3 :: e2 :: e1 :: !acc;
    matched := e1 :: e2 :: e3 :: !matched
  done;
  (Weighted_graph.create ~n !acc, Matching.of_edges n !matched)

let near_half_trap _rng ~blocks =
  let n = 4 * blocks in
  let acc = ref [] in
  for b = 0 to blocks - 1 do
    let u = 4 * b in
    acc :=
      Edge.make (u + 2) (u + 3) 1 :: Edge.make (u + 1) (u + 2) 1
      :: Edge.make u (u + 1) 1 :: !acc
  done;
  Weighted_graph.create ~n !acc

(* Paper worked examples.  Vertex naming: a=0, b=1, c=2, ... *)

let paper_fig1 () =
  let a = 0 and b = 1 and c = 2 and d = 3 and e = 4 and f = 5 in
  let cd = Edge.make c d 5 in
  let g =
    Weighted_graph.create ~n:6
      [ cd; Edge.make a c 4; Edge.make d f 4; Edge.make b c 2; Edge.make d e 2 ]
  in
  (g, Matching.of_edges 6 [ cd ])

let paper_fig2 () =
  let a = 0 and b = 1 and c = 2 and d = 3 and e = 4 and f = 5 and gg = 6 and h = 7 in
  let ab = Edge.make a b 2 in
  let cd = Edge.make c d 3 in
  let ef = Edge.make e f 1 in
  let gh = Edge.make gg h 0 in
  let g =
    Weighted_graph.create ~n:8
      [
        ab; cd; ef; gh;
        Edge.make e h 2;  (* 1-augmentation: 2 > w(ef) + w(gh) = 1 *)
        Edge.make a d 4;  (* with cf: path augmentation of gain 2 *)
        Edge.make c f 4;
        Edge.make f h 2;  (* with ge: augmenting cycle e-f-h-g of gain 3 *)
        Edge.make gg e 2;
      ]
  in
  (g, Matching.of_edges 8 [ ab; cd; ef; gh ])

let paper_four_cycle () =
  let g = cycle_graph [ 3; 4; 3; 4 ] in
  let e01 = Edge.make 0 1 3 and e23 = Edge.make 2 3 3 in
  (g, Matching.of_edges 4 [ e01; e23 ])

let paper_nonsimple_path () =
  let a = 0 and b = 1 and c = 2 and d = 3 and e = 4 and f = 5 in
  let ab = Edge.make a b 1 in
  let cd = Edge.make c d 1 in
  let ef = Edge.make e f 1 in
  let g =
    Weighted_graph.create ~n:6
      [ ab; cd; ef; Edge.make b c 2; Edge.make d e 2; Edge.make b d 2 ]
  in
  (g, Matching.of_edges 6 [ ab; cd; ef ])
