type t = { u : int; v : int; w : int }

let make u v w =
  if u = v then invalid_arg "Edge.make: self-loop";
  if w < 0 then invalid_arg "Edge.make: negative weight";
  if u < v then { u; v; w } else { u = v; v = u; w }

let endpoints e = (e.u, e.v)

let weight e = e.w

let other e x =
  if x = e.u then e.v
  else if x = e.v then e.u
  else invalid_arg "Edge.other: not an endpoint"

let mem_vertex e x = x = e.u || x = e.v

let same_endpoints e f = e.u = f.u && e.v = f.v

let compare e f =
  let c = Int.compare e.u f.u in
  if c <> 0 then c
  else
    let c = Int.compare e.v f.v in
    if c <> 0 then c else Int.compare e.w f.w

let equal e f = compare e f = 0

let reweight e w =
  if w < 0 then invalid_arg "Edge.reweight: negative weight";
  { e with w }

(* A stable LSD radix sort on 11-bit digits: one counting pass per
   digit of the largest weight.  Descending order sorts the reflected
   key [maxw - w].  The first pass reads [edges] and the last writes the
   fresh result; with two or more passes the others ping-pong through a
   per-domain scratch array. *)
let radix_bits = 11
let radix_size = 1 lsl radix_bits
let radix_mask = radix_size - 1

type radix_scratch = { counts : int array; mutable aux : t array }

let radix_slot =
  Arena.slot (fun () -> { counts = Array.make radix_size 0; aux = [||] })

let sort_by_weight ~descending edges =
  let m = Array.length edges in
  let maxw = Array.fold_left (fun acc e -> Stdlib.max acc e.w) 0 edges in
  let rec digits x = if x = 0 then 0 else 1 + digits (x lsr radix_bits) in
  let passes = digits maxw in
  if passes = 0 then Array.copy edges
  else begin
    let key e = if descending then maxw - e.w else e.w in
    let s = Arena.get radix_slot in
    if passes > 1 && Array.length s.aux < m then s.aux <- Array.make m edges.(0);
    let out = Array.make m edges.(0) and counts = s.counts in
    let src = ref edges and dst = ref (if passes land 1 = 1 then out else s.aux) in
    for p = 0 to passes - 1 do
      let sa = !src and da = !dst and shift = p * radix_bits in
      Array.fill counts 0 radix_size 0;
      for i = 0 to m - 1 do
        let d = (key sa.(i) lsr shift) land radix_mask in
        counts.(d) <- counts.(d) + 1
      done;
      let total = ref 0 in
      for d = 0 to radix_size - 1 do
        let c = counts.(d) in
        counts.(d) <- !total;
        total := !total + c
      done;
      for i = 0 to m - 1 do
        let e = sa.(i) in
        let d = (key e lsr shift) land radix_mask in
        da.(counts.(d)) <- e;
        counts.(d) <- counts.(d) + 1
      done;
      src := da;
      dst := if da == out then s.aux else out
    done;
    out
  end

let pp ppf e = Format.fprintf ppf "%d-%d:%d" e.u e.v e.w

let to_string e = Format.asprintf "%a" pp e
