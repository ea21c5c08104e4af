let doubling_class w =
  if w < 1 then invalid_arg "Weight_class.doubling_class: weight < 1";
  (* Number of bits of w: 2^(i-1) <= w < 2^i. *)
  let rec bits acc w = if w = 0 then acc else bits (acc + 1) (w lsr 1) in
  bits 0 w

let geometric_scales ~ratio ~max_value =
  if ratio <= 1.0 then invalid_arg "Weight_class.geometric_scales: ratio <= 1";
  let rec build acc scale =
    if scale >= max_value then List.rev (scale :: acc)
    else build (scale :: acc) (scale *. ratio)
  in
  build [] 1.0

let scale_floor ~ratio x =
  if ratio <= 1.0 then invalid_arg "Weight_class.scale_floor: ratio <= 1";
  if x <= 1.0 then 1.0
  else
    let i = int_of_float (Float.log x /. Float.log ratio) in
    let p = ratio ** float_of_int i in
    (* Guard against float rounding on the boundary. *)
    if p *. ratio <= x then p *. ratio else if p > x then p /. ratio else p
