let phases delta =
  if delta < 0. then invalid_arg "Approx_bipartite: negative delta";
  if delta = 0. then max_int else int_of_float (Float.ceil (1.0 /. delta))

let pass_charge ~delta =
  let k = phases delta in
  if k = max_int then invalid_arg "Approx_bipartite.pass_charge: delta = 0"
  else (k * k) + (2 * k)

let round_charge ~delta ~n =
  let k = phases delta in
  if k = max_int then invalid_arg "Approx_bipartite.round_charge: delta = 0";
  let loglog =
    let l2 x = Float.log x /. Float.log 2.0 in
    int_of_float (Float.ceil (l2 (Stdlib.max 2.0 (l2 (float_of_int (Stdlib.max 4 n))))))
  in
  k * Stdlib.max 1 loglog
