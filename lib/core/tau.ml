type params = { granularity : float; max_layers : int; slack : float }

let make_params ~granularity ~max_layers ~slack =
  if granularity <= 0.0 || granularity > 1.0 then
    invalid_arg "Tau.make_params: granularity must be in (0, 1]";
  if max_layers < 2 then invalid_arg "Tau.make_params: max_layers < 2";
  if slack < 0.0 then invalid_arg "Tau.make_params: negative slack";
  { granularity; max_layers; slack }

let max_granules p = int_of_float ((1.0 +. p.slack) /. p.granularity)

type pair = { a : int array; b : int array }

(* Goodness of the pair formed by the first [la] entries of [a] and
   the first [lb] of [b] — index loops over the prefixes, so a caller
   accumulating thresholds in scratch arrays tests a candidate before
   allocating its pair. *)
let is_good_prefix p ~a ~la ~b ~lb =
  la >= 2 && la <= p.max_layers
  && lb = la - 1
  && begin
       let ok = ref true and sa = ref 0 and sb = ref 0 in
       for i = 0 to la - 1 do
         let x = a.(i) in
         if x < 0 || (x < 2 && i > 0 && i < la - 1) then ok := false;
         sa := !sa + x
       done;
       for j = 0 to lb - 1 do
         let x = b.(j) in
         if x < 2 then ok := false;
         sb := !sb + x
       done;
       !ok && !sb <= max_granules p && !sb - !sa >= 1
     end

let is_good p pair =
  is_good_prefix p ~a:pair.a ~la:(Array.length pair.a) ~b:pair.b
    ~lb:(Array.length pair.b)

(* Small tolerance absorbs float noise in w / granule at exact bucket
   boundaries. *)
let tol = 1e-9

let bucket_up ~granule w =
  if granule <= 0.0 then invalid_arg "Tau.bucket_up: granule <= 0";
  if w <= 0 then 0
  else int_of_float (Float.ceil ((float_of_int w /. granule) -. tol))

let bucket_down ~granule w =
  if granule <= 0.0 then invalid_arg "Tau.bucket_down: granule <= 0";
  if w <= 0 then 0
  else int_of_float (Float.floor ((float_of_int w /. granule) +. tol))

let iter_homogeneous p ~a_values ~b_values f =
  let avs = Array.of_list a_values and bs = Array.of_list b_values in
  let cap = max_granules p in
  let max_b = Array.fold_left Stdlib.max 0 bs in
  for k = 1 to p.max_layers - 1 do
    (* One scratch pair per length [k]; its contents are overwritten in
       place for every (av, bv, ends) combination, so the per-candidate
       cost is a fill plus the goodness check — no allocation.  Values
       that fail [is_good] whatever the rest of the pair are skipped
       before the fill: a [tau^B] entry below 2 or summing past [cap],
       an interior [tau^A] entry below 2, and (avs ascending) every
       [av] from the first whose interior alone outweighs the largest
       [tau^B] sum. *)
    let pr = { a = Array.make (k + 1) 0; b = Array.make k 0 } in
    let i = ref 0 in
    while !i < Array.length avs && (k - 1) * avs.(!i) < k * max_b do
      let av = avs.(!i) in
      if k = 1 || av >= 2 then begin
        for t = 1 to k - 1 do
          pr.a.(t) <- av
        done;
        for j = 0 to Array.length bs - 1 do
          let bv = bs.(j) in
          if bv >= 2 && k * bv <= cap then begin
            Array.fill pr.b 0 k bv;
            (* The ends (av, av), (0, av), (av, 0), (0, 0), in order. *)
            for e = 0 to 3 do
              pr.a.(0) <- (if e land 1 = 0 then av else 0);
              pr.a.(k) <- (if e land 2 = 0 then av else 0);
              if is_good p pr then f pr
            done
          end
        done
      end;
      incr i
    done
  done

let sample p rng ~a_values ~b_values ~count f =
  let avs =
    Array.of_list (match a_values with 0 :: _ -> a_values | _ -> 0 :: a_values)
  in
  let interior = Array.of_list (List.filter (fun v -> v >= 2) a_values) in
  let bs = Array.of_list b_values in
  if Array.length bs > 0 then begin
    (* One scratch pair per length, refilled in place by every draw of
       that length: a draw allocates nothing. *)
    let scratch =
      Array.init p.max_layers (fun k ->
          { a = Array.make (k + 1) 0; b = Array.make k 0 })
    in
    let pick arr = arr.(Wm_graph.Prng.int rng (Array.length arr)) in
    for _ = 1 to count do
      let k = 1 + Wm_graph.Prng.int rng (p.max_layers - 1) in
      if k = 1 || Array.length interior > 0 then begin
        let pr = scratch.(k) in
        for i = 0 to k do
          pr.a.(i) <- (if i = 0 || i = k then pick avs else pick interior)
        done;
        for j = 0 to k - 1 do
          pr.b.(j) <- pick bs
        done;
        if is_good p pr then f pr
      end
    done
  end

let capture_path p ~a_buckets ~b_buckets =
  let pr = { a = Array.of_list a_buckets; b = Array.of_list b_buckets } in
  if is_good p pr then Some pr else None

let capture_cycle p ~a_buckets ~b_buckets ~repetitions =
  if repetitions < 1 then invalid_arg "Tau.capture_cycle: repetitions < 1";
  match a_buckets with
  | [] -> None
  | first_a :: _ ->
      let repeat l =
        let rec go acc i = if i = 0 then acc else go (acc @ l) (i - 1) in
        go [] repetitions
      in
      let a = repeat a_buckets @ [ first_a ] in
      let b = repeat b_buckets in
      let pr = { a = Array.of_list a; b = Array.of_list b } in
      if is_good p pr then Some pr else None

let pp ppf pair =
  let pp_arr ppf arr =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
      Format.pp_print_int ppf (Array.to_list arr)
  in
  Format.fprintf ppf "a=[%a] b=[%a]" pp_arr pair.a pp_arr pair.b
