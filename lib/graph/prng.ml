(* The splitmix64 state lives in 8 bytes rather than in a mutable
   int64 field: storing to such a field boxes a fresh int64 on every
   draw, while [Bytes.get/set_int64_ne] move the state unboxed, so with
   [mix64] and [next] inlined a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let assign dst src = Bytes.blit src 0 dst 0 8

(* Advance the state and mix it: the draw every sampler is built on. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let bits64 t = next t

let split t = of_state (next t)

(* Bounded sampling by modulo of the top 63 bits, rejecting the biased
   tail so the result is exactly uniform. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int bound64) 1L in
  let r = ref (Int64.logand (next t) Int64.max_int) in
  let v = ref (Int64.rem !r bound64) in
  while Int64.sub !r !v > limit do
    r := Int64.logand (next t) Int64.max_int;
    v := Int64.rem !r bound64
  done;
  Int64.to_int !v

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  (* Partial Fisher–Yates over a sparse map keeps this O(k) in memory. *)
  let map = Hashtbl.create (2 * k) in
  let get i = match Hashtbl.find_opt map i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = int_in t i (n - 1) in
      let vi = get i and vj = get j in
      Hashtbl.replace map j vi;
      Hashtbl.replace map i vj;
      vj)

let state t = Bytes.get_int64_ne t 0

let set_state t s = Bytes.set_int64_ne t 0 s
