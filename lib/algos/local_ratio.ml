module M = Wm_graph.Matching
module E = Wm_graph.Edge
module Meter = Wm_stream.Space_meter
module Obs = Wm_obs.Obs

let c_pushed = Obs.counter Obs.default "algos.local_ratio.pushed"
let c_stack_max = Obs.counter Obs.default "algos.local_ratio.stack_max"

type t = {
  eps : float;
  alpha : int array;
  mutable stack : E.t list; (* most recent first *)
  mutable stack_size : int;
  mutable frozen : bool;
  meter : Meter.t;
  mutable metered : int; (* stack units currently charged to [meter] *)
}

let create ?(eps = 0.) ?(meter = Meter.create ()) ~n () =
  if eps < 0. then invalid_arg "Local_ratio.create: negative eps";
  { eps; alpha = Array.make n 0; stack = []; stack_size = 0; frozen = false;
    meter; metered = 0 }

let residual t e =
  let u, v = E.endpoints e in
  E.weight e - t.alpha.(u) - t.alpha.(v)

let feed_pushed t e =
  let u, v = E.endpoints e in
  let threshold =
    (* With eps = 0 this is the plain positivity test. *)
    int_of_float (Float.ceil (t.eps *. float_of_int (t.alpha.(u) + t.alpha.(v))))
  in
  let r = residual t e in
  if r > threshold then begin
    t.stack <- e :: t.stack;
    t.stack_size <- t.stack_size + 1;
    Meter.retain t.meter 1;
    t.metered <- t.metered + 1;
    Obs.incr c_pushed;
    Obs.set_max c_stack_max t.stack_size;
    if not t.frozen then begin
      t.alpha.(u) <- t.alpha.(u) + r;
      t.alpha.(v) <- t.alpha.(v) + r
    end;
    true
  end
  else false

let feed t e = ignore (feed_pushed t e)

let freeze t = t.frozen <- true
let potential t v = t.alpha.(v)
let stack_size t = t.stack_size

(* Unwinding hands the stack's content over to the output matching: the
   retained-edge charge moves out of this instance, so the meter units
   are released exactly once (repeated unwinds release nothing more). *)
let release_metered t =
  Meter.release t.meter t.metered;
  t.metered <- 0

let unwind_onto t m =
  List.iter (fun e -> ignore (M.try_add m e)) t.stack;
  release_metered t

let unwind t =
  let m = M.create (Array.length t.alpha) in
  unwind_onto t m;
  m

let reset t =
  release_metered t;
  t.stack <- [];
  t.stack_size <- 0;
  t.frozen <- false;
  Array.fill t.alpha 0 (Array.length t.alpha) 0

let solve ?eps s =
  let t = create ?eps ~n:(Wm_stream.Edge_stream.graph_n s) () in
  Wm_stream.Edge_stream.iter s (feed t);
  unwind t
