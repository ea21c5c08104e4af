module Obs = Wm_obs.Obs

let c_retained = Obs.counter Obs.default "space.retained_total"
let c_peak = Obs.counter Obs.default "space.peak_max"

type t = { mutable current : int; mutable peak : int; mutable pass_peak : int }

let create () = { current = 0; peak = 0; pass_peak = 0 }

let bump t =
  if t.current > t.pass_peak then t.pass_peak <- t.current;
  if t.current > t.peak then begin
    t.peak <- t.current;
    Obs.set_max c_peak t.peak
  end

let retain t k =
  t.current <- t.current + k;
  Obs.add c_retained (Stdlib.max 0 k);
  bump t

let release t k =
  if k > t.current then invalid_arg "Space_meter.release: below zero";
  t.current <- t.current - k

let peak t = t.peak

(* The next pass's peak starts at the carried-over holding, not zero:
   whatever is still retained at the boundary is space the next pass is
   charged for from its first element.  This also makes the lifetime
   peak the max over per-pass peaks. *)
let checkpoint t =
  let p = t.pass_peak in
  t.pass_peak <- t.current;
  p

let reset t =
  t.current <- 0;
  t.peak <- 0;
  t.pass_peak <- 0
