module M = Wm_graph.Matching
module E = Wm_graph.Edge
module Meter = Wm_stream.Space_meter
module Obs = Wm_obs.Obs

let c_retained = Obs.counter Obs.default "algos.unw3aug.support_retained"
let c_cap_hits = Obs.counter Obs.default "algos.unw3aug.cap_hits"
let c_augs = Obs.counter Obs.default "algos.unw3aug.augmentations"

type aug3 = { left : E.t; mid : E.t; right : E.t }

type t = {
  mid : M.t;
  lambda : int;
  support : E.t list array; (* support edges indexed by both endpoints *)
  deg : int array;
  mutable size : int;
  meter : Meter.t;
}

let create ?(meter = Meter.create ()) ?lambda ~n ~mid ~beta () =
  if beta <= 0. then invalid_arg "Unw3aug.create: beta must be positive";
  let lambda =
    match lambda with
    | Some l when l >= 1 -> l
    | Some _ -> invalid_arg "Unw3aug.create: lambda must be >= 1"
    | None -> Stdlib.max 1 (int_of_float (Float.ceil (8.0 /. beta)))
  in
  {
    mid = M.copy mid;
    lambda;
    support = Array.make n [];
    deg = Array.make n 0;
    size = 0;
    meter;
  }


let feed t e =
  let u, v = E.endpoints e in
  let mu = M.is_matched t.mid u and mv = M.is_matched t.mid v in
  (* Orient so that [free] is the unmatched endpoint. *)
  let pair =
    if (not mu) && mv then Some (u, v)
    else if mu && not mv then Some (v, u)
    else None
  in
  match pair with
  | None -> ()
  | Some (free, matched) ->
      if t.deg.(free) < t.lambda && t.deg.(matched) < 2 then begin
        t.support.(free) <- e :: t.support.(free);
        t.support.(matched) <- e :: t.support.(matched);
        t.deg.(free) <- t.deg.(free) + 1;
        t.deg.(matched) <- t.deg.(matched) + 1;
        t.size <- t.size + 1;
        Meter.retain t.meter 1;
        Obs.incr c_retained
      end
      else Obs.incr c_cap_hits

let support_size t = t.size

let finalize t =
  let n = Array.length t.support in
  let used = Array.make n false in
  let augs = ref [] in
  let free_endpoint e =
    let u, v = E.endpoints e in
    if M.is_matched t.mid u then v else u
  in
  let pick v ~avoid =
    List.find_opt
      (fun e ->
        let a = free_endpoint e in
        (not used.(a)) && a <> avoid)
      t.support.(v)
  in
  M.iter
    (fun mid_edge ->
      let v, w = E.endpoints mid_edge in
      if (not used.(v)) && not used.(w) then
        match pick v ~avoid:(-1) with
        | None -> ()
        | Some le -> (
            let a = free_endpoint le in
            match pick w ~avoid:a with
            | None -> ()
            | Some re ->
                let b = free_endpoint re in
                used.(a) <- true;
                used.(b) <- true;
                used.(v) <- true;
                used.(w) <- true;
                augs := { left = le; mid = mid_edge; right = re } :: !augs))
    t.mid;
  Obs.add c_augs (List.length !augs);
  List.rev !augs

let apply_all m augs =
  List.iter
    (fun { left; mid; right } ->
      M.remove m mid;
      M.add m left;
      M.add m right)
    augs
