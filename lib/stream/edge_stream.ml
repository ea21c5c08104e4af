module G = Wm_graph.Weighted_graph
module E = Wm_graph.Edge
module Injector = Wm_fault.Injector

type order =
  | As_given
  | Random of Wm_graph.Prng.t
  | Increasing_weight
  | Decreasing_weight

module Obs = Wm_obs.Obs
module Ledger = Wm_obs.Ledger

let c_streams = Obs.counter Obs.default "stream.created"
let c_passes = Obs.counter Obs.default "stream.passes"
let c_edges_seen = Obs.counter Obs.default "stream.edges_seen"
let c_max_length = Obs.counter Obs.default "stream.length_max"

type t = {
  n : int;
  edges : E.t array;
  mutable passes : int;
  faults : Injector.t;
}

let arrange order edges =
  match order with
  | As_given -> Array.copy edges
  | Random rng ->
      let edges = Array.copy edges in
      Wm_graph.Prng.shuffle_in_place rng edges;
      edges
  | Increasing_weight -> E.sort_by_weight ~descending:false edges
  | Decreasing_weight -> E.sort_by_weight ~descending:true edges

let make ?faults n edges =
  Obs.incr c_streams;
  Obs.set_max c_max_length (Array.length edges);
  let spec =
    match faults with Some s -> s | None -> Wm_fault.Spec.default ()
  in
  {
    n;
    edges;
    passes = 0;
    faults = Injector.create ~salt:1 ~section:"stream.faults" spec;
  }

let of_graph ?faults ?(order = As_given) g =
  make ?faults (G.n g) (arrange order (G.edges g))

let of_edges ?faults ?(order = As_given) ~n edges =
  make ?faults n (arrange order (Array.of_list edges))

let graph_n t = t.n
let length t = Array.length t.edges
let passes t = t.passes

(* Deliver one record under the stream's fault plan.  [emit] receives
   each delivered edge; returns the per-pass (dropped, duplicated,
   corrupted) tallies. *)
let deliver t e emit =
  match Injector.record_fault t.faults with
  | Injector.Keep ->
      emit e;
      (0, 0, 0)
  | Injector.Drop -> (1, 0, 0)
  | Injector.Duplicate ->
      emit e;
      emit e;
      (0, 1, 0)
  | Injector.Corrupt ->
      emit (E.reweight e (Injector.corrupt_weight t.faults (E.weight e)));
      (0, 0, 1)

let faulty_pass t f =
  let dropped = ref 0 and duped = ref 0 and corrupted = ref 0 in
  Array.iter
    (fun e ->
      let d, u, c = deliver t e f in
      dropped := !dropped + d;
      duped := !duped + u;
      corrupted := !corrupted + c)
    t.edges;
  Injector.count_drop t.faults !dropped;
  Injector.count_dup t.faults !duped;
  Injector.count_corrupt t.faults !corrupted;
  if !dropped + !duped + !corrupted > 0 then
    Ledger.record ~label:"pass" Ledger.default ~section:"stream.faults"
      [
        ("pass", t.passes);
        ("dropped", !dropped);
        ("duplicated", !duped);
        ("corrupted", !corrupted);
      ]

let iter t f =
  t.passes <- t.passes + 1;
  Obs.incr c_passes;
  Obs.add c_edges_seen (Array.length t.edges);
  if Injector.has_record_faults t.faults then faulty_pass t f
  else Array.iter f t.edges

let iteri t f =
  t.passes <- t.passes + 1;
  Obs.incr c_passes;
  Obs.add c_edges_seen (Array.length t.edges);
  if Injector.has_record_faults t.faults then begin
    (* Positions number the records as delivered, so consumers see a
       gapless arrival sequence even when records were dropped or
       duplicated upstream. *)
    let pos = ref 0 in
    faulty_pass t (fun e ->
        f !pos e;
        incr pos)
  end
  else Array.iteri f t.edges

let charge_passes t k =
  if k < 0 then invalid_arg "Edge_stream.charge_passes: negative";
  t.passes <- t.passes + k;
  Obs.add c_passes k

let nth t i = t.edges.(i)
let to_ordered_graph t = G.of_array ~n:t.n t.edges
