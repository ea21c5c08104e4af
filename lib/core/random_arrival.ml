module E = Wm_graph.Edge
module M = Wm_graph.Matching
module G = Wm_graph.Weighted_graph
module S = Wm_stream.Edge_stream
module LR = Wm_algos.Local_ratio
module Meter = Wm_stream.Space_meter
module Obs = Wm_obs.Obs
module Ledger = Wm_obs.Ledger
module Trace = Wm_obs.Trace

let c_runs = Obs.counter Obs.default "core.random_arrival.runs"
let c_t_retained = Obs.counter Obs.default "core.random_arrival.t_retained"
let h_t_residual = Obs.histogram Obs.default "core.random_arrival.t_residual"

type result = {
  matching : M.t;
  m0_weight : int;
  m1_weight : int;
  m2_weight : int;
  stack_size : int;
  t_size : int;
  wap : Wgt_aug_paths.result;
}

(* The prefix must see enough edges to settle the potentials (the paper
   uses p = 100/log n, an asymptotic fraction); too small a prefix makes
   T blow past the O(n polylog n) budget, too large a prefix starves the
   augmentation phase.  Half of n ln n prefix edges, clamped to
   [2%, 10%] of the stream, balances both on laptop-scale inputs. *)
let default_p ~n ~m =
  let nlogn = 0.5 *. float_of_int n *. Float.log (float_of_int (Stdlib.max 2 n)) in
  Stdlib.min 0.10 (Stdlib.max 0.02 (nlogn /. float_of_int (Stdlib.max 1 m)))

let run ?p ?alpha ?beta ?(meter = Meter.create ()) ~rng stream =
  Obs.incr c_runs;
  let n = S.graph_n stream in
  let m_edges = S.length stream in
  let p = match p with Some p -> p | None -> default_p ~n ~m:m_edges in
  let cut = int_of_float (Float.ceil (p *. float_of_int m_edges)) in
  let lr = LR.create ~meter ~n () in
  let wap = ref None in
  let t_set = ref [] in
  let t_size = ref 0 in
  (* Crossing the cut: close the prefix pass segment's ledger row,
     unwind the prefix stack into M0, freeze potentials, start
     WGT-AUG-PATHS. *)
  let cut_over () =
    Ledger.record Ledger.default ~label:"prefix"
      ~section:"core.random_arrival"
      [
        ("peak_words", Meter.checkpoint meter);
        ("stack_edges", LR.stack_size lr);
      ];
    LR.freeze lr;
    let w =
      Wgt_aug_paths.create ?alpha ?beta ~meter ~rng ~m0:(LR.unwind lr) ()
    in
    wap := Some w;
    w
  in
  Obs.span_open Obs.default "core.random_arrival";
  Obs.span_open Obs.default "prefix";
  S.iteri stream (fun i e ->
      if i < cut then LR.feed lr e
      else begin
        let w =
          match !wap with
          | Some w -> w
          | None ->
              Obs.span_close Obs.default (* prefix *);
              if Trace.enabled () then
                Trace.instant "core.random_arrival.cut"
                  ~args:[ ("prefix_edges", string_of_int cut) ];
              Obs.span_open Obs.default "suffix";
              cut_over ()
        in
        let r = LR.residual lr e in
        if r > 0 then begin
          t_set := e :: !t_set;
          incr t_size;
          Obs.incr c_t_retained;
          Obs.observe h_t_residual r;
          Meter.retain meter 1
        end;
        Wgt_aug_paths.feed w e
      end);
  Obs.span_close Obs.default (* prefix or suffix *);
  (* Degenerate stream shorter than the cut: everything was prefix. *)
  let w = match !wap with Some w -> w | None -> cut_over () in
  let m0_weight =
    (* M0 as unwound at the cut. *)
    M.weight (LR.unwind lr)
  in
  (* M1: maximum matching of T under residual weights w'' (line 14),
     then the stack unwind on top (lines 15-17).  The exact maximum
     matching is replaced by the strongest applicable solver; see
     Mwm_general. *)
  let m1 = M.create n in
  if !t_set <> [] then
    Obs.with_span Obs.default "m1" (fun () ->
        let originals = Hashtbl.create !t_size in
        List.iter (fun e -> Hashtbl.replace originals (E.endpoints e) e) !t_set;
        let residual_edges =
          List.filter_map
            (fun e ->
              let r = LR.residual lr e in
              if r > 0 then Some (E.reweight e r) else None)
            !t_set
        in
        let sub = G.create ~n residual_edges in
        let best_residual = Wm_exact.Mwm_general.lower_bound sub in
        (* Translate back to original weights. *)
        M.iter
          (fun e' -> M.add m1 (Hashtbl.find originals (E.endpoints e')))
          best_residual);
  LR.unwind_onto lr m1;
  let wres =
    Obs.with_span Obs.default "finalize" (fun () -> Wgt_aug_paths.finalize w)
  in
  Obs.span_close Obs.default (* core.random_arrival *);
  (* Per-pass space accounting (Thm 3.14 audit): the suffix row closes
     the run's second pass segment, so the lifetime meter peak is the
     max over this run's [peak_words] rows when the meter is fresh. *)
  Ledger.record Ledger.default ~label:"suffix" ~section:"core.random_arrival"
    [ ("peak_words", Meter.checkpoint meter); ("t_edges", !t_size) ];
  let m2 = wres.Wgt_aug_paths.matching in
  let best = if M.weight m1 >= M.weight m2 then m1 else m2 in
  {
    matching = best;
    m0_weight;
    m1_weight = M.weight m1;
    m2_weight = M.weight m2;
    stack_size = LR.stack_size lr;
    t_size = !t_size;
    wap = wres;
  }

let solve ?p ~rng stream = (run ?p ~rng stream).matching
