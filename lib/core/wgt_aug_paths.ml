module E = Wm_graph.Edge
module M = Wm_graph.Matching
module LR = Wm_algos.Local_ratio
module U3 = Wm_algos.Unw3aug
module Meter = Wm_stream.Space_meter
module Obs = Wm_obs.Obs

let c_marked = Obs.counter Obs.default "core.wap.marked"
let c_fed = Obs.counter Obs.default "core.wap.fed"
let c_excess_pushed = Obs.counter Obs.default "core.wap.excess_pushed"
let c_duplicates = Obs.counter Obs.default "core.wap.duplicate_candidates"
let c_forwarded = Obs.counter Obs.default "core.wap.forwarded"
let c_augs = Obs.counter Obs.default "core.wap.augmentations"
let h_excess = Obs.histogram Obs.default "core.wap.excess"

type result = {
  matching : M.t;
  m1 : M.t;
  m2 : M.t;
  marked : int;
  forwarded : int;
  augmentations : int;
}

type t = {
  m0 : M.t;
  marked_at : bool array; (* vertex is covered by a marked M0 edge *)
  marked : int;
  instances : (int, U3.t) Hashtbl.t; (* weight class -> UNW-3-AUG-PATHS *)
  approx : LR.t; (* constant-factor matcher on excess weights *)
  (* endpoints -> (original edge, excess weight fed to [approx]) for the
     most recently *stacked* excess candidate on that endpoint pair.
     Only stacked candidates can surface in [LR.unwind], and the unwind
     keeps the most recently stacked edge per endpoint pair, so this is
     exactly the edge [finalize] must translate back. *)
  originals : (int * int, E.t * int) Hashtbl.t;
  mutable forwarded : int;
}

(* The paper's excess-weight slack, the UNW-3-AUG-PATHS support knob,
   and the local-ratio truncation of the excess-weight matcher. *)
let alpha = 0.02
let beta = 0.4
let lr_eps = 0.5

let create ?(mark_prob = 0.5) ?(meter = Meter.create ()) ~rng ~m0 () =
  let n = M.n m0 in
  let marked_at = Array.make n false in
  let by_class = Hashtbl.create 16 in
  let marked = ref 0 in
  M.iter
    (fun e ->
      if E.weight e >= 1 && Wm_graph.Prng.bernoulli rng mark_prob then begin
        let u, v = E.endpoints e in
        marked_at.(u) <- true;
        marked_at.(v) <- true;
        incr marked;
        let cls = Weight_class.doubling_class (E.weight e) in
        let existing =
          match Hashtbl.find_opt by_class cls with Some l -> l | None -> []
        in
        Hashtbl.replace by_class cls (e :: existing)
      end)
    m0;
  let instances = Hashtbl.create 16 in
  (* Lemma 3.9's small-class fallback: when a weight class has only a
     handful of marked middles, keep every incident edge (offline mode)
     instead of capping the support degree. *)
  let small_class = 8 in
  Hashtbl.iter
    (fun cls edges ->
      let mid = M.of_edges n edges in
      let lambda = if List.length edges < small_class then Some max_int else None in
      Hashtbl.replace instances cls (U3.create ?lambda ~meter ~n ~mid ~beta ()))
    by_class;
  Obs.add c_marked !marked;
  {
    m0 = M.copy m0;
    marked_at;
    marked = !marked;
    instances;
    approx = LR.create ~eps:lr_eps ~meter ~n ();
    originals = Hashtbl.create 256;
    forwarded = 0;
  }

let marked_count t = t.marked
let forwarded_count t = t.forwarded

let feed t e =
  Obs.incr c_fed;
  let u, v = E.endpoints e in
  let w = float_of_int (E.weight e) in
  let w0u = M.weight_at t.m0 u and w0v = M.weight_at t.m0 v in
  let base = float_of_int (w0u + w0v) in
  (* Line 7: excess-weight candidates go to the approximate matcher. *)
  if E.weight e >= w0u + w0v then begin
    let excess = E.weight e - w0u - w0v in
    let key = E.endpoints e in
    if Hashtbl.mem t.originals key then Obs.incr c_duplicates;
    (* Record the original only when the candidate is actually stacked:
       a duplicate edge on the same endpoint pair that the matcher
       filters out must not clobber the original behind an earlier
       stacked edge, or [finalize] would rebuild [m1] from the wrong
       (possibly lighter) original. *)
    if LR.feed_pushed t.approx (E.reweight e excess) then begin
      Obs.incr c_excess_pushed;
      Obs.observe h_excess excess;
      match Hashtbl.find_opt t.originals key with
      | Some (prev, prev_excess)
        when prev_excess = excess && E.weight prev >= E.weight e ->
          (* Tie on the stacked residual: keep the heavier original. *)
          ()
      | _ -> Hashtbl.replace t.originals key (e, excess)
    end
  end;
  (* Lines 9–15: small-excess edges are filtered towards the
     3-augmentation instances of their own weight class. *)
  if w <= (1. +. alpha) *. base && E.weight e >= 1 then begin
    let forward () =
      t.forwarded <- t.forwarded + 1;
      Obs.incr c_forwarded;
      (* A_i for a class with no marked middle edges is a no-op. *)
      let cls = Weight_class.doubling_class (E.weight e) in
      match Hashtbl.find_opt t.instances cls with
      | Some inst -> U3.feed inst e
      | None -> ()
    in
    let threshold w_marked w_other =
      (1. +. (2. *. alpha))
      *. ((float_of_int w_marked /. 2.) +. float_of_int w_other)
    in
    if t.marked_at.(u) && not t.marked_at.(v) then begin
      if w >= threshold w0u w0v then forward ()
    end
    else if t.marked_at.(v) && not t.marked_at.(u) then
      if w >= threshold w0v w0u then forward ()
  end

let finalize t =
  (* M1: combine the excess-weight matching with M0 (line 18). *)
  let m1 = M.copy t.m0 in
  let m' = LR.unwind t.approx in
  M.iter
    (fun e' ->
      match Hashtbl.find_opt t.originals (E.endpoints e') with
      | Some (original, excess) ->
          (* The unwound edge carries the excess weight of the stacked
             candidate the table tracks. *)
          assert (E.weight e' = excess);
          ignore (M.add_evicting m1 original)
      | None -> assert false)
    m';
  (* M2: apply 3-augmentations greedily from the heaviest class down
     (line 19). *)
  let m2 = M.copy t.m0 in
  let used = Array.make (M.n t.m0) false in
  let applied = ref 0 in
  let classes =
    Hashtbl.fold (fun cls _ acc -> cls :: acc) t.instances []
    |> List.sort (fun a b -> Int.compare b a)
  in
  List.iter
    (fun cls ->
      let inst = Hashtbl.find t.instances cls in
      List.iter
        (fun (aug : U3.aug3) ->
          let path = Aug.Path [ aug.left; aug.mid; aug.right ] in
          let touched = Aug.touched_vertices path m2 in
          let clear = List.for_all (fun x -> not used.(x)) touched in
          if
            clear
            && Aug.is_wellformed path
            && Aug.is_alternating path m2
            && Aug.gain path m2 > 0
          then begin
            Aug.apply path m2;
            incr applied;
            List.iter (fun x -> used.(x) <- true) touched
          end)
        (U3.finalize inst))
    classes;
  Obs.add c_augs !applied;
  Wm_obs.Ledger.record Wm_obs.Ledger.default ~section:"core.wap"
    [
      ("marked", t.marked);
      ("forwarded", t.forwarded);
      ("stored_candidates", Hashtbl.length t.originals);
      ("augmentations", !applied);
    ];
  let best = if M.weight m1 >= M.weight m2 then m1 else m2 in
  {
    matching = best;
    m1;
    m2;
    marked = t.marked;
    forwarded = t.forwarded;
    augmentations = !applied;
  }
