module P = Wm_graph.Prng
module Obs = Wm_obs.Obs
module Ledger = Wm_obs.Ledger
module J = Wm_obs.Json

type t = {
  spec : Spec.t;
  rng : P.t option;  (* [None] iff the spec is inert. *)
  section : string;
}

exception Injected_crash of { site : string; at : int }
exception Budget_exhausted of { site : string; attempts : int }

let c_crashes = Obs.counter Obs.default "fault.crashes"
let c_straggler_rounds = Obs.counter Obs.default "fault.straggler_rounds"
let c_dropped = Obs.counter Obs.default "fault.dropped"
let c_duplicated = Obs.counter Obs.default "fault.duplicated"
let c_corrupted = Obs.counter Obs.default "fault.corrupted"
let c_mem_pressure = Obs.counter Obs.default "fault.mem_pressure"

let create ?(salt = 0) ?(section = "mpc.faults") spec =
  let rng =
    if Spec.is_none spec then None
    else Some (P.create (spec.Spec.seed + (1000003 * salt)))
  in
  { spec; rng; section }

let none = create Spec.none
let spec t = t.spec
let is_active t = t.rng <> None

let rng_state t = Option.map P.state t.rng

let set_rng_state t s =
  match t.rng with None -> () | Some rng -> P.set_state rng s

let has_record_faults t =
  is_active t
  && t.spec.Spec.drop +. t.spec.Spec.dup +. t.spec.Spec.corrupt > 0.0

let crash t ~site ~at ~machines =
  match t.rng with
  | None -> ()
  | Some rng ->
      if t.spec.Spec.crash > 0.0 && P.bernoulli rng t.spec.Spec.crash then begin
        let machine = if machines > 0 then P.int rng machines else 0 in
        Obs.incr c_crashes;
        Ledger.record ~label:("crash@" ^ site) Ledger.default
          ~section:t.section
          [ ("at", at); ("machine", machine) ];
        raise (Injected_crash { site; at })
      end

let straggler t ~site ~at =
  match t.rng with
  | None -> 0
  | Some rng ->
      if t.spec.Spec.straggle > 0.0 && P.bernoulli rng t.spec.Spec.straggle
      then begin
        let rounds = 1 + P.int rng 3 in
        Obs.add c_straggler_rounds rounds;
        Ledger.record ~label:("straggler@" ^ site) Ledger.default
          ~section:t.section
          [ ("at", at); ("rounds", rounds) ];
        rounds
      end
      else 0

let memory_pressure t ~at =
  match t.rng with
  | None -> None
  | Some rng ->
      if t.spec.Spec.mem > 0.0 && P.bernoulli rng t.spec.Spec.mem then begin
        let keep = 0.5 +. P.float rng 0.4 in
        Obs.incr c_mem_pressure;
        Ledger.record ~label:"mem_pressure" Ledger.default ~section:t.section
          [ ("at", at); ("keep_pct", int_of_float (keep *. 100.0)) ];
        Some keep
      end
      else None

type record_fault = Keep | Drop | Duplicate | Corrupt

let record_fault t =
  match t.rng with
  | None -> Keep
  | Some rng ->
      let s = t.spec in
      let total = s.Spec.drop +. s.Spec.dup +. s.Spec.corrupt in
      if total <= 0.0 then Keep
      else
        let u = P.float rng 1.0 in
        if u < s.Spec.drop then Drop
        else if u < s.Spec.drop +. s.Spec.dup then Duplicate
        else if u < total then Corrupt
        else Keep

let corrupt_weight t w =
  match t.rng with None -> w | Some rng -> P.int rng ((2 * w) + 1)

let count_via counter t n =
  if n > 0 && is_active t then Obs.add counter n

let count_drop t n = count_via c_dropped t n
let count_dup t n = count_via c_duplicated t n
let count_corrupt t n = count_via c_corrupted t n

let tamper_array ?corrupt ?(dup = true) t ~site ~at arr =
  if not (has_record_faults t) then arr
  else begin
    let out = ref [] in
    let dropped = ref 0 and duped = ref 0 and corrupted = ref 0 in
    Array.iter
      (fun x ->
        match record_fault t with
        | Keep -> out := x :: !out
        | Drop -> incr dropped
        | Duplicate ->
            if dup then begin
              incr duped;
              out := x :: x :: !out
            end
            else out := x :: !out
        | Corrupt -> (
            match corrupt with
            | Some f ->
                incr corrupted;
                out := f t x :: !out
            | None -> out := x :: !out))
      arr;
    count_drop t !dropped;
    count_dup t !duped;
    count_corrupt t !corrupted;
    if !dropped + !duped + !corrupted > 0 then
      Ledger.record ~label:("tamper@" ^ site) Ledger.default ~section:t.section
        [
          ("at", at);
          ("dropped", !dropped);
          ("duplicated", !duped);
          ("corrupted", !corrupted);
        ];
    Array.of_list (List.rev !out)
  end

let injected_json () =
  let v c = J.Int (Obs.value c) in
  J.Obj
    [
      ("crashes", v c_crashes);
      ("straggler_rounds", v c_straggler_rounds);
      ("dropped", v c_dropped);
      ("duplicated", v c_duplicated);
      ("corrupted", v c_corrupted);
      ("mem_pressure", v c_mem_pressure);
    ]
