module Obs = Wm_obs.Obs
module Ledger = Wm_obs.Ledger
module Injector = Wm_fault.Injector
module Recovery = Wm_fault.Recovery

let c_rounds = Obs.counter Obs.default "mpc.rounds"
let c_load_max = Obs.counter Obs.default "mpc.machine_load_max"

type t = {
  machines : int;
  memory_words : int;
  mutable rounds : int;
  mutable peak : int;
  faults : Injector.t;
  meter : Meter.t;
}

(* Per-operation accounting rows: [label] is the communication
   primitive, [rounds] its round bill, [words] the data it moved, and
   [max_load] the largest per-machine holding it induced — the ledger
   behind the Thm 4.1 O_eps(log log n)-rounds / O~(n)-memory audit.
   [round] is the cluster's round clock after the operation. *)
let op_row t ~label ~rounds ~words ~max_load =
  Meter.op t.meter ~label ~round:t.rounds ~rounds ~words ~max_load

exception Memory_exceeded of { machine : int; used : int; capacity : int }

let create ?faults ~machines ~memory_words () =
  if machines < 1 then invalid_arg "Cluster.create: need at least one machine";
  if memory_words < 1 then invalid_arg "Cluster.create: need positive memory";
  let spec =
    match faults with Some s -> s | None -> Wm_fault.Spec.default ()
  in
  {
    machines;
    memory_words;
    rounds = 0;
    peak = 0;
    faults = Injector.create ~section:"mpc.faults" spec;
    meter = Meter.create ~section:"mpc.ops" ();
  }

let machines t = t.machines
let memory_words t = t.memory_words
let rounds t = t.rounds
let peak_machine_memory t = t.peak
let faults t = t.faults

let charge_rounds t k =
  if k < 0 then invalid_arg "Cluster.charge_rounds: negative";
  t.rounds <- t.rounds + k;
  Obs.add c_rounds k

let check_load t ~machine ~words =
  if words > t.peak then t.peak <- words;
  Obs.set_max c_load_max words;
  if words > t.memory_words then
    raise (Memory_exceeded { machine; used = words; capacity = t.memory_words })

(* Fault choreography shared by every primitive: stragglers bill extra
   rounds first (the op still completes, late), then a crash decision
   may abort the op after the straggler bill — mirroring a machine that
   stalls and then dies mid-round. *)
let inject t ~site =
  if Injector.is_active t.faults then begin
    let extra = Injector.straggler t.faults ~site ~at:t.rounds in
    if extra > 0 then charge_rounds t extra;
    Injector.crash t.faults ~site ~at:t.rounds ~machines:t.machines
  end

let scatter t items =
  charge_rounds t 1;
  inject t ~site:"scatter";
  let items =
    Injector.tamper_array t.faults ~site:"scatter" ~at:t.rounds items
  in
  let shards = Array.make t.machines [] in
  Array.iteri (fun i x -> shards.(i mod t.machines) <- x :: shards.(i mod t.machines)) items;
  let max_shard = ref 0 in
  let out =
    Array.mapi
      (fun i shard ->
        let a = Array.of_list (List.rev shard) in
        max_shard := Stdlib.max !max_shard (Array.length a);
        check_load t ~machine:i ~words:(Array.length a);
        a)
      shards
  in
  op_row t ~label:"scatter" ~rounds:1 ~words:(Array.length items)
    ~max_load:!max_shard;
  out

let broadcast t ~words =
  charge_rounds t 2;
  inject t ~site:"broadcast";
  (* A corrupted broadcast is detected by the receivers and repeated:
     two extra rounds, no data loss. *)
  (if Injector.has_record_faults t.faults then
     match Injector.record_fault t.faults with
     | Injector.Corrupt ->
         Injector.count_corrupt t.faults 1;
         charge_rounds t 2;
         op_row t ~label:"rebroadcast" ~rounds:2 ~words:(words * t.machines)
           ~max_load:words
     | Injector.Keep | Injector.Drop | Injector.Duplicate -> ());
  for i = 0 to t.machines - 1 do
    check_load t ~machine:i ~words
  done;
  op_row t ~label:"broadcast" ~rounds:2 ~words:(words * t.machines)
    ~max_load:words

let run_round t f shard_inputs =
  if Array.length shard_inputs <> t.machines then
    invalid_arg "Cluster.run_round: one input per machine expected";
  charge_rounds t 1;
  inject t ~site:"compute";
  op_row t ~label:"compute" ~rounds:1 ~words:0 ~max_load:0;
  Array.map f shard_inputs

let checkpoint t ~words =
  (* Replicating the checkpoint to every machine costs one round, and
     each machine must be able to hold it alongside nothing else (the
     checkpoint is taken at a round boundary). *)
  charge_rounds t 1;
  for i = 0 to t.machines - 1 do
    check_load t ~machine:i ~words
  done;
  Recovery.note_checkpoint ~words ~at:t.rounds

let restore t ~words =
  charge_rounds t 1;
  Recovery.note_restore ~words ~at:t.rounds

let with_retry t ~on_retry f =
  Recovery.with_retry
    ~attempts:(Injector.spec t.faults).Wm_fault.Spec.max_attempts
    ~site:"mpc" f
    ~on_retry:(fun ~attempt ~backoff ->
      (* The backoff is billed honestly to the round clock, and the
         extra rounds are visible next to the faults that caused them. *)
      charge_rounds t backoff;
      Ledger.record ~label:"retry_backoff" Ledger.default ~section:"mpc.faults"
        [ ("round", t.rounds); ("attempt", attempt); ("rounds", backoff) ];
      on_retry ())
