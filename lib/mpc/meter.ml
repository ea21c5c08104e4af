module Obs = Wm_obs.Obs
module Ledger = Wm_obs.Ledger

type tally = { mutable ops : int; mutable words : int }

type t = {
  section : string;
  counters : (Obs.counter * Obs.counter) option;
  by_label : (string, tally) Hashtbl.t;
}

let create ~section ?counters () =
  let counters =
    match counters with
    | None -> None
    | Some p ->
        Some
          ( Obs.counter Obs.default (p ^ ".messages"),
            Obs.counter Obs.default (p ^ ".bytes") )
  in
  { section; counters; by_label = Hashtbl.create 8 }

let tally t label =
  match Hashtbl.find_opt t.by_label label with
  | Some x -> x
  | None ->
      let x = { ops = 0; words = 0 } in
      Hashtbl.add t.by_label label x;
      x

let op t ~label ~round ~rounds ~words ~max_load =
  Ledger.record Ledger.default ~label ~section:t.section
    [
      ("round", round);
      ("rounds", rounds);
      ("words", words);
      ("max_load", max_load);
    ];
  let x = tally t label in
  x.ops <- x.ops + 1;
  x.words <- x.words + words;
  match t.counters with
  | Some (c_msgs, c_bytes) ->
      Obs.incr c_msgs;
      Obs.add c_bytes words
  | None -> ()

let ops t ~label =
  match Hashtbl.find_opt t.by_label label with Some x -> x.ops | None -> 0

let words t ~label =
  match Hashtbl.find_opt t.by_label label with Some x -> x.words | None -> 0

