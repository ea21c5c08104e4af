type snapshot = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_words : int;
}

let snapshot () =
  let s = Gc.quick_stat () in
  {
    minor_words = int_of_float s.Gc.minor_words;
    promoted_words = int_of_float s.Gc.promoted_words;
    major_words = int_of_float s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    top_heap_words = s.Gc.top_heap_words;
  }

let delta ~before after =
  {
    minor_words = after.minor_words - before.minor_words;
    promoted_words = after.promoted_words - before.promoted_words;
    major_words = after.major_words - before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    top_heap_words = after.top_heap_words;
  }

let start = snapshot ()

let since_start () = delta ~before:start (snapshot ())

let fields s =
  [
    ("minor_words", s.minor_words);
    ("promoted_words", s.promoted_words);
    ("major_words", s.major_words);
    ("minor_collections", s.minor_collections);
    ("major_collections", s.major_collections);
    ("compactions", s.compactions);
    ("top_heap_words", s.top_heap_words);
  ]

let block_json ~ledger s =
  let round_rows =
    List.filter
      (fun (r : Ledger.row) -> r.Ledger.label = Some "round")
      (Ledger.rows ledger "gc")
  in
  let rounds = List.length round_rows in
  let round_minor =
    List.fold_left
      (fun acc (r : Ledger.row) ->
        match List.assoc_opt "minor_words" r.Ledger.fields with
        | Some w -> acc + w
        | None -> acc)
      0 round_rows
  in
  let per_round = if rounds = 0 then 0 else round_minor / rounds in
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Int v)) (fields s)
    @ [
        ("rounds", Json.Int rounds);
        ("minor_words_per_round", Json.Int per_round);
      ])
