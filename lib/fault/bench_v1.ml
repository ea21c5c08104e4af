module J = Wm_obs.Json

let schema = "BENCH_v1"

(* ------------------------------------------------------------------ *)
(* Envelope *)

let report ~mode ~seed ~jobs ~gc ?trace_path ?(experiments = []) ?(micro = [])
    ?serve ?shard () =
  let obs = Wm_obs.Obs.to_json Wm_obs.Obs.default in
  let trace_meta =
    match (trace_path, Wm_obs.Trace.meta ()) with
    | Some p, J.Obj fields -> J.Obj (fields @ [ ("path", J.Str p) ])
    | _, meta -> meta
  in
  let opt k = Option.fold ~none:[] ~some:(fun v -> [ (k, v) ]) in
  J.Obj
    ([
       ("schema", J.Str schema);
       ("mode", J.Str mode);
       ("seed", J.Int seed);
       ("jobs", J.Int jobs);
       ("experiments", J.List experiments);
       ( "micro",
         J.List
           (List.map
              (fun (name, ns) ->
                J.Obj [ ("name", J.Str name); ("ns_per_run", J.Float ns) ])
              micro) );
     ]
    @ opt "serve" serve @ opt "shard" shard
    @ [
        ("obs", obs);
        ("gc", Wm_obs.Gcstat.block_json ~ledger:Wm_obs.Ledger.default gc);
        ( "histograms",
          Option.value (J.member "histograms" obs) ~default:(J.Obj []) );
        ("ledger", Wm_obs.Ledger.to_json Wm_obs.Ledger.default);
        ("faults", Recovery.report_json ());
        ("durability", Recovery.durability_json ());
        ("trace_meta", trace_meta);
      ])

let write path json =
  Out_channel.with_open_text path (fun oc ->
      J.to_channel oc json;
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Schema combinators.  A spec checks the value at a JSON path and
   raises [Violation (path, message)] on the first thing it rejects. *)

exception Violation of string * string

type spec = string -> J.t -> unit

let where msg ok : spec =
 fun path j -> if not (ok j) then raise (Violation (path, msg))

let all specs : spec = fun path j -> List.iter (fun s -> s path j) specs
let select f : spec = fun path j -> f j path j
let any : spec = fun _ _ -> ()
let int = where "expected an int" (function J.Int _ -> true | _ -> false)
let nat =
  where "expected a non-negative int" (function J.Int n -> n >= 0 | _ -> false)

let pos =
  where "expected a positive int" (function J.Int n -> n > 0 | _ -> false)

let number =
  where "expected a number" (function J.Int _ | J.Float _ -> true | _ -> false)

let positive =
  where "expected a positive number" (function
    | J.Int n -> n > 0
    | J.Float f -> f > 0.0
    | _ -> false)

let string = where "expected a string" (function J.Str _ -> true | _ -> false)
let bool = where "expected a bool" (function J.Bool _ -> true | _ -> false)
let equal v = where ("expected " ^ J.to_string v) (( = ) v)

(* An object with (at least) these fields, checked in order. *)
let obj fields : spec =
 fun path j ->
  match j with
  | J.Obj _ ->
      List.iter
        (fun (k, spec) ->
          match J.member k j with
          | Some v -> spec (path ^ "." ^ k) v
          | None -> raise (Violation (path, Printf.sprintf "missing %S" k)))
        fields
  | _ -> raise (Violation (path, "expected an object"))

(* An object whose every field passes the spec chosen by its key. *)
let every spec_of : spec =
 fun path -> function
  | J.Obj fields ->
      List.iter (fun (k, v) -> spec_of k (path ^ "." ^ k) v) fields
  | _ -> raise (Violation (path, "expected an object"))

let list spec : spec =
 fun path -> function
  | J.List items ->
      List.iteri (fun i v -> spec (Printf.sprintf "%s[%d]" path i) v) items
  | _ -> raise (Violation (path, "expected a list"))

let non_empty spec : spec =
 fun path j ->
  match j with
  | J.List [] | J.Obj [] -> raise (Violation (path, "must not be empty"))
  | _ -> spec path j

let nats = every (fun _ -> nat)
let nat_fields keys = obj (List.map (fun k -> (k, nat)) keys)

(* Accessors for invariants, which run only after [obj] has checked the
   fields they read. *)
let get k j = Option.value (J.member k j) ~default:J.Null
let int_of = function J.Int n -> n | _ -> 0
let num_of = function J.Int n -> float_of_int n | J.Float f -> f | _ -> nan
let items = function J.List l -> l | _ -> []
let int_at k j = int_of (get k j)

(* ------------------------------------------------------------------ *)
(* The BENCH_v1 schema *)

(* Rules keyed by column name, applied to every row of every table that
   has the column: [identical] is the determinism marker of T7/T9/T10/
   T12, and a table reporting timings or speedups reports real ones. *)
let column_rules =
  [
    ("identical", equal (J.Str "yes"));
    ("jobs", pos);
    ("wall-ms", positive);
    ("speedup", positive);
  ]

let table =
  select (fun t ->
      let rules =
        List.map
          (function J.Str c -> List.assoc_opt c column_rules | _ -> None)
          (items (get "columns" t))
      in
      let row path = function
        | J.List cells ->
            List.iteri
              (fun i cell ->
                match List.nth_opt rules i with
                | Some (Some rule) -> rule (Printf.sprintf "%s[%d]" path i) cell
                | _ -> ())
              cells
        | _ -> raise (Violation (path, "expected a list"))
      in
      obj [ ("columns", list string); ("rows", list row) ])

(* T7 is the self-measured speedup table: its first table must carry the
   jobs/wall-ms/speedup columns (the column rules then check them) and
   at least one row. *)
let t7_tables =
  where "T7 lacks a jobs/wall-ms/speedup table with rows" (function
    | J.List (t :: _) ->
        let cols = items (get "columns" t) in
        List.for_all
          (fun c -> List.mem (J.Str c) cols)
          [ "jobs"; "wall-ms"; "speedup" ]
        && items (get "rows" t) <> []
    | _ -> false)

let section =
  all
    [
      obj
        [
          ("id", string);
          ("title", string);
          ("claim", string);
          ("tables", list table);
          ("notes", list string);
        ];
      select (fun s ->
          if get "id" s = J.Str "T7" then obj [ ("tables", t7_tables) ]
          else any);
    ]

let micro = obj [ ("name", string); ("ns_per_run", number) ]

(* Count matches the bucket-count sum; percentiles are ordered. *)
let histogram =
  all
    [
      obj
        [
          ("count", nat);
          ( "buckets",
            list
              (where "malformed bucket" (function
                | J.List [ J.Int lo; J.Int c ] -> lo >= 0 && c > 0
                | _ -> false)) );
          ("p50", number);
          ("p90", number);
          ("p99", number);
        ];
      where "bucket counts do not sum to count" (fun h ->
          List.fold_left
            (fun acc b -> acc + int_of (List.nth (items b) 1))
            0
            (items (get "buckets" h))
          = int_at "count" h);
      where "percentiles out of order" (fun h ->
          let p k = num_of (get k h) in
          int_at "count" h = 0 || (p "p50" <= p "p90" && p "p90" <= p "p99"));
    ]

let gc_keys =
  [
    "minor_words"; "promoted_words"; "major_words"; "minor_collections";
    "major_collections"; "compactions"; "top_heap_words"; "rounds";
    "minor_words_per_round";
  ]

(* A solve run that allocated nothing measured nothing.  A serve report
   may be all zeros: the shard router solves nothing itself, and
   [Gc.quick_stat] only reflects counters merged at collection events. *)
let gc ~solve =
  all
    (nat_fields gc_keys
    :: (if solve then [ obj [ ("minor_words", pos); ("top_heap_words", pos) ] ]
        else []))

(* Every ledger row is ints plus an optional label; [gc] rows carry
   minor_words, and a solve report must have some, so per-round
   allocation deltas are never silently absent. *)
let ledger ~solve =
  let row = every (function "label" -> string | _ -> int) in
  let section = function
    | "gc" -> list (all [ row; obj [ ("minor_words", nat) ] ])
    | _ -> list row
  in
  non_empty
    (all
       (every section
       :: (if solve then [ obj [ ("gc", non_empty any) ] ] else [])))

let serve_block =
  all
    [
      obj
        [
          ("requests", nat);
          ("batches", nat);
          ("sessions", nat);
          ("queue_depth", nat);
          ("counters", all [ nats; obj [ ("solves", nat) ] ]);
          ( "incremental",
            all
              [
                nat_fields
                  [
                    "mutations"; "edges_added"; "edges_removed";
                    "vertices_added"; "warm_solves";
                  ];
                where "edge/vertex deltas without mutations" (fun i ->
                    int_at "mutations" i > 0
                    || int_at "edges_added" i + int_at "edges_removed" i
                       + int_at "vertices_added" i
                       = 0);
              ] );
          ( "cache",
            all
              [
                nat_fields
                  [ "entries"; "capacity"; "hits"; "misses"; "evictions" ];
                where "entries exceed capacity" (fun c ->
                    int_at "entries" c <= int_at "capacity" c);
              ] );
        ];
      where "incremental.warm_solves exceeds counters.solves" (fun s ->
          int_at "warm_solves" (get "incremental" s)
          <= int_at "solves" (get "counters" s));
    ]

let transport_keys = [ "messages"; "bytes_sent"; "bytes_received" ]

(* The single-process server reports {shards: 0}; a router report meters
   real bytes on the wire, so its books must balance: one entry per
   shard, in shard order, summing to the transport totals. *)
let shard_block =
  select (fun b ->
      let per_shard = items (get "per_shard" b) in
      if int_at "shards" b = 0 then obj [ ("shards", nat) ]
      else
        all
          [
            obj
              [
                ("shards", pos);
                ( "router",
                  nat_fields [ "migrations"; "worker_restarts"; "sessions" ] );
                ("transport", nat_fields transport_keys);
                ("totals", nats);
                ( "per_shard",
                  list
                    (all
                       [
                         nat_fields
                           ([ "shard"; "restarts"; "load" ] @ transport_keys);
                         obj [ ("serve", serve_block) ];
                       ]) );
              ];
            where "per_shard needs one entry per shard" (fun b ->
                List.length per_shard = int_at "shards" b);
            where "per_shard entries out of shard order" (fun _ ->
                List.for_all Fun.id
                  (List.mapi (fun i e -> int_at "shard" e = i) per_shard));
            where "transport does not equal the per-shard sums" (fun b ->
                List.for_all
                  (fun k ->
                    int_at k (get "transport" b)
                    = List.fold_left
                        (fun acc e -> acc + int_at k e)
                        0 per_shard)
                  transport_keys);
          ])

let durability_keys =
  [
    "wal_records"; "wal_bytes"; "wal_replayed"; "wal_truncated_bytes";
    "snapshots"; "snapshot_restores"; "wal_compacted"; "worker_restarts";
    "checkpoints"; "restores";
  ]

(* Serve reports (those with a [serve] block) run no experiments and
   carry the [serve]/[shard] blocks; solve reports must have run some. *)
let envelope ~serve =
  let solve = not serve in
  obj
    ([
       ("schema", equal (J.Str schema));
       ("mode", string);
       ("seed", int);
       ("jobs", pos);
       ("experiments", (if solve then non_empty else Fun.id) (list section));
       ("micro", list micro);
     ]
    @ (if serve then [ ("serve", serve_block); ("shard", shard_block) ] else [])
    @ [
        ("obs", obj [ ("counters", every (fun _ -> int)) ]);
        ("gc", gc ~solve);
        ("histograms", non_empty (every (fun _ -> histogram)));
        ("ledger", ledger ~solve);
        ( "faults",
          obj [ ("spec", string); ("injected", nats); ("recovery", nats) ] );
        ("durability", nat_fields durability_keys);
        ("trace_meta", obj [ ("enabled", bool); ("events", nat) ]);
      ])

let bench_v1 = select (fun j -> envelope ~serve:(J.member "serve" j <> None))

let check json =
  match bench_v1 "$" json with
  | () -> Ok ()
  | exception Violation (path, msg) -> Error (path ^ ": " ^ msg)
