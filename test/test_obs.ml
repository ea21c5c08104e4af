(* Tests for wm_obs: counters, spans, gauges, JSON snapshots, and the
   in-house JSON parser used by the bench-smoke validator. *)

module Obs = Wm_obs.Obs
module J = Wm_obs.Json

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counter_basics () =
  let reg = Obs.create () in
  let c = Obs.counter reg "a.b" in
  check "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.add c 4;
  check "incr+add" 5 (Obs.value c);
  check "by name" 5 (Obs.counter_value reg "a.b");
  check "unknown name" 0 (Obs.counter_value reg "nope")

let test_counter_interned () =
  let reg = Obs.create () in
  let c1 = Obs.counter reg "shared" in
  let c2 = Obs.counter reg "shared" in
  Obs.incr c1;
  Obs.incr c2;
  check "same counter" 2 (Obs.value c1)

let test_counter_negative_raises () =
  let reg = Obs.create () in
  let c = Obs.counter reg "mono" in
  Alcotest.check_raises "negative add"
    (Invalid_argument "Obs.add: counters are monotone") (fun () ->
      Obs.add c (-1))

let test_set_max () =
  let reg = Obs.create () in
  let c = Obs.counter reg "hwm" in
  Obs.set_max c 7;
  Obs.set_max c 3;
  check "keeps max" 7 (Obs.value c);
  Obs.set_max c 11;
  check "raises to larger" 11 (Obs.value c)

(* The CAS loop must never lose a concurrent raise: four domains racing
   interleaved raises still leave the true maximum behind. *)
let test_set_max_concurrent () =
  let reg = Obs.create () in
  let c = Obs.counter reg "hwm.par" in
  let per_domain = 20_000 in
  let hammer d () =
    for i = 1 to per_domain do
      Obs.set_max c ((i * 4) + d)
    done
  in
  let workers = List.init 4 (fun d -> Domain.spawn (hammer d)) in
  List.iter Domain.join workers;
  check "true maximum survives the race" ((per_domain * 4) + 3) (Obs.value c)

let test_counters_concurrent () =
  let reg = Obs.create () in
  let c = Obs.counter reg "cnt.par" in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Obs.incr c
            done))
  in
  List.iter Domain.join workers;
  check "no lost increments" 40_000 (Obs.value c)

(* ------------------------------------------------------------------ *)
(* Timers *)

(* A timer's or histogram's field as the registry's snapshot reports
   it; [0] for a name never recorded. *)
let snapshot_field reg section name field =
  match Option.bind (J.member section (Obs.to_json reg)) (J.member name) with
  | None -> 0
  | Some entry -> (
      match J.member field entry with
      | Some (J.Int v) -> v
      | _ -> Alcotest.fail (name ^ "." ^ field ^ " is not an int"))

let span_count reg path = snapshot_field reg "timers" path "count"

let test_span_nesting () =
  let reg = Obs.create () in
  Obs.span_open reg "outer";
  Obs.span_open reg "inner";
  Obs.span_close reg;
  Obs.span_close reg;
  check "outer count" 1 (span_count reg "outer");
  check "nested path count" 1 (span_count reg "outer/inner");
  check "no bare inner" 0 (span_count reg "inner");
  check_bool "outer total >= 0" true
    (snapshot_field reg "timers" "outer" "total_ns" >= 0)

let test_span_close_without_open () =
  let reg = Obs.create () in
  Alcotest.check_raises "close on empty"
    (Invalid_argument
       "Obs.span_close: no open span on this domain (span_open/span_close \
        must balance within each domain)") (fun () -> Obs.span_close reg);
  (* Still descriptive after a balanced open/close pair. *)
  Obs.with_span reg "once" (fun () -> ());
  match Obs.span_close reg with
  | () -> Alcotest.fail "second close should raise"
  | exception Invalid_argument _ -> ()

let test_with_span_exception_safe () =
  let reg = Obs.create () in
  (try Obs.with_span reg "boom" (fun () -> failwith "x") with Failure _ -> ());
  check "span closed despite raise" 1 (span_count reg "boom");
  (* The stack is balanced: a fresh span does not nest under "boom". *)
  Obs.with_span reg "after" (fun () -> ());
  check "not nested" 1 (span_count reg "after")

(* ------------------------------------------------------------------ *)
(* Gauges and snapshots *)

let test_gauge_sampled_at_snapshot () =
  let reg = Obs.create () in
  let v = ref 5 in
  Obs.gauge reg "g" (fun () -> !v);
  v := 9;
  match J.member "gauges" (Obs.to_json reg) with
  | Some (J.Obj [ ("g", J.Int got) ]) -> check "sampled late" 9 got
  | _ -> Alcotest.fail "gauges not in snapshot"

let test_to_json_round_trip () =
  let reg = Obs.create () in
  Obs.add (Obs.counter reg "z.last") 3;
  Obs.add (Obs.counter reg "a.first") 1;
  Obs.with_span reg "phase" (fun () -> ());
  let text = J.to_string (Obs.to_json reg) in
  match J.of_string text with
  | Error e -> Alcotest.fail ("snapshot does not re-parse: " ^ e)
  | Ok json -> (
      (match J.member "counters" json with
      | Some (J.Obj fields) ->
          check_str "sorted names" "a.first" (fst (List.hd fields));
          check_bool "values survive" true
            (List.assoc "z.last" fields = J.Int 3)
      | _ -> Alcotest.fail "no counters object");
      match J.member "timers" json with
      | Some (J.Obj [ ("phase", J.Obj fields) ]) ->
          check_bool "timer has count" true
            (List.assoc "count" fields = J.Int 1)
      | _ -> Alcotest.fail "no timers object")

let test_reset_preserves_handles () =
  let reg = Obs.create () in
  let c = Obs.counter reg "kept" in
  Obs.add c 10;
  Obs.reset reg;
  check "zeroed" 0 (Obs.value c);
  (* Handles interned before the reset keep feeding the registry. *)
  Obs.incr c;
  check "still wired" 1 (Obs.counter_value reg "kept")

(* ------------------------------------------------------------------ *)
(* Name hygiene *)

let test_name_hygiene () =
  let reg = Obs.create () in
  let expect fn f =
    match f () with
    | _ -> Alcotest.fail (fn ^ " accepted a '/' name")
    | exception Invalid_argument _ -> ()
  in
  expect "counter" (fun () -> Obs.counter reg "a/b");
  expect "histogram" (fun () -> Obs.histogram reg "a/b");
  expect "gauge" (fun () -> Obs.gauge reg "a/b" (fun () -> 0));
  expect "span_open" (fun () -> Obs.span_open reg "a/b");
  (* Dots remain the blessed namespace separator. *)
  ignore (Obs.counter reg "a.b")

(* ------------------------------------------------------------------ *)
(* Histograms *)

let test_histogram_basics () =
  let reg = Obs.create () in
  let h = Obs.histogram reg "h" in
  let field k = snapshot_field reg "histograms" "h" k in
  check "empty count" 0 (field "count");
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Obs.percentile h 0.5);
  List.iter (Obs.observe h) [ 1; 2; 3; 4; 100 ];
  check "count" 5 (field "count");
  check "sum" 110 (field "sum");
  let h2 = Obs.histogram reg "h" in
  Obs.observe h2 7;
  check "interned" 6 (field "count")

let test_histogram_percentiles () =
  let reg = Obs.create () in
  let h = Obs.histogram reg "p" in
  (* 100 observations of 10: every percentile is pinned to 10 by the
     min/max clamp regardless of bucket interpolation. *)
  for _ = 1 to 100 do
    Obs.observe h 10
  done;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f of constant" (100.0 *. p))
        10.0 (Obs.percentile h p))
    [ 0.5; 0.9; 0.99 ];
  (* A heavy tail moves p99 above p50, and ordering holds. *)
  let t = Obs.histogram reg "tail" in
  for _ = 1 to 99 do
    Obs.observe t 8
  done;
  Obs.observe t 100_000;
  let p50 = Obs.percentile t 0.5
  and p99 = Obs.percentile t 0.99
  and p100 = Obs.percentile t 1.0 in
  check_bool "p50 <= p99" true (p50 <= p99);
  check_bool "p100 hits max" true (p100 = 100_000.0);
  check_bool "p50 near mode" true (p50 >= 4.0 && p50 <= 16.0)

let test_histogram_order_invariant () =
  (* Same multiset of observations, different orders and domain
     layouts: snapshots must be identical (atomic buckets commute). *)
  let snapshot observe_all =
    let reg = Obs.create () in
    let h = Obs.histogram reg "inv" in
    observe_all h;
    J.to_string (Obs.to_json reg)
  in
  let values = List.init 1000 (fun i -> (i * 37 mod 257) + 1) in
  let forward = snapshot (fun h -> List.iter (Obs.observe h) values) in
  let backward =
    snapshot (fun h -> List.iter (Obs.observe h) (List.rev values))
  in
  let sharded =
    snapshot (fun h ->
        let workers =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  List.iteri
                    (fun i v -> if i mod 4 = d then Obs.observe h v)
                    values))
        in
        List.iter Domain.join workers)
  in
  check_str "reversed order" forward backward;
  check_str "four domains" forward sharded

let test_histogram_snapshot_shape () =
  let reg = Obs.create () in
  let h = Obs.histogram reg "shape" in
  List.iter (Obs.observe h) [ 1; 1; 2; 900 ];
  match J.member "histograms" (Obs.to_json reg) with
  | Some (J.Obj [ ("shape", J.Obj fields) ]) ->
      check_bool "count" true (List.assoc "count" fields = J.Int 4);
      check_bool "sum" true (List.assoc "sum" fields = J.Int 904);
      check_bool "min" true (List.assoc "min" fields = J.Int 1);
      check_bool "max" true (List.assoc "max" fields = J.Int 900);
      (match List.assoc "buckets" fields with
      | J.List buckets ->
          let total =
            List.fold_left
              (fun acc b ->
                match b with
                | J.List [ J.Int _lo; J.Int c ] -> acc + c
                | _ -> Alcotest.fail "malformed bucket")
              0 buckets
          in
          check "bucket sum = count" 4 total
      | _ -> Alcotest.fail "no buckets");
      check_bool "has p50" true (List.mem_assoc "p50" fields)
  | _ -> Alcotest.fail "histograms not in snapshot"

let test_timer_percentiles_in_snapshot () =
  let reg = Obs.create () in
  for _ = 1 to 5 do
    Obs.with_span reg "work" (fun () -> ignore (Sys.opaque_identity 1))
  done;
  match J.member "timers" (Obs.to_json reg) with
  | Some (J.Obj [ ("work", J.Obj fields) ]) ->
      List.iter
        (fun k ->
          check_bool k true (List.mem_assoc k fields))
        [ "count"; "total_ns"; "p50_ns"; "p90_ns"; "p99_ns" ]
  | _ -> Alcotest.fail "no timers object"

(* ------------------------------------------------------------------ *)
(* Root-path spans *)

let test_with_span_root_ignores_ambient () =
  let reg = Obs.create () in
  Obs.span_open reg "ambient";
  Obs.with_span_root reg "root/fixed" (fun () -> ());
  Obs.span_close reg;
  check "recorded under exact path" 1 (span_count reg "root/fixed");
  check "not nested under ambient" 0 (span_count reg "ambient/root/fixed");
  (* Nested spans opened inside a root span chain off the root path. *)
  Obs.with_span_root reg "root/fixed" (fun () ->
      Obs.with_span reg "child" (fun () -> ()));
  check "child under root path" 1 (span_count reg "root/fixed/child")

(* ------------------------------------------------------------------ *)
(* Trace sink *)

module Trace = Wm_obs.Trace

let test_trace_disabled_noop () =
  Trace.clear ();
  Alcotest.(check bool) "off by default" false (Trace.enabled ());
  Trace.begin_ "x";
  Trace.end_ "x";
  Trace.instant "y";
  check "nothing recorded" 0 (List.length (Trace.events ()))

let test_trace_records_and_pairs () =
  Trace.clear ();
  Trace.set_enabled true;
  Trace.begin_ "outer";
  Trace.instant ~args:[ ("k", "v") ] "tick";
  Trace.end_ "outer";
  Trace.set_enabled false;
  let evs = Trace.events () in
  check "three events" 3 (List.length evs);
  (match evs with
  | [ b; i; e ] ->
      check_bool "B first" true (b.Trace.ph = 'B' && b.Trace.name = "outer");
      check_bool "instant args" true
        (i.Trace.ph = 'i' && i.Trace.args = [ ("k", "v") ]);
      check_bool "E last" true (e.Trace.ph = 'E');
      check_bool "timestamps sorted" true
        (b.Trace.ts_ns <= i.Trace.ts_ns && i.Trace.ts_ns <= e.Trace.ts_ns)
  | _ -> Alcotest.fail "wrong shape");
  (* Export is a JSON array of objects with the Chrome fields. *)
  (match Trace.export () with
  | J.List (J.Obj first :: _ as items) ->
      check "exported all" 3 (List.length items);
      List.iter
        (fun k -> check_bool k true (List.mem_assoc k first))
        [ "name"; "ph"; "ts"; "pid"; "tid" ]
  | _ -> Alcotest.fail "export not a list of objects");
  Trace.clear ();
  check "clear empties" 0 (List.length (Trace.events ()))

let test_trace_spans_emit_events () =
  Trace.clear ();
  Trace.set_enabled true;
  let reg = Obs.create () in
  Obs.with_span reg "traced" (fun () -> ());
  Trace.set_enabled false;
  let evs = Trace.events () in
  check "B + E from one span" 2 (List.length evs);
  (match evs with
  | [ b; e ] ->
      check_bool "names match span" true
        (b.Trace.name = "traced" && e.Trace.name = "traced");
      check_bool "phases" true (b.Trace.ph = 'B' && e.Trace.ph = 'E')
  | _ -> Alcotest.fail "wrong shape");
  Trace.clear ()

let test_trace_bounded_drops () =
  Trace.clear ();
  Trace.set_capacity 8;
  Trace.set_enabled true;
  for _ = 1 to 20 do
    Trace.instant "spam"
  done;
  Trace.set_enabled false;
  check "capped at capacity" 8 (List.length (Trace.events ()));
  check "drops counted" 12 (Trace.dropped ());
  Trace.clear ();
  Trace.set_capacity 65_536

(* ------------------------------------------------------------------ *)
(* Ledger *)

module Ledger = Wm_obs.Ledger

let test_ledger_rows_and_sections () =
  let l = Ledger.create () in
  Ledger.retain l;
  Ledger.record l ~section:"b" [ ("x", 1) ];
  Ledger.record ~label:"p0" l ~section:"a" [ ("words", 10); ("edges", 3) ];
  Ledger.record ~label:"p1" l ~section:"a" [ ("words", 7) ];
  Alcotest.(check (list string))
    "first-seen section order" [ "b"; "a" ] (Ledger.sections l);
  (match Ledger.rows l "a" with
  | [ r0; r1 ] ->
      check_bool "labels in order" true
        (r0.Ledger.label = Some "p0" && r1.Ledger.label = Some "p1");
      check_bool "fields kept" true
        (r0.Ledger.fields = [ ("words", 10); ("edges", 3) ])
  | _ -> Alcotest.fail "wrong row count");
  check "unknown section empty" 0 (List.length (Ledger.rows l "zzz"));
  (match Ledger.to_json l with
  | J.Obj [ ("b", J.List _); ("a", J.List (J.Obj fields :: _)) ] ->
      check_bool "label serialised" true
        (List.assoc "label" fields = J.Str "p0")
  | _ -> Alcotest.fail "to_json shape");
  Ledger.reset l;
  check "reset drops sections" 0 (List.length (Ledger.sections l))

(* A ledger nobody retained drops every row: a process that writes no
   report holds none. *)
let test_ledger_drops_until_retained () =
  let l = Ledger.create () in
  Ledger.record l ~section:"a" [ ("x", 1) ];
  check_bool "not retained" false (Ledger.retained l);
  check "no sections" 0 (List.length (Ledger.sections l));
  Ledger.retain l;
  Ledger.record l ~section:"a" [ ("x", 2) ];
  check "only the row after retain" 1 (List.length (Ledger.rows l "a"))

let test_ledger_concurrent () =
  let l = Ledger.create () in
  Ledger.retain l;
  let per_domain = 1000 in
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Ledger.record l ~section:"par" [ ("d", d); ("i", i) ]
            done))
  in
  List.iter Domain.join workers;
  check "no lost rows" (4 * per_domain) (List.length (Ledger.rows l "par"))

(* Property: under concurrent writers fanned out through the domain
   pool, the ledger loses nothing and keeps its deterministic structure
   — section order stays the (sequentially established) first-seen
   order whatever the interleaving, and per-section field sums equal
   the totals each domain's plan was going to contribute. *)
let test_ledger_pool_writers =
  QCheck2.Test.make ~name:"pool writers: section order and field sums"
    ~count:20
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let l = Ledger.create () in
      Ledger.retain l;
      let sections = [ "s0"; "s1"; "s2"; "s3" ] in
      List.iter
        (fun s -> Ledger.record l ~section:s [ ("v", 0); ("rows", 0) ])
        sections;
      let plan d =
        let rng = Wm_graph.Prng.create (seed + d) in
        List.init 200 (fun _ ->
            (List.nth sections (Wm_graph.Prng.int rng 4),
             1 + Wm_graph.Prng.int rng 50))
      in
      let plans = List.init 4 plan in
      let expected_sum s =
        List.fold_left
          (fun acc pl ->
            List.fold_left
              (fun acc (s', v) -> if s' = s then acc + v else acc)
              acc pl)
          0 plans
      in
      let expected_rows s =
        List.fold_left
          (fun acc pl ->
            acc + List.length (List.filter (fun (s', _) -> s' = s) pl))
          0 plans
      in
      let pool = Wm_par.Pool.create ~domains:4 in
      Fun.protect
        ~finally:(fun () -> Wm_par.Pool.destroy pool)
        (fun () ->
          ignore
            (Wm_par.Pool.map pool
               (fun pl ->
                 List.iter
                   (fun (s, v) ->
                     Ledger.record l ~section:s [ ("v", v); ("rows", 1) ])
                   pl)
               plans));
      let field k (r : Ledger.row) =
        match List.assoc_opt k r.Ledger.fields with Some v -> v | None -> 0
      in
      Ledger.sections l = sections
      && List.for_all
           (fun s ->
             let rows = Ledger.rows l s in
             List.fold_left (fun acc r -> acc + field "v" r) 0 rows
             = expected_sum s
             && List.fold_left (fun acc r -> acc + field "rows" r) 0 rows
                = expected_rows s
             && List.length rows = 1 + expected_rows s)
           sections)

(* ------------------------------------------------------------------ *)
(* JSON parser *)

let test_json_parse_accepts () =
  let cases =
    [
      ("null", J.Null);
      ("true", J.Bool true);
      ("-42", J.Int (-42));
      ("3.5", J.Float 3.5);
      ("\"a\\nb\\\"c\"", J.Str "a\nb\"c");
      ("[1, 2]", J.List [ J.Int 1; J.Int 2 ]);
      ("{\"k\": [true]}", J.Obj [ ("k", J.List [ J.Bool true ]) ]);
      ("{}", J.Obj []);
    ]
  in
  List.iter
    (fun (text, want) ->
      match J.of_string text with
      | Ok got -> check_bool text true (got = want)
      | Error e -> Alcotest.fail (text ^ ": " ^ e))
    cases

let test_json_parse_rejects () =
  List.iter
    (fun text ->
      match J.of_string text with
      | Ok _ -> Alcotest.fail ("accepted invalid: " ^ text)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"k\":}"; "nul"; "\"unterminated"; "1 2"; "{'k':1}" ]

let test_json_print_parse_identity () =
  let j =
    J.Obj
      [
        ("s", J.Str "text with \"quotes\" and \\ and \n");
        ("xs", J.List [ J.Null; J.Bool false; J.Int 0; J.Float 1.25 ]);
      ]
  in
  (match J.of_string (J.to_string j) with
  | Ok got -> check_bool "compact round-trips" true (got = j)
  | Error e -> Alcotest.fail e);
  match J.of_string (J.to_string_pretty j) with
  | Ok got -> check_bool "pretty round-trips" true (got = j)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wm_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "interned" `Quick test_counter_interned;
          Alcotest.test_case "negative raises" `Quick
            test_counter_negative_raises;
          Alcotest.test_case "set_max" `Quick test_set_max;
          Alcotest.test_case "set_max concurrent CAS" `Quick
            test_set_max_concurrent;
          Alcotest.test_case "counters concurrent" `Quick
            test_counters_concurrent;
        ] );
      ( "timers",
        [
          Alcotest.test_case "nesting paths" `Quick test_span_nesting;
          Alcotest.test_case "close without open" `Quick
            test_span_close_without_open;
          Alcotest.test_case "with_span exception-safe" `Quick
            test_with_span_exception_safe;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "gauge sampled at snapshot" `Quick
            test_gauge_sampled_at_snapshot;
          Alcotest.test_case "to_json round-trip" `Quick
            test_to_json_round_trip;
          Alcotest.test_case "reset preserves handles" `Quick
            test_reset_preserves_handles;
        ] );
      ( "hygiene",
        [ Alcotest.test_case "names reject '/'" `Quick test_name_hygiene ] );
      ( "histograms",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "order/domain invariant" `Quick
            test_histogram_order_invariant;
          Alcotest.test_case "snapshot shape" `Quick
            test_histogram_snapshot_shape;
          Alcotest.test_case "timer percentiles in snapshot" `Quick
            test_timer_percentiles_in_snapshot;
        ] );
      ( "root spans",
        [
          Alcotest.test_case "with_span_root ignores ambient stack" `Quick
            test_with_span_root_ignores_ambient;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_trace_disabled_noop;
          Alcotest.test_case "records and pairs B/E" `Quick
            test_trace_records_and_pairs;
          Alcotest.test_case "spans emit events" `Quick
            test_trace_spans_emit_events;
          Alcotest.test_case "bounded buffer drops" `Quick
            test_trace_bounded_drops;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "rows and sections" `Quick
            test_ledger_rows_and_sections;
          Alcotest.test_case "drops until retained" `Quick
            test_ledger_drops_until_retained;
          Alcotest.test_case "concurrent records" `Quick
            test_ledger_concurrent;
          QCheck_alcotest.to_alcotest test_ledger_pool_writers;
        ] );
      ( "json",
        [
          Alcotest.test_case "parser accepts" `Quick test_json_parse_accepts;
          Alcotest.test_case "parser rejects" `Quick test_json_parse_rejects;
          Alcotest.test_case "print/parse identity" `Quick
            test_json_print_parse_identity;
        ] );
    ]
