(* Tests for the wm_serve serving layer:

   - WM_REQ_v1 parsing: defaults, validation, one-line errors;
   - the LRU result cache: O(1) semantics, recency, eviction accounting;
   - server behaviour: sessions keyed by content digest, batch
     deduplication, cache hits that bill zero new solver resources,
     bounded-queue admission control, eviction, cooperative
     deadline cancellation, jobs-invariant response bodies;
   - every refusal path, a stopped server's included, answering with
     one error response, one serve.errors bump and one ledger row. *)

module J = Wm_obs.Json
module Obs = Wm_obs.Obs
module G = Wm_graph.Weighted_graph
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module Protocol = Wm_serve.Protocol
module Cache = Wm_serve.Cache
module Server = Wm_serve.Server

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let small_graph seed =
  let rng = P.create seed in
  Gen.gnp rng ~n:40 ~p:0.15 ~weights:(Gen.Uniform (1, 50))

let graph_text seed = Wm_graph.Graph_io.to_string (small_graph seed)

let config ?(queue_depth = 16) ?(cache_entries = 64) ?(warm_start = true) () =
  {
    (Server.default_config ()) with
    queue_depth;
    cache_entries;
    warm_start;
    faults = Wm_fault.Spec.none;
  }

let server ?queue_depth ?cache_entries ?warm_start () =
  Server.create (config ?queue_depth ?cache_entries ?warm_start ())

let req line =
  match Protocol.parse_request line with
  | Ok r -> r
  | Error (_, e) -> Alcotest.fail ("unexpected parse error: " ^ e)

let load_graph srv seed =
  match
    Server.handle_request srv
      {
        Protocol.id = 0;
        verb = Protocol.Load { graph = Some (graph_text seed); path = None };
      }
  with
  | [ resp ] -> (
      match J.member "digest" resp with
      | Some (J.Str d) -> d
      | _ -> Alcotest.fail "load response lacks digest")
  | _ -> Alcotest.fail "load did not answer exactly once"

let solve_req ?(id = 1) ?digest ?(algo = "streaming") ?(seed = 5) () =
  req
    (Printf.sprintf
       "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":\"solve\",\"algo\":%S,\"seed\":%d%s}"
       id algo seed
       (match digest with
       | Some d -> Printf.sprintf ",\"digest\":%S" d
       | None -> ""))

let status resp =
  match J.member "status" resp with
  | Some (J.Str s) -> s
  | _ -> Alcotest.fail "response lacks status"

let cached resp = J.member "cached" resp = Some (J.Bool true)

let str_field resp k =
  match J.member k resp with
  | Some (J.Str s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "response lacks string %S" k)

let result_field resp k =
  match J.member "result" resp with
  | Some r -> (
      match J.member k r with
      | Some v -> v
      | None -> Alcotest.fail (Printf.sprintf "result lacks %S" k))
  | None -> Alcotest.fail "response lacks result"

(* One response required; mutation and load answer immediately, solves
   answer at the flush this helper forces. *)
let one srv r =
  let immediate = Server.handle_request srv r in
  match immediate @ Server.flush srv with
  | [ r ] -> r
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected one response, got %d" (List.length rs))

let add_edges_req ?(id = 1) edges =
  Printf.sprintf
    "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":\"add_edges\",\"edges\":[%s]}"
    id
    (String.concat ","
       (List.map (fun (u, v, w) -> Printf.sprintf "[%d,%d,%d]" u v w) edges))

let remove_edges_req ?(id = 1) edges =
  Printf.sprintf
    "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":\"remove_edges\",\"edges\":[%s]}"
    id
    (String.concat ","
       (List.map (fun (u, v) -> Printf.sprintf "[%d,%d]" u v) edges))

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_parse_defaults () =
  match
    (req "{\"schema\":\"WM_REQ_v1\",\"id\":7,\"verb\":\"solve\"}").Protocol.verb
  with
  | Protocol.Solve { digest; params; _ } ->
      check_bool "digest defaults to latest" true (digest = None);
      check_bool "algo defaults to streaming" true
        (params.Protocol.algo = Protocol.Streaming);
      check "seed default" 42 params.Protocol.seed;
      check_bool "epsilon default" true (params.Protocol.epsilon = 0.1);
      check_bool "no deadline" true (params.Protocol.deadline_ms = None)
  | _ -> Alcotest.fail "not a solve"

let test_parse_latest_normalised () =
  match
    (req
       "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"solve\",\"digest\":\"latest\"}")
      .Protocol.verb
  with
  | Protocol.Solve { digest = None; _ } -> ()
  | _ -> Alcotest.fail "\"latest\" should normalise to None"

let test_parse_rejects () =
  let bad line =
    match Protocol.parse_request line with
    | Error (_, msg) ->
        check_bool "one-line error" true (not (String.contains msg '\n'))
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
  in
  bad "not json at all";
  bad "[1,2,3]";
  bad "{\"schema\":\"WM_REQ_v2\",\"id\":1,\"verb\":\"stats\"}";
  bad "{\"schema\":\"WM_REQ_v1\",\"verb\":\"stats\"}";
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"frobnicate\"}";
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"load\"}";
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"solve\",\"epsilon\":1.5}";
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"solve\",\"deadline_ms\":0}";
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"solve\",\"algo\":\"hungarian\"}"

let test_cache_key_canonical () =
  let p seed = { Protocol.algo = Protocol.Mpc; epsilon = 0.1; seed; deadline_ms = None } in
  check_str "stable key" (Protocol.cache_key ~digest:"abc" (p 3))
    (Protocol.cache_key ~digest:"abc" (p 3));
  check_bool "seed distinguishes" true
    (Protocol.cache_key ~digest:"abc" (p 3)
    <> Protocol.cache_key ~digest:"abc" (p 4));
  (* the deadline is a delivery constraint, not part of the result
     identity: keys must agree so deadline-free repeats can hit *)
  check_str "deadline not in key"
    (Protocol.cache_key ~digest:"abc" (p 3))
    (Protocol.cache_key ~digest:"abc"
       { (p 3) with Protocol.deadline_ms = Some 50 })

let test_parse_mutations () =
  (match
     (req
        "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"add_edges\",\"edges\":[[0,1,9],[2,3,4]]}")
       .Protocol.verb
   with
  | Protocol.Add_edges { digest = None; edges = [ (0, 1, 9); (2, 3, 4) ] } ->
      ()
  | _ -> Alcotest.fail "add_edges misparsed");
  (match
     (req
        "{\"schema\":\"WM_REQ_v1\",\"id\":2,\"verb\":\"remove_edges\",\"digest\":\"abc\",\"edges\":[[5,1]]}")
       .Protocol.verb
   with
  | Protocol.Remove_edges { digest = Some "abc"; edges = [ (5, 1) ] } -> ()
  | _ -> Alcotest.fail "remove_edges misparsed");
  (match
     (req
        "{\"schema\":\"WM_REQ_v1\",\"id\":3,\"verb\":\"add_vertices\",\"count\":2,\"digest\":\"latest\"}")
       .Protocol.verb
   with
  | Protocol.Add_vertices { digest = None; count = 2 } -> ()
  | _ -> Alcotest.fail "add_vertices misparsed");
  (* the canonical encoding sorts and normalises endpoint order, so the
     same delta always yields the same ledger label *)
  check_str "canonical delta"
    (Protocol.canonical_delta ~add_vertices:1 ~add:[ (3, 2, 7); (0, 1, 9) ]
       ~remove:[ (5, 4) ])
    (Protocol.canonical_delta ~add_vertices:1 ~add:[ (1, 0, 9); (2, 3, 7) ]
       ~remove:[ (4, 5) ])

let test_parse_mutation_rejects () =
  let bad line =
    match Protocol.parse_request line with
    | Error (_, msg) ->
        check_bool "one-line error" true (not (String.contains msg '\n'))
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
  in
  (* empty edge lists *)
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"add_edges\",\"edges\":[]}";
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"remove_edges\",\"edges\":[]}";
  (* wrong arity: pairs where triples belong and vice versa *)
  bad
    "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"add_edges\",\"edges\":[[0,1]]}";
  bad
    "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"remove_edges\",\"edges\":[[0,1,5]]}";
  (* non-integer tuple members and missing payloads *)
  bad
    "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"add_edges\",\"edges\":[[0,\"x\",5]]}";
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"add_edges\"}";
  (* add_vertices needs a positive count *)
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"add_vertices\"}";
  bad "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"add_vertices\",\"count\":0}";
  bad
    "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"add_vertices\",\"count\":-3}"

(* ------------------------------------------------------------------ *)
(* LRU cache *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:3 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  check_bool "find bumps recency" true (Cache.find c "a" = Some 1);
  Cache.add c "d" 4;
  (* "b" was least recently used *)
  check_bool "lru evicted" true (not (Cache.mem c "b"));
  check_bool "bumped survives" true (Cache.mem c "a");
  check "evictions counted" 1 (Cache.evictions c);
  check_bool "mru order" true (Cache.keys c = [ "d"; "a"; "c" ])

let test_cache_replace_and_remove () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "a" 10;
  check "replace keeps one entry" 1 (Cache.length c);
  check_bool "replaced value" true (Cache.find c "a" = Some 10);
  Cache.add c "b" 2;
  check "remove_where prefix" 1
    (Cache.remove_where c (fun k -> String.length k = 1 && k.[0] = 'a'));
  check_bool "removed" true (not (Cache.mem c "a"));
  check "removals are not evictions" 0 (Cache.evictions c);
  Cache.clear c;
  check "cleared" 0 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  check "nothing stored" 0 (Cache.length c);
  check_bool "always misses" true (Cache.find c "a" = None)

(* Regression: clear used to drop the entries but keep the eviction
   tally, so a cleared cache reported phantom evictions forever. *)
let test_cache_clear_resets_evictions () =
  let c = Cache.create ~capacity:1 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check "one eviction before clear" 1 (Cache.evictions c);
  Cache.clear c;
  check "cleared entries" 0 (Cache.length c);
  check "clear resets evictions" 0 (Cache.evictions c);
  Cache.add c "c" 3;
  Cache.add c "d" 4;
  check "counting restarts from zero" 1 (Cache.evictions c)

(* ------------------------------------------------------------------ *)
(* Server *)

let test_load_and_digest () =
  let srv = server () in
  let d = load_graph srv 7 in
  check_str "session digest is the content digest"
    (Wm_graph.Graph_io.digest (small_graph 7))
    d;
  (match Server.sessions srv with
  | [ (d', n, m) ] ->
      check_str "stored" d d';
      check "n" (G.n (small_graph 7)) n;
      check "m" (G.m (small_graph 7)) m
  | _ -> Alcotest.fail "expected one session");
  (* reloading the same graph is keyed to the same session *)
  let d2 = load_graph srv 7 in
  check_str "idempotent load" d d2;
  check "still one session" 1 (List.length (Server.sessions srv))

let test_solve_and_cache_bills_zero () =
  let srv = server () in
  let _ = load_graph srv 3 in
  let first =
    let immediate = Server.handle_request srv (solve_req ~id:1 ()) in
    immediate @ Server.flush srv
  in
  (match first with
  | [ r ] ->
      check_str "ok" "ok" (status r);
      check_bool "first is a miss" true (not (cached r))
  | _ -> Alcotest.fail "expected one response");
  (* A repeat solve must be answered from the result cache: identical
     body, cached=true, and zero new solver work billed anywhere. *)
  let passes0 = Obs.counter_value Obs.default "stream.passes" in
  let rounds0 = Obs.counter_value Obs.default "core.main_alg.rounds" in
  let repeat =
    let immediate = Server.handle_request srv (solve_req ~id:2 ()) in
    immediate @ Server.flush srv
  in
  (match (first, repeat) with
  | [ r1 ], [ r2 ] ->
      check_bool "repeat is a hit" true (cached r2);
      check_bool "identical result body" true
        (J.member "result" r1 = J.member "result" r2)
  | _ -> Alcotest.fail "expected one response each");
  check "no new stream passes" passes0
    (Obs.counter_value Obs.default "stream.passes");
  check "no new improvement rounds" rounds0
    (Obs.counter_value Obs.default "core.main_alg.rounds")

let test_batch_dedup () =
  let srv = server () in
  let _ = load_graph srv 3 in
  ignore (Server.handle_request srv (solve_req ~id:1 ()));
  ignore (Server.handle_request srv (solve_req ~id:2 ()));
  ignore (Server.handle_request srv (solve_req ~id:3 ~seed:6 ()));
  let passes0 = Obs.counter_value Obs.default "stream.passes" in
  match Server.flush srv with
  | [ r1; r2; r3 ] ->
      check_bool "leader computed" true (not (cached r1));
      check_bool "duplicate joined the leader" true (cached r2);
      check_bool "distinct params computed" true (not (cached r3));
      check_bool "bodies agree" true
        (J.member "result" r1 = J.member "result" r2);
      check_bool "some solver work happened" true
        (Obs.counter_value Obs.default "stream.passes" > passes0)
  | rs -> Alcotest.fail (Printf.sprintf "expected 3 responses, got %d" (List.length rs))

let test_admission_control () =
  let srv = server ~queue_depth:2 () in
  let _ = load_graph srv 3 in
  check "first admitted" 0
    (List.length (Server.handle_request srv (solve_req ~id:1 ())));
  check "second admitted" 0
    (List.length (Server.handle_request srv (solve_req ~id:2 ~seed:6 ())));
  (match Server.handle_request srv (solve_req ~id:3 ~seed:7 ()) with
  | [ r ] -> check_str "third rejected" "overloaded" (status r)
  | _ -> Alcotest.fail "expected an immediate rejection");
  (* the rejection is per-batch: after the boundary there is room again *)
  check "batch answered" 2 (List.length (Server.flush srv));
  check "admitted after flush" 0
    (List.length (Server.handle_request srv (solve_req ~id:4 ~seed:7 ())));
  check "tail batch answered" 1 (List.length (Server.flush srv))

let test_solve_errors () =
  let srv = server () in
  (match Server.handle_request srv (solve_req ~id:1 ()) with
  | [ r ] -> check_str "no session" "error" (status r)
  | _ -> Alcotest.fail "expected an error response");
  let _ = load_graph srv 3 in
  match Server.handle_request srv (solve_req ~id:2 ~digest:"beef" ()) with
  | [ r ] -> check_str "unknown digest" "error" (status r)
  | _ -> Alcotest.fail "expected an error response"

let test_evict_purges_cache () =
  let srv = server () in
  let d = load_graph srv 3 in
  ignore (Server.handle_request srv (solve_req ~id:1 ()));
  ignore (Server.flush srv);
  let resps =
    Server.handle_request srv
      (req
         (Printf.sprintf
            "{\"schema\":\"WM_REQ_v1\",\"id\":2,\"verb\":\"evict\",\"digest\":%S}"
            d))
  in
  (match resps with
  | [ r ] ->
      check_str "evict ok" "ok" (status r);
      check_bool "one cached result purged" true
        (J.member "evicted_results" r = Some (J.Int 1))
  | _ -> Alcotest.fail "expected one response");
  check "session gone" 0 (List.length (Server.sessions srv));
  (* a fresh load + solve after the purge recomputes (miss, not hit) *)
  let _ = load_graph srv 3 in
  let immediate = Server.handle_request srv (solve_req ~id:3 ()) in
  match immediate @ Server.flush srv with
  | [ r ] -> check_bool "recomputed" true (not (cached r))
  | _ -> Alcotest.fail "expected one response"

(* ------------------------------------------------------------------ *)
(* Incremental sessions *)

(* first endpoint pair absent from [g] (for additions that must not
   collide with an existing edge) *)
let non_edge g =
  let rec find u v =
    if u >= G.n g then Alcotest.fail "graph is complete"
    else if v >= G.n g then find (u + 1) (u + 2)
    else if G.mem_edge g u v then find u (v + 1)
    else (u, v)
  in
  find 0 1

let test_mutate_rekeys_session () =
  let srv = server () in
  let g = small_graph 3 in
  let d = load_graph srv 3 in
  let au, av = non_edge g in
  let r = one srv (req (add_edges_req ~id:2 [ (au, av, 9) ])) in
  check_str "mutation ok" "ok" (status r);
  check_str "previous digest" d (str_field r "previous_digest");
  let patched = G.patch g ~add:[ Wm_graph.Edge.make au av 9 ] () in
  let d1 = Wm_graph.Graph_io.digest patched in
  check_str "rekeyed to the patched content" d1 (str_field r "digest");
  check_bool "generation bumped" true
    (J.member "generation" r = Some (J.Int 1));
  (match Server.sessions srv with
  | [ (d', n, m) ] ->
      check_str "session table rekeyed" d1 d';
      check "n unchanged" (G.n g) n;
      check "one more edge" (G.m g + 1) m
  | _ -> Alcotest.fail "expected one session");
  (* a removal chains on top of the mutated session (digest "latest") *)
  let ru, rv = Wm_graph.Edge.endpoints (G.edges g).(0) in
  let r2 = one srv (req (remove_edges_req ~id:3 [ (ru, rv) ])) in
  let patched2 = G.patch patched ~remove:[ (ru, rv) ] () in
  check_str "chained removal rekeys" (Wm_graph.Graph_io.digest patched2)
    (str_field r2 "digest");
  check_bool "generation counts mutations" true
    (J.member "generation" r2 = Some (J.Int 2))

let test_mutate_error_leaves_session () =
  let srv = server () in
  let g = small_graph 3 in
  let d = load_graph srv 3 in
  let au, av = non_edge g in
  (* removing an absent edge must fail without touching the session *)
  (match Server.handle_request srv (remove_edges_req ~id:2 [ (au, av) ] |> req) with
  | [ r ] -> check_str "rejected" "error" (status r)
  | _ -> Alcotest.fail "expected one error response");
  (match Server.sessions srv with
  | [ (d', _, m) ] ->
      check_str "digest untouched" d d';
      check "edge count untouched" (G.m g) m
  | _ -> Alcotest.fail "expected one session");
  (* and the cached result for the untouched content still hits *)
  let r1 = one srv (solve_req ~id:3 ()) in
  check_bool "first solve computes" true (not (cached r1));
  (match Server.handle_request srv (add_edges_req ~id:4 [ (au, av, -5) ] |> req) with
  | [ r ] -> check_str "negative weight rejected" "error" (status r)
  | _ -> Alcotest.fail "expected one error response");
  let r2 = one srv (solve_req ~id:5 ()) in
  check_bool "cache survives the failed mutation" true (cached r2)

let load_text_req ?(id = 1) text =
  req
    (J.to_string
       (J.Obj
          [
            ("schema", J.Str "WM_REQ_v1");
            ("id", J.Int id);
            ("verb", J.Str "load");
            ("graph", J.Str text);
          ]))

(* The vertex-count guard on the serve path: an add_vertices that would
   take n past the largest array, or wrap it negative, is an error
   response, the session is left as it was, and a later solve (one array
   slot per vertex) still answers. *)
let test_vertex_bound_rejected () =
  let srv = server () in
  let d = str_field (one srv (load_text_req "p wm 3 0\n")) "digest" in
  List.iteri
    (fun i count ->
      let r =
        one srv
          (req
             (Printf.sprintf
                "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":\"add_vertices\",\"count\":%d}"
                (i + 2) count))
      in
      check_str (Printf.sprintf "count %d refused" count) "error" (status r);
      (match Server.sessions srv with
      | [ (d', n, _) ] ->
          check_str "digest untouched" d d';
          check "n untouched" 3 n
      | _ -> Alcotest.fail "expected one session");
      check_str "server still solves" "ok"
        (status (one srv (solve_req ~id:(i + 10) ~algo:"greedy" ()))))
    [ 123456789012345678; max_int ]

(* The weight-range guard on the serve path: a load or a mutation that
   would take a session's total weight past 2^53 is an error response,
   and the session is left exactly as it was. *)
let test_weight_bound_rejected () =
  let srv = server () in
  let big = max_int in
  let r =
    one srv
      (load_text_req (Printf.sprintf "p wm 4 2\ne 0 1 %d\ne 2 3 %d\n" big big))
  in
  check_str "over-weight load rejected" "error" (status r);
  check "no session" 0 (List.length (Server.sessions srv));
  let d = str_field (one srv (load_text_req ~id:2 "p wm 4 1\ne 0 1 3\n")) "digest" in
  let r = one srv (req (add_edges_req ~id:3 [ (2, 3, 1 lsl 53) ])) in
  check_str "over-weight add_edges rejected" "error" (status r);
  match Server.sessions srv with
  | [ (d', _, m) ] ->
      check_str "digest untouched" d d';
      check "edge count untouched" 1 m
  | _ -> Alcotest.fail "expected one session"

(* [x_warm] is router-internal: it only ever carries a matching taken
   from the same session, so a frame on more vertices than the session
   is refused before the matching is allocated. *)
let test_x_warm_bounded () =
  let srv = server () in
  let d = str_field (one srv (load_text_req "p wm 4 2\ne 0 1 3\ne 2 3 5\n")) "digest" in
  let solve id n =
    one srv
      (req
         (Printf.sprintf
            "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":\"solve\",\"algo\":\"streaming\",\"seed\":%d,\"digest\":%S,\"x_warm\":%S}"
            id id d
            (Protocol.hex_encode
               (Wm_graph.Graph_io.matching_to_binary (Wm_graph.Matching.create n)))))
  in
  check_str "warm start on the session's n" "ok" (status (solve 2 4));
  let r = solve 3 5 in
  check_str "larger n refused" "error" (status r);
  check_str "reason" "malformed x_warm payload" (str_field r "error")

(* Every refusal path: one "error" response, one [serve.errors] bump and
   one [serve.requests] ledger row labelled with the refused verb.  Each
   case runs on a fresh server after its setup lines. *)
let test_refusal_paths () =
  let line id verb fields =
    Printf.sprintf "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":%S%s}" id verb
      fields
  in
  let loaded =
    [
      line 0 "load"
        (",\"graph\":" ^ J.to_string (J.Str "p wm 4 2\ne 0 1 3\ne 2 3 5\n"));
    ]
  in
  let no_session = Some "no session loaded (load a graph first)" in
  let unknown = Some "unknown session digest beef" in
  let cases =
    [
      ("solve, no session", [], line 1 "solve" "", "solve", 1, no_session);
      ( "mutate, no session",
        [],
        line 2 "add_vertices" ",\"count\":1",
        "mutate",
        2,
        no_session );
      ( "solve, unknown digest",
        loaded,
        line 3 "solve" ",\"digest\":\"beef\"",
        "solve",
        3,
        unknown );
      ( "mutate, unknown digest",
        loaded,
        line 4 "add_vertices" ",\"digest\":\"beef\",\"count\":1",
        "mutate",
        4,
        unknown );
      ( "evict, unknown digest",
        loaded,
        line 5 "evict" ",\"digest\":\"beef\"",
        "evict",
        5,
        unknown );
      ( "bad delta",
        loaded,
        line 6 "remove_edges" ",\"edges\":[[0,2]]",
        "mutate",
        6,
        None );
      ("malformed line", [], "{\"schema\":", "malformed", 0, None);
      ( "malformed line with an id",
        [],
        line 2 "solve" ",\"algo\":\"main\"",
        "malformed",
        2,
        Some "unknown algo \"main\" (expected streaming, mpc or greedy)" );
      ( "malformed x_warm",
        loaded,
        line 8 "solve" ",\"x_warm\":\"zz\"",
        "solve",
        8,
        Some "malformed x_warm payload" );
      ( "stopped server",
        [ line 0 "shutdown" "" ],
        line 9 "solve" "",
        "stopped",
        9,
        Some "server stopped" );
    ]
  in
  List.iter
    (fun (name, setup, l, label, id, msg) ->
      let srv = server () in
      List.iter (fun l -> ignore (Server.handle_line srv l)) setup;
      let errors0 = Obs.counter_value Obs.default "serve.errors" in
      let rows0 =
        List.length (Wm_obs.Ledger.rows Wm_obs.Ledger.default "serve.requests")
      in
      let r =
        match Server.handle_line srv l with
        | [ r ] -> r
        | _ -> Alcotest.failf "%s: expected one response" name
      in
      check_str (name ^ ": status") "error" (status r);
      check (name ^ ": id") id
        (match J.member "id" r with Some (J.Int i) -> i | _ -> -1);
      (match msg with
      | Some m -> check_str (name ^ ": message") m (str_field r "error")
      | None ->
          check_bool (name ^ ": message") true (str_field r "error" <> ""));
      check (name ^ ": serve.errors delta") 1
        (Obs.counter_value Obs.default "serve.errors" - errors0);
      match Wm_obs.Ledger.rows Wm_obs.Ledger.default "serve.requests" with
      | rows when List.length rows = rows0 + 1 ->
          let row = List.nth rows rows0 in
          check_bool (name ^ ": ledger label") true
            (row.Wm_obs.Ledger.label = Some label);
          check (name ^ ": ledger id") id
            (List.assoc "id" row.Wm_obs.Ledger.fields);
          check (name ^ ": ledger status") (Protocol.status_code "error")
            (List.assoc "status" row.Wm_obs.Ledger.fields)
      | rows ->
          Alcotest.failf "%s: expected one ledger row, got %d" name
            (List.length rows - rows0))
    cases

(* A cold served answer is a function of its cache key.  [cold_answers
   text mutations] loads [text] into a fresh server with no cache and
   no warm starts, applies the [mutations] lines, and returns each
   algorithm's session digest and cold result, rendered. *)
let cold_answers text mutations =
  let srv = server ~cache_entries:0 ~warm_start:false () in
  ignore
    (Server.handle_request srv
       { Protocol.id = 0; verb = Protocol.Load { graph = Some text; path = None } });
  List.iter (fun l -> check_str "mutation" "ok" (status (one srv (req l)))) mutations;
  List.map
    (fun algo ->
      let r = one srv (solve_req ~algo ~seed:1 ()) in
      ( algo,
        str_field r "digest" ^ " "
        ^ Option.fold ~none:"" ~some:J.to_string (J.member "result" r) ))
    [ "streaming"; "mpc"; "greedy" ]

(* [g]'s file text with its edge lines in the order [perm]. *)
let permuted_text g perm =
  let edges = G.edges g in
  Wm_graph.Graph_io.to_string (G.of_array ~n:(G.n g) (Array.map (Array.get edges) perm))

(* One digest reached by two histories: two file orders, and a load
   followed by removing and re-adding an edge. *)
let test_two_histories_one_answer () =
  List.iter
    (fun seed ->
      let g = small_graph seed in
      let m = G.m g and e = (G.edges g).(0) in
      let u, v = Wm_graph.Edge.endpoints e in
      let base = cold_answers (graph_text seed) [] in
      let same history answers =
        List.iter2
          (fun (algo, want) (_, got) ->
            check_str (Printf.sprintf "seed %d, %s: %s" seed history algo) want got)
          base answers
      in
      same "first edge line last"
        (cold_answers (permuted_text g (Array.init m (fun i -> (i + 1) mod m))) []);
      same "remove and re-add"
        (cold_answers (graph_text seed)
           [ remove_edges_req [ (u, v) ]; add_edges_req [ (u, v, Wm_graph.Edge.weight e) ] ]))
    [ 3; 7; 11 ]

let prop_permuted_lines_same_answers =
  QCheck2.Test.make ~name:"permuted edge lines, same cold answers" ~count:15
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 1_000_000))
    (fun (seed, perm_seed) ->
      let g = small_graph seed in
      cold_answers (graph_text seed) []
      = cold_answers (permuted_text g (P.permutation (P.create perm_seed) (G.m g))) [])

(* The equivalence property behind incremental sessions: mutating a
   loaded session must be indistinguishable from loading the mutated
   content directly — same digest, and (cold-for-cold) the same solve.
   Warm-started solves share the digest but take their own improvement
   trajectory, so the weight leg runs with warm starts disabled. *)
let test_mutate_equiv_direct_load () =
  List.iter
    (fun seed ->
      let g = small_graph seed in
      let au, av = non_edge g in
      let ru, rv = Wm_graph.Edge.endpoints (G.edges g).(1) in
      let patched =
        G.patch g ~add_vertices:1
          ~add:[ Wm_graph.Edge.make au av 17 ]
          ~remove:[ (ru, rv) ] ()
      in
      let srv_mut = server ~warm_start:false () in
      let _ = load_graph srv_mut seed in
      let r_add =
        one srv_mut
          (req
             "{\"schema\":\"WM_REQ_v1\",\"id\":2,\"verb\":\"add_vertices\",\"count\":1}")
      in
      check_str "add_vertices ok" "ok" (status r_add);
      ignore (one srv_mut (req (add_edges_req ~id:3 [ (au, av, 17) ])));
      let r_mut = one srv_mut (req (remove_edges_req ~id:4 [ (ru, rv) ])) in
      check_str "mutated digest matches direct construction"
        (Wm_graph.Graph_io.digest patched)
        (str_field r_mut "digest");
      let srv_direct = server ~warm_start:false () in
      (match
         Server.handle_request srv_direct
           {
             Protocol.id = 1;
             verb =
               Protocol.Load
                 {
                   graph = Some (Wm_graph.Graph_io.to_string patched);
                   path = None;
                 };
           }
       with
      | [ r ] ->
          check_str "direct load keys to the same digest"
            (str_field r_mut "digest") (str_field r "digest")
      | _ -> Alcotest.fail "load did not answer exactly once");
      let s_mut = one srv_mut (solve_req ~id:5 ()) in
      let s_direct = one srv_direct (solve_req ~id:2 ()) in
      check_bool
        (Printf.sprintf "seed %d: identical solve result" seed)
        true
        (J.member "result" s_mut = J.member "result" s_direct))
    [ 3; 7; 11; 19 ]

(* Warm-started re-solves after deletions: the repaired previous
   matching must never leak an edge that no longer exists, so the
   response's validity check (run in the mutated graph) must pass. *)
let test_warm_solve_after_delete () =
  let srv = server () in
  let g = small_graph 5 in
  let _ = load_graph srv 5 in
  let r1 = one srv (solve_req ~id:2 ()) in
  check_bool "cold first solve" true (result_field r1 "warm" = J.Bool false);
  (* delete a handful of edges, some of which are likely matched *)
  let drops =
    [ 0; 1; 2; 3 ]
    |> List.map (fun i -> Wm_graph.Edge.endpoints (G.edges g).(i))
  in
  ignore (one srv (req (remove_edges_req ~id:3 drops)));
  let r2 = one srv (solve_req ~id:4 ()) in
  check_str "warm solve ok" "ok" (status r2);
  check_bool "solve is warm-started" true (result_field r2 "warm" = J.Bool true);
  check_bool "warm matching valid in the mutated graph" true
    (result_field r2 "valid" = J.Bool true);
  (* greedy never warm-starts (single-pass; no improvement loop) *)
  let r3 = one srv (solve_req ~id:5 ~algo:"greedy" ()) in
  check_bool "greedy stays cold" true (result_field r3 "warm" = J.Bool false)

let test_blank_line_and_eof_flush () =
  let srv = server () in
  let _ = load_graph srv 3 in
  check "queued silently" 0
    (List.length
       (Server.handle_line srv
          "{\"schema\":\"WM_REQ_v1\",\"id\":1,\"verb\":\"solve\"}"));
  check "blank line flushes" 1 (List.length (Server.handle_line srv "   "));
  ignore (Server.handle_request srv (solve_req ~id:2 ~seed:9 ()));
  check "eof flushes" 1 (List.length (Server.eof srv));
  match Server.handle_line srv "{not json" with
  | [ r ] ->
      check_str "malformed line answered" "error" (status r);
      check_bool "id 0" true (J.member "id" r = Some (J.Int 0))
  | _ -> Alcotest.fail "expected one error response"

(* An empty session is a graph like any other: every algorithm answers
   ok with the empty matching, and the line after it is still answered. *)
let test_empty_session () =
  let srv = server () in
  ignore
    (one srv
       {
         Protocol.id = 0;
         verb = Protocol.Load { graph = Some "p wm 0 0\n"; path = None };
       });
  List.iteri
    (fun i algo ->
      let r = one srv (solve_req ~id:(i + 1) ~algo ()) in
      check_str (algo ^ " answers ok") "ok" (status r);
      check_bool (algo ^ " returns the empty matching") true
        (result_field r "size" = J.Int 0))
    [ "greedy"; "streaming"; "mpc" ];
  match
    Server.handle_line srv "{\"schema\":\"WM_REQ_v1\",\"id\":9,\"verb\":\"ping\"}"
  with
  | [ r ] -> check_str "next line answered" "ok" (status r)
  | _ -> Alcotest.fail "ping after the empty solves must answer once"

(* Cooperative cancellation in the drivers (the mechanism behind
   per-request deadlines): stop at a round boundary with the last
   committed matching. *)
let test_driver_cancellation () =
  let g = small_graph 11 in
  let params = Wm_core.Params.practical ~epsilon:0.1 () in
  let full =
    Wm_core.Model_driver.streaming params (P.create 5)
      (Wm_stream.Edge_stream.of_graph g)
  in
  check_bool "uncancelled run finishes" true
    (not full.Wm_core.Model_driver.cancelled);
  let r =
    Wm_core.Model_driver.streaming
      ~cancel:(fun ~rounds_run -> rounds_run >= 2)
      params (P.create 5)
      (Wm_stream.Edge_stream.of_graph g)
  in
  check_bool "cancelled flag" true r.Wm_core.Model_driver.cancelled;
  check "stopped at the boundary" 2 r.Wm_core.Model_driver.rounds_run;
  check_bool "partial matching still valid" true
    (Wm_graph.Matching.is_valid_in r.Wm_core.Model_driver.matching g);
  let machines = Stdlib.max 2 (G.m g / Stdlib.max 1 (G.n g)) in
  let cluster =
    Wm_mpc.Cluster.create ~machines ~memory_words:(16 * G.n g * 10) ()
  in
  let rm =
    Wm_core.Model_driver.mpc
      ~cancel:(fun ~rounds_run -> rounds_run >= 1)
      params (P.create 5) cluster g
  in
  check_bool "mpc cancelled" true rm.Wm_core.Model_driver.cancelled;
  check "mpc stopped early" 1 rm.Wm_core.Model_driver.rounds_run

(* The end-to-end determinism contract: the full response transcript of
   a mixed workload is identical at jobs=1 and jobs=4.  (The stats verb
   is exercised elsewhere: it reads process-wide counters, which are
   not reset between the two runs of this test.) *)
let test_jobs_invariant_transcript () =
  let lines =
    [
      "{\"schema\":\"WM_REQ_v1\",\"id\":2,\"verb\":\"solve\",\"seed\":5}";
      "{\"schema\":\"WM_REQ_v1\",\"id\":3,\"verb\":\"solve\",\"algo\":\"greedy\"}";
      "{\"schema\":\"WM_REQ_v1\",\"id\":4,\"verb\":\"solve\",\"algo\":\"mpc\",\"seed\":9}";
      "{\"schema\":\"WM_REQ_v1\",\"id\":5,\"verb\":\"solve\",\"seed\":5}";
      "";
      "{\"schema\":\"WM_REQ_v1\",\"id\":6,\"verb\":\"solve\",\"seed\":6}";
      "{\"schema\":\"WM_REQ_v1\",\"id\":7,\"verb\":\"evict\"}";
    ]
  in
  let transcript jobs =
    Wm_par.Pool.set_default_jobs jobs;
    let srv = server () in
    let d = load_graph srv 13 in
    ignore d;
    List.concat_map (fun l -> List.map J.to_string (Server.handle_line srv l)) lines
  in
  let saved = Wm_par.Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Wm_par.Pool.set_default_jobs saved)
    (fun () ->
      let t1 = transcript 1 in
      let t4 = transcript 4 in
      check "same response count" (List.length t1) (List.length t4);
      List.iter2 (fun a b -> check_str "byte-identical response" a b) t1 t4)

(* The ping health probe: answers immediately with shard id, queue
   pressure, and cache occupancy — and is deliberately not a batch
   boundary, so probing never forces queued solves to run. *)
let test_ping_probe () =
  let srv = server ~queue_depth:3 ~cache_entries:8 () in
  let _ = load_graph srv 3 in
  ignore (Server.handle_request srv (solve_req ~id:1 ()));
  (match
     Server.handle_request srv
       (req "{\"schema\":\"WM_REQ_v1\",\"id\":2,\"verb\":\"ping\"}")
   with
  | [ r ] ->
      check_str "ok" "ok" (status r);
      check_bool "shard id" true (J.member "shard" r = Some (J.Int 0));
      check_bool "queued solve visible" true
        (J.member "queue" r = Some (J.Int 1));
      check_bool "queue capacity" true
        (J.member "queue_depth" r = Some (J.Int 3));
      check_bool "sessions" true (J.member "sessions" r = Some (J.Int 1));
      check_bool "cache occupancy" true
        (J.member "cache_entries" r = Some (J.Int 0));
      check_bool "cache capacity" true
        (J.member "cache_capacity" r = Some (J.Int 8))
  | _ -> Alcotest.fail "ping must answer exactly once, immediately");
  (* the probed solve is still queued: the next boundary answers it *)
  check "queue not flushed by ping" 1 (List.length (Server.flush srv))

let test_report_shape () =
  let srv = server () in
  let _ = load_graph srv 3 in
  ignore (Server.handle_request srv (solve_req ~id:1 ()));
  ignore (Server.flush srv);
  let r = Server.report_json srv in
  (match Wm_fault.Bench_v1.check r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "report fails the BENCH_v1 schema: %s" e);
  check_bool "serve mode" true (J.member "mode" r = Some (J.Str "serve"));
  check_bool "request tally" true
    (match Option.bind (J.member "serve" r) (J.member "requests") with
    | Some (J.Int n) -> n >= 2
    | _ -> false);
  check_bool "ledger has serve.requests" true
    (List.mem "serve.requests"
       (Wm_obs.Ledger.sections Wm_obs.Ledger.default))

let shutdown_req id =
  req
    (Printf.sprintf "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":\"shutdown\"}"
       id)

let test_shutdown_flushes_then_stops () =
  let srv = server () in
  let _ = load_graph srv 3 in
  ignore (Server.handle_request srv (solve_req ~id:1 ()));
  (match Server.handle_request srv (shutdown_req 2) with
  | [ solve; ack ] ->
      check_str "queued solve answered first" "ok" (status solve);
      check_str "shutdown acked" "ok" (status ack)
  | _ -> Alcotest.fail "expected flush + ack");
  check_bool "stopped" true (Server.stopped srv)

(* ------------------------------------------------------------------ *)
(* Load generator *)

let test_loadgen_accounting () =
  let srv = server ~queue_depth:4 () in
  let _ = load_graph srv 3 in
  let s =
    Wm_serve.Loadgen.run ~server:srv ~clients:8 ~windows:3 ~distinct:2 ()
  in
  check "every request accounted" s.Wm_serve.Loadgen.requests
    (s.Wm_serve.Loadgen.ok + s.Wm_serve.Loadgen.overloaded
    + s.Wm_serve.Loadgen.deadline + s.Wm_serve.Loadgen.errors);
  check "offered load" (8 * 3) s.Wm_serve.Loadgen.requests;
  check_bool "queue bound enforced" true (s.Wm_serve.Loadgen.overloaded > 0);
  check_bool "repeats hit the cache" true (s.Wm_serve.Loadgen.cached > 0);
  check_bool "hit ratio sane" true
    (Wm_serve.Loadgen.hit_ratio s >= 0. && Wm_serve.Loadgen.hit_ratio s <= 1.);
  check_bool "latencies measured" true (s.Wm_serve.Loadgen.p99_ns >= s.Wm_serve.Loadgen.p50_ns)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wm_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "defaults" `Quick test_parse_defaults;
          Alcotest.test_case "latest normalised" `Quick
            test_parse_latest_normalised;
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "cache key canonical" `Quick
            test_cache_key_canonical;
          Alcotest.test_case "mutation verbs" `Quick test_parse_mutations;
          Alcotest.test_case "mutation rejects" `Quick
            test_parse_mutation_rejects;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "replace and remove" `Quick
            test_cache_replace_and_remove;
          Alcotest.test_case "capacity 0 disables" `Quick test_cache_disabled;
          Alcotest.test_case "clear resets evictions" `Quick
            test_cache_clear_resets_evictions;
        ] );
      ( "server",
        [
          Alcotest.test_case "load and digest" `Quick test_load_and_digest;
          Alcotest.test_case "cache hit bills zero" `Quick
            test_solve_and_cache_bills_zero;
          Alcotest.test_case "batch dedup" `Quick test_batch_dedup;
          Alcotest.test_case "admission control" `Quick test_admission_control;
          Alcotest.test_case "solve errors" `Quick test_solve_errors;
          Alcotest.test_case "evict purges cache" `Quick
            test_evict_purges_cache;
          Alcotest.test_case "mutate rekeys session" `Quick
            test_mutate_rekeys_session;
          Alcotest.test_case "mutate error leaves session" `Quick
            test_mutate_error_leaves_session;
          Alcotest.test_case "weight bound rejected" `Quick
            test_weight_bound_rejected;
          Alcotest.test_case "vertex bound rejected" `Quick
            test_vertex_bound_rejected;
          Alcotest.test_case "x_warm bounded by the session" `Quick
            test_x_warm_bounded;
          Alcotest.test_case "refusal paths" `Quick test_refusal_paths;
          Alcotest.test_case "two histories, one cold answer" `Quick
            test_two_histories_one_answer;
          QCheck_alcotest.to_alcotest prop_permuted_lines_same_answers;
          Alcotest.test_case "mutate equals direct load" `Quick
            test_mutate_equiv_direct_load;
          Alcotest.test_case "warm solve after delete" `Quick
            test_warm_solve_after_delete;
          Alcotest.test_case "empty session" `Quick test_empty_session;
          Alcotest.test_case "blank line and eof" `Quick
            test_blank_line_and_eof_flush;
          Alcotest.test_case "driver cancellation" `Quick
            test_driver_cancellation;
          Alcotest.test_case "jobs-invariant transcript" `Slow
            test_jobs_invariant_transcript;
          Alcotest.test_case "ping probe" `Quick test_ping_probe;
          Alcotest.test_case "report shape" `Quick test_report_shape;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "accounting" `Quick test_loadgen_accounting;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "flushes then stops" `Quick
            test_shutdown_flushes_then_stops;
        ] );
    ]
