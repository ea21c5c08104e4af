(* Tests for the shard router (lib/shard):

   - the consistent-hash ring: deterministic placement, every shard
     populated, removal moving exactly the removed shard's keys
     (property-tested bound on key movement);
   - the router over in-process endpoints: response transcripts
     byte-identical to a single stock server (mutations and evictions
     included), digest-rekey migration accounting, and the
     revive-and-resend path after a worker endpoint dies mid-batch,
     and a wal_dir restore that re-runs no migration or eviction.

   Local endpoints share the process-wide Obs.default ledger between
   the router and its workers, so these tests never compare `stats`
   responses — full transcript identity including stats is enforced by
   the forked @shard-smoke bench legs. *)

module J = Wm_obs.Json
module G = Wm_graph.Weighted_graph
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module Gio = Wm_graph.Graph_io
module Server = Wm_serve.Server
module Ring = Wm_shard.Ring
module Endpoint = Wm_shard.Endpoint
module Router = Wm_shard.Router

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Deterministic pseudo-digests: hex strings derived from a counter,
   shaped like real Graph_io digests. *)
let fake_digest i = Printf.sprintf "%016x" (0x1e3779b97f4a7c15 * (i + 1))

let keys k = List.init k fake_digest

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_deterministic () =
  let r1 = Ring.create ~shards:4 () in
  let r2 = Ring.create ~shards:4 () in
  List.iter
    (fun d -> check ("home of " ^ d) (Ring.home r1 d) (Ring.home r2 d))
    (keys 200);
  check "shards recorded" 4 (Ring.shards r1);
  (* vnodes is part of the placement function *)
  let r3 = Ring.create ~shards:4 ~vnodes:8 () in
  check_bool "vnodes changes some placement" true
    (List.exists (fun d -> Ring.home r1 d <> Ring.home r3 d) (keys 200))

let test_ring_covers_all_shards () =
  let shards = 5 in
  let r = Ring.create ~shards () in
  let hit = Array.make shards 0 in
  List.iter
    (fun d ->
      let h = Ring.home r d in
      check_bool "home in range" true (h >= 0 && h < shards);
      hit.(h) <- hit.(h) + 1)
    (keys 500);
  Array.iteri
    (fun k n -> check_bool (Printf.sprintf "shard %d populated" k) true (n > 0))
    hit

let test_ring_remove_exact () =
  let shards = 4 in
  let r = Ring.create ~shards () in
  let removed = 2 in
  let r' = Ring.remove r removed in
  List.iter
    (fun d ->
      let before = Ring.home r d and after = Ring.home r' d in
      check_bool "removed shard owns nothing" true (after <> removed);
      if before <> removed then
        check ("survivor key " ^ d ^ " keeps its home") before after)
    (keys 400)

(* The bounded-movement property behind consistent hashing: removing
   one of [n] shards relocates exactly the keys it owned — about K/n of
   them — and nobody else moves.  The exact-set half is checked
   per-key; the cardinality half allows generous concentration slack
   (the 64-vnode ring is balanced but not perfectly uniform). *)
let prop_ring_bounded_movement =
  QCheck2.Test.make ~name:"ring removal moves ~K/n keys, all from the victim"
    ~count:60
    QCheck2.Gen.(
      triple (int_range 2 8) (int_range 50 300) (int_bound 1_000_000))
    (fun (shards, k, salt) ->
      let r = Ring.create ~shards () in
      let victim = salt mod shards in
      let r' = Ring.remove r victim in
      let ds = List.map (fun i -> fake_digest (i + salt)) (List.init k Fun.id) in
      let moved =
        List.filter (fun d -> Ring.home r d <> Ring.home r' d) ds
      in
      List.iter
        (fun d ->
          if Ring.home r d <> victim then
            QCheck2.Test.fail_reportf
              "key %s moved but was homed on surviving shard %d" d
              (Ring.home r d))
        moved;
      let bound = (2 * k / shards) + 12 in
      if List.length moved > bound then
        QCheck2.Test.fail_reportf "moved %d keys; bound %d (K=%d n=%d)"
          (List.length moved) bound k shards;
      true)

(* ------------------------------------------------------------------ *)
(* Router over in-process endpoints *)

let graph seed =
  let rng = P.create seed in
  Gen.gnp rng ~n:24 ~p:0.2 ~weights:(Gen.Uniform (1, 40))

let base_config () =
  {
    (Server.default_config ()) with
    Server.queue_depth = 8;
    cache_entries = 16;
    faults = Wm_fault.Spec.none;
  }

let local_spawn config k =
  Endpoint.of_server ~shard:k
    (Server.create (Router.worker_config ~base:config ~shard:k ~wal_root:None))

let make_router ?(shards = 2) ?kill ?spawn () =
  let config = base_config () in
  let spawn =
    match spawn with Some f -> f config | None -> local_spawn config
  in
  Router.create ~shards ?kill ~spawn ~config ()

let load_line ~id seed =
  Printf.sprintf "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":\"load\",\"graph\":%s}"
    id
    (J.to_string (J.Str (Gio.to_string (graph seed))))

let solve_line ~id ?digest ?(algo = "streaming") ?(seed = 5) () =
  Printf.sprintf
    "{\"schema\":\"WM_REQ_v1\",\"id\":%d,\"verb\":\"solve\",\"algo\":%S,\"seed\":%d%s}"
    id algo seed
    (match digest with
    | Some d -> Printf.sprintf ",\"digest\":%S" d
    | None -> "")

(* A mixed workload over three sessions: batched solves (cross-shard
   fan-out), a repeat (cache hit), a mutation re-key, a solve of the
   mutated content, and an evict + reload.  No stats verb (see header). *)
let workload () =
  let da = Gio.digest (graph 3)
  and db = Gio.digest (graph 7)
  and dc = Gio.digest (graph 11) in
  let da' =
    Gio.digest (G.patch (graph 3) ~add:[ Wm_graph.Edge.make 0 2 9 ] ())
  in
  [
    load_line ~id:1 3;
    load_line ~id:2 7;
    load_line ~id:3 11;
    solve_line ~id:4 ~digest:da ();
    solve_line ~id:5 ~digest:db ~seed:6 ();
    solve_line ~id:6 ~digest:dc ~algo:"greedy" ();
    "";
    solve_line ~id:7 ~digest:da ();
    (* cache hit *)
    Printf.sprintf
      "{\"schema\":\"WM_REQ_v1\",\"id\":8,\"verb\":\"add_edges\",\"digest\":%S,\"edges\":[[0,2,9]]}"
      da;
    solve_line ~id:9 ~digest:da' ();
    Printf.sprintf
      "{\"schema\":\"WM_REQ_v1\",\"id\":10,\"verb\":\"evict\",\"digest\":%S} "
      dc;
    load_line ~id:11 11;
    solve_line ~id:12 ~digest:dc ~algo:"greedy" ();
    "";
  ]

let transcript srv lines =
  List.concat_map
    (fun l -> List.map J.to_string (Server.handle_line srv l))
    (lines @ [ "" ])

let test_router_matches_single_server () =
  List.iter
    (fun shards ->
      let single = Server.create (base_config ()) in
      let expected = transcript single (workload ()) in
      let t = make_router ~shards () in
      let got = transcript (Router.server t) (workload ()) in
      check
        (Printf.sprintf "shards=%d response count" shards)
        (List.length expected) (List.length got);
      List.iter2
        (fun a b ->
          check_str (Printf.sprintf "shards=%d byte-identical" shards) a b)
        expected got)
    [ 1; 2; 4 ]

let test_rekey_migration_accounting () =
  let da = Gio.digest (graph 3) in
  let da' =
    Gio.digest (G.patch (graph 3) ~add:[ Wm_graph.Edge.make 0 2 9 ] ())
  in
  let shards = 2 in
  let ring = Ring.create ~shards () in
  let expect_migrations = if Ring.home ring da <> Ring.home ring da' then 1 else 0 in
  let t = make_router ~shards () in
  let srv = Router.server t in
  ignore (Server.handle_line srv (load_line ~id:1 3));
  ignore (transcript srv [ solve_line ~id:2 ~digest:da () ]);
  check "no migrations yet" 0 (Router.migrations t);
  ignore
    (Server.handle_line srv
       (Printf.sprintf
          "{\"schema\":\"WM_REQ_v1\",\"id\":3,\"verb\":\"add_edges\",\"digest\":%S,\"edges\":[[0,2,9]]}"
          da));
  check "re-key migration counted iff the home moved" expect_migrations
    (Router.migrations t);
  (* the migrated session still solves, and to the same body a stock
     server produces *)
  let single = Server.create (base_config ()) in
  ignore (Server.handle_line single (load_line ~id:1 3));
  ignore (transcript single [ solve_line ~id:2 ~digest:da () ]);
  ignore
    (Server.handle_line single
       (Printf.sprintf
          "{\"schema\":\"WM_REQ_v1\",\"id\":3,\"verb\":\"add_edges\",\"digest\":%S,\"edges\":[[0,2,9]]}"
          da));
  let got = transcript srv [ solve_line ~id:4 ~digest:da' ~seed:9 () ] in
  let expected = transcript single [ solve_line ~id:4 ~digest:da' ~seed:9 () ] in
  List.iter2 (fun a b -> check_str "post-migration solve" a b) expected got

(* Kill a worker's endpoint mid-session: the next dispatch touching it
   must revive (respawn through the factory) and resend the group, and
   the client transcript must not change.  The factory hands out fresh
   stock servers, so the revive also proves sessions are re-shipped
   lazily rather than assumed resident. *)
let test_revive_after_endpoint_death () =
  let eps = Hashtbl.create 4 in
  let spawn config k =
    let ep = local_spawn config k in
    Hashtbl.replace eps k ep;
    ep
  in
  let single = Server.create (base_config ()) in
  let expected = transcript single (workload ()) in
  let t = make_router ~shards:2 ~spawn () in
  let srv = Router.server t in
  let lines = workload () in
  let cut = 7 (* after the first flush boundary *) in
  let before = List.filteri (fun i _ -> i < cut) lines in
  let after = List.filteri (fun i _ -> i >= cut) lines in
  let got_before =
    List.concat_map (fun l -> List.map J.to_string (Server.handle_line srv l)) before
  in
  (* both workers have state by now; kill them both *)
  Hashtbl.iter (fun _ ep -> ep.Endpoint.kill ()) eps;
  let got_after = transcript srv after in
  let got = got_before @ got_after in
  check "response count unchanged by the kill" (List.length expected)
    (List.length got);
  List.iter2 (fun a b -> check_str "kill-invariant transcript" a b) expected got;
  check_bool "revivals recorded" true (Router.restarts t >= 1)

(* A router restored from its wal_dir replays the log through the
   server's state transition alone: the delegate's observer sees live
   effects only, so the restore counts no migration and sends no worker
   an evict line, though the first incarnation did both. *)
let test_restore_skips_observer () =
  let dir = Filename.temp_file "wm_shard_restore" "" in
  Sys.remove dir;
  let config = { (base_config ()) with Server.wal_dir = Some dir } in
  let sent = ref [] in
  let spawn k =
    let ep = local_spawn (base_config ()) k in
    {
      ep with
      Endpoint.send =
        (fun l ->
          sent := l :: !sent;
          ep.Endpoint.send l);
    }
  in
  let evicts () =
    List.length
      (List.filter
         (fun l ->
           match Wm_serve.Protocol.parse_request l with
           | Ok { Wm_serve.Protocol.verb = Wm_serve.Protocol.Evict _; _ } ->
               true
           | _ -> false)
         !sent)
  in
  let da = Gio.digest (graph 3) and db = Gio.digest (graph 7) in
  let ring = Ring.create ~shards:2 () in
  (* an added edge weight whose re-key moves the session's home *)
  let moved w =
    let g = G.patch (graph 3) ~add:[ Wm_graph.Edge.make 0 2 w ] () in
    Ring.home ring da <> Ring.home ring (Gio.digest g)
  in
  let w = List.find moved (List.init 500 succ) in
  let t1 = Router.create ~shards:2 ~spawn ~config () in
  ignore
    (transcript (Router.server t1)
       [
         load_line ~id:1 3;
         load_line ~id:2 7;
         solve_line ~id:3 ~digest:da ();
         solve_line ~id:4 ~digest:db ();
         "";
         Printf.sprintf
           "{\"schema\":\"WM_REQ_v1\",\"id\":5,\"verb\":\"add_edges\",\"digest\":%S,\"edges\":[[0,2,%d]]}"
           da w;
         Printf.sprintf
           "{\"schema\":\"WM_REQ_v1\",\"id\":6,\"verb\":\"evict\",\"digest\":%S}"
           db;
       ]);
  check "first incarnation migrated" 1 (Router.migrations t1);
  check_bool "first incarnation sent evicts" true (evicts () >= 2);
  (* abandon t1 without a shutdown, as a crash would *)
  sent := [];
  let t2 = Router.create ~shards:2 ~spawn ~config () in
  check "restore counts no migration" 0 (Router.migrations t2);
  check "restore sends no evict" 0 (evicts ());
  check_bool "sessions restored" true
    (Server.sessions (Router.server t2) = Server.sessions (Router.server t1));
  match transcript (Router.server t2) [ solve_line ~id:7 ~seed:9 () ] with
  | [ r ] ->
      check_bool "restored router solves" true
        (J.member "status" (Result.get_ok (J.of_string r)) = Some (J.Str "ok"))
  | _ -> Alcotest.fail "expected one solve response"

(* The merged report passes the BENCH_v1 schema (which balances the
   shard block's books) and meters real sessions and traffic. *)
let test_merged_report_shape () =
  let t = make_router ~shards:2 () in
  ignore (transcript (Router.server t) (workload ()));
  let r = Router.merged_report t in
  (match Wm_fault.Bench_v1.check r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged report fails the BENCH_v1 schema: %s" e);
  let shard_int path =
    match
      List.fold_left
        (fun j k -> Option.bind j (J.member k))
        (J.member "shard" r) path
    with
    | Some (J.Int n) -> n
    | _ -> Alcotest.failf "shard.%s missing" (String.concat "." path)
  in
  check "shards" 2 (shard_int [ "shards" ]);
  check_bool "sessions tracked" true (shard_int [ "router"; "sessions" ] >= 1);
  check_bool "traffic actually metered" true
    (shard_int [ "transport"; "bytes_sent" ] > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wm_shard"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic placement" `Quick
            test_ring_deterministic;
          Alcotest.test_case "covers all shards" `Quick
            test_ring_covers_all_shards;
          Alcotest.test_case "removal is exact" `Quick test_ring_remove_exact;
          QCheck_alcotest.to_alcotest prop_ring_bounded_movement;
        ] );
      ( "router",
        [
          Alcotest.test_case "matches single server" `Slow
            test_router_matches_single_server;
          Alcotest.test_case "rekey migration accounting" `Quick
            test_rekey_migration_accounting;
          Alcotest.test_case "revive after endpoint death" `Quick
            test_revive_after_endpoint_death;
          Alcotest.test_case "merged report shape" `Quick
            test_merged_report_shape;
          Alcotest.test_case "restore skips the observer" `Quick
            test_restore_skips_observer;
        ] );
    ]
