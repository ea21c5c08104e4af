(* Tests for the durability subsystem (DESIGN.md §5.5):

   - WAL framing: append/scan round-trip, torn final record truncated
     in place, CRC corruption mid-log cutting everything after it,
     empty and missing logs;
   - the binary graph/matching codec round-trips with digests intact
     (property-based);
   - restore semantics: kill/restart byte-identity against an unkilled
     control, snapshots newer than the log are ignored (the log is the
     authority), cache eviction re-keys correctly when the restored
     snapshot generation trails the WAL head, and an orderly drain
     leaves snapshots a fresh server restores from. *)

module J = Wm_obs.Json
module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module IO = Wm_graph.Graph_io
module Wal = Wm_serve.Wal
module Server = Wm_serve.Server
module Certify = Wm_core.Certify

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let f = Filename.temp_file (Printf.sprintf "wm_dur%d_" !ctr) "" in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f

let slurp path = In_channel.with_open_bin path In_channel.input_all

let spew path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let sample_graph seed =
  let rng = P.create seed in
  Gen.gnp rng ~n:12 ~p:0.3 ~weights:(Gen.Uniform (1, 20))

(* ------------------------------------------------------------------ *)
(* WAL framing *)

let sample_records () =
  let g = sample_graph 7 in
  let hdr i =
    {
      Wal.reqno = i;
      batchno = i / 2;
      rng = (if i mod 2 = 0 then Some (Int64.of_int (31 * i)) else None);
      counters = Array.init 18 (fun k -> k * i);
    }
  in
  [
    {
      Wal.header = hdr 1;
      bodies =
        [ Wal.Load { origin = 1; digest = IO.digest g; graph = g } ];
    };
    { Wal.header = hdr 2; bodies = [] };
    {
      Wal.header = hdr 3;
      bodies =
        [
          Wal.Mutate
            {
              old_digest = "aaaa";
              new_digest = "bbbb";
              subsumed = false;
              add_vertices = 2;
              add = [ (0, 5, 9) ];
              remove = [ (1, 2) ];
            };
          Wal.Flush
            {
              touches = [ "k1" ];
              inserts = [ ("k2", J.Obj [ ("x", J.Int 1) ]) ];
              warm = [ ("bbbb", "key", M.of_edges 12 [ E.make 0 5 9 ]) ];
            };
        ];
    };
    { Wal.header = hdr 4; bodies = [ Wal.Evict { digest = Some "bbbb" }; Wal.Stop ] };
  ]

let write_log dir recs =
  let w = Wal.open_log ~dir ~head:0 ~physical:0 in
  List.iteri (fun i r -> check "lsn" (i + 1) (Wal.append w r)) recs;
  Wal.close w

let test_wal_roundtrip () =
  let dir = fresh_dir () in
  let recs = sample_records () in
  write_log dir recs;
  let got, cut = Wal.scan ~dir in
  check "truncated" 0 cut;
  check_bool "records round-trip" true (got = recs)

let test_torn_tail () =
  let dir = fresh_dir () in
  let recs = sample_records () in
  write_log dir recs;
  (* A torn append: the length word claims 64 bytes, two arrive. *)
  let path = Wal.path ~dir in
  spew path (slurp path ^ "\x40\x00\x00\x00\xde\xad");
  let got, cut = Wal.scan ~dir in
  check_bool "records survive" true (got = recs);
  check "tail cut" 6 cut;
  (* The cut is physical: a re-scan is clean. *)
  let got2, cut2 = Wal.scan ~dir in
  check "clean rescan" 0 cut2;
  check "count preserved" (List.length recs) (List.length got2)

let test_crc_mismatch_midlog () =
  let dir = fresh_dir () in
  let recs = sample_records () in
  write_log dir recs;
  (* Flip a byte inside the second record's payload: everything from
     that record on is unusable and must be cut, keeping the prefix. *)
  let first_frame = 8 + String.length (Wal.encode_record (List.hd recs)) in
  let path = Wal.path ~dir in
  let s = Bytes.of_string (slurp path) in
  let off = first_frame + 8 + 1 in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  spew path (Bytes.to_string s);
  let got, cut = Wal.scan ~dir in
  check "prefix only" 1 (List.length got);
  check_bool "first record intact" true (List.hd got = List.hd recs);
  check_bool "rest cut" true (cut > 0)

let test_empty_and_missing () =
  let dir = fresh_dir () in
  let got, cut = Wal.scan ~dir in
  check "missing file: no records" 0 (List.length got);
  check "missing file: no cut" 0 cut;
  let w = Wal.open_log ~dir ~head:0 ~physical:0 in
  Wal.close w;
  let got2, cut2 = Wal.scan ~dir in
  check "empty file: no records" 0 (List.length got2);
  check "empty file: no cut" 0 cut2

(* ------------------------------------------------------------------ *)
(* Binary codec properties *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 2 30 in
    let* p = float_range 0.05 0.6 in
    let* seed = int_range 0 1_000_000 in
    return
      (let rng = P.create seed in
       Gen.gnp rng ~n ~p ~weights:(Gen.Uniform (1, 50))))

let prop_graph_binary_roundtrip =
  QCheck2.Test.make ~name:"binary graph codec round-trips with digest intact"
    ~count:200 gen_graph (fun g ->
      let g' = IO.of_binary (IO.to_binary g) in
      G.n g = G.n g' && G.m g = G.m g'
      && IO.digest g = IO.digest g'
      && Array.for_all2 E.equal (G.edges g) (G.edges g'))

let prop_matching_binary_roundtrip =
  QCheck2.Test.make ~name:"binary matching codec round-trips" ~count:200
    gen_graph (fun g ->
      let m = M.create (G.n g) in
      G.iter_edges (fun e -> ignore (M.try_add m e)) g;
      let m' = IO.matching_of_binary (IO.matching_to_binary m) in
      M.size m = M.size m'
      && M.weight m = M.weight m'
      && List.for_all2 E.equal
           (List.sort E.compare (M.edges m))
           (List.sort E.compare (M.edges m')))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_graph_binary_roundtrip; prop_matching_binary_roundtrip ]

(* ------------------------------------------------------------------ *)
(* Restore semantics *)

let config ?wal_dir ?(snapshot_every = 8) () =
  {
    (Server.default_config ()) with
    faults = Wm_fault.Spec.none;
    wal_dir;
    snapshot_every;
  }

let feed srv lines =
  List.concat_map
    (fun l -> List.map J.to_string (Server.handle_line srv l))
    lines

let line fields = J.to_string (J.Obj (("schema", J.Str "WM_REQ_v1") :: fields))

let load_line id g =
  line [ ("id", J.Int id); ("verb", J.Str "load"); ("graph", J.Str (IO.to_string g)) ]

let solve_line ?digest id =
  line
    ([
       ("id", J.Int id);
       ("verb", J.Str "solve");
       ("algo", J.Str "streaming");
       ("seed", J.Int 5);
     ]
    @ match digest with None -> [] | Some d -> [ ("digest", J.Str d) ])

let stats_line id = line [ ("id", J.Int id); ("verb", J.Str "stats") ]

let add_vertices_line id count =
  line [ ("id", J.Int id); ("verb", J.Str "add_vertices"); ("count", J.Int count) ]

let evict_line id = line [ ("id", J.Int id); ("verb", J.Str "evict") ]
let shutdown_line id = line [ ("id", J.Int id); ("verb", J.Str "shutdown") ]

(* Control vs kill-at-[k]: an unkilled server over [lines] against a
   WAL-backed server abandoned (no drain — the in-process SIGKILL
   stand-in) after the first [k] lines plus a restored server over the
   rest.  Line [k] must be a flush boundary (any non-solve verb).
   [crash] runs on the abandoned server and its directory before the
   restart, to stage a crash at a point no request line reaches. *)
let recovery_identity ?(crash = fun _ _ -> ()) ~snapshot_every ~k lines =
  let control = feed (Server.create (config ())) lines in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every ()) in
  let pre = feed a (List.filteri (fun i _ -> i < k) lines) in
  crash dir a;
  let b = Server.create (config ~wal_dir:dir ~snapshot_every ()) in
  let post = feed b (List.filteri (fun i _ -> i >= k) lines) in
  (Certify.check_recovery ~control ~recovered:(pre @ post), b)

let test_kill_restart_identity () =
  let g = sample_graph 11 in
  let lines =
    [
      load_line 1 g;
      solve_line 2;
      solve_line 3;
      stats_line 4;
      add_vertices_line 5 2;
      solve_line 6;
      stats_line 7;
      shutdown_line 8;
    ]
  in
  let chk, b = recovery_identity ~snapshot_every:2 ~k:5 lines in
  (match chk.Certify.divergence with
  | Some (i, c, r) ->
      Alcotest.failf "diverged at line %d:\n  control:   %s\n  recovered: %s" i c r
  | None -> ());
  check_bool "byte-identical" true chk.Certify.identical;
  let r = Option.get (Server.recovery b) in
  check_bool "replayed records" true (r.Server.replayed > 0);
  check "no torn tail" 0 r.Server.truncated_bytes

let test_snapshot_newer_than_log () =
  let g = sample_graph 17 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:1 ()) in
  let _ = feed a [ load_line 1 g; stats_line 2 ] in
  (* Lose the log but keep the snapshots: the snapshot LSNs now point
     past the head, so the log's (empty) authority wins and nothing is
     installed. *)
  Sys.remove (Wal.path ~dir);
  let b = Server.create (config ~wal_dir:dir ()) in
  let r = Option.get (Server.recovery b) in
  check "no snapshot installed" 0 r.Server.snapshots_restored;
  check "nothing replayed" 0 r.Server.replayed;
  check "no sessions" 0 (List.length (Server.sessions b))

(* Satellite regression: the snapshot is written at the pre-mutation
   generation, the WAL head holds the mutation — the restored session
   must end up under the post-mutation digest, and eviction/cache
   addressing on the restored server must match a never-killed one. *)
let test_restored_evict_rekeys_cache () =
  let g = sample_graph 13 in
  let lines =
    [
      load_line 1 g;
      solve_line 2;
      stats_line 3;
      (* snapshot lands at the stats record; the mutation is only in
         the log *)
      add_vertices_line 4 2;
      solve_line 5;
      evict_line 6;
      solve_line 7;
      (* no sessions left: must error identically *)
      stats_line 8;
      shutdown_line 9;
    ]
  in
  let chk, b = recovery_identity ~snapshot_every:2 ~k:4 lines in
  (match chk.Certify.divergence with
  | Some (i, c, r) ->
      Alcotest.failf "diverged at line %d:\n  control:   %s\n  recovered: %s" i c r
  | None -> ());
  check_bool "byte-identical" true chk.Certify.identical;
  let r = Option.get (Server.recovery b) in
  check_bool "snapshot was installed" true (r.Server.snapshots_restored >= 1)

let test_restored_session_digest_moves () =
  let g = sample_graph 19 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:2 ()) in
  let _ =
    feed a [ load_line 1 g; solve_line 2; stats_line 3; add_vertices_line 4 2 ]
  in
  let b = Server.create (config ~wal_dir:dir ~snapshot_every:2 ()) in
  let d' =
    match Server.sessions b with
    | [ (d, _, _) ] -> d
    | l -> Alcotest.failf "expected one session, got %d" (List.length l)
  in
  check_bool "digest re-keyed past the snapshot" true (d' <> IO.digest g);
  (* The pre-mutation digest is not addressable. *)
  match feed b [ solve_line ~digest:(IO.digest g) 5 ] with
  | [ resp ] ->
      check_bool "old digest refused" true
        (match J.of_string resp with
        | Ok j -> (
            match J.member "status" j with
            | Some (J.Str "error") -> true
            | _ -> false)
        | Error _ -> false)
  | _ -> Alcotest.fail "expected one response"

let test_drain_writes_snapshots () =
  let g = sample_graph 23 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:0 ()) in
  let _ = feed a [ load_line 1 g; solve_line 2 ] in
  let drained = Server.drain a in
  check_bool "drain answers the queued solve" true (List.length drained >= 1);
  let snaps =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f ->
           String.length f > 5 && String.sub f 0 5 = "snap-")
  in
  check "one snapshot file" 1 (List.length snaps);
  let b = Server.create (config ~wal_dir:dir ()) in
  let r = Option.get (Server.recovery b) in
  check "restored from snapshot" 1 r.Server.snapshots_restored;
  check "one session" 1 (List.length (Server.sessions b))

let evict_digest_line id d =
  line [ ("id", J.Int id); ("verb", J.Str "evict"); ("digest", J.Str d) ]

let cached resp =
  match J.of_string resp with
  | Ok j -> J.member "cached" j = Some (J.Bool true)
  | Error _ -> false

(* WAL compaction at the snapshot point: once every live session has a
   snapshot, the log's whole history collapses into a single [Base]
   record — the physical file stops growing with request count — and a
   fresh server restores sessions {e and} the result cache from it. *)
let test_compaction_on_snapshot () =
  let g = sample_graph 29 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:0 ()) in
  let _ = feed a [ load_line 1 g; solve_line 2; stats_line 3 ] in
  let before, _ = Wal.scan ~dir in
  check_bool "history accumulates before compaction" true
    (List.length before > 1);
  let c0 =
    Wm_obs.Obs.counter_value Wm_obs.Obs.default "serve.wal.compacted_records"
  in
  ignore (Server.drain a);
  let after, cut = Wal.scan ~dir in
  check "clean log" 0 cut;
  check "single physical record" 1 (List.length after);
  (match after with
  | [ { Wal.bodies = [ Wal.Base { lsn; order = [ _ ]; _ } ]; _ } ] ->
      (* admitted solves are volatile (no record), so the head counts
         the load line, the flush at the stats boundary, and drain *)
      check_bool "base stands at the logical head" true (lsn >= 2)
  | _ -> Alcotest.fail "compacted log is not a single Base record");
  check_bool "compacted records counted" true
    (Wm_obs.Obs.counter_value Wm_obs.Obs.default "serve.wal.compacted_records"
    > c0);
  let b = Server.create (config ~wal_dir:dir ()) in
  check "session restored through the base" 1
    (List.length (Server.sessions b));
  match feed b [ solve_line 4; "" ] with
  | [ resp ] -> check_bool "restored cache still hits" true (cached resp)
  | _ -> Alcotest.fail "expected one response"

(* Snapshot GC: evicting a session deletes its [snap-<origin>.bin] at
   the next compaction, so the wal-dir's file census tracks the
   live-session census instead of accreting dead state. *)
let test_evict_gcs_snapshot () =
  let g = sample_graph 31 and h = sample_graph 37 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:1 ()) in
  let _ =
    feed a
      [
        load_line 1 g;
        load_line 2 h;
        solve_line ~digest:(IO.digest g) 3;
        stats_line 4;
      ]
  in
  (* A session's origin is the LSN of its load: one record per line. *)
  let snap origin = Wm_serve.Snapshot.file ~dir origin in
  let g_origin = 1 and h_origin = 2 in
  check_bool "both sessions snapshotted" true
    (Sys.file_exists (snap g_origin) && Sys.file_exists (snap h_origin));
  let _ = feed a [ evict_digest_line 5 (IO.digest g) ] in
  check_bool "evicted session's snapshot deleted" true
    (not (Sys.file_exists (snap g_origin)));
  check_bool "surviving session's snapshot kept" true
    (Sys.file_exists (snap h_origin));
  (* evict-all sweeps the rest *)
  let _ = feed a [ evict_line 6 ] in
  check_bool "evict-all sweeps every snapshot" true
    (not (Sys.file_exists (snap h_origin)));
  (* a restart on the swept dir comes up empty but clean *)
  let b = Server.create (config ~wal_dir:dir ()) in
  check "no sessions after the sweep" 0 (List.length (Server.sessions b))

let assert_identical (chk : Certify.recovery_check) =
  (match chk.Certify.divergence with
  | Some (i, c, r) ->
      Alcotest.failf "diverged at line %d:\n  control:   %s\n  recovered: %s" i c r
  | None -> ());
  check_bool "byte-identical" true chk.Certify.identical

let add_edges_line id d (u, v, w) =
  line
    [
      ("id", J.Int id);
      ("verb", J.Str "add_edges");
      ("digest", J.Str d);
      ("edges", J.List [ J.List [ J.Int u; J.Int v; J.Int w ] ]);
    ]

(* [b] is [a] plus one edge, so mutating a session holding [a] by that
   edge merges it into a live session holding [b]. *)
let merge_pair seed =
  let a = sample_graph seed in
  let rec absent u v =
    if not (G.mem_edge a u v) then (u, v, 7)
    else if v + 1 < G.n a then absent u (v + 1)
    else absent (u + 1) (u + 2)
  in
  let edge = absent 0 1 in
  let u, v, w = edge in
  (a, G.patch a ~add:[ E.make u v w ] (), edge)

(* Regression: evicting a session used to delete its snapshot at once,
   while the compacted log still named it — a kill before the next
   snapshot point left the wal-dir unrecoverable. *)
let test_kill_after_evict () =
  let g = sample_graph 43 and h = sample_graph 47 in
  let lines =
    [
      load_line 1 g;
      load_line 2 h;
      stats_line 3;
      evict_digest_line 4 (IO.digest h);
      solve_line 5;
      stats_line 6;
      shutdown_line 7;
    ]
  in
  assert_identical (fst (recovery_identity ~snapshot_every:3 ~k:4 lines))

let test_kill_after_evict_all () =
  let g = sample_graph 53 and h = sample_graph 59 in
  let lines =
    [
      load_line 1 g;
      load_line 2 h;
      stats_line 3;
      evict_line 4;
      load_line 5 h;
      solve_line 6;
      stats_line 7;
      shutdown_line 8;
    ]
  in
  assert_identical (fst (recovery_identity ~snapshot_every:3 ~k:4 lines))

(* Regression: merging session A into live session B (a mutation onto
   B's content) used to write A's snapshot over B's file, before the
   compaction that drops B from the log.  The kill lands between the
   snapshot writes and the compaction: staged by draining (snapshots,
   compaction, GC), then putting back the pre-drain log and every
   snapshot file the drain deleted — GC runs only after compaction, so
   at the crash point none was gone yet. *)
let test_kill_between_merge_snapshot_and_compaction () =
  let a, b, edge = merge_pair 61 in
  let lines =
    [
      load_line 1 a;
      load_line 2 b;
      stats_line 3;
      add_edges_line 4 (IO.digest a) edge;
      stats_line 5;
      solve_line 6;
      stats_line 7;
    ]
  in
  let crash dir srv =
    let files () =
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f -> f = "wal.log" || String.starts_with ~prefix:"snap-" f)
      |> List.map (fun f -> (f, slurp (Filename.concat dir f)))
    in
    let before = files () in
    ignore (Server.drain srv);
    let after = files () in
    List.iter
      (fun (f, bytes) ->
        if f = "wal.log" || not (List.mem_assoc f after) then
          spew (Filename.concat dir f) bytes)
      before
  in
  assert_identical
    (fst (recovery_identity ~crash ~snapshot_every:3 ~k:4 lines))

(* Crash-point sweep: one script whose WAL carries every body kind —
   Load (fresh and a re-load of live content), Mutate (plain and a
   merge into another session), Evict (one and all), Flush with cache
   inserts, touches and warm updates, and Stop — killed after every
   flush boundary at several snapshot cadences.  Every restart must
   reproduce the unkilled transcript byte for byte. *)
let test_crash_point_sweep () =
  let a, b, edge = merge_pair 67 in
  let c = sample_graph 71 in
  let da = IO.digest a and db = IO.digest b in
  (* [queued] marks the solves still queued after their line: killing
     there would drop a volatile admission, so they are not kill
     points. *)
  let queued l = (true, l) and boundary l = (false, l) in
  let script =
    [
      boundary (load_line 1 a);
      boundary (load_line 2 b);
      queued (solve_line ~digest:da 3);
      queued (solve_line ~digest:db 4);
      boundary (stats_line 5);
      boundary (load_line 6 a);
      queued (solve_line ~digest:da 7);
      boundary (add_edges_line 8 da edge);
      boundary (stats_line 9);
      boundary (solve_line ~digest:da 10);
      queued (solve_line ~digest:db 11);
      boundary (add_vertices_line 12 2);
      queued (solve_line 13);
      boundary (stats_line 14);
      boundary (evict_line 15);
      boundary (load_line 16 c);
      boundary (load_line 17 a);
      queued (solve_line 18);
      boundary (evict_digest_line 19 (IO.digest c));
      boundary (stats_line 20);
      boundary (shutdown_line 21);
      boundary (stats_line 22);
    ]
  in
  let lines = List.map snd script in
  (* The merge, live: the merged digest is listed once, and the
     merged-away digest is refused. *)
  let control = feed (Server.create (config ())) lines in
  let response id =
    List.find
      (fun r ->
        match J.of_string r with
        | Ok j -> J.member "id" j = Some (J.Int id)
        | Error _ -> false)
      control
  in
  let sessions =
    match J.of_string (response 9) with
    | Ok j -> (
        match J.member "sessions" j with
        | Some (J.List l) -> List.map (J.member "digest") l
        | _ -> [])
    | Error _ -> []
  in
  check "merged digest listed once" 1
    (List.length (List.filter (( = ) (Some (J.Str db))) sessions));
  check_bool "merged-away digest absent" false
    (List.mem (Some (J.Str da)) sessions);
  check_bool "solve on the merged-away digest errors" true
    (match J.of_string (response 10) with
    | Ok j -> J.member "status" j = Some (J.Str "error")
    | Error _ -> false);
  List.iteri
    (fun i (is_queued, _) ->
      if not is_queued then
        List.iter
          (fun snapshot_every ->
            let chk, _ = recovery_identity ~snapshot_every ~k:(i + 1) lines in
            if not chk.Certify.identical then
              Alcotest.failf "kill after line %d, snapshot_every %d: %s" (i + 1)
                snapshot_every
                (match chk.Certify.divergence with
                | Some (j, c, r) ->
                    Printf.sprintf "line %d\n  control:   %s\n  recovered: %s" j c r
                | None -> "lengths differ"))
          [ 0; 1; 3 ])
    script

let test_check_recovery_reports_divergence () =
  let r =
    Certify.check_recovery ~control:[ "a"; "b" ] ~recovered:[ "a"; "x" ]
  in
  check_bool "not identical" true (not r.Certify.identical);
  (match r.Certify.divergence with
  | Some (1, "b", "x") -> ()
  | _ -> Alcotest.fail "wrong divergence");
  let r2 = Certify.check_recovery ~control:[ "a" ] ~recovered:[ "a"; "e" ] in
  check "compared is the longer side" 2 r2.Certify.compared;
  match r2.Certify.divergence with
  | Some (1, "", "e") -> ()
  | _ -> Alcotest.fail "missing line must surface as \"\""

let () =
  ignore check_str;
  Alcotest.run "wm_durability"
    [
      ( "wal",
        [
          Alcotest.test_case "append/scan round-trip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn final record" `Quick test_torn_tail;
          Alcotest.test_case "crc mismatch mid-log" `Quick
            test_crc_mismatch_midlog;
          Alcotest.test_case "empty and missing logs" `Quick
            test_empty_and_missing;
        ] );
      ("codec", qcheck_tests);
      ( "restore",
        [
          Alcotest.test_case "kill/restart byte-identity" `Quick
            test_kill_restart_identity;
          Alcotest.test_case "snapshot newer than log ignored" `Quick
            test_snapshot_newer_than_log;
          Alcotest.test_case "restored evict re-keys cache" `Quick
            test_restored_evict_rekeys_cache;
          Alcotest.test_case "restored session digest moves" `Quick
            test_restored_session_digest_moves;
          Alcotest.test_case "drain writes snapshots" `Quick
            test_drain_writes_snapshots;
          Alcotest.test_case "compaction on snapshot" `Quick
            test_compaction_on_snapshot;
          Alcotest.test_case "evict gcs snapshot" `Quick
            test_evict_gcs_snapshot;
          Alcotest.test_case "kill after evict" `Quick test_kill_after_evict;
          Alcotest.test_case "kill after evict-all" `Quick
            test_kill_after_evict_all;
          Alcotest.test_case "kill between merge snapshot and compaction"
            `Quick test_kill_between_merge_snapshot_and_compaction;
          Alcotest.test_case "crash-point sweep" `Quick test_crash_point_sweep;
          Alcotest.test_case "check_recovery divergence" `Quick
            test_check_recovery_reports_divergence;
        ] );
    ]
