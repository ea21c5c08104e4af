(* The served workload, serve-session.

   One closed-loop client drives one [wm_cli serve --jobs 1 --wal-dir D]
   process that holds one power-law session, n = 10^4 and m ~ 80k; the
   traced run also drives a [--shards 2] server over the same windows.
   Each op is one window of five lines: [add_edges X], [solve greedy]
   (a cache miss: the content is new), [remove_edges X], [solve greedy]
   (a cache hit: the content is back to the base), and a blank batch
   boundary.  Every window has the same
   shape and the same verb mix, and [--snapshot-every] equals the WAL
   records one window appends, so every window also writes exactly one
   snapshot: the latency distribution has one mode. *)

module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module E = Wm_graph.Edge
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module Gio = Wm_graph.Graph_io
module J = Wm_obs.Json
module Obs = Wm_obs.Obs
module Trace = Wm_obs.Trace
module Server = Wm_serve.Server
module Protocol = Wm_serve.Protocol
module U = Util

let n = 10_000
let attach = 8
let delta_edges = 32

(* Windows per second at --shards 0 on the reference host; a run is
   [rate * seconds] windows. *)
let rate = 2.0
let min_windows = 20

(* Set-ups per plain run. *)
let setup_samples = 5

(* WAL records one window appends (add_edges, remove_edges and the
   blank boundary each commit one; a queued solve commits none). *)
let snapshot_every = 3

type window = {
  delta : (int * int * int) list;
  lines : string list;
  miss_weight : int;  (** Greedy.by_weight of base + delta, bench side *)
}

type script = {
  base : G.t;
  base_weight : int;
  load : string;
  windows : window array;  (** [windows.(0)] is the untimed warm-up *)
  mutable next_id : int;
}

let req id verb fields =
  Printf.sprintf {|{"schema":"WM_REQ_v1","id":%d,"verb":"%s"%s}|} id verb fields

let fresh_id sc =
  let id = sc.next_id in
  sc.next_id <- id + 1;
  id

let patched base delta =
  G.patch base ~add:(List.map (fun (u, v, w) -> E.make u v w) delta) ()

(* The base session is a fixed part of the workload; --seed draws the
   windows' deltas. *)
let base_seed = 20191

let make_script ~work ~seed ~windows =
  let base =
    Gen.power_law_scale (P.create base_seed) ~n ~attach ~weights:(Gen.Uniform (1, 100))
  in
  let rng = P.create seed in
  let path = Filename.concat work "base.wm" in
  Gio.write_file path base;
  let sc =
    {
      base;
      base_weight = M.weight (Wm_algos.Greedy.by_weight base);
      load = "";
      windows = [||];
      next_id = 1;
    }
  in
  let load = req (fresh_id sc) "load" (Printf.sprintf {|,"path":"%s"|} path) in
  let window () =
    let seen = Hashtbl.create 64 in
    let rec draw k acc =
      if k = 0 then acc
      else
        let u = P.int rng n and v = P.int rng n in
        let key = (Stdlib.min u v, Stdlib.max u v) in
        if u = v || G.mem_edge base u v || Hashtbl.mem seen key then draw k acc
        else begin
          Hashtbl.add seen key ();
          draw (k - 1) ((u, v, 1 + P.int rng 100) :: acc)
        end
    in
    let delta = draw delta_edges [] in
    let list f = String.concat "," (List.map f delta) in
    let solve = {|,"algo":"greedy"|} in
    let lines =
      List.map
        (fun (verb, fields) -> req (fresh_id sc) verb fields)
        [
          ("add_edges", Printf.sprintf {|,"edges":[%s]|} (list (fun (u, v, w) -> Printf.sprintf "[%d,%d,%d]" u v w)));
          ("solve", solve);
          ("remove_edges", Printf.sprintf {|,"edges":[%s]|} (list (fun (u, v, _) -> Printf.sprintf "[%d,%d]" u v)));
          ("solve", solve);
        ]
      @ [ "" ]
    in
    { delta; lines; miss_weight = M.weight (Wm_algos.Greedy.by_weight (patched base delta)) }
  in
  let windows = Array.init windows (fun _ -> window ()) in
  { sc with load; windows }

(* ------------------------------------------------------------------ *)
(* Response checks *)

let parse line = match J.of_string line with Ok j -> j | Error _ -> J.Null
let int_of k j = match J.member k j with Some (J.Int i) -> Some i | _ -> None
let is_ok j = J.member "status" j = Some (J.Str "ok")

let check_window sc w ~warm responses =
  let m0 = G.m sc.base and tw0 = G.total_weight sc.base in
  let added = List.fold_left (fun acc (_, _, x) -> acc + x) 0 w.delta in
  let solved j ~weight ~cached =
    let result k = Option.bind (J.member "result" j) (J.member k) in
    is_ok j
    && result "valid" = Some (J.Bool true)
    && result "weight" = Some (J.Int weight)
    && (warm || J.member "cached" j = Some (J.Bool cached))
  in
  match List.map parse responses with
  | [ add; miss; remove; hit ] ->
      is_ok add
      && int_of "m" add = Some (m0 + delta_edges)
      && int_of "total_weight" add = Some (tw0 + added)
      && solved miss ~weight:w.miss_weight ~cached:false
      && is_ok remove
      && int_of "m" remove = Some m0
      && int_of "total_weight" remove = Some tw0
      && solved hit ~weight:sc.base_weight ~cached:true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The server process *)

type proc = { pid : int; oc : out_channel; ic : in_channel }

let live = ref []

(* Kill whatever is still running (the router's workers first), and
   wait for every process to end. *)
let kill_all () =
  List.iter
    (fun pid ->
      let kids = U.children pid in
      List.iter (fun k -> try Unix.kill k Sys.sigkill with Unix.Unix_error _ -> ()) (pid :: kids);
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      List.iter
        (fun k ->
          let gone () = not (Sys.file_exists (Printf.sprintf "/proc/%d" k)) in
          let t0 = U.now () in
          while (not (gone ())) && U.now () -. t0 < 5.0 do
            Unix.sleepf 0.01
          done)
        kids)
    !live;
  live := []

let spawn ~cli ~work ~wal ~shards =
  let wal = Filename.concat work wal in
  U.rm_rf wal;
  let args =
    [ "serve"; "--jobs"; "1"; "--wal-dir"; wal; "--snapshot-every"; string_of_int snapshot_every ]
    @ if shards > 0 then [ "--shards"; string_of_int shards ] else []
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat work "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) in_r out_w log in
  List.iter Unix.close [ in_r; out_w; log ];
  live := pid :: !live;
  { pid; oc = Unix.out_channel_of_descr in_w; ic = Unix.in_channel_of_descr out_r }

let send p lines =
  List.iter (fun l -> output_string p.oc l; output_char p.oc '\n') lines;
  flush p.oc

let recv p k =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (input_line p.ic :: acc) in
  go k []

let call p line = List.hd (send p [ line ]; recv p 1)

(* Peak RSS of the server and, at --shards N, its workers. *)
let rss_kb p = List.fold_left (fun acc pid -> acc + U.vm_hwm_kb pid) 0 (p.pid :: U.children p.pid)

let stop p sc =
  let ack = parse (call p (req (fresh_id sc) "shutdown" "")) in
  close_out p.oc;
  (try
     while true do
       ignore (input_line p.ic)
     done
   with End_of_file -> ());
  close_in p.ic;
  let _, status = Unix.waitpid [] p.pid in
  live := List.filter (fun x -> x <> p.pid) !live;
  is_ok ack && status = Unix.WEXITED 0

(* Set-up: spawn the server, load the session, run the warm-up window.
   Returns the process, the set-up time and the responses so far. *)
let open_session ?(wal = "wal") ~cli ~work ~shards sc =
  let t0 = U.now () in
  let p = spawn ~cli ~work ~wal ~shards in
  let load = call p sc.load in
  send p sc.windows.(0).lines;
  let warm = recv p 4 in
  let dt = U.now () -. t0 in
  let ok = is_ok (parse load) && check_window sc sc.windows.(0) ~warm:true warm in
  (p, dt, load :: warm, ok)

(* The total weight the solves of a window returned. *)
let returned_weight responses =
  List.fold_left
    (fun acc r ->
      match Option.bind (J.member "result" (parse r)) (J.member "weight") with
      | Some (J.Int w) -> acc + w
      | _ -> acc)
    0 responses

(* Time windows [first .. first + count - 1]; returns the window times
   (ms), the responses, the number of failed windows, and the solves'
   total weight with Greedy.by_weight's on the same content. *)
let drive p sc ~first ~count =
  let times = ref [] and transcript = ref [] and failed = ref 0 in
  let returned = ref 0 and greedy = ref 0 in
  for i = first to first + count - 1 do
    let w = sc.windows.(i) in
    let t0 = U.now () in
    send p w.lines;
    let rs = recv p 4 in
    times := U.ms_since t0 :: !times;
    transcript := List.rev_append rs !transcript;
    returned := !returned + returned_weight rs;
    greedy := !greedy + w.miss_weight + sc.base_weight;
    if not (check_window sc w ~warm:false rs) then incr failed
  done;
  (!times, List.rev !transcript, !failed, (!returned, !greedy))

let report p sc =
  match J.member "report" (parse (call p (req (fresh_id sc) "report" ""))) with
  | Some r -> r
  | None -> J.Null

let path keys j = List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) keys
let report_int keys r =
  match path keys r with
  | Some (J.Int i) -> i
  | _ -> U.die "server report has no %s" (String.concat "." keys)

let cache_hits stats = match path [ "cache"; "hits" ] stats with Some (J.Int h) -> h | _ -> -1

(* ------------------------------------------------------------------ *)
(* The same script through an in-process Server (shards 0) *)

let in_process ?wal () =
  Server.create { (Server.default_config ()) with wal_dir = wal; snapshot_every }

let handle srv line = List.map J.to_string (Server.handle_line srv line)

(* ------------------------------------------------------------------ *)
(* Runs *)

let time f =
  let t0 = U.now () in
  let x = f () in
  (x, U.ms_since t0)

let run_plain ~cli ~work ~seed ~seconds =
  let count = Stdlib.max min_windows (int_of_float (Float.ceil (rate *. float_of_int seconds))) in
  let sc = make_script ~work ~seed ~windows:(count + 1) in
  (* Set-up is made once before the first timed window and again, from
     scratch, at even intervals through the run: a second server with
     its own WAL directory opens the session and is shut down, while the
     timed server waits.  Its median then sees the same host as the
     windows do. *)
  let p, first_setup, _, first_ok = open_session ~cli ~work ~shards:0 sc in
  let setup = ref [ first_setup ] and setup_ok = ref first_ok and setup_wall = ref 0.0 in
  let times = ref [] and failed = ref 0 and returned = ref 0 and greedy = ref 0 in
  let t_start = U.now () in
  for k = 0 to setup_samples - 1 do
    (* windows [1 + k * count / setup_samples ..] *)
    let first = 1 + (k * count / setup_samples) in
    let last = (k + 1) * count / setup_samples in
    let ts, _, f, (r, g) = drive p sc ~first ~count:(last - first + 1) in
    times := ts @ !times;
    failed := !failed + f;
    returned := !returned + r;
    greedy := !greedy + g;
    if k < setup_samples - 1 then begin
      let t0 = U.now () in
      let q, dt, _, ok = open_session ~wal:"setup-wal" ~cli ~work ~shards:0 sc in
      let stopped = stop q sc in
      setup := dt :: !setup;
      setup_ok := !setup_ok && ok && stopped;
      setup_wall := !setup_wall +. (U.now () -. t0)
    end
  done;
  let wall_s = U.now () -. t_start -. !setup_wall in
  let stats = call p (req (fresh_id sc) "stats" "") in
  let rss = rss_kb p in
  let stopped = stop p sc in
  let checks =
    [
      ("setup_responses_ok", !setup_ok);
      ("cache_hits_match_script", cache_hits (parse stats) = count);
      ("clean_shutdown", stopped);
    ]
  in
  let weight_ratio = float_of_int !returned /. float_of_int !greedy in
  let metrics, notes =
    U.end_to_end ~setup:(List.rev !setup) ~ops:!times ~wall_s ~weight_ratio ~rss_kb:rss
  in
  { U.attempted = count; failed = !failed; checks; metrics; notes }

let run_traced ~cli ~work ~seed ~seconds =
  let count = Stdlib.max 10 (int_of_float (Float.ceil (rate *. float_of_int seconds)) / 4) in
  let sc = make_script ~work ~seed ~windows:((2 * count) + 1) in
  let stats_line = req (fresh_id sc) "stats" "" in
  let failed = ref 0 in
  (* (a) the server at shards 0 and (b) at shards 2, on the same lines:
     their transcripts must be byte-identical, and the difference of
     their windows is the router's share. *)
  let session shards =
    let p, _, head, ok = open_session ~cli ~work ~shards sc in
    let before = report p sc in
    let times, transcript, f, _ = drive p sc ~first:1 ~count in
    let stats = call p stats_line in
    let after = report p sc in
    let stopped = stop p sc in
    failed := !failed + f;
    let per_op keys =
      float_of_int (report_int keys after - report_int keys before) /. float_of_int count
    in
    (* Only a router's report has a shard block. *)
    let restarts, shard_metrics =
      if shards = 0 then (0, [])
      else
        ( report_int [ "shard"; "router"; "worker_restarts" ] after,
          [
            ( "transport.bytes_per_op",
              per_op [ "shard"; "transport"; "bytes_sent" ]
              +. per_op [ "shard"; "transport"; "bytes_received" ] );
            ("transport.messages_per_op", per_op [ "shard"; "transport"; "messages" ]);
            ("router.migrations_per_op", per_op [ "shard"; "router"; "migrations" ]);
          ] )
    in
    ( U.median times,
      head @ transcript @ [ stats ],
      ok && stopped && cache_hits (parse stats) = count,
      restarts,
      shard_metrics )
  in
  let sub0, transcript0, ok0, _, _ = session 0 in
  let sub2, transcript2, ok2, restarts, shard_metrics = session 2 in
  (* (c) the same windows in process, with a WAL: odd windows plain,
     even windows traced, line by line. *)
  let wal = Filename.concat work "inproc-wal" in
  U.rm_rf wal;
  let srv = in_process ~wal () in
  let _, load_ms = time (fun () -> handle srv sc.load) in
  ignore (List.concat_map (handle srv) sc.windows.(0).lines);
  let plain = ref [] and traced = ref [] and lines = ref [] and layer = ref [] in
  let sample k v = layer := (k, v) :: !layer in
  let counter c = Obs.counter_value Obs.default c in
  let counters = [ "fault.snapshots"; "fault.wal_records"; "fault.wal_bytes"; "serve.cache.hits"; "serve.cache.misses" ] in
  for i = 1 to 2 * count do
    let w = sc.windows.(i) in
    if i mod 2 = 1 then begin
      let rs, ms = time (fun () -> List.concat_map (handle srv) w.lines) in
      if not (check_window sc w ~warm:false rs) then incr failed;
      plain := ms :: !plain
    end
    else begin
      let before = List.map counter counters in
      Trace.set_enabled true;
      let per_line =
        List.map
          (fun l ->
            let s0 = counter "fault.snapshots" in
            let rs, ms = time (fun () -> U.span "server.handle_line" (fun () -> Server.handle_line srv l)) in
            (rs, ms, float_of_int (counter "fault.snapshots" - s0)))
          w.lines
      in
      Trace.set_enabled false;
      let deltas = List.map2 (fun c b -> float_of_int (counter c - b)) counters before in
      let responses = List.concat_map (fun (rs, _, _) -> rs) per_line in
      let rendered, render_ms = time (fun () -> List.map J.to_string responses) in
      if not (check_window sc w ~warm:false rendered) then incr failed;
      let _, parse_ms = time (fun () -> List.iter (fun l -> ignore (Protocol.parse_request l)) w.lines) in
      traced := List.fold_left (fun acc (_, ms, _) -> acc +. ms) 0.0 per_line :: !traced;
      lines := Array.of_list (List.map (fun (_, ms, snaps) -> (ms, snaps)) per_line) :: !lines;
      List.iter2 sample
        [ "snapshot.writes_per_op"; "wal.records_per_op"; "wal.bytes_per_op"; "cache.hits"; "cache.misses" ]
        deltas;
      sample "protocol.parse_us" (parse_ms *. 1000.0);
      sample "json.render_us" (render_ms *. 1000.0)
    end
  done;
  ignore (Server.eof srv);
  Probe.require_counters counters;
  U.rm_rf wal;
  (* (d) the traced windows' graph-layer work, as standalone calls, after
     the replay so their garbage does not land in its windows *)
  let snap_dir = Filename.concat work "snapshots" in
  U.mkdir_p snap_dir;
  let digest = Gio.digest sc.base in
  for i = 1 to count do
    let w = sc.windows.(2 * i) in
    let g1, patch_ms = time (fun () -> patched sc.base w.delta) in
    sample "weighted_graph.patch_ms" patch_ms;
    sample "greedy.by_weight_ms" (snd (time (fun () -> Wm_algos.Greedy.by_weight g1)));
    sample "graph_io.digest_ms" (snd (time (fun () -> Gio.digest g1)));
    sample "graph_io.to_binary_ms" (snd (time (fun () -> Gio.to_binary g1)));
    (* The snapshot a window writes is of the session at its base content. *)
    sample "snapshot.write_ms"
      (snd
         (time (fun () ->
              Wm_serve.Snapshot.write ~dir:snap_dir
                { origin = 1; lsn = i; digest; generation = 0; graph = sc.base; warm = [] })))
  done;
  let all k = List.filter_map (fun (k', v) -> if k = k' then Some v else None) !layer in
  let med k = U.median (all k) and avg k = U.mean (all k) in
  (* A line's own time, less the snapshot its WAL commit may have
     written (the alignment puts the window's one snapshot on the same
     line every time). *)
  let snap_ms = med "snapshot.write_ms" in
  let own t i = fst t.(i) -. (snd t.(i) *. snap_ms) in
  let verb f = U.median (List.map f !lines) in
  let inproc_plain = U.median !plain and inproc_traced = U.median !traced in
  let hits = List.fold_left ( +. ) 0.0 (all "cache.hits")
  and misses = List.fold_left ( +. ) 0.0 (all "cache.misses") in
  let covered =
    (2.0 *. med "graph_io.digest_ms") +. med "weighted_graph.patch_ms" +. med "greedy.by_weight_ms"
    +. (avg "snapshot.writes_per_op" *. snap_ms)
    +. ((med "protocol.parse_us" +. med "json.render_us") /. 1000.0)
  in
  let metrics =
    [
      ("server.load_ms", load_ms);
      (* add_edges; remove_edges first flushes the queued miss, then
         mutates; the blank line flushes the queued hit. *)
      ("server.mutate_ms", verb (fun t -> own t 0));
      ("server.solve_miss_ms", verb (fun t -> own t 1 +. own t 2 -. own t 0));
      ("server.solve_hit_ms", verb (fun t -> own t 3 +. own t 4));
      ("graph_io.digest_ms", med "graph_io.digest_ms");
      ("weighted_graph.patch_ms", med "weighted_graph.patch_ms");
      ("greedy.by_weight_ms", med "greedy.by_weight_ms");
      ("graph_io.to_binary_ms", med "graph_io.to_binary_ms");
      ("snapshot.write_ms", snap_ms);
      ("protocol.parse_us", med "protocol.parse_us");
      ("json.render_us", med "json.render_us");
      ("snapshot.writes_per_op", avg "snapshot.writes_per_op");
      ("wal.records_per_op", avg "wal.records_per_op");
      ("wal.bytes_per_op", avg "wal.bytes_per_op");
      ("cache.hit_ratio", hits /. Float.max 1.0 (hits +. misses));
      ("serve.pipe_ms", sub0 -. inproc_plain);
      ("router.overhead_ms", sub2 -. sub0);
      ("trace.overhead_frac", (inproc_traced /. inproc_plain) -. 1.0);
      ("layer.unattributed_frac", (inproc_traced -. covered) /. sub0);
    ]
    @ shard_metrics
  in
  {
    U.attempted = 4 * count;
    failed = !failed;
    checks =
      [
        ("sessions_ok", ok0 && ok2);
        ("shards_2_transcript_identical", transcript2 = transcript0);
        ("shards_2_worker_restarts_zero", restarts = 0);
      ];
    metrics;
    notes =
      [
        ("windows_per_mode", J.Int count);
        ("window_ms", J.Obj (List.map (fun (k, v) -> (k, J.Float v))
           [ ("shards_0", sub0); ("shards_2", sub2);
             ("in_process", inproc_plain); ("in_process_traced", inproc_traced) ]));
        ( "snapshots_by_line",
          J.List (List.init 5 (fun i -> J.Float (U.mean (List.map (fun t -> snd t.(i)) !lines)))) );
      ];
  }
