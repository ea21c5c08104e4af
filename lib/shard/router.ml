(* The shard router.

   The router *is* a stock [Wm_serve.Server]: admission control, chaos
   draws, the client-visible LRU result cache, warm-start bookkeeping,
   mutation re-keying, stats and response rendering all run here,
   unchanged — which is what makes transcripts byte-identical across
   [--shards] settings by construction.  Only batch execution is
   delegated: the server's [delegate] hands each flush's
   deduplicated leader jobs to this module, which groups them by
   consistent-hash home, ships any graphs the home worker does not yet
   hold, and replays the pre-drawn chaos plan on a worker that is
   itself a stock server with faults disabled.

   Failure model: every worker interaction is a dispatch *group* —
   loads, then solves, then a blank-line boundary — whose requests are
   all idempotent (loads are content-addressed; solves are
   deterministic given the carried plan).  Any [Endpoint.Dead] mid-
   group therefore kills, respawns (the replacement recovers its
   [wal_dir] via the durability path), resets the held-graph roster,
   and resends the whole group: the retried responses are the ones the
   first attempt would have committed. *)

module J = Wm_obs.Json
module Server = Wm_serve.Server
module Wal = Wm_serve.Wal
module Protocol = Wm_serve.Protocol
module Meter = Wm_mpc.Meter
module Gio = Wm_graph.Graph_io

type slot = {
  shard : int;
  mutable ep : Endpoint.t;
  held : (string, unit) Hashtbl.t;  (* digests the worker has loaded *)
  mutable restarts : int;
  mutable dispatches : int;
  meter : Meter.t;
}

type t = {
  shards : int;
  ring : Ring.t;
  slots : slot array;
  spawn : int -> Endpoint.t;
  kill_plan : (int * int) option;
  mutable kill_done : bool;
  mutable migrations : int;
  mutable next_rpc : int;
  mutable server : Server.t option;
}

let server t = Option.get t.server
let migrations t = t.migrations
let restarts t = Array.fold_left (fun acc s -> acc + s.restarts) 0 t.slots

let fresh_rpc t =
  let id = t.next_rpc in
  t.next_rpc <- id + 1;
  id

(* ------------------------------------------------------------------ *)
(* Metered wire primitives *)

let send t slot line =
  ignore t;
  Meter.op slot.meter ~label:"send" ~round:slot.dispatches
    ~rounds:slot.dispatches
    ~words:(String.length line + 1)
    ~max_load:(String.length line + 1);
  slot.ep.Endpoint.send line

let recv slot =
  let line = slot.ep.Endpoint.recv () in
  Meter.op slot.meter ~label:"recv" ~round:slot.dispatches
    ~rounds:slot.dispatches
    ~words:(String.length line + 1)
    ~max_load:(String.length line + 1);
  line

let parse_resp line =
  match J.of_string line with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "shard router: bad response line: %s" e)

let int_member name j =
  match J.member name j with Some (J.Int i) -> Some i | _ -> None

let str_member name j =
  match J.member name j with Some (J.Str s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Failover *)

let revive t slot =
  (try slot.ep.Endpoint.kill () with Endpoint.Dead -> ());
  slot.ep <- t.spawn slot.shard;
  slot.restarts <- slot.restarts + 1;
  Wm_fault.Recovery.note_worker_restart ();
  Meter.op slot.meter ~label:"restart" ~round:slot.dispatches
    ~rounds:slot.dispatches ~words:0 ~max_load:0;
  (* The replacement recovered whatever its WAL held, but the roster is
     cheap to re-establish lazily, so start from nothing held. *)
  Hashtbl.reset slot.held;
  let id = fresh_rpc t in
  send t slot (Protocol.ping_line ~id);
  match str_member "status" (parse_resp (recv slot)) with
  | Some "ok" -> ()
  | _ ->
      failwith
        (Printf.sprintf "shard router: %s failed its revival ping"
           slot.ep.Endpoint.describe)

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let run_group t slot jobs =
  slot.dispatches <- slot.dispatches + 1;
  let needed =
    List.rev
      (List.fold_left
         (fun acc j ->
           if
             Hashtbl.mem slot.held j.Server.job_digest
             || List.mem_assoc j.Server.job_digest acc
           then acc
           else (j.Server.job_digest, j.Server.job_graph) :: acc)
         [] jobs)
  in
  let loads = List.map (fun (d, g) -> (fresh_rpc t, d, Gio.to_string g)) needed in
  List.iter
    (fun (id, _, text) -> send t slot (Protocol.load_line ~id ~graph:text))
    loads;
  List.iter
    (fun j ->
      let chaos =
        Some
          {
            Protocol.expire_round = j.Server.job_expire;
            crashes = j.Server.job_crashes;
            warm =
              Option.map
                (fun m -> Protocol.hex_encode (Gio.matching_to_binary m))
                j.Server.job_warm;
            want_matching = true;
          }
      in
      send t slot
        (Protocol.solve_line ~id:j.Server.job_id ~digest:j.Server.job_digest
           ~params:j.Server.job_params ~chaos))
    jobs;
  send t slot "";
  (* The fault-injection hook: SIGKILL the worker after its Nth dispatch
     group went out, before any response is read — the revive path must
     recover it and resend this very group. *)
  (match t.kill_plan with
  | Some (k, n) when (not t.kill_done) && k = slot.shard && n = slot.dispatches
    ->
      t.kill_done <- true;
      slot.ep.Endpoint.kill ()
  | _ -> ());
  (* Loads are boundary verbs answered immediately and in order; the
     blank line then flushes the solves in arrival order.  Exactly
     [#loads + #solves] responses, no more, no less. *)
  List.iter
    (fun (id, d, _) ->
      let r = parse_resp (recv slot) in
      (match int_member "id" r with
      | Some got when got = id -> ()
      | _ -> failwith "shard router: out-of-order load response");
      match (str_member "status" r, str_member "digest" r) with
      | Some "ok", Some got when got = d -> Hashtbl.replace slot.held d ()
      | Some "ok", _ ->
          failwith
            (Printf.sprintf "shard router: %s re-keyed shipped session %s"
               slot.ep.Endpoint.describe d)
      | _ ->
          failwith
            (Printf.sprintf "shard router: %s rejected load of %s"
               slot.ep.Endpoint.describe d))
    loads;
  List.map
    (fun j ->
      let r = parse_resp (recv slot) in
      (match int_member "id" r with
      | Some got when got = j.Server.job_id -> ()
      | _ -> failwith "shard router: out-of-order solve response");
      let outcome =
        match str_member "status" r with
        | Some "ok" -> (
            match (J.member "result" r, str_member "matching" r) with
            | Some result, Some hex ->
                `Ok (result, Gio.matching_of_binary (Protocol.hex_decode hex))
            | _ -> `Error "shard worker answered ok without result/matching")
        | Some "deadline" -> (
            (* Deadline partials never enter the cache or the warm
               table, so the matching is not carried back. *)
            match J.member "result" r with
            | Some result -> `Deadline (result, Wm_graph.Matching.create 0)
            | None -> `Error "shard worker answered deadline without result")
        | Some "error" -> (
            match str_member "error" r with
            | Some msg -> `Error msg
            | None -> `Error "shard worker error")
        | Some other -> `Error ("unexpected shard worker status: " ^ other)
        | None -> `Error "shard worker response without status"
      in
      (j.Server.job_key, outcome))
    jobs

let max_group_tries = 5

let rec dispatch_group t slot jobs tries =
  match run_group t slot jobs with
  | results -> results
  | exception Endpoint.Dead ->
      if tries >= max_group_tries then
        failwith
          (Printf.sprintf
             "shard router: shard %d did not come back after %d attempts"
             slot.shard max_group_tries)
      else begin
        (try revive t slot with Endpoint.Dead -> ());
        dispatch_group t slot jobs (tries + 1)
      end

let execute t jobs =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let h = Ring.home t.ring j.Server.job_digest in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups h) in
      Hashtbl.replace groups h (j :: cur))
    jobs;
  let outcomes = Hashtbl.create 16 in
  for k = 0 to t.shards - 1 do
    match Hashtbl.find_opt groups k with
    | None -> ()
    | Some rev ->
        List.iter
          (fun (key, o) -> Hashtbl.replace outcomes key o)
          (dispatch_group t t.slots.(k) (List.rev rev) 1)
  done;
  List.map
    (fun j -> (j.Server.job_key, Hashtbl.find outcomes j.Server.job_key))
    jobs

(* ------------------------------------------------------------------ *)
(* Control-plane forwarding (rekey migration, evictions) *)

let forward t slot line =
  try
    send t slot line;
    ignore (parse_resp (recv slot))
  with Endpoint.Dead ->
    (* The replacement restarted from its own WAL and the roster was
       reset, so whatever this request was tearing down is already
       unreachable; nothing to resend. *)
    (try revive t slot with Endpoint.Dead -> ())

let drop t = function
  | Some d ->
      let slot = t.slots.(Ring.home t.ring d) in
      if Hashtbl.mem slot.held d then begin
        Hashtbl.remove slot.held d;
        forward t slot (Protocol.evict_line ~id:(fresh_rpc t) ~digest:(Some d))
      end
  | None ->
      Array.iter
        (fun slot ->
          if Hashtbl.length slot.held > 0 then begin
            Hashtbl.reset slot.held;
            forward t slot (Protocol.evict_line ~id:(fresh_rpc t) ~digest:None)
          end)
        t.slots

(* The fronting server's observer.  A mutation re-key is a migration,
   and migration is plain eviction + lazy re-load: drop the stale
   content at the old home now; the next solve on the new digest ships
   the rebuilt graph (and the router-held warm state) to the new
   home.  It sees live effects only, so a restored router replays its
   WAL without re-counting migrations or re-sending evictions. *)
let observe t = function
  | Wal.Mutate { old_digest; new_digest; _ } ->
      if Ring.home t.ring old_digest <> Ring.home t.ring new_digest then
        t.migrations <- t.migrations + 1;
      drop t (Some old_digest)
  | Wal.Evict { digest } -> drop t digest
  | Wal.Load _ | Wal.Flush _ | Wal.Stop | Wal.Base _ -> ()

(* ------------------------------------------------------------------ *)
(* Merged observability *)

let worker_report t slot =
  let attempt () =
    send t slot (Protocol.report_line ~id:(fresh_rpc t));
    match J.member "report" (parse_resp (recv slot)) with
    | Some rep -> rep
    | None -> failwith "shard router: report response carried no report"
  in
  try attempt ()
  with Endpoint.Dead -> (
    (try revive t slot with Endpoint.Dead -> ());
    (* A freshly revived worker's (near-empty) report is an honest
       account of what that incarnation has done. *)
    try attempt () with Endpoint.Dead -> J.Obj [])

let shard_block t =
  let reports = Array.map (fun slot -> (slot, worker_report t slot)) t.slots in
  let serve_of rep =
    match J.member "serve" rep with Some s -> s | None -> J.Obj []
  in
  let counters_of rep =
    match J.member "counters" (serve_of rep) with Some c -> c | None -> J.Obj []
  in
  let messages slot =
    Meter.ops slot.meter ~label:"send" + Meter.ops slot.meter ~label:"recv"
  in
  let sum f = Array.fold_left (fun acc slot -> acc + f slot) 0 t.slots in
  let per_shard =
    Array.to_list
      (Array.map
         (fun (slot, rep) ->
           let load =
             match int_member "solves" (counters_of rep) with
             | Some n -> n
             | None -> 0
           in
           J.Obj
             [
               ("shard", J.Int slot.shard);
               ("restarts", J.Int slot.restarts);
               ("messages", J.Int (messages slot));
               ("bytes_sent", J.Int (Meter.words slot.meter ~label:"send"));
               ("bytes_received", J.Int (Meter.words slot.meter ~label:"recv"));
               ("load", J.Int load);
               ("serve", serve_of rep);
               ( "histograms",
                 match J.member "histograms" rep with
                 | Some h -> h
                 | None -> J.Obj [] );
             ])
         reports)
  in
  let totals =
    Array.fold_left
      (fun acc (_, rep) -> J.merge_sum acc (counters_of rep))
      (J.Obj []) reports
  in
  J.Obj
    [
      ("shards", J.Int t.shards);
      ( "router",
        J.Obj
          [
            ("migrations", J.Int t.migrations);
            ("worker_restarts", J.Int (restarts t));
            ("sessions", J.Int (List.length (Server.sessions (server t))));
          ] );
      ( "transport",
        J.Obj
          [
            ("messages", J.Int (sum messages));
            ( "bytes_sent",
              J.Int (sum (fun s -> Meter.words s.meter ~label:"send")) );
            ( "bytes_received",
              J.Int (sum (fun s -> Meter.words s.meter ~label:"recv")) );
          ] );
      ("totals", totals);
      ("per_shard", J.List per_shard);
    ]

let merged_report t =
  match Server.report_json (server t) with
  | J.Obj fields ->
      let block = shard_block t in
      J.Obj
        (List.map (fun (k, v) -> if k = "shard" then (k, block) else (k, v)) fields)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~shards ?(vnodes = 64) ?kill ~spawn ~config () =
  if shards < 1 then invalid_arg "Router.create: need at least one shard";
  let t =
    {
      shards;
      ring = Ring.create ~shards ~vnodes ();
      slots =
        Array.init shards (fun k ->
            {
              shard = k;
              ep = spawn k;
              held = Hashtbl.create 8;
              restarts = 0;
              dispatches = 0;
              meter = Meter.create ~section:"shard.ops" ~counters:"shard" ();
            });
      spawn;
      kill_plan = kill;
      kill_done = false;
      migrations = 0;
      next_rpc = 1_000_000_000;
      server = None;
    }
  in
  let delegate =
    {
      Server.execute = execute t;
      observe = observe t;
      report = (fun () -> merged_report t);
    }
  in
  t.server <-
    Some (Server.create { config with Server.delegate = Some delegate });
  t

let worker_config ~base ~shard ~wal_root =
  {
    base with
    Server.shard_id = shard;
    faults =
      {
        Wm_fault.Spec.none with
        max_attempts = base.Server.faults.Wm_fault.Spec.max_attempts;
      };
    wal_dir =
      Option.map
        (fun root -> Filename.concat root (Printf.sprintf "shard-%d" shard))
        wal_root;
    crash_after = None;
  }

let shutdown_workers t =
  Array.iter
    (fun slot ->
      (try
         send t slot (Protocol.shutdown_line ~id:(fresh_rpc t));
         ignore (recv slot)
       with Endpoint.Dead -> ());
      try slot.ep.Endpoint.close () with Endpoint.Dead -> ())
    t.slots

let serve ~shards ?kill ~config ic oc =
  let wal_root = config.Server.wal_dir in
  let router_config =
    {
      config with
      Server.wal_dir = Option.map (fun root -> Filename.concat root "router") wal_root;
      crash_after = None;
    }
  in
  let spawn shard =
    Transport.spawn ~shard ~config:(worker_config ~base:config ~shard ~wal_root)
  in
  let t = create ~shards ?kill ~spawn ~config:router_config () in
  Server.run (server t) ic oc;
  let merged = merged_report t in
  shutdown_workers t;
  merged
