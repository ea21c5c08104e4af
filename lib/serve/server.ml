module J = Wm_obs.Json
module Obs = Wm_obs.Obs
module Ledger = Wm_obs.Ledger
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module ES = Wm_stream.Edge_stream
module Driver = Wm_core.Model_driver
module Injector = Wm_fault.Injector
module Recovery = Wm_fault.Recovery
module Spec = Wm_fault.Spec

(* One deduplicated leader solve, with everything pre-drawn at
   admission (chaos plan, warm-start matching), so executing it anywhere
   — a pool domain, another process — replays the single-process plan
   exactly. *)
type job = {
  job_key : string;
  job_id : int;  (** the batch-unique arrival number, echoed in responses *)
  job_digest : string;
  job_graph : G.t;
  job_params : Protocol.solve_params;
  job_warm : M.t option;
  job_expire : int option;
  job_crashes : int;
}

type outcome =
  [ `Ok of J.t * M.t | `Deadline of J.t * M.t | `Error of string ]

type delegate = {
  execute : job list -> (string * outcome) list;
  observe : Wal.body -> unit;
  report : unit -> J.t;
}

type config = {
  queue_depth : int;
  cache_entries : int;
  deadline_ms : int;
  faults : Spec.t;
  warm_start : bool;
  wal_dir : string option;
  snapshot_every : int;
  crash_after : int option;
  shard_id : int;
  delegate : delegate option;
}

let default_config () =
  {
    queue_depth = 16;
    cache_entries = 64;
    deadline_ms = 0;
    faults = Spec.default ();
    warm_start = true;
    wal_dir = None;
    snapshot_every = 8;
    crash_after = None;
    shard_id = 0;
    delegate = None;
  }

type recovery = {
  replayed : int;
  truncated_bytes : int;
  snapshots_restored : int;
  restore_ms : int;
}

(* serve.* instruments (DESIGN.md §4.2).  Counters are process-wide:
   several servers in one process share them, so tests read deltas. *)
let c_requests = Obs.counter Obs.default "serve.requests"
let c_loads = Obs.counter Obs.default "serve.loads"
let c_solves = Obs.counter Obs.default "serve.solves"
let c_hits = Obs.counter Obs.default "serve.cache.hits"
let c_misses = Obs.counter Obs.default "serve.cache.misses"
let c_overloaded = Obs.counter Obs.default "serve.overloaded"
let c_shed = Obs.counter Obs.default "serve.shed_requests"
let c_deadline = Obs.counter Obs.default "serve.deadline_expired"
let c_retries = Obs.counter Obs.default "serve.retries"
let c_errors = Obs.counter Obs.default "serve.errors"
let c_batches = Obs.counter Obs.default "serve.batches"
let c_evicts = Obs.counter Obs.default "serve.evicts"
let c_shutdowns = Obs.counter Obs.default "serve.shutdowns"
let c_mutations = Obs.counter Obs.default "serve.mutations"
let c_edges_added = Obs.counter Obs.default "serve.edges_added"
let c_edges_removed = Obs.counter Obs.default "serve.edges_removed"
let c_vertices_added = Obs.counter Obs.default "serve.vertices_added"
let c_warm = Obs.counter Obs.default "serve.warm_solves"
let c_compacted = Obs.counter Obs.default "serve.wal.compacted_records"
let h_latency = Obs.histogram Obs.default "serve.latency_ns"
let h_batch = Obs.histogram Obs.default "serve.batch_size"

(* The fixed counter vector persisted in every WAL record header.  The
   order is part of the on-disk format — append only.  Values are
   logged (and reported) relative to a per-server baseline captured at
   creation, so a restored server reproduces the crashed server's
   tallies byte-identically even though the underlying instruments are
   process-wide (and possibly shared with other servers, as in the
   in-process recovery experiment). *)
let counter_vec =
  [|
    c_requests; c_loads; c_solves; c_hits; c_misses; c_overloaded; c_shed;
    c_deadline; c_retries; c_errors; c_batches; c_evicts; c_shutdowns;
    c_mutations; c_edges_added; c_edges_removed; c_vertices_added; c_warm;
    c_compacted;
  |]

(* A loaded graph under its current content digest.  Mutation verbs
   rewrite [graph]/[digest] in place (the session object survives
   re-keying); [warm] maps canonical solve params to the last completed
   matching, the warm-start point for incremental re-solves. *)
type session = {
  origin : int;
      (** the LSN of the session's first load — its stable durable
          identity across digest re-keying ([reqno] when no WAL) *)
  mutable graph : G.t;
  mutable digest : string;
  mutable generation : int;  (** mutations applied since load *)
  warm : (string, M.t) Hashtbl.t;
}

(* An admitted solve: its job plus what only the fronting server
   needs to answer it. *)
type queued = {
  job : job;
  id : int;
  enqueued_ns : int;
  deadline_ns : int option;  (** wall-clock deadline *)
  want_matching : bool;
      (** internal solve: bypass the result cache, return the matching *)
}

type t = {
  config : config;
  cache : J.t Cache.t;
  sessions : (string, session) Hashtbl.t;
  mutable order : string list;  (** digests in load order *)
  mutable last : string option;  (** most recently loaded digest *)
  inj : Injector.t;
  mutable queue : queued list;  (** newest first *)
  mutable queue_len : int;
  mutable reqno : int;
  mutable batchno : int;
  mutable stopped : bool;
  base : int array;  (** per-server baseline for {!counter_vec} *)
  mutable wal : Wal.t option;
  mutable pending : Wal.body list;  (** this line's bodies, reversed *)
  mutable volatile_line : bool;
      (** the line in flight is a successful solve admission — queue
          contents are volatile by design, so it logs nothing and the
          WAL head stays at the last line whose effects are durable
          (the restart re-feeds and re-admits from there, replaying the
          same injector draws) *)
  mutable logged_hdr : Wal.header option;  (** last header appended *)
  mutable last_snap_lsn : int;
  mutable recovery : recovery option;
}

(* Counter value relative to this server's creation baseline (or the
   baseline reconstructed from the WAL on restore). *)
let rel t c =
  let v = ref (Obs.value c) in
  Array.iteri
    (fun i c' -> if c' == c then v := Obs.value c - t.base.(i))
    counter_vec;
  !v

let counter_vector t =
  Array.mapi (fun i c -> Obs.value c - t.base.(i)) counter_vec

let current_header t =
  {
    Wal.reqno = t.reqno;
    batchno = t.batchno;
    rng = Injector.rng_state t.inj;
    counters = counter_vector t;
  }

let stopped t = t.stopped
let recovery t = t.recovery

(* ------------------------------------------------------------------ *)
(* The state transition *)

exception Unrecoverable of string

let unrecoverable fmt =
  Printf.ksprintf (fun msg -> raise (Unrecoverable msg)) fmt

let patch g ~add_vertices ~add ~remove =
  let add = List.map (fun (u, v, w) -> Wm_graph.Edge.make u v w) add in
  G.patch g ~add_vertices ~add ~remove ()

(* The only code that changes [sessions], [order], [last], the cache and
   the warm tables.  Live handlers validate and compute first (parse,
   patch, digest, solve) and pass their effect here through [effect];
   WAL replay passes each decoded body, its content resolved by
   [restore].  [image] is a session's snapshot when a [Base] record
   installs it as a Load (default: the body's graph at generation 0, no
   warm state).  [graph] is a Mutate's patched graph, which both callers
   compute first. *)
let apply t ?image ?graph body =
  match body with
  | Wal.Load { origin; digest; graph = g } ->
      (* Re-loading live content keeps the existing session object —
         including its warm matchings, which are valid for identical
         content by construction. *)
      if not (Hashtbl.mem t.sessions digest) then begin
        let graph, generation, warm =
          match image with
          | Some s -> (s.Snapshot.graph, s.Snapshot.generation, s.Snapshot.warm)
          | None -> (g, 0, [])
        in
        let warm = Hashtbl.of_seq (List.to_seq warm) in
        t.order <- t.order @ [ digest ];
        Hashtbl.replace t.sessions digest
          { origin; graph; digest; generation; warm }
      end;
      t.last <- Some digest
  | Wal.Mutate { old_digest; new_digest; subsumed; _ } ->
      (* If the new content collides with another live session, this
         session subsumes it (identical graphs); the stale order slot is
         dropped so each digest is listed once. *)
      let s = Hashtbl.find t.sessions old_digest in
      Hashtbl.remove t.sessions old_digest;
      Hashtbl.replace t.sessions new_digest s;
      t.order <-
        (if subsumed then List.filter (fun x -> x <> old_digest) t.order
         else
           List.map
             (fun x -> if x = old_digest then new_digest else x)
             t.order);
      if t.last = Some old_digest then t.last <- Some new_digest;
      s.digest <- new_digest;
      s.graph <- Option.get graph;
      s.generation <- s.generation + 1
  | Wal.Evict { digest = None } ->
      Hashtbl.reset t.sessions;
      t.order <- [];
      t.last <- None;
      Cache.clear t.cache
  | Wal.Evict { digest = Some d } ->
      Hashtbl.remove t.sessions d;
      t.order <- List.filter (fun x -> x <> d) t.order;
      (if t.last = Some d then
         t.last <- (match List.rev t.order with [] -> None | x :: _ -> Some x));
      (* Cached results of an evicted graph must not outlive it. *)
      ignore
        (Cache.remove_where t.cache (fun k ->
             String.starts_with ~prefix:(d ^ "|") k))
  | Wal.Flush { touches; inserts; warm } ->
      List.iter (fun k -> ignore (Cache.find t.cache k)) touches;
      List.iter (fun (k, v) -> Cache.add t.cache k v) inserts;
      List.iter
        (fun (d, params, m) ->
          Hashtbl.replace (Hashtbl.find t.sessions d).warm params m)
        warm
  | Wal.Stop -> t.stopped <- true
  | Wal.Base { last; stopped; cache; evictions; _ } ->
      (* [restore] has installed the base's sessions as Loads of their
         snapshots; the rest of the compacted state is bookkeeping. *)
      t.last <- last;
      t.stopped <- stopped;
      List.iter (fun (k, v) -> Cache.add t.cache k v) cache;
      Cache.set_evictions t.cache evictions

(* A live effect: applied, queued for this line's WAL record, and shown
   to the observer.  Replay calls [apply] alone, so the observer never
   sees restored history. *)
let effect t ?graph body =
  apply t ?graph body;
  if t.wal <> None then t.pending <- body :: t.pending;
  Option.iter (fun d -> d.observe body) t.config.delegate

(* ------------------------------------------------------------------ *)
(* Durability: WAL commit, snapshots, restore (DESIGN.md §5.5) *)

let write_snapshots t =
  match (t.wal, t.config.wal_dir) with
  | Some w, Some dir ->
      let lsn = Wal.head w in
      let live = List.map (Hashtbl.find t.sessions) t.order in
      List.iter
        (fun s ->
          let warm =
            Hashtbl.fold (fun k m acc -> (k, m) :: acc) s.warm []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          ignore
            (Snapshot.write ~dir
               {
                 Snapshot.origin = s.origin;
                 lsn;
                 digest = s.digest;
                 generation = s.generation;
                 graph = s.graph;
                 warm;
               }))
        live;
      t.last_snap_lsn <- lsn;
      (* WAL compaction: every live session now has a snapshot at
         [lsn], so the whole prefix of the log collapses into one
         [Base] record — bookkeeping that is not derivable from the
         snapshots (session order, last-loaded digest, cache LRU state)
         — and the log stops growing with history.  The base keeps the
         {e logical} LSN, so snapshot LSNs and later records replay
         unchanged.  After compaction the snapshots are load-bearing: a
         lost snapshot can no longer be rebuilt from dropped Load
         records, and restore fails loudly rather than resurrecting a
         partial state. *)
      let dropped = Wal.physical w - 1 in
      if dropped > 0 then begin
        Wal.compact w
          {
            Wal.header = current_header t;
            bodies =
              [
                Wal.Base
                  {
                    lsn;
                    order = List.map (fun s -> (s.origin, s.digest)) live;
                    last = t.last;
                    stopped = t.stopped;
                    cache = Cache.dump t.cache;
                    evictions = Cache.evictions t.cache;
                  };
              ];
          };
        (* Snapshot GC happens here and only here: the compacted log
           names just the live origins at [lsn], so any other snapshot
           — an older version, an evicted session's, or one merged into
           another by mutation — is dead.  Deleting it before the
           compaction is durable would strand the records that still
           name it. *)
        Snapshot.gc ~dir ~lsn ~live:(List.map (fun s -> s.origin) live);
        Obs.add c_compacted dropped;
        Recovery.note_wal_compacted ~records:dropped
      end
  | _ -> ()

(* End-of-line commit: append (and fsync) one record carrying this
   line's state effects and the end-of-line header.  Called before the
   line's responses are emitted, so an acknowledged effect is always
   recoverable.  Lines that changed nothing (a blank line over an empty
   queue, say) append nothing. *)
let commit t =
  let volatile = t.volatile_line in
  t.volatile_line <- false;
  match t.wal with
  | None -> t.pending <- []
  | Some _ when volatile -> t.pending <- []
  | Some w ->
      let bodies = List.rev t.pending in
      t.pending <- [];
      let hdr = current_header t in
      if bodies <> [] || t.logged_hdr <> Some hdr then begin
        let lsn = Wal.append w { Wal.header = hdr; bodies } in
        t.logged_hdr <- Some hdr;
        if
          List.mem Wal.Stop bodies
          || t.config.snapshot_every > 0
             && lsn - t.last_snap_lsn >= t.config.snapshot_every
        then write_snapshots t
      end

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Rebuild the state a wal-dir holds by running every logged body
   through [apply], as the live handlers ran it.  Snapshots are read
   only for a compacted log's [Base] record: each session it names is
   installed from its snapshot at the base's LSN.  Every other record
   replays in full — a Load from its logged graph, a Mutate by [patch]
   plus the digest check, a Flush with its cache and warm updates. *)
let restore t dir =
  mkdir_p dir;
  let t0 = Obs.now_ns () in
  let records, truncated_bytes = Wal.scan ~dir in
  let physical = List.length records in
  (* A compacted log opens with a base record standing at its original
     logical LSN; later records (and the head) are offset past it so
     snapshot LSNs keep matching. *)
  let base_off =
    match records with
    | { Wal.bodies = Wal.Base { lsn; _ } :: _; _ } :: _ -> lsn - 1
    | _ -> 0
  in
  let head = physical + base_off in
  let restored = ref 0 in
  let replay lsn body =
    match body with
    | Wal.Base { order; _ } ->
        (* The compaction point wrote one snapshot per live session at
           exactly this LSN, and the Load records below it are gone, so
           a missing snapshot is unrecoverable — fail loudly rather than
           resurrect a partial state. *)
        let snaps = Snapshot.load_all ~dir in
        List.iter
          (fun (origin, digest) ->
            match
              List.find_opt
                (fun ((s : Snapshot.s), _) -> s.origin = origin && s.lsn = lsn)
                snaps
            with
            | Some (s, bytes) ->
                incr restored;
                Recovery.note_snapshot_restore ~bytes ~at:lsn;
                apply t ~image:s
                  (Wal.Load { origin; digest; graph = s.Snapshot.graph })
            | None ->
                unrecoverable
                  "wal replay: compacted log names session %s but its \
                   snapshot is missing"
                  digest)
          order;
        t.last_snap_lsn <- lsn;
        apply t body
    | Wal.Mutate { old_digest; new_digest; add_vertices; add; remove; _ } ->
        let s =
          match Hashtbl.find_opt t.sessions old_digest with
          | Some s -> s
          | None ->
              unrecoverable "wal replay: LSN %d names unknown session %s" lsn
                old_digest
        in
        let g' = patch s.graph ~add_vertices ~add ~remove in
        if Wm_graph.Graph_io.digest g' <> new_digest then
          unrecoverable "wal replay: mutate digest mismatch at LSN %d" lsn;
        apply t ~graph:g' body
    | Wal.Load _ | Wal.Flush _ | Wal.Evict _ | Wal.Stop -> apply t body
  in
  List.iteri
    (fun i r -> List.iter (replay (i + 1 + base_off)) r.Wal.bodies)
    records;
  (match List.rev records with
  | [] -> ()
  | { Wal.header = h; _ } :: _ ->
      t.reqno <- h.Wal.reqno;
      t.batchno <- h.Wal.batchno;
      (match h.Wal.rng with
      | Some v -> Injector.set_rng_state t.inj v
      | None -> ());
      (* Rewrite the baseline — never the process-wide counters — so
         this server's relative tallies resume exactly where the
         crashed server's left off. *)
      Array.iteri
        (fun i c ->
          if i < Array.length h.Wal.counters then
            t.base.(i) <- Obs.value c - h.Wal.counters.(i))
        counter_vec);
  if physical > 0 then Recovery.note_wal_replay ~records:physical;
  t.wal <- Some (Wal.open_log ~dir ~head ~physical);
  t.recovery <-
    Some
      {
        replayed = physical;
        truncated_bytes;
        snapshots_restored = !restored;
        restore_ms = (Obs.now_ns () - t0) / 1_000_000;
      }

let create config =
  let t =
    {
      config;
      cache = Cache.create ~capacity:config.cache_entries;
      sessions = Hashtbl.create 16;
      order = [];
      last = None;
      inj = Injector.create ~salt:5 ~section:"serve.faults" config.faults;
      queue = [];
      queue_len = 0;
      reqno = 0;
      batchno = 0;
      stopped = false;
      base = Array.map Obs.value counter_vec;
      wal = None;
      pending = [];
      volatile_line = false;
      logged_hdr = None;
      last_snap_lsn = 0;
      recovery = None;
    }
  in
  (match config.wal_dir with None -> () | Some dir -> restore t dir);
  t.logged_hdr <- Some (current_header t);
  Obs.gauge Obs.default "serve.queue_depth" (fun () -> t.queue_len);
  Obs.gauge Obs.default "serve.sessions" (fun () -> Hashtbl.length t.sessions);
  Obs.gauge Obs.default "serve.cache.entries" (fun () -> Cache.length t.cache);
  t

let sessions t =
  List.map
    (fun d ->
      let s = Hashtbl.find t.sessions d in
      (d, G.n s.graph, G.m s.graph))
    t.order

let ledger_row t ~label ~id ~cached ~status ~latency_ns =
  Ledger.record ~label Ledger.default ~section:"serve.requests"
    [
      ("id", id);
      ("batch", t.batchno);
      ("cached", if cached then 1 else 0);
      ("status", Protocol.status_code status);
      ("latency_us", latency_ns / 1000);
    ]

(* [ack] answers an accepted, untimed request; [refuse] answers a
   request that fails before it is queued or applied, with one
   [serve.errors] bump.  Each writes the request's one ledger row. *)
let ack t ~label ~id fields =
  ledger_row t ~label ~id ~cached:false ~status:"ok" ~latency_ns:0;
  Protocol.response ~id ~status:"ok" fields

let refuse t ?(latency_ns = 0) ~label ~id msg =
  Obs.incr c_errors;
  ledger_row t ~label ~id ~cached:false ~status:"error" ~latency_ns;
  Protocol.error_response ~id msg

(* The session a request names: its digest, else the last one loaded. *)
let resolve t digest =
  match (match digest with Some d -> Some d | None -> t.last) with
  | None -> Error "no session loaded (load a graph first)"
  | Some d -> (
      match Hashtbl.find_opt t.sessions d with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "unknown session digest %s" d))

(* ------------------------------------------------------------------ *)
(* Solve execution (runs on pool domains) *)

(* Warm re-solves converge from a repaired previous matching, so they
   get a much shorter dry-round patience than the cold default of 4:
   the delta left to absorb is small and localised, so a single
   gainless round is already strong evidence of convergence — and the
   T10 certification table pins the quality cost of stopping early. *)
let cold_patience = 4
let warm_patience = 1

let execute t ~deadline_ns (j : job) =
  let deadline_hit = ref false in
  let cancel ~rounds_run =
    let injected =
      match j.job_expire with Some k -> rounds_run >= k | None -> false
    in
    let wall =
      match deadline_ns with Some d -> Obs.now_ns () > d | None -> false
    in
    if injected || wall then deadline_hit := true;
    injected || wall
  in
  let params =
    Wm_core.Params.practical ~epsilon:j.job_params.Protocol.epsilon ()
  in
  let attempts = (Injector.spec t.inj).Spec.max_attempts in
  let crashes_left = ref j.job_crashes in
  (* One attempt: [(matching, warm, rounds, passes, mpc_rounds)]. *)
  let body () =
    (* Replay the pre-drawn serve-level crash plan: each planned crash
       aborts one attempt; Recovery.with_retry below re-runs the solve
       from scratch (solves are pure in (graph, params, seed), so the
       replay commits the same result the fault-free run would). *)
    if !crashes_left > 0 then begin
      decr crashes_left;
      raise (Injector.Injected_crash { site = "serve.solve"; at = j.job_id })
    end;
    deadline_hit := false;
    let rng = P.create j.job_params.Protocol.seed in
    let patience =
      match j.job_warm with Some _ -> warm_patience | None -> cold_patience
    in
    match j.job_params.Protocol.algo with
    | Protocol.Greedy ->
        (* Single-shot: no round structure, so the deadline is checked
           once, up front; warm starts don't apply. *)
        if cancel ~rounds_run:0 then
          (M.create (G.n j.job_graph), false, 0, 0, 0)
        else (Wm_algos.Greedy.by_weight j.job_graph, false, 0, 1, 0)
    | Protocol.Streaming ->
        let r =
          Driver.streaming ~patience ?init:j.job_warm ~cancel params rng
            (ES.of_graph j.job_graph)
        in
        Driver.(r.matching, r.warm, r.rounds_run, r.passes, 0)
    | Protocol.Mpc ->
        let r =
          Driver.mpc ~patience ?init:j.job_warm ~cancel params rng
            (Driver.mpc_cluster j.job_graph) j.job_graph
        in
        Driver.(r.matching, r.warm, r.rounds_run, 0, r.rounds)
  in
  match
    Recovery.with_retry ~attempts ~site:"serve.solve"
      ~on_retry:(fun ~attempt:_ ~backoff:_ -> Obs.incr c_retries)
      body
  with
  | m, warm, rounds, passes, mpc_rounds ->
      let result =
        J.Obj
          [
            ("algo", J.Str (Protocol.algo_name j.job_params.Protocol.algo));
            ("size", J.Int (M.size m));
            ("weight", J.Int (M.weight m));
            ("valid", J.Bool (M.is_valid_in m j.job_graph));
            ("warm", J.Bool warm);
            ("rounds", J.Int rounds);
            ("passes", J.Int passes);
            ("mpc_rounds", J.Int mpc_rounds);
          ]
      in
      if !deadline_hit then `Deadline (result, m) else `Ok (result, m)
  | exception Injector.Budget_exhausted { site; attempts } ->
      `Error
        (Printf.sprintf "fault budget exhausted at %s after %d attempts" site
           attempts)
  | exception Wm_mpc.Cluster.Memory_exceeded { machine; used; capacity } ->
      `Error
        (Printf.sprintf "machine %d exceeded memory (%d > %d words)" machine
           used capacity)

(* ------------------------------------------------------------------ *)
(* Batch boundary *)

let split_at k xs =
  let rec go i acc = function
    | rest when i = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: tl -> go (i - 1) (x :: acc) tl
  in
  go k [] xs

(* A queued solve's response, with its counters, latency sample and
   ledger row. *)
let answer t q ~status ~cached fields =
  (match status with
  | "ok" -> Obs.incr (if cached then c_hits else c_misses)
  | "overloaded" ->
      Obs.incr c_overloaded;
      Obs.incr c_shed
  | "deadline" ->
      Obs.incr c_misses;
      Obs.incr c_deadline
  | _ ->
      Obs.incr c_misses;
      Obs.incr c_errors);
  let lat = Obs.now_ns () - q.enqueued_ns in
  Obs.observe h_latency lat;
  ledger_row t ~label:"solve" ~id:q.id ~cached ~status ~latency_ns:lat;
  Protocol.response ~id:q.id ~status fields

let flush t =
  if t.queue_len = 0 then []
  else begin
    let batch = List.rev t.queue in
    t.queue <- [];
    t.queue_len <- 0;
    t.batchno <- t.batchno + 1;
    Obs.incr c_batches;
    Obs.observe h_batch (List.length batch);
    (* Injected queue pressure: the admitted batch is squeezed to a
       keep-fraction; the tail is shed with explicit overloaded
       responses (graceful degradation — clients retry, nothing hangs). *)
    let batch, squeezed =
      match Injector.memory_pressure t.inj ~at:t.batchno with
      | Some keep ->
          let n = List.length batch in
          let keep_n = Stdlib.max 1 (int_of_float (keep *. float_of_int n)) in
          split_at keep_n batch
      | None -> (batch, [])
    in
    (* Cache lookups in arrival order.  Internal solves that must
       return a matching ([want_matching]) bypass the lookup: a cached
       result JSON carries no matching, and the router needs one for
       its warm-start store.  Lookups only peek: the hits' recency
       bumps are part of the deterministic LRU state, and [apply]
       makes them, with the batch's inserts, in the batch's Flush. *)
    let looked =
      List.map
        (fun q ->
          let key = q.job.job_key in
          (q, if q.want_matching then None else Cache.peek t.cache key))
        batch
    in
    let touches =
      List.filter_map
        (fun (q, hit) -> if hit <> None then Some q.job.job_key else None)
        looked
    in
    (* Deduplicate misses by result key — compatible requests are the
       batch scheduler's unit of work; one job per distinct key, in
       first-arrival order. *)
    let leader = Hashtbl.create 16 in
    let jobs =
      List.filter_map
        (fun (q, hit) ->
          if hit <> None || Hashtbl.mem leader q.job.job_key then None
          else begin
            Hashtbl.add leader q.job.job_key q.job.job_id;
            Some q
          end)
        looked
    in
    let outcomes =
      match t.config.delegate with
      | None ->
          Wm_par.Pool.map (Wm_par.Pool.default ())
            (fun q ->
              (q.job.job_key, execute t ~deadline_ns:q.deadline_ns q.job))
            jobs
      | Some d ->
          (* Delegated execution (the shard router).  The worker bills
             planned-crash retries to its own counters, so mirror the
             exact with_retry tally — min(crashes, attempts - 1) per
             executed job — on the client-visible counter here. *)
          let attempts = (Injector.spec t.inj).Spec.max_attempts in
          List.iter
            (fun q ->
              Obs.add c_retries (Stdlib.min q.job.job_crashes (attempts - 1)))
            jobs;
          d.execute (List.map (fun q -> q.job) jobs)
    in
    let by_key = Hashtbl.create 16 in
    List.iter (fun (k, o) -> Hashtbl.replace by_key k o) outcomes;
    (* Completed (non-cancelled) results enter the cache — and their
       matchings become the sessions' warm-start state — in
       first-arrival key order: deterministic LRU contents and a warm
       table that is a pure function of the request history.  Deadline
       partials are excluded from both (wall-clock deadlines are not
       deterministic), mirroring the cache rule. *)
    let completed =
      List.filter_map
        (fun q ->
          match Hashtbl.find by_key q.job.job_key with
          | `Ok (result, m) -> Some (q.job, result, m)
          | `Deadline _ | `Error _ -> None)
        jobs
    in
    let inserts = List.map (fun (j, r, _) -> (j.job_key, r)) completed in
    let warm =
      if t.config.warm_start then
        List.filter_map
          (fun (j, _, m) ->
            if j.job_params.Protocol.algo = Protocol.Greedy then None
            else Some (j.job_digest, Protocol.canonical_params j.job_params, m))
          completed
      else []
    in
    if touches <> [] || inserts <> [] || warm <> [] then
      effect t (Wal.Flush { touches; inserts; warm });
    Ledger.record Ledger.default ~section:"serve.batches"
      [
        ("batch", t.batchno);
        ("size", List.length looked + List.length squeezed);
        ("unique", List.length jobs);
        ("shed", List.length squeezed);
      ];
    let respond (q, hit) =
      let digest = ("digest", J.Str q.job.job_digest) in
      let solved ~status ~cached result extra =
        answer t q ~status ~cached
          ((digest :: ("cached", J.Bool cached) :: ("result", result) :: extra))
      in
      match hit with
      | Some result -> solved ~status:"ok" ~cached:true result []
      | None -> (
          match Hashtbl.find by_key q.job.job_key with
          | `Ok (result, m) ->
              (* Within-batch duplicates of the leader are cache hits
                 against the entry the leader just inserted. *)
              solved ~status:"ok"
                ~cached:(Hashtbl.find leader q.job.job_key <> q.job.job_id)
                result
                (if q.want_matching then
                   [
                     ( "matching",
                       J.Str
                         (Protocol.hex_encode
                            (Wm_graph.Graph_io.matching_to_binary m)) );
                   ]
                 else [])
          | `Deadline (result, _) ->
              solved ~status:"deadline" ~cached:false result []
          | `Error msg ->
              answer t q ~status:"error" ~cached:false
                [ digest; ("error", J.Str msg) ])
    in
    let solve_resps = List.map respond looked in
    (* The squeezed tail follows the kept head, so the concatenation is
       in arrival order. *)
    solve_resps
    @ List.map
        (fun q ->
          answer t q ~status:"overloaded" ~cached:false
            [ ("reason", J.Str "queue_pressure") ])
        squeezed
  end

(* ------------------------------------------------------------------ *)
(* Admission *)

let admit t ~id ~digest ~chaos (params : Protocol.solve_params) =
  match resolve t digest with
  | Error msg -> [ refuse t ~label:"solve" ~id msg ]
  | Ok _ when t.queue_len >= t.config.queue_depth ->
      (* Admission control: bounded queue, explicit rejection. *)
      Obs.incr c_overloaded;
      ledger_row t ~label:"solve" ~id ~cached:false ~status:"overloaded"
        ~latency_ns:0;
      [
        Protocol.response ~id ~status:"overloaded"
          [ ("reason", J.Str "queue_full") ];
      ]
  | Ok s -> (
      Obs.incr c_solves;
      let plan =
        match chaos with
        | Some c -> (
            (* Replay a carried plan (router -> shard solve): the draws
               already happened at the router's admission, and the warm
               start — if any — arrives inline.  The worker's own warm
               table is never consulted.  The router ships only
               matchings taken from this session, so n is at most the
               session's: a larger one is refused before it is
               allocated. *)
            match
              Option.map
                (fun hx ->
                  Wm_graph.Graph_io.matching_of_binary ~max_n:(G.n s.graph)
                    (Protocol.hex_decode hx))
                c.Protocol.warm
            with
            | warm ->
                Ok
                  ( c.Protocol.expire_round,
                    c.Protocol.crashes,
                    warm,
                    c.Protocol.want_matching )
            | exception (Wm_graph.Bin.Corrupt _ | Invalid_argument _) ->
                Error "malformed x_warm payload")
        | None ->
            (* Chaos pre-draws (sequential, request-loop domain): a
               straggler hit expires the request's deadline at a
               deterministic round; the crash plan counts how many
               attempts will be aborted before one succeeds. *)
            let expire_round =
              match
                Injector.straggler t.inj ~site:"serve.deadline" ~at:t.reqno
              with
              | 0 -> None
              | k -> Some k
            in
            let attempts = (Injector.spec t.inj).Spec.max_attempts in
            let rec crash_plan k =
              if k >= attempts then k
              else
                match
                  Injector.crash t.inj ~site:"serve.solve" ~at:t.reqno
                    ~machines:1
                with
                | () -> k
                | exception Injector.Injected_crash _ -> crash_plan (k + 1)
            in
            let crashes = crash_plan 0 in
            (* Warm-start capture happens here, sequentially on the
               request-loop domain: the matching the session holds
               right now is the one this solve starts from, whatever
               order the pool later runs the batch in.  Greedy is
               single-shot and never warm-starts. *)
            let warm =
              if t.config.warm_start && params.Protocol.algo <> Protocol.Greedy
              then Hashtbl.find_opt s.warm (Protocol.canonical_params params)
              else None
            in
            Ok (expire_round, crashes, warm, false)
      in
      match plan with
      | Error msg -> [ refuse t ~label:"solve" ~id msg ]
      | Ok (job_expire, job_crashes, job_warm, want_matching) ->
          if Option.is_some job_warm then Obs.incr c_warm;
          let now = Obs.now_ns () in
          let deadline_ns =
            match (params.Protocol.deadline_ms, t.config.deadline_ms) with
            | Some ms, _ -> Some (now + (ms * 1_000_000))
            | None, ms when ms > 0 -> Some (now + (ms * 1_000_000))
            | None, _ -> None
          in
          let job =
            {
              job_key = Protocol.cache_key ~digest:s.digest params;
              job_id = t.reqno;
              job_digest = s.digest;
              job_graph = s.graph;
              job_params = params;
              job_warm;
              job_expire;
              job_crashes;
            }
          in
          t.queue <-
            { job; id; enqueued_ns = now; deadline_ns; want_matching }
            :: t.queue;
          t.queue_len <- t.queue_len + 1;
          t.volatile_line <- true;
          [])

(* ------------------------------------------------------------------ *)
(* Non-solve verbs *)

let load t ~id ~graph ~path =
  let started = Obs.now_ns () in
  let fail msg =
    refuse t ~label:"load" ~id ~latency_ns:(Obs.now_ns () - started) msg
  in
  match
    match (graph, path) with
    | Some text, _ -> Wm_graph.Graph_io.canonical_of_string text
    | None, Some p ->
        Wm_graph.Graph_io.canonical_of_string
          (In_channel.with_open_text p In_channel.input_all)
    | None, None -> invalid_arg "load: no graph or path"
  with
  | g ->
      (* Sessions hold canonical graphs: cold answers depend on content. *)
      let d = Wm_graph.Graph_io.digest g in
      (* One WAL record per input line, so a fresh session's origin is
         the LSN this line's record is about to take. *)
      let origin =
        match (Hashtbl.find_opt t.sessions d, t.wal) with
        | Some s, _ -> s.origin
        | None, Some w -> Wal.head w + 1
        | None, None -> t.reqno
      in
      effect t (Wal.Load { origin; digest = d; graph = g });
      Obs.incr c_loads;
      ledger_row t ~label:"load" ~id ~cached:false ~status:"ok"
        ~latency_ns:(Obs.now_ns () - started);
      Protocol.response ~id ~status:"ok"
        [
          ("digest", J.Str d);
          ("n", J.Int (G.n g));
          ("m", J.Int (G.m g));
          ("total_weight", J.Int (G.total_weight g));
        ]
  | exception Wm_graph.Graph_io.Parse_error { line; msg } ->
      fail (Printf.sprintf "input line %d: %s" line msg)
  | exception (Sys_error msg | Invalid_argument msg) -> fail msg

(* Session mutation (add_edges / remove_edges / add_vertices).  Always
   reached at a batch boundary — queued solves against the old content
   have already run — so rewriting the session in place cannot race a
   solve.  The graph is rebuilt from the delta (only the delta is
   re-validated), the content digest recomputed, and the session
   re-keyed under it; cached results need no purging because their keys
   are content-addressed — results for the old content simply become
   reachable again if the session ever returns to it, and results for
   untouched sessions are never disturbed.  A bad delta fails the
   request and leaves the session exactly as it was. *)
let mutate t ~id ~digest ~add_vertices ~add ~remove =
  let started = Obs.now_ns () in
  let fail msg =
    refuse t ~label:"mutate" ~id ~latency_ns:(Obs.now_ns () - started) msg
  in
  match resolve t digest with
  | Error msg -> fail msg
  | Ok s -> (
      let d = s.digest in
      match patch s.graph ~add_vertices ~add ~remove with
      | exception Invalid_argument msg -> fail msg
      | g' ->
          let d' = Wm_graph.Graph_io.digest g' in
          effect t ~graph:g'
            (Wal.Mutate
               {
                 old_digest = d;
                 new_digest = d';
                 subsumed = d' <> d && Hashtbl.mem t.sessions d';
                 add_vertices;
                 add;
                 remove;
               });
          Obs.incr c_mutations;
          Obs.add c_edges_added (List.length add);
          Obs.add c_edges_removed (List.length remove);
          Obs.add c_vertices_added add_vertices;
          let delta = Protocol.canonical_delta ~add_vertices ~add ~remove in
          Ledger.record ~label:delta Ledger.default ~section:"serve.mutations"
            [
              ("id", id);
              ("added", List.length add);
              ("removed", List.length remove);
              ("vertices", add_vertices);
              ("generation", s.generation);
            ];
          ledger_row t ~label:"mutate" ~id ~cached:false ~status:"ok"
            ~latency_ns:(Obs.now_ns () - started);
          Protocol.response ~id ~status:"ok"
            [
              ("previous_digest", J.Str d);
              ("digest", J.Str d');
              ("n", J.Int (G.n g'));
              ("m", J.Int (G.m g'));
              ("total_weight", J.Int (G.total_weight g'));
              ("generation", J.Int s.generation);
              ("delta", J.Str delta);
            ])

let evict t ~id ~digest =
  match Option.map (fun d -> resolve t (Some d)) digest with
  | Some (Error msg) -> refuse t ~label:"evict" ~id msg
  | _ ->
      let sessions = Hashtbl.length t.sessions in
      let results = Cache.length t.cache in
      effect t (Wal.Evict { digest });
      Obs.incr c_evicts;
      ack t ~label:"evict" ~id
        [
          ("evicted_sessions", J.Int (sessions - Hashtbl.length t.sessions));
          ("evicted_results", J.Int (results - Cache.length t.cache));
        ]

(* ------------------------------------------------------------------ *)
(* Reporting *)

let counters t named =
  J.Obj (List.map (fun (k, c) -> (k, J.Int (rel t c))) named)

let cache_json t =
  J.Obj
    [
      ("entries", J.Int (Cache.length t.cache));
      ("capacity", J.Int (Cache.capacity t.cache));
      ("hits", J.Int (rel t c_hits));
      ("misses", J.Int (rel t c_misses));
      ("evictions", J.Int (Cache.evictions t.cache));
    ]

(* Deterministic service snapshot: every field is a pure function of the
   request history (no wall-clock values), so stats responses diff clean
   across --jobs settings. *)
let stats_response t ~id =
  let sessions =
    List.map
      (fun d ->
        let s = Hashtbl.find t.sessions d in
        J.Obj
          [
            ("digest", J.Str d);
            ("n", J.Int (G.n s.graph));
            ("m", J.Int (G.m s.graph));
            ("generation", J.Int s.generation);
          ])
      t.order
  in
  ack t ~label:"stats" ~id
    [
      ("sessions", J.List sessions);
      ("cache", cache_json t);
      ("requests", J.Int t.reqno);
      ("batches", J.Int t.batchno);
      ("queue_depth", J.Int t.config.queue_depth);
      ( "counters",
        counters t
          [
            ("loads", c_loads);
            ("solves", c_solves);
            ("overloaded", c_overloaded);
            ("shed_requests", c_shed);
            ("deadline_expired", c_deadline);
            ("retries", c_retries);
            ("errors", c_errors);
            ("evicts", c_evicts);
          ] );
    ]

let report_json t =
  let serve =
    J.Obj
      [
        ("requests", J.Int t.reqno);
        ("batches", J.Int t.batchno);
        ("sessions", J.Int (Hashtbl.length t.sessions));
        ("queue_depth", J.Int t.config.queue_depth);
        ( "counters",
          counters t
            [
              ("requests", c_requests);
              ("loads", c_loads);
              ("solves", c_solves);
              ("overloaded", c_overloaded);
              ("shed_requests", c_shed);
              ("deadline_expired", c_deadline);
              ("retries", c_retries);
              ("errors", c_errors);
              ("batches", c_batches);
              ("evicts", c_evicts);
              ("shutdowns", c_shutdowns);
            ] );
        ( "incremental",
          counters t
            [
              ("mutations", c_mutations);
              ("edges_added", c_edges_added);
              ("edges_removed", c_edges_removed);
              ("vertices_added", c_vertices_added);
              ("warm_solves", c_warm);
            ] );
        ("cache", cache_json t);
        ( "recovery",
          match t.recovery with
          | None -> J.Obj []
          | Some r ->
              J.Obj
                [
                  ("replayed", J.Int r.replayed);
                  ("truncated_bytes", J.Int r.truncated_bytes);
                  ("snapshots_restored", J.Int r.snapshots_restored);
                  ("restore_ms", J.Int r.restore_ms);
                ] );
      ]
  in
  (* Single-process shape of the mandatory shard block; the shard
     router's delegate report replaces it with real per-shard
     metering. *)
  Wm_fault.Bench_v1.report ~mode:"serve" ~seed:0
    ~jobs:(Wm_par.Pool.default_jobs ())
    ~gc:(Wm_obs.Gcstat.since_start ())
    ~serve ~shard:(J.Obj [ ("shards", J.Int 0) ]) ()

(* ------------------------------------------------------------------ *)
(* Request dispatch *)

(* One input line, parsed or not.  Every line counts as a request and
   gets exactly one ledger row. *)
let dispatch t (req : (Protocol.request, int * string) result) =
  t.reqno <- t.reqno + 1;
  Obs.incr c_requests;
  match req with
  | Error (id, msg) -> [ refuse t ~label:"malformed" ~id msg ]
  | Ok { Protocol.id; _ } when t.stopped ->
      [ refuse t ~label:"stopped" ~id "server stopped" ]
  | Ok { Protocol.id; verb } -> (
      (* Every verb but solve and ping is a batch boundary: queued
         solves run (and are answered) first, so responses stay in
         arrival order and the verb observes the post-batch state.  Ping
         is a health probe, so the router (or an operator) can peek at
         queue pressure without forcing queued solves to run. *)
      let flushed =
        match verb with Protocol.Solve _ | Protocol.Ping -> [] | _ -> flush t
      in
      flushed
      @
      match verb with
      | Protocol.Solve { digest; params; chaos } ->
          admit t ~id ~digest ~chaos params
      | Protocol.Ping ->
          [
            ack t ~label:"ping" ~id
              [
                ("shard", J.Int t.config.shard_id);
                ("queue", J.Int t.queue_len);
                ("queue_depth", J.Int t.config.queue_depth);
                ("sessions", J.Int (Hashtbl.length t.sessions));
                ("cache_entries", J.Int (Cache.length t.cache));
                ("cache_capacity", J.Int (Cache.capacity t.cache));
              ];
          ]
      | Protocol.Report ->
          (* The row goes in first: the report carries the ledger. *)
          ledger_row t ~label:"report" ~id ~cached:false ~status:"ok"
            ~latency_ns:0;
          let r =
            match t.config.delegate with
            | Some d -> d.report ()
            | None -> report_json t
          in
          [ Protocol.response ~id ~status:"ok" [ ("report", r) ] ]
      | Protocol.Load { graph; path } -> [ load t ~id ~graph ~path ]
      | Protocol.Add_edges { digest; edges } ->
          [ mutate t ~id ~digest ~add_vertices:0 ~add:edges ~remove:[] ]
      | Protocol.Remove_edges { digest; edges } ->
          [ mutate t ~id ~digest ~add_vertices:0 ~add:[] ~remove:edges ]
      | Protocol.Add_vertices { digest; count } ->
          [ mutate t ~id ~digest ~add_vertices:count ~add:[] ~remove:[] ]
      | Protocol.Stats -> [ stats_response t ~id ]
      | Protocol.Evict { digest } -> [ evict t ~id ~digest ]
      | Protocol.Shutdown ->
          effect t Wal.Stop;
          Obs.incr c_shutdowns;
          [ ack t ~label:"shutdown" ~id [ ("stopped", J.Bool true) ] ])

(* Every public entry point commits the line's WAL record before
   returning its responses: an effect the client can observe is durable
   first (the inverse — durable but unacknowledged — is re-executed
   harmlessly on replay, since replay never re-runs solves). *)
let committed t resps =
  commit t;
  resps

let handle_request t req = committed t (dispatch t (Ok req))

let handle_line t line =
  committed t
    (if String.trim line = "" then flush t
     else dispatch t (Protocol.parse_request line))

let eof t =
  let resps = committed t (flush t) in
  (* Final snapshot on an orderly exit (EOF or a drain signal): the
     next start restores without replaying anything. *)
  (match t.wal with
  | Some w when Wal.head w > t.last_snap_lsn -> write_snapshots t
  | _ -> ());
  resps

exception Drained

let run t ic oc =
  let emit resps =
    List.iter
      (fun j ->
        output_string oc (J.to_string j);
        output_char oc '\n')
      resps;
    Stdlib.flush oc
  in
  (* SIGTERM/SIGINT drain: the handler raises out of the blocking read;
     the queue is flushed (queued solves run and are answered), the WAL
     committed, and a final snapshot written before returning. *)
  let handler = Sys.Signal_handle (fun _ -> raise Drained) in
  let install s =
    try Some (Sys.signal s handler)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let old_term = install Sys.sigterm in
  let old_int = install Sys.sigint in
  let restore_signals () =
    (match old_term with
    | Some b -> Sys.set_signal Sys.sigterm b
    | None -> ());
    match old_int with Some b -> Sys.set_signal Sys.sigint b | None -> ()
  in
  Fun.protect ~finally:restore_signals (fun () ->
      let lines = ref 0 in
      let rec loop () =
        if t.stopped then ()
        else
          match input_line ic with
          | line ->
              emit (handle_line t line);
              incr lines;
              (* Deterministic crash injection for the recovery fixture:
                 the record is durable (committed in handle_line), the
                 responses are out — die without any cleanup. *)
              (match t.config.crash_after with
              | Some n when !lines >= n ->
                  Unix.kill (Unix.getpid ()) Sys.sigkill
              | _ -> ());
              loop ()
          | exception (End_of_file | Drained) -> emit (eof t)
      in
      loop ())
