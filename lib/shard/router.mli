(** The shard router: a multi-process [wm_serve] front end
    (DESIGN.md §5.6).

    The router is itself a stock {!Wm_serve.Server} — admission, chaos
    draws, the client-visible result cache, warm-start and mutation
    bookkeeping, and all response rendering run in it unchanged, which
    makes client transcripts byte-identical across [--shards] settings
    by construction.  Only batch execution is delegated: the server's
    {!Wm_serve.Server.delegate} hands each flush's deduplicated leader
    jobs here, and they are grouped by {!Ring.home}, shipped (with any
    graphs the home worker does not yet hold, and the pre-drawn chaos
    plan) over the ordinary WM_REQ_v1 line protocol, and their outcomes
    fed back.

    A worker that dies mid-group (EOF/SIGKILL) is respawned — the
    replacement recovers its own [wal_dir] through the durability path
    — and the whole group is resent; loads are content-addressed and
    solves deterministic, so the retry commits exactly the responses
    the first attempt would have. *)

type t

val create :
  shards:int ->
  ?vnodes:int ->
  ?kill:int * int ->
  spawn:(int -> Endpoint.t) ->
  config:Wm_serve.Server.config ->
  unit ->
  t
(** A router over [shards] workers obtained from [spawn] (also used to
    respawn after a failure), fronted by a server built from [config]
    with the router's {!Wm_serve.Server.delegate} installed.
    [?kill:(k, n)] arms the fault hook: worker [k] is SIGKILLed right
    after its [n]-th dispatch group is sent, before any response is
    read — the smoke test's recovery leg.  It fires once. *)

val server : t -> Wm_serve.Server.t
(** The fronting server — feed it lines ({!Wm_serve.Server.handle_line}
    / {!Wm_serve.Server.run}) exactly as in single-process mode. *)

val migrations : t -> int
(** Sessions whose mutation re-key moved them to a different home
    shard. *)

val restarts : t -> int
(** Worker revivals performed, summed over shards. *)

val merged_report : t -> Wm_obs.Json.t
(** The fronting server's BENCH_v1 report with the [shard] block
    replaced by real multi-process metering: [shards], [router]
    (migrations / worker restarts / sessions), [transport] (messages
    and bytes actually moved, from the per-slot {!Wm_mpc.Meter}s),
    [totals] (the {!Wm_obs.Json.merge_sum} of the workers' serve
    counters) and [per_shard] (restarts, traffic, load, and each
    worker's own [serve] block and histograms). *)

val worker_config :
  base:Wm_serve.Server.config ->
  shard:int ->
  wal_root:string option ->
  Wm_serve.Server.config
(** The config a shard worker runs: [base] — the caller's config,
    before {!create} installs the router's delegate — with its shard id,
    faults disabled (the router draws all chaos; only the retry budget
    is kept so planned crashes replay identically), and — when
    [wal_root] is set — a private [wal_root/shard-<k>] durability
    directory. *)

val serve :
  shards:int ->
  ?kill:int * int ->
  config:Wm_serve.Server.config ->
  in_channel ->
  out_channel ->
  Wm_obs.Json.t
(** The CLI entry point: fork [shards] workers ({!Transport.spawn},
    each with its own WAL directory under [config.wal_dir]), run the
    fronting server over [ic]/[oc] (the router's own WAL lives in
    [config.wal_dir ^ "/router"]), then collect the final
    {!merged_report}, shut the workers down, and return the report. *)
