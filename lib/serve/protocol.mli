(** The serving wire protocol: WM_REQ_v1 requests, WM_RESP_v1 responses.

    The transport is line-delimited JSON (one complete JSON object per
    line, parsed with {!Wm_obs.Json} — no external dependency).  A
    request names a [verb]; the five verbs are:

    - [load]: register a graph (inline DIMACS text under ["graph"], or
      a file path under ["path"]) in the session store.  The response
      carries the graph's content digest ({!Wm_graph.Graph_io.digest}),
      the key later [solve]s refer to.
    - [solve]: request a matching on a loaded graph (["digest"];
      omitted or ["latest"] means the most recently loaded session).
      Optional fields: ["algo"] (["streaming"], default; ["mpc"];
      ["greedy"]), ["epsilon"], ["seed"], ["deadline_ms"] (per-request
      deadline override).  Solves are {e queued} and executed as a
      batch at the next batch boundary.
    - [add_edges] / [remove_edges] / [add_vertices]: mutate a loaded
      session in place (["digest"] addressing as in [solve]).
      [add_edges] takes ["edges"], a non-empty list of [[u, v, weight]]
      triples; [remove_edges] takes [[u, v]] pairs (order-insensitive);
      [add_vertices] takes a positive ["count"] of fresh isolated
      vertices.  The session's graph is rebuilt from the delta
      ({!Wm_graph.Weighted_graph.patch}), its content digest is
      recomputed, and the response reports both digests — subsequent
      requests address the session by the {e new} digest (or
      ["latest"]).  A bad delta (missing removal target, parallel or
      out-of-range addition) is an error and leaves the session
      untouched.
    - [stats]: deterministic service snapshot (sessions, cache
      occupancy and hit counts, request tallies).
    - [evict]: drop one session (["digest"]) and its cached results, or
      everything when the digest is omitted.
    - [shutdown]: flush, acknowledge, stop the server.

    Every verb other than [solve] — and a blank input line — is a
    {e batch boundary}: queued solves are executed (fanning out across
    the default {!Wm_par.Pool}) and their responses emitted, in arrival
    order, before the boundary request is answered.  Unknown request
    fields are ignored (forward compatibility); malformed lines get a
    [status = "error"] response and do not disturb the queue.

    Responses are single-line JSON objects
    [{"schema": "WM_RESP_v1", "id": .., "status": .., ...}] echoing the
    request id.  Statuses: ["ok"], ["overloaded"] (admission control
    rejected the solve), ["deadline"] (the solve was cancelled at a
    round boundary; the partial result is included), ["error"]. *)

type algo = Streaming | Mpc | Greedy

type solve_params = {
  algo : algo;
  epsilon : float;  (** target slack for the [(1 - eps)] drivers *)
  seed : int;  (** seeds the solve's {!Wm_graph.Prng} *)
  deadline_ms : int option;
      (** per-request wall-clock deadline; [None] defers to the server
          default *)
}

type chaos = {
  expire_round : int option;
      (** injected deadline expiry at this round ([x_expire]) *)
  crashes : int;
      (** solve attempts to abort before one succeeds ([x_crashes]) *)
  warm : string option;
      (** hex-encoded {!Wm_graph.Graph_io.matching_to_binary} warm-start
          matching ([x_warm]); when a chaos block is present the worker
          {e never} consults its own warm table *)
  want_matching : bool;
      (** include the hex-encoded result matching in the [ok] response
          ([x_matching]); such solves also bypass the server-side result
          cache so a matching is always produced *)
}
(** Pre-drawn fault plan on an internal (router -> shard) solve.  The
    shard router owns the session-facing fault injector and draws the
    chaos plan sequentially at admission, exactly as a single-process
    server would; the worker replays the carried plan instead of drawing
    its own.  That is what keeps transcripts byte-identical across
    [--shards] settings.  Client requests simply omit these fields. *)

type verb =
  | Load of { graph : string option; path : string option }
  | Solve of {
      digest : string option;
      params : solve_params;
      chaos : chaos option;
    }
  | Add_edges of { digest : string option; edges : (int * int * int) list }
  | Remove_edges of { digest : string option; edges : (int * int) list }
  | Add_vertices of { digest : string option; count : int }
  | Stats
  | Evict of { digest : string option }
  | Ping
      (** health probe: answers shard id, queue depth and cache
          occupancy without flushing the batch queue *)
  | Report
      (** batch boundary; answers the server's full BENCH_v1 report
          under ["report"] (non-deterministic: timings, GC).  Its
          [ledger] holds rows only when the process retained
          [Wm_obs.Ledger.default] ([wm_cli serve --report]). *)
  | Shutdown

type request = { id : int; verb : verb }

val parse_request : string -> (request, int * string) result
(** Parse one request line.  In [Error (id, msg)], [msg] is a one-line,
    user-facing diagnostic (bad JSON, wrong schema, missing field,
    unknown verb) and [id] is the request's id when it parsed, else 0,
    so a pipelining client can tell which request was refused. *)

val algo_name : algo -> string

val canonical_params : solve_params -> string
(** The canonical textual form of the parameters that determine a
    solve's result: ["algo=..,epsilon=..,seed=.."].  Deadlines are
    excluded — they bound latency, never identity (a deadline-cancelled
    result is not cached), so the same logical solve always canonicalises
    identically. *)

val cache_key : digest:string -> solve_params -> string
(** [digest ^ "|" ^ canonical_params params] — the LRU result-cache
    key: (graph digest, canonical params, seed).  Because the digest is
    content-addressed, mutating a session re-keys its {e future} results
    under the new digest while results for untouched sessions (and for
    any content the session later returns to) survive verbatim. *)

val canonical_delta :
  add_vertices:int ->
  add:(int * int * int) list ->
  remove:(int * int) list ->
  string
(** Canonical textual encoding of a mutation delta:
    ["v+K|+u-v:w|...|-u-v|..."] with endpoints normalised to
    [(min, max)], entries sorted, additions before removals.  Invariant
    under the order edges were listed in the request; used for ledger
    rows and transcript-stable mutation reporting. *)

val response :
  id:int -> status:string -> (string * Wm_obs.Json.t) list -> Wm_obs.Json.t
(** Build a WM_RESP_v1 envelope: schema + id + status + extra fields. *)

val error_response : id:int -> string -> Wm_obs.Json.t
(** [response ~id ~status:"error"] with the message under ["error"]. *)

val status_code : string -> int
(** Stable integer form of a status for ledger rows: ok 0, overloaded 1,
    deadline 2, error 3 (anything else 3). *)

val hex_encode : string -> string
(** Lower-case hex of an arbitrary byte string (binary-safe framing for
    JSON-embedded payloads). *)

val hex_decode : string -> string
(** Inverse of {!hex_encode}; raises [Invalid_argument] on odd length or
    a non-hex digit. *)

(** {2 Request-line builders}

    The router's half of the wire: each returns one complete WM_REQ_v1
    line (no trailing newline) that {!parse_request} reads back.  The
    internal router->shard hop uses the same public grammar clients do —
    a shard worker is a stock server. *)

val load_line : id:int -> graph:string -> string
val solve_line : id:int -> digest:string -> params:solve_params -> chaos:chaos option -> string
val evict_line : id:int -> digest:string option -> string
val ping_line : id:int -> string
val report_line : id:int -> string
val shutdown_line : id:int -> string
