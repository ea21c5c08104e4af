(** The serving layer's write-ahead log (DESIGN.md §5.5).

    One record per handled WM_REQ_v1 input line, appended and fsynced
    {e before} the line's responses are emitted.  A record carries a
    header — the end-of-line server state: request/batch tallies, the
    server-relative [serve.*] counter vector, and the fault injector's
    generator position — and a list of state-effect bodies in execution
    order: [Load] / [Mutate] / [Evict] for the mutating verbs, [Flush]
    for a completed solve batch (cache recency touches, cache inserts,
    warm-matching updates), [Stop] for the shutdown verb.  Bodies are
    the server's only state-change language: live handlers and replay
    both feed them to the same transition, so payloads are held as
    values and turned into bytes only by {!append}/{!compact}.  A line
    with tally-only effects (stats, malformed input, an
    immediately-rejected solve) writes a body-less record, so the
    recovered request count and counters are exact.  A {e successfully
    admitted} solve writes nothing: queue contents are volatile by
    design, so the log head stays at the last line whose effects are
    durable and a restart re-feeds (and re-admits, replaying the same
    injector draws) from the next line.

    Records are {!Wm_graph.Bin} payloads in CRC32 frames
    ([u32-LE length | u32-LE CRC32 | payload]), each written in one
    buffer by {!Wm_graph.Bin.encode_frame}.  {!scan} decodes the
    longest valid prefix, truncates anything after it (a torn tail from
    a mid-append crash, a CRC failure, or any payload that does not
    decode) in place, and accounts the cut through
    {!Wm_fault.Recovery.note_wal_truncated}. *)

type header = {
  reqno : int;
  batchno : int;
  rng : int64 option;
      (** {!Wm_fault.Injector.rng_state} after the line; [None] for an
          inert fault plan *)
  counters : int array;
      (** the server's [serve.*] counter vector, as deltas from its
          creation baseline (order fixed by {!Server}) *)
}

type body =
  | Load of {
      origin : int;
      digest : string;
      graph : Wm_graph.Weighted_graph.t;
    }
      (** [origin] is the LSN of the session's {e first} load — the
          stable identity snapshots are keyed by across digest
          re-keying; [graph] is stored as a
          {!Wm_graph.Graph_io.to_binary} frame. *)
  | Mutate of {
      old_digest : string;
      new_digest : string;
      subsumed : bool;  (** the new digest collided with a live session *)
      add_vertices : int;
      add : (int * int * int) list;
      remove : (int * int) list;
    }
  | Evict of { digest : string option }  (** [None] = evict everything *)
  | Flush of {
      touches : string list;  (** cache hits, in lookup order *)
      inserts : (string * Wm_obs.Json.t) list;
          (** new cache entries, stored as JSON text *)
      warm : (string * string * Wm_graph.Matching.t) list;
          (** [(digest, canonical params, matching)] warm-start
              updates, matchings stored as
              {!Wm_graph.Graph_io.matching_to_binary} frames *)
    }
  | Stop
  | Base of {
      lsn : int;  (** the logical LSN this base record stands at *)
      order : (int * string) list;
          (** live sessions as [(origin, digest)], in load order; each
              is restored from its snapshot (written at this same LSN by
              the compaction point) *)
      last : string option;  (** the ["latest"] session digest *)
      stopped : bool;
      cache : (string * Wm_obs.Json.t) list;
          (** result-cache dump, LRU to MRU, stored as JSON text *)
      evictions : int;  (** lifetime cache eviction tally *)
    }
      (** Compaction summary: a compacted log starts with exactly one
          [Base] record carrying all bookkeeping the dropped prefix
          used to rebuild (session roster, cache contents and recency,
          eviction tally).  Session {e content} lives in the snapshots;
          replaying a [Base] whose snapshot is missing is fail-stop. *)

type record = { header : header; bodies : body list }

type t

val path : dir:string -> string
(** [dir ^ "/wal.log"]. *)

val open_log : dir:string -> head:int -> physical:int -> t
(** Open (creating if absent) the log for appending.  [head] is the
    logical LSN of the last existing record; [physical] is the number
    of physical records on disk ([List.length] of {!scan}'s result —
    smaller than [head] after a compaction). *)

val head : t -> int
(** Logical LSN of the most recently appended record (0 for an empty
    log).  Compaction never moves it. *)

val physical : t -> int
(** Number of physical records in the file: 1 right after {!compact},
    [+1] per {!append}. *)

val append : t -> record -> int
(** Append one record, fsync, and return its LSN (1-based).  The
    record is durable when [append] returns. *)

val compact : t -> record -> unit
(** Rewrite the log as the single given record through {!publish},
    leaving the logical head untouched.  The record should carry a
    {!Base} body whose [lsn] is the current head; on replay, records
    after it get LSNs offset past the base. *)

val close : t -> unit

val scan : dir:string -> record list * int
(** Decode the longest valid prefix of the log.  Returns the records
    in append order and the number of trailing bytes truncated (0 for
    a clean log); the file is physically truncated so subsequent
    appends extend the valid prefix.  A missing file is an empty
    log. *)

val publish : dir:string -> string -> string -> unit
(** [publish ~dir name bytes] atomically makes [bytes] the content of
    [dir/name]: written to the sibling [dir/.tmp-name], fsynced,
    renamed over [dir/name], and the directory fsynced.  A crash at any
    point leaves the old file or the new one, never a torn mix.  The
    one write path for compacted logs and {!Snapshot}s. *)

val encode_record : record -> string

val decode_record : string -> record
(** Inverse of {!encode_record}; raises {!Wm_graph.Bin.Corrupt} on any
    payload it cannot decode. *)
