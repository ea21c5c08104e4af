(** Per-session binary snapshots (DESIGN.md §5.5).

    A snapshot captures one session — graph, digest, generation, warm
    matchings — together with [lsn], the WAL position it reflects, and
    [origin], the session's stable identity (the LSN of its first
    load).  On restore the newest valid snapshot per origin is
    installed and only the WAL suffix past its [lsn] is replayed.

    Files are named by origin, [snap-<origin>.bin], so re-keying or
    merging sessions never makes one session's snapshot overwrite
    another's.  They are {!Wm_graph.Bin} payloads in a CRC32 frame,
    each written into one buffer of its own size by
    {!Wm_graph.Bin.encode_frame} and published atomically by
    {!Wal.publish}.  A
    file that fails its CRC, does not decode, or whose decoded graph
    does not hash back to the recorded digest is skipped by
    {!load_all}. *)

type s = {
  origin : int;  (** LSN of the session's first load *)
  lsn : int;  (** WAL head when the snapshot was taken *)
  digest : string;
  generation : int;
  graph : Wm_graph.Weighted_graph.t;
  warm : (string * Wm_graph.Matching.t) list;
      (** warm-start matchings keyed by canonical solve parameters *)
}

val file : dir:string -> int -> string
(** [file ~dir origin] is the snapshot's path, [dir/snap-<origin>.bin]. *)

val write : dir:string -> s -> int
(** Publish (or replace) the session's snapshot; returns the
    framed size in bytes.  Accounted via
    {!Wm_fault.Recovery.note_snapshot}. *)

val decode : string -> s
(** The snapshot a frame's payload holds.  Raises
    {!Wm_graph.Bin.Corrupt} when the payload does not decode, or when
    the header's digest is not the one the graph frame carries (and
    that the frame's content hashes to). *)

val gc : dir:string -> live:int list -> unit
(** Delete every snapshot file in [dir] that is not the file of one of
    the [live] origins.  Only safe once no WAL record names the dead
    origins, i.e. right after a compaction. *)

val load_all : dir:string -> (s * int) list
(** All valid snapshots in [dir] paired with their file size in bytes,
    newest per origin, sorted by origin.  Torn, corrupt, or
    digest-mismatched files are silently skipped. *)
