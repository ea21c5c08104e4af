(** Per-session binary snapshots (DESIGN.md §5.5).

    A snapshot captures one session — graph, digest, generation, warm
    matchings — together with [lsn], the WAL position it reflects, and
    [origin], the session's stable identity (the LSN of its first
    load).  Restore reads snapshots only for a compacted log's [Base]
    record: each session it names is installed from its snapshot at the
    base's LSN, and the records past the base replay in full.

    Files are named by origin and LSN, [snap-<origin>-<lsn>.bin], so
    re-keying or merging sessions never makes one session's snapshot
    overwrite another's, and a new snapshot never overwrites the one
    the durable [Base] names.  They are {!Wm_graph.Bin} payloads in a
    CRC32 frame, each written into one buffer of its own size by
    {!Wm_graph.Bin.encode_frame} and published atomically by
    {!Wal.publish}.  A file that fails its CRC, does not decode, or
    whose decoded graph does not hash back to the recorded digest is
    skipped by {!load_all}. *)

type s = {
  origin : int;  (** LSN of the session's first load *)
  lsn : int;  (** WAL head when the snapshot was taken *)
  digest : string;
  generation : int;
  graph : Wm_graph.Weighted_graph.t;
  warm : (string * Wm_graph.Matching.t) list;
      (** warm-start matchings keyed by canonical solve parameters *)
}

val file : dir:string -> lsn:int -> int -> string
(** [file ~dir ~lsn origin] is the snapshot's path,
    [dir/snap-<origin>-<lsn>.bin]. *)

val write : dir:string -> s -> int
(** Publish the session's snapshot at its LSN (replacing only a file of
    the same origin and LSN); returns the framed size in bytes.
    Accounted via {!Wm_fault.Recovery.note_snapshot}. *)

val decode : string -> s
(** The snapshot a frame's payload holds.  Raises
    {!Wm_graph.Bin.Corrupt} when the payload does not decode, or when
    the header's digest is not the one the graph frame carries (and
    that the frame's content hashes to). *)

val gc : dir:string -> lsn:int -> live:int list -> unit
(** Delete every snapshot file in [dir] but the [live] origins' files at
    [lsn]: older versions, dead origins' files and files of an older
    layout.  Only safe once the log's [Base] record at [lsn] is durable,
    i.e. right after a compaction. *)

val load_all : dir:string -> (s * int) list
(** Every valid snapshot in [dir] paired with its file size in bytes,
    keyed by what it decodes to, whatever its file name.  Torn, corrupt,
    or digest-mismatched files are silently skipped. *)
