(** Reading and writing graphs in a DIMACS-style text format, and graphs
    and matchings in a binary one.

    Format ("wm" problem line, 0-based vertex ids):
    {v
    c optional comments
    p wm <n> <m>
    e <u> <v> <w>      (one line per edge)
    v}
    The format round-trips exactly (edge order preserved).

    Parsers validate strictly and never crash mid-parse: NaN, infinite,
    fractional or negative weights, self-loops, endpoints outside
    [\[0, n)], duplicate edges, a total weight above
    {!Weighted_graph.max_total_weight}, counts that disagree with the
    header — each raises {!Parse_error} naming the offending line. *)

exception Parse_error of { line : int; msg : string }
(** [line] is 1-based.  The first bad line in file order is the one
    reported: a duplicate edge names its second occurrence (and the
    first), a problem line whose kind is not [wm] is reported on that
    line as soon as it is read, and document-level problems (missing
    header, edge count mismatch) report the last line of the input.

    Tokens: a line is trimmed of [' '], ['\t'], ['\r'] and ['\012'] at
    both ends, a line whose first character is then ['c'] is a comment,
    and tokens are separated by runs of [' '] alone.  Integers are read
    as [int_of_string_opt] reads them (signs, [0x]/[0o]/[0b] prefixes
    and [_] separators included). *)

val digest : Weighted_graph.t -> string
(** Content digest of a graph: 64-bit FNV-1a, rendered as 16
    lowercase hex digits, over the bytes of [n] followed by [u], [v],
    [w] of every edge in increasing [(u, v)] order, where [u < v]; each
    int is fed as 8 little-endian bytes.  Invariant under endpoint
    order and edge order, so any two structurally equal graphs digest
    identically — the session key of the serving layer and the
    [instance.digest] field of WM_STATS_v1 reports.  One hashing pass
    over {!Weighted_graph.canonical_edges}; on a canonical graph the
    result string is its only allocation. *)

val to_string : Weighted_graph.t -> string

val of_string : string -> Weighted_graph.t
(** The graph of the text, edges in file order, with its adjacency index
    built.  Raises {!Parse_error} with a line-numbered message on
    malformed input. *)

val canonical_of_string : string -> Weighted_graph.t
(** The canonical graph of the text (see
    {!Weighted_graph.canonical_of_array}): the same checks and errors
    as {!of_string}, but each edge record is allocated once, in
    canonical slot order, and no adjacency index is built.  The edges
    are those of [Weighted_graph.canonical_edges (of_string s)].  The
    serving layer's [load]. *)

val write_file : string -> Weighted_graph.t -> unit

val read_file : string -> Weighted_graph.t

(** {1 Binary codec}

    Compact {!Bin} frames for durable state (the serving layer's
    snapshots and write-ahead log).  The decoders raise {!Bin.Corrupt}
    — never {!Parse_error}, which covers text input only — on
    truncation, malformed structure, or a value the graph constructors
    refuse.  Graph frames embed the content digest; {!of_binary}
    recomputes it from the decoded structure and refuses a mismatch, so
    a corrupted snapshot is detected rather than restored. *)

val to_binary : ?digest:string -> Weighted_graph.t -> string
(** ["WMB1"]-tagged frame: n, m, the edges in stored order, and the
    16-hex-digit {!digest} as a trailer.  A caller that already holds
    the graph's digest passes it as [?digest] and saves the hashing
    pass; it must be [digest g]. *)

val add_graph : Bin.w -> digest:string -> Weighted_graph.t -> unit
(** Writes the {!to_binary} frame into an encoder, so a record that
    embeds it (through {!Bin.add_nested}) is written in one buffer. *)

val of_binary : string -> Weighted_graph.t
(** The canonical graph of the frame (see
    {!Weighted_graph.canonical_of_array}): a frame in canonical order
    needs no duplicate-edge check and gets no adjacency index; its
    records are decoded in frame order, hence laid out in canonical
    order. *)

val of_binary_with_digest : string -> Weighted_graph.t * string
(** {!of_binary} together with the digest the frame's trailer carries,
    which it has checked against the content: a caller that compares
    the graph with another claimed digest needs no second hashing
    pass. *)

val matching_to_binary : Matching.t -> string
(** ["WMM1"]-tagged frame: n, k, the edges. *)

val add_matching : Bin.w -> Matching.t -> unit
(** Writes the {!matching_to_binary} frame into an encoder. *)

val matching_of_binary : ?max_n:int -> string -> Matching.t
(** Also raises {!Bin.Corrupt}, before allocating, when the frame's
    vertex count exceeds [max_n] (default [max_int]), and when the edge
    set is not a matching. *)
