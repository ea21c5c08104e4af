(** The binary codec under every durable byte: graph and matching
    frames ({!Graph_io}), write-ahead log records and snapshots.

    Integers are unsigned LEB128 varints over non-negative ints;
    strings are varint-length-prefixed; a bool is one byte ([0]/[1]); an
    option is a bool tag followed by the value; a list is a varint count
    followed by its elements; a pair or triple is its components in
    order; an int64 is eight little-endian bytes.

    Decoding runs a cursor over one string.  Every decode failure —
    truncation, a varint over 9 bytes or outside [\[0, max_int\]], a
    list count larger than the bytes left, a bad tag, trailing bytes,
    or a value its caller rejects — raises {!Corrupt}, and nothing
    else.  No reader here allocates more than its input can justify. *)

exception Corrupt of string

val corrupt : string -> 'a
(** [corrupt msg] raises [Corrupt msg]. *)

(** {1 Writers} *)

val add_varint : Buffer.t -> int -> unit
(** Raises [Invalid_argument] on a negative value. *)

val add_string : Buffer.t -> string -> unit
val add_bool : Buffer.t -> bool -> unit
val add_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val add_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val add_pair :
  (Buffer.t -> 'a -> unit) -> (Buffer.t -> 'b -> unit) -> Buffer.t ->
  'a * 'b -> unit

val add_triple :
  (Buffer.t -> 'a -> unit) -> (Buffer.t -> 'b -> unit) ->
  (Buffer.t -> 'c -> unit) -> Buffer.t -> 'a * 'b * 'c -> unit

val add_int64 : Buffer.t -> int64 -> unit

(** {1 Cursor reader} *)

type r

val decode : (r -> 'a) -> string -> 'a
(** [decode f s] runs [f] over a cursor at the start of [s] and raises
    {!Corrupt} unless it consumes [s] exactly. *)

val read_char : r -> char
val read_varint : r -> int
val read_string : r -> string
val read_bool : r -> bool
val read_option : (r -> 'a) -> r -> 'a option

val read_list : (r -> 'a) -> r -> 'a list
(** Every element must take at least one byte: the count is checked
    against the bytes left before anything is allocated. *)

val read_pair : (r -> 'a) -> (r -> 'b) -> r -> 'a * 'b
(** Reads the components in order, as {!add_pair} wrote them. *)

val read_triple : (r -> 'a) -> (r -> 'b) -> (r -> 'c) -> r -> 'a * 'b * 'c
val read_int64 : r -> int64

val read_fixed : r -> int -> string
(** [read_fixed r k] reads exactly [k] raw bytes. *)

val read_magic : r -> string -> unit
(** Consume the given tag bytes, or raise {!Corrupt}. *)

(** {1 CRC32 framing} *)

val frame : string -> string
(** [u32-LE length | u32-LE crc32 | payload]. *)

val read_frame : string -> int -> (string * int) option
(** [read_frame s pos] is the payload of the frame at [pos] and the
    position after it, or [None] when the bytes from [pos] are not a
    complete, CRC-clean frame of at most 1 GiB. *)
