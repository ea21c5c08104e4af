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

(** {1 Writers}

    An encoder is a function over a writer.  {!encode} and
    {!encode_frame} run it twice: once to size the output, once to fill
    a buffer of exactly that size, which becomes the result string with
    no further copy.  An encoder must therefore write the same bytes on
    both runs, as any pure function of the value it encodes does. *)

type w

val encode : (w -> unit) -> string

val encode_frame : (w -> unit) -> string
(** [encode_frame f] is [u32-LE length | u32-LE crc32 | encode f], with
    the length and CRC filled in place in front of the payload. *)

val add_varint : w -> int -> unit
(** Raises [Invalid_argument] on a negative value. *)

val add_char : w -> char -> unit

val add_fixed : w -> string -> unit
(** The bytes of the string, with no length prefix (the inverse of
    {!read_fixed}). *)

val add_string : w -> string -> unit
val add_bool : w -> bool -> unit
val add_option : (w -> 'a -> unit) -> w -> 'a option -> unit
val add_list : (w -> 'a -> unit) -> w -> 'a list -> unit
val add_pair : (w -> 'a -> unit) -> (w -> 'b -> unit) -> w -> 'a * 'b -> unit

val add_triple :
  (w -> 'a -> unit) -> (w -> 'b -> unit) -> (w -> 'c -> unit) -> w ->
  'a * 'b * 'c -> unit

val add_int64 : w -> int64 -> unit

val add_nested : w -> (w -> unit) -> unit
(** [add_nested w f] writes what [add_string w (encode f)] would, without
    building the inner string: the payload's size is taken from the
    sizing run. *)

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

val read_array : (r -> 'a) -> r -> 'a array
(** The bytes {!read_list} reads, with the same count check, decoded
    straight into an array in element order. *)

val read_pair : (r -> 'a) -> (r -> 'b) -> r -> 'a * 'b
(** Reads the components in order, as {!add_pair} wrote them. *)

val read_triple : (r -> 'a) -> (r -> 'b) -> (r -> 'c) -> r -> 'a * 'b * 'c
val read_int64 : r -> int64

val read_fixed : r -> int -> string
(** [read_fixed r k] reads exactly [k] raw bytes. *)

val read_magic : r -> string -> unit
(** Consume the given tag bytes, or raise {!Corrupt}. *)

(** {1 CRC32 framing} *)

val read_frame : string -> int -> (string * int) option
(** [read_frame s pos] is the payload of the {!encode_frame} frame at
    [pos] and the
    position after it, or [None] when the bytes from [pos] are not a
    complete, CRC-clean frame of at most 1 GiB. *)
