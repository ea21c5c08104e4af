module Recovery = Wm_fault.Recovery
module J = Wm_obs.Json
module Gio = Wm_graph.Graph_io
module Bin = Wm_graph.Bin

(* ------------------------------------------------------------------ *)
(* Record model.  One record per handled input line; the header is the
   end-of-line server state (request/batch tallies, the per-server
   counter vector as deltas from the server's creation baseline, and
   the fault injector's generator position), the bodies are the line's
   state effects in execution order.  A line whose only effect is
   tallies (stats, malformed input, an immediately-rejected solve)
   writes a record with no bodies — a mark. *)

type header = {
  reqno : int;
  batchno : int;
  rng : int64 option;
  counters : int array;
}

type body =
  | Load of { origin : int; digest : string; graph : Wm_graph.Weighted_graph.t }
  | Mutate of {
      old_digest : string;
      new_digest : string;
      subsumed : bool;
      add_vertices : int;
      add : (int * int * int) list;
      remove : (int * int) list;
    }
  | Evict of { digest : string option }
  | Flush of {
      touches : string list;
      inserts : (string * J.t) list;
      warm : (string * string * Wm_graph.Matching.t) list;
    }
  | Stop
  | Base of {
      lsn : int;
      order : (int * string) list;
      last : string option;
      stopped : bool;
      cache : (string * J.t) list;
      evictions : int;
    }

type record = { header : header; bodies : body list }

let version = 1

(* The record codec, writer and reader side by side.  Cached results
   travel as JSON text; graphs and matchings as {!Gio} frames. *)

(* Rendered on both of [Bin.encode]'s runs; a cached result is a few
   hundred bytes of JSON. *)
let add_result w v = Bin.add_string w (J.to_string v)

let read_result r =
  match J.of_string (Bin.read_string r) with
  | Ok v -> v
  | Error _ -> Bin.corrupt "bad cached result"

let add_matching w m = Bin.add_nested w (fun w -> Gio.add_matching w m)
let read_matching r = Gio.matching_of_binary (Bin.read_string r)

let add_body w body =
  let open Bin in
  match body with
  | Load { origin; digest; graph } ->
      add_char w 'L';
      add_varint w origin;
      add_string w digest;
      add_nested w (fun w -> Gio.add_graph w ~digest graph)
  | Mutate { old_digest; new_digest; subsumed; add_vertices; add; remove } ->
      add_char w 'M';
      add_string w old_digest;
      add_string w new_digest;
      add_bool w subsumed;
      add_varint w add_vertices;
      add_list (add_triple add_varint add_varint add_varint) w add;
      add_list (add_pair add_varint add_varint) w remove
  | Evict { digest } ->
      add_char w 'E';
      add_option add_string w digest
  | Flush { touches; inserts; warm } ->
      add_char w 'F';
      add_list add_string w touches;
      add_list (add_pair add_string add_result) w inserts;
      add_list (add_triple add_string add_string add_matching) w warm
  | Stop -> add_char w 'S'
  | Base { lsn; order; last; stopped; cache; evictions } ->
      add_char w 'B';
      add_varint w lsn;
      add_list (add_pair add_varint add_string) w order;
      add_option add_string w last;
      add_bool w stopped;
      add_list (add_pair add_string add_result) w cache;
      add_varint w evictions

let decode_body r =
  let open Bin in
  match read_char r with
  | 'L' ->
      let origin = read_varint r in
      let digest = read_string r in
      Load { origin; digest; graph = Gio.of_binary (read_string r) }
  | 'M' ->
      let old_digest = read_string r in
      let new_digest = read_string r in
      let subsumed = read_bool r in
      let add_vertices = read_varint r in
      let add = read_list (read_triple read_varint read_varint read_varint) r in
      let remove = read_list (read_pair read_varint read_varint) r in
      Mutate { old_digest; new_digest; subsumed; add_vertices; add; remove }
  | 'E' -> Evict { digest = read_option read_string r }
  | 'F' ->
      let touches = read_list read_string r in
      let inserts = read_list (read_pair read_string read_result) r in
      let warm =
        read_list (read_triple read_string read_string read_matching) r
      in
      Flush { touches; inserts; warm }
  | 'S' -> Stop
  | 'B' ->
      let lsn = read_varint r in
      let order = read_list (read_pair read_varint read_string) r in
      let last = read_option read_string r in
      let stopped = read_bool r in
      let cache = read_list (read_pair read_string read_result) r in
      Base { lsn; order; last; stopped; cache; evictions = read_varint r }
  | c -> corrupt (Printf.sprintf "unknown body tag %C" c)

let add_record w { header = h; bodies } =
  let open Bin in
  add_varint w version;
  add_varint w h.reqno;
  add_varint w h.batchno;
  add_option add_int64 w h.rng;
  add_varint w (Array.length h.counters);
  Array.iter (add_varint w) h.counters;
  add_list add_body w bodies

let encode_record r = Bin.encode (fun w -> add_record w r)

let decode_record =
  Bin.decode (fun r ->
      let open Bin in
      let v = read_varint r in
      if v <> version then corrupt (Printf.sprintf "wal version %d" v);
      let reqno = read_varint r in
      let batchno = read_varint r in
      let rng = read_option read_int64 r in
      let counters = Array.of_list (read_list read_varint r) in
      let bodies = read_list decode_body r in
      { header = { reqno; batchno; rng; counters }; bodies })

(* ------------------------------------------------------------------ *)
(* The log file: a sequence of [len | crc | payload] frames, one per
   record, appended with an fsync each — a record is durable before the
   line's responses leave the process. *)

let log_file = "wal.log"
let path ~dir = Filename.concat dir log_file

type t = {
  dir : string;
  mutable fd : Unix.file_descr;
  mutable head : int;
  mutable physical : int;
}

let open_append ~dir =
  Unix.openfile (path ~dir) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

let open_log ~dir ~head ~physical = { dir; fd = open_append ~dir; head; physical }

let head t = t.head
let physical t = t.physical

let with_fd path flags f =
  let fd = Unix.openfile path flags 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let write_synced fd bytes =
  let n = String.length bytes in
  if Unix.write_substring fd bytes 0 n <> n then failwith "Wal: short write";
  Unix.fsync fd

let append t record =
  let framed = Bin.encode_frame (fun w -> add_record w record) in
  write_synced t.fd framed;
  t.head <- t.head + 1;
  t.physical <- t.physical + 1;
  Recovery.note_wal_append ~bytes:(String.length framed);
  t.head

let close t = Unix.close t.fd

(* Atomic publication: write [bytes] to a dot-tmp sibling, fsync it,
   rename it over [dir/name], fsync the directory.  A crash at any point
   leaves either the old file or the new one under [name], never a torn
   mix. *)
let publish ~dir name bytes =
  let tmp = Filename.concat dir (".tmp-" ^ name) in
  with_fd tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] (fun fd ->
      write_synced fd bytes);
  Unix.rename tmp (Filename.concat dir name);
  try with_fd dir [ Unix.O_RDONLY ] Unix.fsync with Unix.Unix_error _ -> ()

(* Rewrite the log as a single base record, published atomically.  The
   logical head is untouched: the base record's [Base.lsn] {e is} the
   head, and replay offsets later records past it. *)
let compact t record =
  publish ~dir:t.dir log_file
    (Bin.encode_frame (fun w -> add_record w record));
  Unix.close t.fd;
  t.fd <- open_append ~dir:t.dir;
  t.physical <- 1

(* Scan the log, decoding frames until EOF or the first bad frame.
   Anything after the last good frame — a torn tail from a mid-append
   crash, or a CRC/decode failure from corruption — is truncated in
   place, so the next append continues a clean log. *)
let scan ~dir =
  let p = path ~dir in
  if not (Sys.file_exists p) then ([], 0)
  else begin
    let text = In_channel.with_open_bin p In_channel.input_all in
    let rec go pos acc =
      match Bin.read_frame text pos with
      | None -> (pos, acc)
      | Some (payload, next) -> (
          match decode_record payload with
          | r -> go next (r :: acc)
          | exception Bin.Corrupt _ -> (pos, acc))
    in
    let good, records = go 0 [] in
    let truncated = String.length text - good in
    if truncated > 0 then begin
      with_fd p [ Unix.O_WRONLY ] (fun fd -> Unix.ftruncate fd good);
      Recovery.note_wal_truncated ~bytes:truncated
    end;
    (List.rev records, truncated)
  end
