module Recovery = Wm_fault.Recovery
module J = Wm_obs.Json
module Gio = Wm_graph.Graph_io

(* Binary primitives shared with {!Snapshot}: CRC32 (IEEE 802.3,
   reflected, polynomial 0xEDB88320), LEB128 varints, length-prefixed
   strings, and u32-LE framing. *)
module Bin = struct
  exception Corrupt of string

  let crc_table =
    lazy
      (Array.init 256 (fun i ->
           let c = ref (Int32.of_int i) in
           for _ = 1 to 8 do
             c :=
               if Int32.logand !c 1l <> 0l then
                 Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
               else Int32.shift_right_logical !c 1
           done;
           !c))

  let crc32 s =
    let table = Lazy.force crc_table in
    let c = ref 0xFFFFFFFFl in
    String.iter
      (fun ch ->
        let idx =
          Int32.to_int
            (Int32.logand
               (Int32.logxor !c (Int32.of_int (Char.code ch)))
               0xFFl)
        in
        c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
      s;
    Int32.to_int (Int32.logxor !c 0xFFFFFFFFl) land 0xFFFFFFFF

  let add_varint buf x =
    if x < 0 then invalid_arg "Wal: negative varint";
    let rec go x =
      if x < 0x80 then Buffer.add_char buf (Char.chr x)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
        go (x lsr 7)
      end
    in
    go x

  let add_string buf s =
    add_varint buf (String.length s);
    Buffer.add_string buf s

  let add_int64 buf v =
    for i = 0 to 7 do
      Buffer.add_char buf
        (Char.chr
           (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
    done

  let read_varint s pos =
    let rec go acc shift pos =
      if pos >= String.length s then raise (Corrupt "truncated varint")
      else
        let b = Char.code s.[pos] in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
    in
    go 0 0 pos

  let read_string s pos =
    let len, pos = read_varint s pos in
    if len < 0 || pos + len > String.length s then
      raise (Corrupt "truncated string")
    else (String.sub s pos len, pos + len)

  let read_int64 s pos =
    if pos + 8 > String.length s then raise (Corrupt "truncated int64")
    else begin
      let v = ref 0L in
      for i = 7 downto 0 do
        v :=
          Int64.logor
            (Int64.shift_left !v 8)
            (Int64.of_int (Char.code s.[pos + i]))
      done;
      (!v, pos + 8)
    end

  let le32 v =
    let b = Bytes.create 4 in
    for i = 0 to 3 do
      Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xff))
    done;
    Bytes.to_string b

  let read_le32 s pos =
    let v = ref 0 in
    for i = 3 downto 0 do
      v := (!v lsl 8) lor Char.code s.[pos + i]
    done;
    !v

  (* Frames larger than this are treated as corruption: no legitimate
     record approaches it, and an insane length field must not drive a
     gigabyte allocation. *)
  let max_frame = 1 lsl 30

  let frame payload = le32 (String.length payload) ^ le32 (crc32 payload) ^ payload

  (* Decode one [len | crc | payload] frame at [pos]; [None] when the
     remaining bytes are not a complete, CRC-clean frame. *)
  let read_frame s pos =
    let total = String.length s in
    if pos + 8 > total then None
    else begin
      let len = read_le32 s pos in
      let crc = read_le32 s (pos + 4) in
      if len > max_frame || pos + 8 + len > total then None
      else
        let payload = String.sub s (pos + 8) len in
        if crc32 payload <> crc then None else Some (payload, pos + 8 + len)
    end
end

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

let encode_body buf body =
  let open Bin in
  match body with
  | Load { origin; digest; graph } ->
      Buffer.add_char buf 'L';
      add_varint buf origin;
      add_string buf digest;
      add_string buf (Gio.to_binary graph)
  | Mutate { old_digest; new_digest; subsumed; add_vertices; add; remove } ->
      Buffer.add_char buf 'M';
      add_string buf old_digest;
      add_string buf new_digest;
      Buffer.add_char buf (if subsumed then '\001' else '\000');
      add_varint buf add_vertices;
      add_varint buf (List.length add);
      List.iter
        (fun (u, v, w) ->
          add_varint buf u;
          add_varint buf v;
          add_varint buf w)
        add;
      add_varint buf (List.length remove);
      List.iter
        (fun (u, v) ->
          add_varint buf u;
          add_varint buf v)
        remove
  | Evict { digest } -> (
      Buffer.add_char buf 'E';
      match digest with
      | None -> Buffer.add_char buf '\000'
      | Some d ->
          Buffer.add_char buf '\001';
          add_string buf d)
  | Flush { touches; inserts; warm } ->
      Buffer.add_char buf 'F';
      add_varint buf (List.length touches);
      List.iter (add_string buf) touches;
      add_varint buf (List.length inserts);
      List.iter
        (fun (k, v) ->
          add_string buf k;
          add_string buf (J.to_string v))
        inserts;
      add_varint buf (List.length warm);
      List.iter
        (fun (d, p, m) ->
          add_string buf d;
          add_string buf p;
          add_string buf (Gio.matching_to_binary m))
        warm
  | Stop -> Buffer.add_char buf 'S'
  | Base { lsn; order; last; stopped; cache; evictions } ->
      Buffer.add_char buf 'B';
      add_varint buf lsn;
      add_varint buf (List.length order);
      List.iter
        (fun (origin, digest) ->
          add_varint buf origin;
          add_string buf digest)
        order;
      (match last with
      | None -> Buffer.add_char buf '\000'
      | Some d ->
          Buffer.add_char buf '\001';
          add_string buf d);
      Buffer.add_char buf (if stopped then '\001' else '\000');
      add_varint buf (List.length cache);
      List.iter
        (fun (k, v) ->
          add_string buf k;
          add_string buf (J.to_string v))
        cache;
      add_varint buf evictions

let encode_record r =
  let open Bin in
  let buf = Buffer.create 256 in
  add_varint buf version;
  add_varint buf r.header.reqno;
  add_varint buf r.header.batchno;
  (match r.header.rng with
  | None -> Buffer.add_char buf '\000'
  | Some v ->
      Buffer.add_char buf '\001';
      add_int64 buf v);
  add_varint buf (Array.length r.header.counters);
  Array.iter (add_varint buf) r.header.counters;
  add_varint buf (List.length r.bodies);
  List.iter (encode_body buf) r.bodies;
  Buffer.contents buf

let read_result s pos =
  let text, pos = Bin.read_string s pos in
  match J.of_string text with
  | Ok v -> (v, pos)
  | Error _ -> raise (Bin.Corrupt "bad cached result")

let decode_body s pos =
  let open Bin in
  if pos >= String.length s then raise (Corrupt "truncated body");
  match s.[pos] with
  | 'L' ->
      let origin, pos = read_varint s (pos + 1) in
      let digest, pos = read_string s pos in
      let graph, pos = read_string s pos in
      (Load { origin; digest; graph = Gio.of_binary graph }, pos)
  | 'M' ->
      let old_digest, pos = read_string s (pos + 1) in
      let new_digest, pos = read_string s pos in
      if pos >= String.length s then raise (Corrupt "truncated body");
      let subsumed = s.[pos] = '\001' in
      let add_vertices, pos = read_varint s (pos + 1) in
      let na, pos = read_varint s pos in
      let pos = ref pos in
      let add =
        List.init na (fun _ ->
            let u, p = read_varint s !pos in
            let v, p = read_varint s p in
            let w, p = read_varint s p in
            pos := p;
            (u, v, w))
      in
      let nr, p = read_varint s !pos in
      pos := p;
      let remove =
        List.init nr (fun _ ->
            let u, p = read_varint s !pos in
            let v, p = read_varint s p in
            pos := p;
            (u, v))
      in
      ( Mutate { old_digest; new_digest; subsumed; add_vertices; add; remove },
        !pos )
  | 'E' ->
      if pos + 1 >= String.length s then raise (Corrupt "truncated body");
      if s.[pos + 1] = '\000' then (Evict { digest = None }, pos + 2)
      else
        let d, p = read_string s (pos + 2) in
        (Evict { digest = Some d }, p)
  | 'F' ->
      let nt, p = read_varint s (pos + 1) in
      let pos = ref p in
      let touches =
        List.init nt (fun _ ->
            let t, p = read_string s !pos in
            pos := p;
            t)
      in
      let ni, p = read_varint s !pos in
      pos := p;
      let inserts =
        List.init ni (fun _ ->
            let k, p = read_string s !pos in
            let v, p = read_result s p in
            pos := p;
            (k, v))
      in
      let nw, p = read_varint s !pos in
      pos := p;
      let warm =
        List.init nw (fun _ ->
            let d, p = read_string s !pos in
            let prm, p = read_string s p in
            let m, p = read_string s p in
            pos := p;
            (d, prm, Gio.matching_of_binary m))
      in
      (Flush { touches; inserts; warm }, !pos)
  | 'S' -> (Stop, pos + 1)
  | 'B' ->
      let lsn, p = read_varint s (pos + 1) in
      let no, p = read_varint s p in
      let pos = ref p in
      let order =
        List.init no (fun _ ->
            let origin, p = read_varint s !pos in
            let digest, p = read_string s p in
            pos := p;
            (origin, digest))
      in
      if !pos >= String.length s then raise (Corrupt "truncated body");
      let last, p =
        if s.[!pos] = '\001' then
          let d, p = read_string s (!pos + 1) in
          (Some d, p)
        else (None, !pos + 1)
      in
      if p >= String.length s then raise (Corrupt "truncated body");
      let stopped = s.[p] = '\001' in
      let nc, p = read_varint s (p + 1) in
      pos := p;
      let cache =
        List.init nc (fun _ ->
            let k, p = read_string s !pos in
            let v, p = read_result s p in
            pos := p;
            (k, v))
      in
      let evictions, p = read_varint s !pos in
      (Base { lsn; order; last; stopped; cache; evictions }, p)
  | c -> raise (Corrupt (Printf.sprintf "unknown body tag %C" c))

let decode_record s =
  let open Bin in
  let v, pos = read_varint s 0 in
  if v <> version then raise (Corrupt (Printf.sprintf "wal version %d" v));
  let reqno, pos = read_varint s pos in
  let batchno, pos = read_varint s pos in
  if pos >= String.length s then raise (Corrupt "truncated header");
  let rng, pos =
    if s.[pos] = '\001' then
      let v, p = read_int64 s (pos + 1) in
      (Some v, p)
    else (None, pos + 1)
  in
  let nc, pos = read_varint s pos in
  let pos = ref pos in
  let counters =
    Array.init nc (fun _ ->
        let v, p = read_varint s !pos in
        pos := p;
        v)
  in
  let nb, p = read_varint s !pos in
  pos := p;
  let bodies =
    List.init nb (fun _ ->
        let b, p = decode_body s !pos in
        pos := p;
        b)
  in
  if !pos <> String.length s then raise (Corrupt "trailing bytes in record");
  { header = { reqno; batchno; rng; counters }; bodies }

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

let append t record =
  let framed = Bin.frame (encode_record record) in
  let n = String.length framed in
  let written = Unix.write_substring t.fd framed 0 n in
  if written <> n then failwith "Wal.append: short write";
  Unix.fsync t.fd;
  t.head <- t.head + 1;
  t.physical <- t.physical + 1;
  Recovery.note_wal_append ~bytes:n;
  t.head

let close t = Unix.close t.fd

(* Rewrite the log as a single base record — atomically: the new log is
   written and fsynced to a temp file, renamed over [wal.log], and the
   directory entry fsynced, so a crash at any point leaves either the
   old log or the new one, never a mix.  The logical head is untouched:
   the base record's [Base.lsn] {e is} the head, and replay offsets
   later records past it. *)
let compact t record =
  let framed = Bin.frame (encode_record record) in
  let tmp = Filename.concat t.dir "wal.log.tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length framed in
      let written = Unix.write_substring fd framed 0 n in
      if written <> n then failwith "Wal.compact: short write";
      Unix.fsync fd);
  Unix.close t.fd;
  Sys.rename tmp (path ~dir:t.dir);
  (let dfd = Unix.openfile t.dir [ Unix.O_RDONLY ] 0 in
   Fun.protect
     ~finally:(fun () -> Unix.close dfd)
     (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ()));
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
    let ic = open_in_bin p in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let total = String.length text in
    let records = ref [] in
    let pos = ref 0 in
    let stop = ref false in
    while not !stop do
      match Bin.read_frame text !pos with
      | None -> stop := true
      | Some (payload, next) -> (
          match decode_record payload with
          | r ->
              records := r :: !records;
              pos := next
          | exception Bin.Corrupt _ -> stop := true)
    done;
    let truncated = total - !pos in
    if truncated > 0 then begin
      let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Unix.ftruncate fd !pos);
      Recovery.note_wal_truncated ~bytes:truncated
    end;
    (List.rev !records, truncated)
  end
