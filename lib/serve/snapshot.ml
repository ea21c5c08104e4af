module Recovery = Wm_fault.Recovery
module Bin = Wm_graph.Bin
module Gio = Wm_graph.Graph_io

type s = {
  origin : int;
  lsn : int;
  digest : string;
  generation : int;
  graph : Wm_graph.Weighted_graph.t;
  warm : (string * Wm_graph.Matching.t) list;
}

let magic = "WSN1"
let prefix = "snap-"

(* Versioned by LSN: a new snapshot never replaces the one the durable
   [Base] record names. *)
let name origin lsn = Printf.sprintf "%s%d-%d.bin" prefix origin lsn
let file ~dir ~lsn origin = Filename.concat dir (name origin lsn)

let add_snapshot w s =
  let open Bin in
  add_fixed w magic;
  add_varint w s.origin;
  add_varint w s.lsn;
  add_string w s.digest;
  add_varint w s.generation;
  add_nested w (fun w -> Gio.add_graph w ~digest:s.digest s.graph);
  let add_matching w m = add_nested w (fun w -> Gio.add_matching w m) in
  add_list (add_pair add_string add_matching) w s.warm

(* [Gio.of_binary_with_digest] hashes the graph and refuses a frame
   whose trailer disagrees; the header's digest is compared with that
   checked trailer, so the file cannot claim to be a snapshot of content
   it does not hold, and the graph is hashed once. *)
let decode =
  Bin.decode (fun r ->
      let open Bin in
      read_magic r magic;
      let origin = read_varint r in
      let lsn = read_varint r in
      let digest = read_string r in
      let generation = read_varint r in
      let graph, framed = Gio.of_binary_with_digest (read_string r) in
      let read_matching r = Gio.matching_of_binary (read_string r) in
      let warm = read_list (read_pair read_string read_matching) r in
      if framed <> digest then corrupt "snapshot digest mismatch";
      { origin; lsn; digest; generation; graph; warm })

let write ~dir s =
  let framed = Bin.encode_frame (fun w -> add_snapshot w s) in
  Wal.publish ~dir (name s.origin s.lsn) framed;
  let bytes = String.length framed in
  Recovery.note_snapshot ~bytes ~at:s.lsn;
  bytes

let snapshot_files ~dir =
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter (String.starts_with ~prefix)

(* Keep exactly the [live] origins' files at [lsn].  Older versions
   and files of an older layout never match, so this GC sweeps them. *)
let gc ~dir ~lsn ~live =
  let keep = List.map (fun origin -> name origin lsn) live in
  List.iter
    (fun f ->
      if not (List.mem f keep) then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (snapshot_files ~dir)

(* Load every valid snapshot in [dir].  Invalid files — torn frames,
   CRC failures, digest mismatches, stray tmp files from a crashed
   writer — are skipped, never fatal: restore fails only if the base
   record it replays needs the missing snapshot. *)
let load_all ~dir =
  List.filter_map
    (fun name ->
      match
        In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
      with
      | exception Sys_error _ -> None
      | text -> (
          match Option.map (fun (p, _) -> decode p) (Bin.read_frame text 0) with
          | Some s -> Some (s, String.length text)
          | None | (exception Bin.Corrupt _) -> None))
    (snapshot_files ~dir)
