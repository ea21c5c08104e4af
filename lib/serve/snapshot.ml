module Recovery = Wm_fault.Recovery
module Bin = Wal.Bin

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
let tmp_prefix = ".tmp-"

let name origin = Printf.sprintf "%s%d.bin" prefix origin
let file ~dir origin = Filename.concat dir (name origin)

let encode s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Bin.add_varint buf s.origin;
  Bin.add_varint buf s.lsn;
  Bin.add_string buf s.digest;
  Bin.add_varint buf s.generation;
  Bin.add_string buf (Wm_graph.Graph_io.to_binary s.graph);
  Bin.add_varint buf (List.length s.warm);
  List.iter
    (fun (params, m) ->
      Bin.add_string buf params;
      Bin.add_string buf (Wm_graph.Graph_io.matching_to_binary m))
    s.warm;
  Buffer.contents buf

let decode payload =
  if String.length payload < 4 || String.sub payload 0 4 <> magic then
    raise (Bin.Corrupt "snapshot magic");
  let origin, pos = Bin.read_varint payload 4 in
  let lsn, pos = Bin.read_varint payload pos in
  let digest, pos = Bin.read_string payload pos in
  let generation, pos = Bin.read_varint payload pos in
  let graph_bin, pos = Bin.read_string payload pos in
  let nw, pos = Bin.read_varint payload pos in
  let pos = ref pos in
  let warm =
    List.init nw (fun _ ->
        let params, p = Bin.read_string payload !pos in
        let mbin, p = Bin.read_string payload p in
        pos := p;
        (params, Wm_graph.Graph_io.matching_of_binary mbin))
  in
  if !pos <> String.length payload then
    raise (Bin.Corrupt "trailing bytes in snapshot");
  (* [of_binary] recomputes the content digest and refuses a mismatch;
     cross-check it against the header so the file cannot claim to be a
     snapshot of content it does not hold. *)
  let graph = Wm_graph.Graph_io.of_binary graph_bin in
  if Wm_graph.Graph_io.digest graph <> digest then
    raise (Bin.Corrupt "snapshot digest mismatch");
  { origin; lsn; digest; generation; graph; warm }

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Atomic publication: write the frame to a dot-tmp sibling, fsync it,
   rename over the target, fsync the directory.  A crash at any point
   leaves either the old snapshot or the new one — never a torn file
   under the live name. *)
let write ~dir s =
  let framed = Bin.frame (encode s) in
  let target = file ~dir s.origin in
  let tmp = Filename.concat dir (tmp_prefix ^ name s.origin) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length framed in
      if Unix.write_substring fd framed 0 n <> n then
        failwith "Snapshot.write: short write";
      Unix.fsync fd);
  Unix.rename tmp target;
  fsync_dir dir;
  let bytes = String.length framed in
  Recovery.note_snapshot ~bytes ~at:s.lsn;
  bytes

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let snapshot_files ~dir =
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter (String.starts_with ~prefix)

(* Keep exactly the files of the [live] origins.  Files named by digest
   (an older layout) never match, so the first GC after an upgrade
   sweeps them. *)
let gc ~dir ~live =
  let keep = List.map name live in
  List.iter
    (fun f ->
      if not (List.mem f keep) then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (snapshot_files ~dir)

(* Load every valid snapshot in [dir], newest per origin.  Invalid
   files — torn frames, CRC failures, digest mismatches, stray tmp
   files from a crashed writer — are skipped, never fatal: restore
   fails only if a record it replays needs the missing snapshot. *)
let load_all ~dir =
  let best = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let path = Filename.concat dir name in
      match read_file path with
      | text -> (
          match Bin.read_frame text 0 with
          | Some (payload, _) -> (
              match decode payload with
              | s -> (
                  match Hashtbl.find_opt best s.origin with
                  | Some (prev, _) when prev.lsn >= s.lsn -> ()
                  | _ -> Hashtbl.replace best s.origin (s, String.length text))
              | exception Bin.Corrupt _ -> ()
              | exception Wm_graph.Graph_io.Parse_error _ -> ()
              | exception Invalid_argument _ -> ())
          | None -> ())
      | exception Sys_error _ -> ())
    (snapshot_files ~dir);
  Hashtbl.fold (fun _ sb acc -> sb :: acc) best []
  |> List.sort (fun (a, _) (b, _) -> compare a.origin b.origin)
