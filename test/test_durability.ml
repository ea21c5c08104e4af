(* Tests for the durability subsystem (DESIGN.md §5.5):

   - WAL framing: append/scan round-trip, torn final record truncated
     in place, CRC corruption mid-log cutting everything after it,
     empty and missing logs;
   - the on-disk format: hex goldens for every WAL body kind, both
     graph frames, a snapshot file and a log file, which the codec must
     reproduce and decode back;
   - decoders raise only [Bin.Corrupt], and [Wal.scan] cuts a CRC-clean
     frame that fails to decode;
   - the binary graph/matching codec round-trips with digests intact,
     and corrupted bytes never raise anything but [Bin.Corrupt]
     (property-based);
   - restore semantics: kill/restart byte-identity against an unkilled
     control, snapshots newer than the log are ignored (the log is the
     authority), cache eviction re-keys correctly when the restored
     snapshot generation trails the WAL head, an orderly drain
     leaves snapshots a fresh server restores from, a kill between a
     snapshot point's writes and its compaction restores the version
     the base names, and a snapshot under the older unversioned name
     still restores. *)

module J = Wm_obs.Json
module E = Wm_graph.Edge
module G = Wm_graph.Weighted_graph
module M = Wm_graph.Matching
module P = Wm_graph.Prng
module Gen = Wm_graph.Gen
module IO = Wm_graph.Graph_io
module Wal = Wm_serve.Wal
module Server = Wm_serve.Server
module Certify = Wm_core.Certify

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let f = Filename.temp_file (Printf.sprintf "wm_dur%d_" !ctr) "" in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f

let slurp path = In_channel.with_open_bin path In_channel.input_all

let spew path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let sample_graph seed =
  let rng = P.create seed in
  Gen.gnp rng ~n:12 ~p:0.3 ~weights:(Gen.Uniform (1, 20))

(* ------------------------------------------------------------------ *)
(* WAL framing *)

let sample_records () =
  (* Session graphs, hence the graphs in WAL records, are canonical. *)
  let g = G.canonical (sample_graph 7) in
  let hdr i =
    {
      Wal.reqno = i;
      batchno = i / 2;
      rng = (if i mod 2 = 0 then Some (Int64.of_int (31 * i)) else None);
      counters = Array.init 18 (fun k -> k * i);
    }
  in
  [
    {
      Wal.header = hdr 1;
      bodies =
        [ Wal.Load { origin = 1; digest = IO.digest g; graph = g } ];
    };
    { Wal.header = hdr 2; bodies = [] };
    {
      Wal.header = hdr 3;
      bodies =
        [
          Wal.Mutate
            {
              old_digest = "aaaa";
              new_digest = "bbbb";
              subsumed = false;
              add_vertices = 2;
              add = [ (0, 5, 9) ];
              remove = [ (1, 2) ];
            };
          Wal.Flush
            {
              touches = [ "k1" ];
              inserts = [ ("k2", J.Obj [ ("x", J.Int 1) ]) ];
              warm = [ ("bbbb", "key", M.of_edges 12 [ E.make 0 5 9 ]) ];
            };
        ];
    };
    { Wal.header = hdr 4; bodies = [ Wal.Evict { digest = Some "bbbb" }; Wal.Stop ] };
  ]

(* Records and graphs are compared by content: a graph's adjacency index
   is a memo built on its first neighbour query, so polymorphic equality
   would see whether it is built yet.  The index is a function of the
   edges, so equal encodings (or equal [n] and edge arrays) mean equal
   values. *)
let same_records a b =
  List.equal String.equal (List.map Wal.encode_record a)
    (List.map Wal.encode_record b)

let same_graph a b = G.n a = G.n b && G.edges a = G.edges b

let write_log dir recs =
  let w = Wal.open_log ~dir ~head:0 ~physical:0 in
  List.iteri (fun i r -> check "lsn" (i + 1) (Wal.append w r)) recs;
  Wal.close w

let test_wal_roundtrip () =
  let dir = fresh_dir () in
  let recs = sample_records () in
  write_log dir recs;
  let got, cut = Wal.scan ~dir in
  check "truncated" 0 cut;
  check_bool "records round-trip" true (same_records got recs)

let test_torn_tail () =
  let dir = fresh_dir () in
  let recs = sample_records () in
  write_log dir recs;
  (* A torn append: the length word claims 64 bytes, two arrive. *)
  let path = Wal.path ~dir in
  spew path (slurp path ^ "\x40\x00\x00\x00\xde\xad");
  let got, cut = Wal.scan ~dir in
  check_bool "records survive" true (same_records got recs);
  check "tail cut" 6 cut;
  (* The cut is physical: a re-scan is clean. *)
  let got2, cut2 = Wal.scan ~dir in
  check "clean rescan" 0 cut2;
  check "count preserved" (List.length recs) (List.length got2)

let test_crc_mismatch_midlog () =
  let dir = fresh_dir () in
  let recs = sample_records () in
  write_log dir recs;
  (* Flip a byte inside the second record's payload: everything from
     that record on is unusable and must be cut, keeping the prefix. *)
  let first_frame = 8 + String.length (Wal.encode_record (List.hd recs)) in
  let path = Wal.path ~dir in
  let s = Bytes.of_string (slurp path) in
  let off = first_frame + 8 + 1 in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  spew path (Bytes.to_string s);
  let got, cut = Wal.scan ~dir in
  check "prefix only" 1 (List.length got);
  check_bool "first record intact" true
    (same_records [ List.hd got ] [ List.hd recs ]);
  check_bool "rest cut" true (cut > 0)

let test_empty_and_missing () =
  let dir = fresh_dir () in
  let got, cut = Wal.scan ~dir in
  check "missing file: no records" 0 (List.length got);
  check "missing file: no cut" 0 cut;
  let w = Wal.open_log ~dir ~head:0 ~physical:0 in
  Wal.close w;
  let got2, cut2 = Wal.scan ~dir in
  check "empty file: no records" 0 (List.length got2);
  check "empty file: no cut" 0 cut2

(* ------------------------------------------------------------------ *)
(* On-disk format pin: hex goldens for every body kind, both graph
   frames, a snapshot file and an appended log file.  Any codec change
   must reproduce these bytes exactly and decode each back to an equal
   value. *)

let golden_graph =
  G.create ~n:6
    [ E.make 0 1 5; E.make 2 3 300; E.make 4 1 70_000; E.make 5 4 1 ]

(* Session graphs are canonical, but [golden_graph]'s edges are not in
   (u, v) order: its frames pin that decoding canonicalises them. *)
let decoded_body = function
  | Wal.Load l -> Wal.Load { l with graph = G.canonical l.graph }
  | b -> b

let decoded (r : Wal.record) = { r with bodies = List.map decoded_body r.bodies }

let golden_matching = M.of_edges 6 [ E.make 0 1 5; E.make 2 3 300 ]

let golden_records =
  let d = IO.digest golden_graph in
  let hdr ?rng i =
    {
      Wal.reqno = i;
      batchno = 1000 * i;
      rng;
      counters = [| 0; 1; 127; 128; 1 lsl 40 |];
    }
  in
  let result = J.Obj [ ("w", J.Int 12); ("ok", J.Bool true) ] in
  [
    ( "load",
      {
        Wal.header = hdr ~rng:0x0123456789abcdefL 1;
        bodies = [ Wal.Load { origin = 1; digest = d; graph = golden_graph } ];
      } );
    ( "mutate",
      {
        Wal.header = hdr 2;
        bodies =
          [
            Wal.Mutate
              {
                old_digest = d;
                new_digest = "0123456789abcdef";
                subsumed = false;
                add_vertices = 2;
                add = [ (0, 6, 9); (3, 7, 200) ];
                remove = [ (2, 3) ];
              };
            Wal.Mutate
              {
                old_digest = "0123456789abcdef";
                new_digest = d;
                subsumed = true;
                add_vertices = 0;
                add = [];
                remove = [];
              };
          ];
      } );
    ( "evict",
      {
        Wal.header = hdr ~rng:(-1L) 3;
        bodies = [ Wal.Evict { digest = None }; Wal.Evict { digest = Some d } ];
      } );
    ( "flush",
      {
        Wal.header = hdr 4;
        bodies =
          [
            Wal.Flush
              {
                touches = [ "t1"; "t2" ];
                inserts = [ ("k1", result) ];
                warm = [ (d, "algo=streaming", golden_matching) ];
              };
          ];
      } );
    ("stop", { Wal.header = hdr ~rng:0L 5; bodies = [ Wal.Stop ] });
    ( "base",
      {
        Wal.header = hdr 6;
        bodies =
          [
            Wal.Base
              {
                lsn = 6;
                order = [];
                last = None;
                stopped = false;
                cache = [];
                evictions = 0;
              };
            Wal.Base
              {
                lsn = 300;
                order = [ (1, d); (4, "0123456789abcdef") ];
                last = Some d;
                stopped = true;
                cache = [ ("k1", result); ("k2", J.Str "x") ];
                evictions = 130;
              };
          ];
      } );
    ("mark", { Wal.header = hdr 7; bodies = [] });
  ]

let golden_snapshot =
  {
    Wm_serve.Snapshot.origin = 3;
    lsn = 9;
    digest = IO.digest golden_graph;
    generation = 2;
    graph = golden_graph;
    warm = [ ("p1", golden_matching); ("p2", M.create 6) ];
  }

(* The bytes the current code emits for each golden case. *)
let golden_bytes () =
  let dir = fresh_dir () in
  ignore (Wm_serve.Snapshot.write ~dir golden_snapshot);
  write_log dir (List.map snd golden_records);
  List.map
    (fun (name, r) -> ("record " ^ name, Wal.encode_record r))
    golden_records
  @ [
      ("graph frame", IO.to_binary golden_graph);
      ("matching frame", IO.matching_to_binary golden_matching);
      ("snapshot file", slurp (Wm_serve.Snapshot.file ~dir ~lsn:9 3));
      ("log file", slurp (Wal.path ~dir));
    ]

(* The version-1 bytes, generated once and never regenerated. *)
let golden_hex =
  [
    ( "record load",
      "0101e80701efcdab89674523010500017f8001808080808020014c0110333235\
       6364323864363339376430346525574d423106040001050203ac020104f0a204\
       04050133323563643238643633393764303465" );
    ( "record mutate",
      "0102d00f000500017f8001808080808020024d10333235636432386436333937\
       6430346510303132333435363738396162636465660002020006090307c80101\
       02034d1030313233343536373839616263646566103332356364323864363339\
       376430346501000000" );
    ( "record evict",
      "0103b81701ffffffffffffffff0500017f800180808080802002450045011033\
       323563643238643633393764303465" );
    ( "record flush",
      "0104a01f000500017f800180808080802001460202743102743201026b31127b\
       2277223a31322c226f6b223a747275657d011033323563643238643633393764\
       3034650e616c676f3d73747265616d696e670d574d4d3106020001050203ac02" );
    ( "record stop",
      "010588270100000000000000000500017f80018080808080200153" );
    ( "record base",
      "0106f02e000500017f8001808080808020024206000000000042ac0202011033\
       3235636432386436333937643034650410303132333435363738396162636465\
       660110333235636432386436333937643034650102026b31127b2277223a3132\
       2c226f6b223a747275657d026b32032278228201" );
    ( "record mark",
      "0107d836000500017f800180808080802000" );
    ( "graph frame",
      "574d423106040001050203ac020104f0a2040405013332356364323864363339\
       3764303465" );
    ( "matching frame",
      "574d4d3106020001050203ac02" );
    ( "snapshot file",
      "5a000000f9a5a59557534e310309103332356364323864363339376430346502\
       25574d423106040001050203ac020104f0a20404050133323563643238643633\
       393764303465020270310d574d4d3106020001050203ac0202703206574d4d31\
       0600" );
    ( "log file",
      "5300000059451f1d0101e80701efcdab89674523010500017f80018080808080\
       20014c01103332356364323864363339376430346525574d4231060400010502\
       03ac020104f0a2040405013332356364323864363339376430346569000000d4\
       30845f0102d00f000500017f8001808080808020024d10333235636432386436\
       3339376430346510303132333435363738396162636465660002020006090307\
       c8010102034d1030313233343536373839616263646566103332356364323864\
       3633393764303465010000002f00000062f90b140103b81701ffffffffffffff\
       ff0500017f800180808080802002450045011033323563643238643633393764\
       303465600000009481ab970104a01f000500017f800180808080802001460202\
       743102743201026b31127b2277223a31322c226f6b223a747275657d01103332\
       35636432386436333937643034650e616c676f3d73747265616d696e670d574d\
       4d3106020001050203ac021b000000a56b57a501058827010000000000000000\
       0500017f80018080808080200153740000001d81b1330106f02e000500017f80\
       01808080808020024206000000000042ac020201103332356364323864363339\
       3764303465041030313233343536373839616263646566011033323563643238\
       6436333937643034650102026b31127b2277223a31322c226f6b223a74727565\
       7d026b3203227822820112000000adbf856e0107d836000500017f8001808080\
       80802000" );
  ]

let hex = Wm_serve.Protocol.hex_encode
let unhex = Wm_serve.Protocol.hex_decode

let test_format_goldens () =
  List.iter2
    (fun (name, want) (name', bytes) ->
      check_str "golden case" name name';
      check_str name want (hex bytes))
    golden_hex (golden_bytes ());
  let golden name = unhex (List.assoc name golden_hex) in
  List.iter
    (fun (name, r) ->
      check_bool ("decode record " ^ name) true
        (same_records [ Wal.decode_record (golden ("record " ^ name)) ]
           [ decoded r ]))
    golden_records;
  check_bool "decode graph frame" true
    (same_graph
       (IO.of_binary (golden "graph frame"))
       (G.canonical golden_graph));
  check_bool "decode matching frame" true
    (IO.matching_of_binary (golden "matching frame") = golden_matching);
  let dir = fresh_dir () in
  spew (Wm_serve.Snapshot.file ~dir ~lsn:9 3) (golden "snapshot file");
  spew (Wal.path ~dir) (golden "log file");
  (match Wm_serve.Snapshot.load_all ~dir with
  | [ (s, _) ] ->
      let fields (s : Wm_serve.Snapshot.s) =
        (s.origin, s.lsn, s.digest, s.generation, s.warm)
      in
      check_bool "decode snapshot file" true
        (fields s = fields golden_snapshot
        && same_graph s.graph (G.canonical golden_graph))
  | l -> Alcotest.failf "expected one snapshot, got %d" (List.length l));
  let recs, cut = Wal.scan ~dir in
  check "decode log file: nothing cut" 0 cut;
  check_bool "decode log file" true
    (same_records recs (List.map (fun (_, r) -> decoded r) golden_records))

(* A CRC-clean frame whose payload does not decode ends the valid
   prefix exactly like a torn tail: [scan] keeps the records before it
   and cuts the frame. *)
let scan_cuts_undecodable payload () =
  let dir = fresh_dir () in
  let recs = sample_records () in
  write_log dir recs;
  let path = Wal.path ~dir in
  let good = slurp path in
  let bad = Wm_graph.Bin.(encode_frame (fun w -> add_fixed w payload)) in
  spew path (good ^ bad);
  let got, cut = Wal.scan ~dir in
  check_bool "good prefix kept" true (same_records got recs);
  check "bad frame cut" (String.length bad) cut;
  check_str "file truncated to the prefix" good (slurp path)

(* Header: version 1, reqno 9, batchno 4, no rng, no counters, one body. *)
let record_header = "\x01\x09\x04\x00\x00\x01"

let test_scan_cuts_junk_load =
  scan_cuts_undecodable
    (record_header ^ "L\x01\x100123456789abcdef\x08WMB1junk")

(* A Flush whose touch count is a 9-byte varint with the sign bit set. *)
let test_scan_cuts_negative_count =
  scan_cuts_undecodable
    (record_header ^ "F\xff\xff\xff\xff\xff\xff\xff\xff\x7f")

(* A snapshot whose header names one digest while its graph frame is a
   clean frame of other content is refused by [Snapshot.decode] and
   skipped by [load_all]; the same bytes with the frame's own digest in
   the header decode, so the refusal is the digest's. *)
let test_snapshot_digest_disagrees () =
  let module Bin = Wm_graph.Bin in
  let g = G.canonical golden_graph and other = IO.digest (sample_graph 7) in
  let payload header =
    Bin.encode (fun w ->
        Bin.add_fixed w "WSN1";
        Bin.add_varint w 3;
        Bin.add_varint w 9;
        Bin.add_string w header;
        Bin.add_varint w 2;
        Bin.add_string w (IO.to_binary g);
        Bin.add_varint w 0 (* no warm matchings *))
  in
  check_bool "the header's digest differs" true (other <> IO.digest g);
  check_str "own digest decodes" (IO.digest g)
    (Wm_serve.Snapshot.decode (payload (IO.digest g))).digest;
  Alcotest.check_raises "decode refuses"
    (Bin.Corrupt "snapshot digest mismatch") (fun () ->
      ignore (Wm_serve.Snapshot.decode (payload other)));
  let dir = fresh_dir () in
  spew
    (Wm_serve.Snapshot.file ~dir ~lsn:9 3)
    (Bin.encode_frame (fun w -> Bin.add_fixed w (payload other)));
  check "load_all skips it" 0 (List.length (Wm_serve.Snapshot.load_all ~dir))

(* A graph frame's edge count is checked against the bytes left before
   the edge array is allocated. *)
let test_graph_frame_count_checked () =
  let module Bin = Wm_graph.Bin in
  let frame =
    Bin.encode (fun w ->
        Bin.add_fixed w "WMB1";
        List.iter (Bin.add_varint w) [ 6; 1_000_000; 0; 1; 5 ];
        Bin.add_fixed w (IO.digest golden_graph))
  in
  Alcotest.check_raises "count past the bytes left"
    (Bin.Corrupt "list count exceeds the bytes left") (fun () ->
      ignore (IO.of_binary frame))

(* ------------------------------------------------------------------ *)
(* Binary codec properties *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 2 30 in
    let* p = float_range 0.05 0.6 in
    let* seed = int_range 0 1_000_000 in
    return
      (let rng = P.create seed in
       Gen.gnp rng ~n ~p ~weights:(Gen.Uniform (1, 50))))

let prop_graph_binary_roundtrip =
  QCheck2.Test.make ~name:"binary graph codec round-trips with digest intact"
    ~count:200 gen_graph (fun g ->
      (* A frame decodes to the canonical form of the encoded graph. *)
      let g' = IO.of_binary (IO.to_binary g) in
      G.n g = G.n g' && G.m g = G.m g'
      && IO.digest g = IO.digest g'
      && Array.for_all2 ( = ) (G.edges (G.canonical g)) (G.edges g'))

let prop_matching_binary_roundtrip =
  QCheck2.Test.make ~name:"binary matching codec round-trips" ~count:200
    gen_graph (fun g ->
      let m = M.create (G.n g) in
      G.iter_edges (fun e -> ignore (M.try_add m e)) g;
      let m' = IO.matching_of_binary (IO.matching_to_binary m) in
      M.size m = M.size m'
      && M.weight m = M.weight m'
      && List.for_all2 ( = )
           (List.sort E.compare (M.edges m))
           (List.sort E.compare (M.edges m')))

(* Truncated or byte-flipped durable bytes either decode or raise
   [Bin.Corrupt] — no other exception escapes a decoder, and
   [Snapshot.load_all] skips a corrupt snapshot payload (re-framed with
   a valid CRC, so the decoder is what must catch it) without raising. *)
let prop_corrupt_bytes_raise_corrupt =
  let snapshot_payload =
    let file = unhex (List.assoc "snapshot file" golden_hex) in
    String.sub file 8 (String.length file - 8)
  in
  let snap_dir = fresh_dir () in
  let cases =
    [
      ( "record",
        (fun s -> ignore (Wal.decode_record s)),
        List.map (fun (_, r) -> Wal.encode_record r) golden_records );
      ( "graph frame",
        (fun s -> ignore (IO.of_binary s)),
        [ IO.to_binary golden_graph ] );
      ( "matching frame",
        (fun s -> ignore (IO.matching_of_binary s)),
        [ IO.matching_to_binary golden_matching ] );
      ( "snapshot payload",
        (fun s ->
          spew
            (Wm_serve.Snapshot.file ~dir:snap_dir ~lsn:9 3)
            Wm_graph.Bin.(encode_frame (fun w -> add_fixed w s));
          ignore (Wm_serve.Snapshot.load_all ~dir:snap_dir)),
        [ snapshot_payload ] );
    ]
  in
  let gen =
    QCheck2.Gen.(
      let* case = int_bound (List.length cases - 1) in
      let _, _, inputs = List.nth cases case in
      let* input = oneofl inputs in
      let* cut = bool in
      let* flips = list_size (int_range 1 3) (pair nat (int_range 1 255)) in
      return (case, input, cut, flips))
  in
  QCheck2.Test.make ~name:"corrupt durable bytes raise only Bin.Corrupt"
    ~count:2000 gen (fun (case, input, cut, flips) ->
      let _, decode, _ = List.nth cases case in
      let len = String.length input in
      let s =
        if cut then String.sub input 0 (fst (List.hd flips) mod len)
        else begin
          let b = Bytes.of_string input in
          List.iter
            (fun (pos, x) ->
              let pos = pos mod len in
              Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x)))
            flips;
          Bytes.to_string b
        end
      in
      match decode s with
      | _ -> true
      | exception Wm_graph.Bin.Corrupt _ -> true)

(* The Buffer encoder the one-pass writers replaced, kept as an oracle:
   each value is appended to a growing buffer, each nested frame is
   built as its own string and copied in, and the CRC frame copies the
   finished payload once more. *)
module Oracle = struct
  let rec varint buf x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      varint buf (x lsr 7)
    end

  let str buf s =
    varint buf (String.length s);
    Buffer.add_string buf s

  let edge buf (e : E.t) =
    varint buf e.u;
    varint buf e.v;
    varint buf e.w

  let contents f =
    let buf = Buffer.create 16 in
    f buf;
    Buffer.contents buf

  let graph ~digest g =
    contents (fun buf ->
        Buffer.add_string buf "WMB1";
        varint buf (G.n g);
        varint buf (G.m g);
        G.iter_edges (edge buf) g;
        Buffer.add_string buf digest)

  let matching m =
    contents (fun buf ->
        Buffer.add_string buf "WMM1";
        varint buf (M.n m);
        varint buf (List.length (M.edges m));
        List.iter (edge buf) (M.edges m))

  let crc32 s =
    let c = ref 0xFFFFFFFF in
    String.iter
      (fun ch ->
        c := !c lxor Char.code ch;
        for _ = 1 to 8 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done)
      s;
    !c lxor 0xFFFFFFFF

  let frame payload =
    contents (fun buf ->
        Buffer.add_int32_le buf (Int32.of_int (String.length payload));
        Buffer.add_int32_le buf (Int32.of_int (crc32 payload));
        Buffer.add_string buf payload)

  let snapshot (s : Wm_serve.Snapshot.s) =
    frame
      (contents (fun buf ->
           Buffer.add_string buf "WSN1";
           varint buf s.origin;
           varint buf s.lsn;
           str buf s.digest;
           varint buf s.generation;
           str buf (graph ~digest:s.digest s.graph);
           varint buf (List.length s.warm);
           List.iter
             (fun (k, m) ->
               str buf k;
               str buf (matching m))
             s.warm))

  (* A record with one [Load] body. *)
  let load_record (h : Wal.header) ~origin ~digest g =
    contents (fun buf ->
        varint buf 1;
        varint buf h.reqno;
        varint buf h.batchno;
        (match h.rng with
        | None -> Buffer.add_char buf '\000'
        | Some x ->
            Buffer.add_char buf '\001';
            Buffer.add_int64_le buf x);
        varint buf (Array.length h.counters);
        Array.iter (varint buf) h.counters;
        varint buf 1;
        Buffer.add_char buf 'L';
        varint buf origin;
        str buf digest;
        str buf (graph ~digest g))
end

(* Values at every varint width, up to just under 2^53. *)
let widths = [| 0; 127; 128; 16383; 16384; 1 lsl 21; (1 lsl 53) - 1 |]

(* A snapshot and a WAL [Load] record drawn from one seed: n = 0 or a
   vertex set whose ids cross the one- and two-byte boundaries, weights
   at each width with, in half the draws, one edge taking the rest of
   the 2^53 budget, edges in canonical or shuffled order, and an empty
   or non-empty warm list. *)
let gen_durable_case =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    return
      (let rng = P.create seed in
       let pick a = a.(P.int rng (Array.length a)) in
       let n = pick [| 0; 2; 130; 16390 |] in
       let ids =
         Array.of_list (List.filter (fun x -> x < n) (Array.to_list widths))
       in
       let vertex () = if P.bool rng then pick ids else P.int rng n in
       let seen = Hashtbl.create 64 and edges = ref [] in
       for _ = 1 to (if n = 0 then 0 else P.int rng 40) do
         let u = vertex () and v = vertex () in
         if u <> v && not (Hashtbl.mem seen (min u v, max u v)) then begin
           Hashtbl.add seen (min u v, max u v) ();
           edges := (u, v, pick (Array.sub widths 0 6)) :: !edges
         end
       done;
       let edges =
         match !edges with
         | (u, v, _) :: rest when P.bool rng ->
             let used = List.fold_left (fun a (_, _, w) -> a + w) 0 rest in
             (u, v, G.max_total_weight - used) :: rest
         | es -> es
       in
       let g = G.create ~n (List.map (fun (u, v, w) -> E.make u v w) edges) in
       let g = if P.bool rng then G.canonical g else g in
       let warm =
         List.init (P.int rng 3) (fun i ->
             let m = M.create n in
             if i > 0 then G.iter_edges (fun e -> ignore (M.try_add m e)) g;
             (String.make (pick [| 0; 5; 200 |]) 'k', m))
       in
       let snapshot =
         {
           Wm_serve.Snapshot.origin = pick widths;
           lsn = pick widths;
           digest = IO.digest g;
           generation = pick widths;
           graph = g;
           warm;
         }
       in
       let header =
         {
           Wal.reqno = pick widths;
           batchno = pick widths;
           rng =
             (if P.bool rng then
                Some (Int64.of_int (P.int rng 1_000_000 - 500_000))
              else None);
           counters = Array.init (P.int rng 5) (fun _ -> pick widths);
         }
       in
       (seed, snapshot, header)))

let prop_one_pass_matches_oracle =
  let dir = fresh_dir () in
  QCheck2.Test.make ~name:"one-pass frames equal the Buffer encoder" ~count:200
    ~print:(fun (seed, (s : Wm_serve.Snapshot.s), _) ->
      Printf.sprintf "seed=%d n=%d m=%d warm=%d" seed (G.n s.graph)
        (G.m s.graph) (List.length s.warm))
    gen_durable_case
    (fun (_, (s : Wm_serve.Snapshot.s), header) ->
      let g = s.graph and digest = s.digest in
      let file = Wm_serve.Snapshot.file ~dir ~lsn:s.lsn s.origin in
      let written = Wm_serve.Snapshot.write ~dir s in
      let snapshot = slurp file in
      Sys.remove file;
      let record =
        {
          Wal.header;
          bodies = [ Wal.Load { origin = s.origin; digest; graph = g } ];
        }
      in
      let payload = Oracle.load_record header ~origin:s.origin ~digest g in
      write_log dir [ record ];
      let log = slurp (Wal.path ~dir) in
      Sys.remove (Wal.path ~dir);
      IO.to_binary g = Oracle.graph ~digest g
      && IO.to_binary ~digest g = Oracle.graph ~digest g
      && List.for_all
           (fun (_, m) -> IO.matching_to_binary m = Oracle.matching m)
           s.warm
      && snapshot = Oracle.snapshot s
      && written = String.length snapshot
      && Wal.encode_record record = payload
      && log = Oracle.frame payload)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_graph_binary_roundtrip;
      prop_matching_binary_roundtrip;
      prop_corrupt_bytes_raise_corrupt;
      prop_one_pass_matches_oracle;
    ]

(* ------------------------------------------------------------------ *)
(* Restore semantics *)

let config ?wal_dir ?(snapshot_every = 8) () =
  {
    (Server.default_config ()) with
    faults = Wm_fault.Spec.none;
    wal_dir;
    snapshot_every;
  }

let feed srv lines =
  List.concat_map
    (fun l -> List.map J.to_string (Server.handle_line srv l))
    lines

let line fields = J.to_string (J.Obj (("schema", J.Str "WM_REQ_v1") :: fields))

let load_line id g =
  line [ ("id", J.Int id); ("verb", J.Str "load"); ("graph", J.Str (IO.to_string g)) ]

let solve_line ?digest id =
  line
    ([
       ("id", J.Int id);
       ("verb", J.Str "solve");
       ("algo", J.Str "streaming");
       ("seed", J.Int 5);
     ]
    @ match digest with None -> [] | Some d -> [ ("digest", J.Str d) ])

let stats_line id = line [ ("id", J.Int id); ("verb", J.Str "stats") ]

let add_vertices_line id count =
  line [ ("id", J.Int id); ("verb", J.Str "add_vertices"); ("count", J.Int count) ]

let evict_line id = line [ ("id", J.Int id); ("verb", J.Str "evict") ]
let shutdown_line id = line [ ("id", J.Int id); ("verb", J.Str "shutdown") ]

(* Control vs kill-at-[k]: an unkilled server over [lines] against a
   WAL-backed server abandoned (no drain — the in-process SIGKILL
   stand-in) after the first [k] lines plus a restored server over the
   rest.  Line [k] must be a flush boundary (any non-solve verb).
   [crash] runs on the abandoned server and its directory before the
   restart, to stage a crash at a point no request line reaches. *)
let recovery_identity ?(crash = fun _ _ -> ()) ~snapshot_every ~k lines =
  let control = feed (Server.create (config ())) lines in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every ()) in
  let pre = feed a (List.filteri (fun i _ -> i < k) lines) in
  crash dir a;
  let b = Server.create (config ~wal_dir:dir ~snapshot_every ()) in
  let post = feed b (List.filteri (fun i _ -> i >= k) lines) in
  (Certify.check_recovery ~control ~recovered:(pre @ post), b)

let test_kill_restart_identity () =
  let g = sample_graph 11 in
  let lines =
    [
      load_line 1 g;
      solve_line 2;
      solve_line 3;
      stats_line 4;
      add_vertices_line 5 2;
      solve_line 6;
      stats_line 7;
      shutdown_line 8;
    ]
  in
  let chk, b = recovery_identity ~snapshot_every:2 ~k:5 lines in
  (match chk.Certify.divergence with
  | Some (i, c, r) ->
      Alcotest.failf "diverged at line %d:\n  control:   %s\n  recovered: %s" i c r
  | None -> ());
  check_bool "byte-identical" true chk.Certify.identical;
  let r = Option.get (Server.recovery b) in
  check_bool "replayed records" true (r.Server.replayed > 0);
  check "no torn tail" 0 r.Server.truncated_bytes

let test_snapshot_newer_than_log () =
  let g = sample_graph 17 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:1 ()) in
  let _ = feed a [ load_line 1 g; stats_line 2 ] in
  (* Lose the log but keep the snapshots: no base record names them,
     so the log's (empty) authority wins and nothing is installed. *)
  Sys.remove (Wal.path ~dir);
  let b = Server.create (config ~wal_dir:dir ()) in
  let r = Option.get (Server.recovery b) in
  check "no snapshot installed" 0 r.Server.snapshots_restored;
  check "nothing replayed" 0 r.Server.replayed;
  check "no sessions" 0 (List.length (Server.sessions b))

(* Satellite regression: the snapshot is written at the pre-mutation
   generation, the WAL head holds the mutation — the restored session
   must end up under the post-mutation digest, and eviction/cache
   addressing on the restored server must match a never-killed one. *)
let test_restored_evict_rekeys_cache () =
  let g = sample_graph 13 in
  let lines =
    [
      load_line 1 g;
      solve_line 2;
      stats_line 3;
      (* snapshot lands at the stats record; the mutation is only in
         the log *)
      add_vertices_line 4 2;
      solve_line 5;
      evict_line 6;
      solve_line 7;
      (* no sessions left: must error identically *)
      stats_line 8;
      shutdown_line 9;
    ]
  in
  let chk, b = recovery_identity ~snapshot_every:2 ~k:4 lines in
  (match chk.Certify.divergence with
  | Some (i, c, r) ->
      Alcotest.failf "diverged at line %d:\n  control:   %s\n  recovered: %s" i c r
  | None -> ());
  check_bool "byte-identical" true chk.Certify.identical;
  let r = Option.get (Server.recovery b) in
  check_bool "snapshot was installed" true (r.Server.snapshots_restored >= 1)

let test_restored_session_digest_moves () =
  let g = sample_graph 19 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:2 ()) in
  let _ =
    feed a [ load_line 1 g; solve_line 2; stats_line 3; add_vertices_line 4 2 ]
  in
  let b = Server.create (config ~wal_dir:dir ~snapshot_every:2 ()) in
  let d' =
    match Server.sessions b with
    | [ (d, _, _) ] -> d
    | l -> Alcotest.failf "expected one session, got %d" (List.length l)
  in
  check_bool "digest re-keyed past the snapshot" true (d' <> IO.digest g);
  (* The pre-mutation digest is not addressable. *)
  match feed b [ solve_line ~digest:(IO.digest g) 5 ] with
  | [ resp ] ->
      check_bool "old digest refused" true
        (match J.of_string resp with
        | Ok j -> (
            match J.member "status" j with
            | Some (J.Str "error") -> true
            | _ -> false)
        | Error _ -> false)
  | _ -> Alcotest.fail "expected one response"

let test_drain_writes_snapshots () =
  let g = sample_graph 23 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:0 ()) in
  let _ = feed a [ load_line 1 g; solve_line 2 ] in
  let drained = Server.eof a in
  check_bool "drain answers the queued solve" true (List.length drained >= 1);
  let snaps =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f ->
           String.length f > 5 && String.sub f 0 5 = "snap-")
  in
  check "one snapshot file" 1 (List.length snaps);
  let b = Server.create (config ~wal_dir:dir ()) in
  let r = Option.get (Server.recovery b) in
  check "restored from snapshot" 1 r.Server.snapshots_restored;
  check "one session" 1 (List.length (Server.sessions b))

let evict_digest_line id d =
  line [ ("id", J.Int id); ("verb", J.Str "evict"); ("digest", J.Str d) ]

let cached resp =
  match J.of_string resp with
  | Ok j -> J.member "cached" j = Some (J.Bool true)
  | Error _ -> false

(* WAL compaction at the snapshot point: once every live session has a
   snapshot, the log's whole history collapses into a single [Base]
   record — the physical file stops growing with request count — and a
   fresh server restores sessions {e and} the result cache from it. *)
let test_compaction_on_snapshot () =
  let g = sample_graph 29 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:0 ()) in
  let _ = feed a [ load_line 1 g; solve_line 2; stats_line 3 ] in
  let before, _ = Wal.scan ~dir in
  check_bool "history accumulates before compaction" true
    (List.length before > 1);
  let c0 =
    Wm_obs.Obs.counter_value Wm_obs.Obs.default "serve.wal.compacted_records"
  in
  ignore (Server.eof a);
  let after, cut = Wal.scan ~dir in
  check "clean log" 0 cut;
  check "single physical record" 1 (List.length after);
  (match after with
  | [ { Wal.bodies = [ Wal.Base { lsn; order = [ _ ]; _ } ]; _ } ] ->
      (* admitted solves are volatile (no record), so the head counts
         the load line, the flush at the stats boundary, and drain *)
      check_bool "base stands at the logical head" true (lsn >= 2)
  | _ -> Alcotest.fail "compacted log is not a single Base record");
  check_bool "compacted records counted" true
    (Wm_obs.Obs.counter_value Wm_obs.Obs.default "serve.wal.compacted_records"
    > c0);
  let b = Server.create (config ~wal_dir:dir ()) in
  check "session restored through the base" 1
    (List.length (Server.sessions b));
  match feed b [ solve_line 4; "" ] with
  | [ resp ] -> check_bool "restored cache still hits" true (cached resp)
  | _ -> Alcotest.fail "expected one response"

let snap_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (String.starts_with ~prefix:"snap-")
  |> List.sort compare

let check_files = Alcotest.(check (list string))

(* Snapshot GC: evicting a session deletes its snapshot file at the
   next compaction, so the wal-dir's file census tracks the
   live-session census instead of accreting dead state. *)
let test_evict_gcs_snapshot () =
  let g = sample_graph 31 and h = sample_graph 37 in
  let dir = fresh_dir () in
  let a = Server.create (config ~wal_dir:dir ~snapshot_every:1 ()) in
  let _ =
    feed a
      [
        load_line 1 g;
        load_line 2 h;
        solve_line ~digest:(IO.digest g) 3;
        stats_line 4;
      ]
  in
  (* A session's origin is the LSN of its load.  The admitted solve logs
     no record, so the stats line's record has LSN 3, the evict's 4. *)
  let at lsn origins =
    List.map
      (fun o -> Filename.basename (Wm_serve.Snapshot.file ~dir ~lsn o))
      origins
  in
  let g_origin = 1 and h_origin = 2 in
  check_files "both sessions snapshotted, one version each"
    (at 3 [ g_origin; h_origin ])
    (snap_files dir);
  let _ = feed a [ evict_digest_line 5 (IO.digest g) ] in
  check_files "evicted session's snapshot deleted, survivor's kept"
    (at 4 [ h_origin ]) (snap_files dir);
  (* evict-all sweeps the rest *)
  let _ = feed a [ evict_line 6 ] in
  check_files "evict-all sweeps every snapshot" [] (snap_files dir);
  (* a restart on the swept dir comes up empty but clean *)
  let b = Server.create (config ~wal_dir:dir ()) in
  check "no sessions after the sweep" 0 (List.length (Server.sessions b))

let assert_identical (chk : Certify.recovery_check) =
  (match chk.Certify.divergence with
  | Some (i, c, r) ->
      Alcotest.failf "diverged at line %d:\n  control:   %s\n  recovered: %s" i c r
  | None -> ());
  check_bool "byte-identical" true chk.Certify.identical

let add_edges_line id d (u, v, w) =
  line
    [
      ("id", J.Int id);
      ("verb", J.Str "add_edges");
      ("digest", J.Str d);
      ("edges", J.List [ J.List [ J.Int u; J.Int v; J.Int w ] ]);
    ]

(* [b] is [a] plus one edge, so mutating a session holding [a] by that
   edge merges it into a live session holding [b]. *)
let merge_pair seed =
  let a = sample_graph seed in
  let rec absent u v =
    if not (G.mem_edge a u v) then (u, v, 7)
    else if v + 1 < G.n a then absent u (v + 1)
    else absent (u + 1) (u + 2)
  in
  let edge = absent 0 1 in
  let u, v, w = edge in
  (a, G.patch a ~add:[ E.make u v w ] (), edge)

(* Regression: evicting a session used to delete its snapshot at once,
   while the compacted log still named it — a kill before the next
   snapshot point left the wal-dir unrecoverable. *)
let test_kill_after_evict () =
  let g = sample_graph 43 and h = sample_graph 47 in
  let lines =
    [
      load_line 1 g;
      load_line 2 h;
      stats_line 3;
      evict_digest_line 4 (IO.digest h);
      solve_line 5;
      stats_line 6;
      shutdown_line 7;
    ]
  in
  assert_identical (fst (recovery_identity ~snapshot_every:3 ~k:4 lines))

let test_kill_after_evict_all () =
  let g = sample_graph 53 and h = sample_graph 59 in
  let lines =
    [
      load_line 1 g;
      load_line 2 h;
      stats_line 3;
      evict_line 4;
      load_line 5 h;
      solve_line 6;
      stats_line 7;
      shutdown_line 8;
    ]
  in
  assert_identical (fst (recovery_identity ~snapshot_every:3 ~k:4 lines))

(* Regression: merging session A into live session B (a mutation onto
   B's content) used to write A's snapshot over B's file, before the
   compaction that drops B from the log.  The kill lands between the
   snapshot writes and the compaction: staged by draining (snapshots,
   compaction, GC), then putting back the pre-drain log and every
   snapshot file the drain deleted — GC runs only after compaction, so
   at the crash point none was gone yet.  The killed wal-dir then holds
   two versions of A's snapshot (the base's and the drain's), and the
   restart must install the base's. *)
let test_kill_between_merge_snapshot_and_compaction () =
  let a, b, edge = merge_pair 61 in
  let lines =
    [
      load_line 1 a;
      load_line 2 b;
      stats_line 3;
      add_edges_line 4 (IO.digest a) edge;
      stats_line 5;
      solve_line 6;
      stats_line 7;
    ]
  in
  let wal_dir = ref "" and base_sessions = ref 0 and versions = ref 0 in
  let crash dir srv =
    wal_dir := dir;
    let files () =
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f -> f = "wal.log" || String.starts_with ~prefix:"snap-" f)
      |> List.map (fun f -> (f, slurp (Filename.concat dir f)))
    in
    let before = files () in
    ignore (Server.eof srv);
    let after = files () in
    List.iter
      (fun (f, bytes) ->
        if f = "wal.log" || not (List.mem_assoc f after) then
          spew (Filename.concat dir f) bytes)
      before;
    (match Wal.scan ~dir with
    | { Wal.bodies = [ Wal.Base { order; _ } ]; _ } :: _, _ ->
        base_sessions := List.length order
    | _ -> Alcotest.fail "the killed log does not open with a Base record");
    (* Session A keeps its origin, the LSN of its load: 1. *)
    versions :=
      List.length
        (List.filter
           (fun ((s : Wm_serve.Snapshot.s), _) -> s.origin = 1)
           (Wm_serve.Snapshot.load_all ~dir))
  in
  let chk, srv = recovery_identity ~crash ~snapshot_every:3 ~k:4 lines in
  assert_identical chk;
  check "two snapshot versions of the merged session" 2 !versions;
  check "the base's sessions are installed" !base_sessions
    (Option.get (Server.recovery srv)).Server.snapshots_restored;
  ignore (Server.eof srv);
  check "one snapshot file per live session after compaction"
    (List.length (Server.sessions srv))
    (List.length (snap_files !wal_dir))

(* An older layout named a snapshot by origin alone, [snap-<origin>.bin].
   Restore keys snapshots by what they decode to, so a compacted wal-dir
   in that layout restores byte-identically, and the next compaction
   sweeps the legacy name. *)
let test_legacy_snapshot_name () =
  let g = sample_graph 73 in
  let lines =
    [
      load_line 1 g;
      stats_line 2;
      add_vertices_line 3 2;
      solve_line 4;
      stats_line 5;
      shutdown_line 6;
    ]
  in
  let wal_dir = ref "" in
  let legacy = "snap-1.bin" in
  let crash dir _ =
    wal_dir := dir;
    (* load and stats: the snapshot point at LSN 2 compacts the log *)
    let versioned = Wm_serve.Snapshot.file ~dir ~lsn:2 1 in
    check_files "one versioned snapshot"
      [ Filename.basename versioned ]
      (snap_files dir);
    Sys.rename versioned (Filename.concat dir legacy)
  in
  let chk, srv = recovery_identity ~crash ~snapshot_every:2 ~k:2 lines in
  assert_identical chk;
  check "restored through the legacy name" 1
    (Option.get (Server.recovery srv)).Server.snapshots_restored;
  let files = snap_files !wal_dir in
  check_bool "the shutdown's compaction deletes the legacy name" false
    (List.mem legacy files);
  check "one snapshot file per live session"
    (List.length (Server.sessions srv))
    (List.length files)

(* Crash-point sweep: one script whose WAL carries every body kind —
   Load (fresh and a re-load of live content), Mutate (plain and a
   merge into another session), Evict (one and all), Flush with cache
   inserts, touches and warm updates, and Stop — killed after every
   flush boundary at several snapshot cadences.  Every restart must
   reproduce the unkilled transcript byte for byte. *)
let test_crash_point_sweep () =
  let a, b, edge = merge_pair 67 in
  let c = sample_graph 71 in
  let da = IO.digest a and db = IO.digest b in
  (* [queued] marks the solves still queued after their line: killing
     there would drop a volatile admission, so they are not kill
     points. *)
  let queued l = (true, l) and boundary l = (false, l) in
  let script =
    [
      boundary (load_line 1 a);
      boundary (load_line 2 b);
      queued (solve_line ~digest:da 3);
      queued (solve_line ~digest:db 4);
      boundary (stats_line 5);
      boundary (load_line 6 a);
      queued (solve_line ~digest:da 7);
      boundary (add_edges_line 8 da edge);
      boundary (stats_line 9);
      boundary (solve_line ~digest:da 10);
      queued (solve_line ~digest:db 11);
      boundary (add_vertices_line 12 2);
      queued (solve_line 13);
      boundary (stats_line 14);
      boundary (evict_line 15);
      boundary (load_line 16 c);
      boundary (load_line 17 a);
      queued (solve_line 18);
      boundary (evict_digest_line 19 (IO.digest c));
      boundary (stats_line 20);
      boundary (shutdown_line 21);
      boundary (stats_line 22);
    ]
  in
  let lines = List.map snd script in
  (* The merge, live: the merged digest is listed once, and the
     merged-away digest is refused. *)
  let control = feed (Server.create (config ())) lines in
  let response id =
    List.find
      (fun r ->
        match J.of_string r with
        | Ok j -> J.member "id" j = Some (J.Int id)
        | Error _ -> false)
      control
  in
  let sessions =
    match J.of_string (response 9) with
    | Ok j -> (
        match J.member "sessions" j with
        | Some (J.List l) -> List.map (J.member "digest") l
        | _ -> [])
    | Error _ -> []
  in
  check "merged digest listed once" 1
    (List.length (List.filter (( = ) (Some (J.Str db))) sessions));
  check_bool "merged-away digest absent" false
    (List.mem (Some (J.Str da)) sessions);
  check_bool "solve on the merged-away digest errors" true
    (match J.of_string (response 10) with
    | Ok j -> J.member "status" j = Some (J.Str "error")
    | Error _ -> false);
  List.iteri
    (fun i (is_queued, _) ->
      if not is_queued then
        List.iter
          (fun snapshot_every ->
            let chk, _ = recovery_identity ~snapshot_every ~k:(i + 1) lines in
            if not chk.Certify.identical then
              Alcotest.failf "kill after line %d, snapshot_every %d: %s" (i + 1)
                snapshot_every
                (match chk.Certify.divergence with
                | Some (j, c, r) ->
                    Printf.sprintf "line %d\n  control:   %s\n  recovered: %s" j c r
                | None -> "lengths differ"))
          [ 0; 1; 3 ])
    script

let test_check_recovery_reports_divergence () =
  let r =
    Certify.check_recovery ~control:[ "a"; "b" ] ~recovered:[ "a"; "x" ]
  in
  check_bool "not identical" true (not r.Certify.identical);
  (match r.Certify.divergence with
  | Some (1, "b", "x") -> ()
  | _ -> Alcotest.fail "wrong divergence");
  let r2 = Certify.check_recovery ~control:[ "a" ] ~recovered:[ "a"; "e" ] in
  check "compared is the longer side" 2 r2.Certify.compared;
  match r2.Certify.divergence with
  | Some (1, "", "e") -> ()
  | _ -> Alcotest.fail "missing line must surface as \"\""

let () =
  ignore check_str;
  Alcotest.run "wm_durability"
    [
      ( "wal",
        [
          Alcotest.test_case "append/scan round-trip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn final record" `Quick test_torn_tail;
          Alcotest.test_case "crc mismatch mid-log" `Quick
            test_crc_mismatch_midlog;
          Alcotest.test_case "empty and missing logs" `Quick
            test_empty_and_missing;
          Alcotest.test_case "on-disk format goldens" `Quick
            test_format_goldens;
          Alcotest.test_case "scan cuts a junk load payload" `Quick
            test_scan_cuts_junk_load;
          Alcotest.test_case "scan cuts a negative list count" `Quick
            test_scan_cuts_negative_count;
          Alcotest.test_case "snapshot digest disagrees with its frame"
            `Quick test_snapshot_digest_disagrees;
          Alcotest.test_case "graph frame count past its bytes" `Quick
            test_graph_frame_count_checked;
        ] );
      ("codec", qcheck_tests);
      ( "restore",
        [
          Alcotest.test_case "kill/restart byte-identity" `Quick
            test_kill_restart_identity;
          Alcotest.test_case "snapshot newer than log ignored" `Quick
            test_snapshot_newer_than_log;
          Alcotest.test_case "restored evict re-keys cache" `Quick
            test_restored_evict_rekeys_cache;
          Alcotest.test_case "restored session digest moves" `Quick
            test_restored_session_digest_moves;
          Alcotest.test_case "drain writes snapshots" `Quick
            test_drain_writes_snapshots;
          Alcotest.test_case "compaction on snapshot" `Quick
            test_compaction_on_snapshot;
          Alcotest.test_case "evict gcs snapshot" `Quick
            test_evict_gcs_snapshot;
          Alcotest.test_case "kill after evict" `Quick test_kill_after_evict;
          Alcotest.test_case "kill after evict-all" `Quick
            test_kill_after_evict_all;
          Alcotest.test_case "kill between merge snapshot and compaction"
            `Quick test_kill_between_merge_snapshot_and_compaction;
          Alcotest.test_case "legacy snapshot name" `Quick
            test_legacy_snapshot_name;
          Alcotest.test_case "crash-point sweep" `Quick test_crash_point_sweep;
          Alcotest.test_case "check_recovery divergence" `Quick
            test_check_recovery_reports_divergence;
        ] );
    ]
