let to_string g =
  let buf = Buffer.create (64 + (Weighted_graph.m g * 16)) in
  Buffer.add_string buf
    (Printf.sprintf "p wm %d %d\n" (Weighted_graph.n g) (Weighted_graph.m g));
  Weighted_graph.iter_edges
    (fun e ->
      let u, v = Edge.endpoints e in
      Buffer.add_string buf (Printf.sprintf "e %d %d %d\n" u v (Edge.weight e)))
    g;
  Buffer.contents buf

(* Content digest: 64-bit FNV-1a over the canonical bytes — [n], then
   [u], [v], [w] of every edge in increasing (u, v) order, each int as
   8 little-endian bytes.  [Edge.make] stores u < v and graphs have no
   parallel edges, so (u, v) order is the (u, v, w) order and neither
   endpoint order nor edge order shows.

   One pass over [Weighted_graph.canonical_edges], which on a canonical
   graph is the edge array itself.  The hash is a local [Int64] ref that
   nothing captures, so ocamlopt keeps it unboxed.  A zero byte only
   multiplies by the FNV prime, so each (non-negative) int feeds its
   bytes up to the highest non-zero one, then multiplies once by the
   prime's power for the zero bytes left.  The hex result string is the
   only allocation on a canonical graph. *)
let fnv_prime = 0x100000001b3L

let fnv_prime_pow =
  Array.init 9 (fun k ->
      let p = ref 1L in
      for _ = 1 to k do
        p := Int64.mul !p fnv_prime
      done;
      !p)

let digest g =
  let n = Weighted_graph.n g and edges = Weighted_graph.canonical_edges g in
  let h = ref 0xcbf29ce484222325L in
  for i = -1 to (3 * Array.length edges) - 1 do
    let x =
      if i < 0 then n
      else
        let e : Edge.t = edges.(i / 3) in
        match i mod 3 with 0 -> e.u | 1 -> e.v | _ -> e.w
    in
    let rest = ref x and zeros = ref 8 in
    while !rest <> 0 do
      h :=
        Int64.mul (Int64.logxor !h (Int64.of_int (!rest land 0xff))) fnv_prime;
      rest := !rest lsr 8;
      decr zeros
    done;
    h := Int64.mul !h fnv_prime_pow.(!zeros)
  done;
  let hex = Bytes.create 16 in
  for k = 0 to 15 do
    let d = Int64.to_int (Int64.shift_right_logical !h (60 - (4 * k))) land 15 in
    Bytes.unsafe_set hex k "0123456789abcdef".[d]
  done;
  Bytes.unsafe_to_string hex

type header = { kind : string; n : int; count : int }

exception Parse_error of { line : int; msg : string }

let parse_fail line msg = raise (Parse_error { line; msg })

(* Weight tokens get the most specific diagnostic we can produce: the
   integer parse rejects NaN/infinity/fractional/overflowing tokens
   alike, so classify via the float parse before giving up. *)
let parse_weight fail w =
  match int_of_string_opt w with
  | Some value ->
      if value < 0 then fail (Printf.sprintf "negative weight %d" value)
      else value
  | None -> (
      match float_of_string_opt w with
      | Some f when Float.is_nan f -> fail "NaN weight"
      | Some f when not (Float.is_finite f) -> fail "infinite weight"
      | Some _ ->
          fail
            (Printf.sprintf "weight %s is not representable as a \
                             non-negative integer"
               w)
      | None -> fail (Printf.sprintf "bad weight %s" w))

(* Every edge is checked here, with its line number: range, self-loop,
   weight, running total and duplicates.  The result is three parallel
   endpoint/weight vectors for the trusted [Weighted_graph.of_flat]. *)
let parse_lines s =
  let header = ref None in
  let src = Arena.Ints.create ()
  and dst = Arena.Ints.create ()
  and ws = Arena.Ints.create () in
  let count = ref 0 in
  let total = ref 0 in
  let seen = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' s in
  (* A trailing newline makes [split_on_char] emit a phantom empty
     element past the final line; end-of-input diagnostics ("missing
     problem line", count mismatches) must point at the real last line,
     not one past it. *)
  let last_line =
    match List.length lines with
    | len when len > 1 && List.nth lines (len - 1) = "" -> len - 1
    | len -> len
  in
  List.iteri
    (fun lineno line ->
      let fail msg = parse_fail (lineno + 1) msg in
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; kind; n; count ] -> (
            if !header <> None then fail "duplicate problem line";
            match (int_of_string_opt n, int_of_string_opt count) with
            | Some n, Some count when n >= 0 && count >= 0 ->
                header := Some { kind; n; count }
            | _ -> fail "bad problem line")
        | "p" :: _ -> fail "bad problem line"
        | [ "e"; u; v; w ] -> (
            let n =
              match !header with
              | None -> fail "edge before problem line"
              | Some h -> h.n
            in
            match (int_of_string_opt u, int_of_string_opt v) with
            | Some u, Some v ->
                let range_check x =
                  if x < 0 || x >= n then
                    fail
                      (Printf.sprintf "endpoint %d out of range [0, %d)" x n)
                in
                range_check u;
                range_check v;
                if u = v then fail (Printf.sprintf "self-loop at vertex %d" u);
                let w = parse_weight fail w in
                if w > Weighted_graph.max_total_weight - !total then
                  fail "total weight exceeds 2^53";
                total := !total + w;
                let key = (Stdlib.min u v, Stdlib.max u v) in
                (match Hashtbl.find_opt seen key with
                | Some first ->
                    fail
                      (Printf.sprintf "duplicate edge %d-%d (first at line %d)"
                         (fst key) (snd key) first)
                | None -> Hashtbl.add seen key (lineno + 1));
                incr count;
                Arena.Ints.push src u;
                Arena.Ints.push dst v;
                Arena.Ints.push ws w
            | _ -> fail "bad edge line")
        | _ -> fail "unrecognised line")
    lines;
  match !header with
  | None -> parse_fail last_line "missing problem line"
  | Some h ->
      if !count <> h.count then
        parse_fail last_line
          (Printf.sprintf "problem line announces %d edges, found %d" h.count
             !count);
      (h, src, dst, ws)

let of_string s =
  let h, src, dst, w = parse_lines s in
  if h.kind <> "wm" then
    parse_fail 1 (Printf.sprintf "expected 'p wm', got 'p %s'" h.kind);
  Weighted_graph.of_flat ~n:h.n ~m:(Arena.Ints.length src)
    ~src:(Arena.Ints.data src) ~dst:(Arena.Ints.data dst)
    ~w:(Arena.Ints.data w)

let write_file path g =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string g))

let read_file path =
  of_string (In_channel.with_open_text path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Binary frames (durable snapshots / WAL payloads), over {!Bin}.

   Graphs:    "WMB1" | varint n | list of (varint u, varint v, varint w)
              | 16-byte hex {!digest}
   Matchings: "WMM1" | varint n | list of (varint u, varint v, varint w)

   Edges are emitted in stored order, and [of_binary] returns the
   canonical graph of the frame, so a canonical graph round-trips
   exactly (same [edges] array, same digest).  [of_binary] recomputes
   the digest of the decoded graph and refuses a frame whose embedded
   digest disagrees: a flipped byte can corrupt the varint stream in
   ways that still parse, and the digest check turns that into a
   detected failure instead of a silently wrong session. *)

(* A value the graph constructors refuse is a corrupt frame. *)
let valid f = try f () with Invalid_argument msg -> Bin.corrupt msg

let add_edge w (e : Edge.t) =
  Bin.add_varint w e.u;
  Bin.add_varint w e.v;
  Bin.add_varint w e.w

let read_edge r =
  let u = Bin.read_varint r in
  let v = Bin.read_varint r in
  let w = Bin.read_varint r in
  valid (fun () -> Edge.make u v w)

let add_graph w ~digest g =
  Bin.add_fixed w "WMB1";
  Bin.add_varint w (Weighted_graph.n g);
  Bin.add_varint w (Weighted_graph.m g);
  let edges = Weighted_graph.edges g in
  for i = 0 to Array.length edges - 1 do
    add_edge w edges.(i)
  done;
  Bin.add_fixed w digest

let to_binary ?digest:held g =
  let digest = match held with Some d -> d | None -> digest g in
  Bin.encode (fun w -> add_graph w ~digest g)

(* A frame in canonical order is taken as decoded: its order rules out
   parallel edges, so no duplicate check runs and no index is built. *)
let of_binary_with_digest =
  Bin.decode (fun r ->
      Bin.read_magic r "WMB1";
      let n = Bin.read_varint r in
      let edges = Bin.read_array read_edge r in
      let claimed = Bin.read_fixed r 16 in
      let g = valid (fun () -> Weighted_graph.canonical_of_array ~n edges) in
      let content = digest g in
      if content <> claimed then
        Bin.corrupt
          (Printf.sprintf "graph digest mismatch: frame says %s, content is %s"
             claimed content);
      (g, claimed))

let of_binary s = fst (of_binary_with_digest s)

(* The count and [Matching.iter]'s order are those of [Matching.edges]. *)
let add_matching w m =
  Bin.add_fixed w "WMM1";
  Bin.add_varint w (Matching.n m);
  Bin.add_varint w (Matching.size m);
  Matching.iter (add_edge w) m

let matching_to_binary m = Bin.encode (fun w -> add_matching w m)

let matching_of_binary ?(max_n = max_int) s =
  Bin.decode
    (fun r ->
      Bin.read_magic r "WMM1";
      let n = Bin.read_varint r in
      if n > max_n then
        Bin.corrupt
          (Printf.sprintf "matching on %d vertices, at most %d allowed" n
             max_n);
      let edges = Bin.read_list read_edge r in
      valid (fun () -> Matching.of_edges n edges))
    s
