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

type parsed = {
  n : int;
  m : int;
  lo : int array;
  hi : int array;
  w : int array;
  order : int array;  (* the slots in canonical (lo, hi) order *)
}

exception Not_an_int

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012' || c = '\n'

(* [int_of_string_opt] on [s.[a .. b-1]], raising [Not_an_int] for
   [None].  At most 18 decimal digits cannot overflow, so such a token
   is read in place; any other goes through [int_of_string_opt]. *)
let int_at s a b =
  let x = ref 0 and i = ref a in
  if b - a <= 18 then
    while !i < b && s.[!i] >= '0' && s.[!i] <= '9' do
      x := (10 * !x) + Char.code s.[!i] - Char.code '0';
      incr i
    done;
  if !i = b && b > a then !x
  else
    match int_of_string_opt (String.sub s a (b - a)) with
    | Some x -> x
    | None -> raise Not_an_int

let range_check lineno n x =
  if x < 0 || x >= n then
    parse_fail lineno (Printf.sprintf "endpoint %d out of range [0, %d)" x n)

(* The text parser walks the text once with an index cursor.  A line is
   [String.trim]med and split on ' ' alone, exactly as
   [String.split_on_char] would, without building either list: the
   first five token bounds go into [tok].  Every edge is checked here,
   with its line number (range, self-loop, weight, running total), and
   pushed as (min, max, weight, line) into four vectors in file order.
   Duplicates are equal neighbours once the vectors are bucketed into
   canonical order ([Weighted_graph.canonical_order]).  The scan stops
   at the first bad line L; a duplicate seen before L is on an earlier
   line, so it is the one reported. *)
let parse s =
  let len = String.length s in
  let los = Arena.Ints.create ()
  and his = Arena.Ints.create ()
  and ws = Arena.Ints.create ()
  and lines = Arena.Ints.create () in
  let n = ref (-1) and count = ref 0 and total = ref 0 in
  (* Bounds of token k: [s.[tok.(2k) .. tok.(2k+1) - 1]]. *)
  let tok = Array.make 10 0 in
  let tok_is k lit =
    let a = tok.(2 * k) and l = String.length lit in
    tok.((2 * k) + 1) - a = l
    &&
    let i = ref 0 in
    while !i < l && s.[a + !i] = lit.[!i] do
      incr i
    done;
    !i = l
  in
  let tok_string k =
    String.sub s tok.(2 * k) (tok.((2 * k) + 1) - tok.(2 * k))
  in
  let tok_int k = int_at s tok.(2 * k) tok.((2 * k) + 1) in
  (* The line [s.[a .. b-1]], trimmed and not a comment, ending at [stop]. *)
  let line lineno ~stop a b =
    let ntok = ref 0 and i = ref a in
    while !i < b && !ntok < 5 do
      while s.[!i] = ' ' do
        incr i
      done;
      tok.(2 * !ntok) <- !i;
      while !i < b && s.[!i] <> ' ' do
        incr i
      done;
      tok.((2 * !ntok) + 1) <- !i;
      incr ntok
    done;
    if tok_is 0 "p" then begin
      if !ntok <> 4 then parse_fail lineno "bad problem line";
      if !n >= 0 then parse_fail lineno "duplicate problem line";
      let n', c =
        try (tok_int 2, tok_int 3)
        with Not_an_int -> parse_fail lineno "bad problem line"
      in
      if n' < 0 || c < 0 then parse_fail lineno "bad problem line";
      if not (tok_is 1 "wm") then
        parse_fail lineno
          (Printf.sprintf "expected 'p wm', got 'p %s'" (tok_string 1));
      n := n';
      count := c;
      (* An edge line takes at least 8 bytes with its newline. *)
      let cap = Stdlib.min c ((len - stop) / 8) in
      List.iter (fun v -> Arena.Ints.reserve v cap) [ los; his; ws; lines ]
    end
    else if !ntok = 4 && tok_is 0 "e" then begin
      if !n < 0 then parse_fail lineno "edge before problem line";
      let u, v =
        try (tok_int 1, tok_int 2)
        with Not_an_int -> parse_fail lineno "bad edge line"
      in
      range_check lineno !n u;
      range_check lineno !n v;
      if u = v then
        parse_fail lineno (Printf.sprintf "self-loop at vertex %d" u);
      let w =
        match tok_int 3 with
        | w when w >= 0 -> w
        | _ | (exception Not_an_int) ->
            parse_weight (parse_fail lineno) (tok_string 3)
      in
      if w > Weighted_graph.max_total_weight - !total then
        parse_fail lineno "total weight exceeds 2^53";
      total := !total + w;
      Arena.Ints.push los (Stdlib.min u v);
      Arena.Ints.push his (Stdlib.max u v);
      Arena.Ints.push ws w;
      Arena.Ints.push lines lineno
    end
    else parse_fail lineno "unrecognised line"
  in
  let lineno = ref 1 and start = ref 0 and stopped = ref None in
  (try
     while !start <= len do
       let stop = ref !start in
       while !stop < len && s.[!stop] <> '\n' do
         incr stop
       done;
       let a = ref !start and b = ref !stop in
       while !a < !b && is_space s.[!a] do
         incr a
       done;
       while !b > !a && is_space s.[!b - 1] do
         decr b
       done;
       if !a < !b && s.[!a] <> 'c' then line !lineno ~stop:!stop !a !b;
       start := !stop + 1;
       incr lineno
     done
   with Parse_error _ as e -> stopped := Some e);
  let m = Arena.Ints.length los in
  let lo = Arena.Ints.data los and hi = Arena.Ints.data his in
  (* A trailing newline ends the last line; it does not start one. *)
  let last_line =
    if len > 0 && s.[len - 1] = '\n' then !lineno - 2 else !lineno - 1
  in
  let fails = !stopped <> None || !n < 0 || m <> !count in
  (* The counting sort takes n + 1 words, like the index [of_flat]
     builds, and the header's n can be anything: a text that fails
     anyway has its pairs compared instead, in O(m) words. *)
  let order =
    if not fails then Weighted_graph.canonical_order ~n:!n ~m ~lo ~hi
    else begin
      let order = Array.init m Fun.id in
      Array.stable_sort
        (fun i j ->
          if lo.(i) <> lo.(j) then Int.compare lo.(i) lo.(j)
          else Int.compare hi.(i) hi.(j))
        order;
      order
    end
  in
  (match Weighted_graph.first_repeat order ~lo ~hi with
  | Some (first, i) ->
      parse_fail (Arena.Ints.get lines i)
        (Printf.sprintf "duplicate edge %d-%d (first at line %d)" lo.(i)
           hi.(i) (Arena.Ints.get lines first))
  | None -> ());
  Option.iter raise !stopped;
  if !n < 0 then parse_fail last_line "missing problem line";
  if m <> !count then
    parse_fail last_line
      (Printf.sprintf "problem line announces %d edges, found %d" !count m);
  { n = !n; m; lo; hi; w = Arena.Ints.data ws; order }

let of_string s =
  let p = parse s in
  Weighted_graph.of_flat ~n:p.n ~m:p.m ~src:p.lo ~dst:p.hi ~w:p.w

(* One fresh record per edge, allocated in canonical slot order. *)
let canonical_of_string s =
  let p = parse s in
  Weighted_graph.canonical_of_array ~n:p.n
    (Array.init p.m (fun k ->
         let i = p.order.(k) in
         Edge.make p.lo.(i) p.hi.(i) p.w.(i)))

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
