exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

(* ------------------------------------------------------------------ *)
(* Writers.  [encode] runs an encoder twice over one writer: a sizing run
   that only advances [pos], then a run that fills a buffer of exactly
   that size.  [add_nested] records each nested payload's size on the
   sizing run, in the order the calls start, so the writing run knows
   its length prefix before writing the payload itself. *)

type w = {
  mutable sizing : bool;
  mutable out : Bytes.t;
  mutable pos : int;
  mutable sizes : int array;
  mutable nested : int;  (* [add_nested] calls so far in this run *)
}

let varint_size x =
  if x < 0x80 then 1
  else if x < 0x4000 then 2
  else
    let rec go k x = if x < 0x80 then k else go (k + 1) (x lsr 7) in
    go 3 (x lsr 14)

let add_char w c =
  if not w.sizing then Bytes.set w.out w.pos c;
  w.pos <- w.pos + 1

(* The hot writer of every graph frame: the common one-byte case is a
   single store, and the loop keeps its cursor in a local. *)
let add_varint w x =
  if x < 0 then invalid_arg "Bin.add_varint: negative value";
  let pos = w.pos in
  if w.sizing then w.pos <- pos + varint_size x
  else if x < 0x80 then begin
    Bytes.set w.out pos (Char.unsafe_chr x);
    w.pos <- pos + 1
  end
  else begin
    let out = w.out and x = ref x and p = ref pos in
    while !x >= 0x80 do
      Bytes.set out !p (Char.unsafe_chr (0x80 lor (!x land 0x7f)));
      incr p;
      x := !x lsr 7
    done;
    Bytes.set out !p (Char.unsafe_chr !x);
    w.pos <- !p + 1
  end

let add_fixed w s =
  if not w.sizing then Bytes.blit_string s 0 w.out w.pos (String.length s);
  w.pos <- w.pos + String.length s

let add_string w s =
  add_varint w (String.length s);
  add_fixed w s

let add_bool w b = add_char w (if b then '\001' else '\000')

let add_option f w = function
  | None -> add_bool w false
  | Some v ->
      add_bool w true;
      f w v

let add_list f w l =
  add_varint w (List.length l);
  List.iter (f w) l

let add_pair fa fb w (a, b) =
  fa w a;
  fb w b

let add_triple fa fb fc w (a, b, c) =
  fa w a;
  fb w b;
  fc w c

let add_int64 w v =
  if not w.sizing then Bytes.set_int64_le w.out w.pos v;
  w.pos <- w.pos + 8

let add_nested w f =
  let slot = w.nested in
  w.nested <- slot + 1;
  if w.sizing then begin
    if slot = Array.length w.sizes then
      w.sizes <- Array.append w.sizes (Array.make (slot + 4) 0);
    let start = w.pos in
    f w;
    let len = w.pos - start in
    w.sizes.(slot) <- len;
    w.pos <- w.pos + varint_size len
  end
  else begin
    add_varint w w.sizes.(slot);
    f w
  end

(* [f]'s bytes after [header] reserved bytes, in a buffer of exactly
   their size. *)
let run ~header f =
  let w =
    { sizing = true; out = Bytes.empty; pos = header; sizes = [||]; nested = 0 }
  in
  f w;
  w.sizing <- false;
  w.out <- Bytes.create w.pos;
  w.pos <- header;
  w.nested <- 0;
  f w;
  if w.pos <> Bytes.length w.out then
    invalid_arg "Bin.encode: the encoder wrote different sizes on its two runs";
  w.out

let encode f = Bytes.unsafe_to_string (run ~header:0 f)

(* ------------------------------------------------------------------ *)
(* Cursor reader *)

type r = { s : string; mutable pos : int }

let decode f s =
  let r = { s; pos = 0 } in
  let v = f r in
  if r.pos <> String.length s then corrupt "trailing bytes";
  v

let remaining r = String.length r.s - r.pos

let read_fixed r k =
  if k > remaining r then corrupt "truncated";
  let v = String.sub r.s r.pos k in
  r.pos <- r.pos + k;
  v

let read_char r =
  if r.pos >= String.length r.s then corrupt "truncated";
  let c = r.s.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* At most 9 bytes carry the 63 bits of an OCaml int; a tenth byte, or
   a ninth whose top payload bit lands in the sign, is corruption. *)
let read_varint r =
  let rec go acc shift =
    if shift > 56 then corrupt "varint longer than 9 bytes";
    let b = Char.code (read_char r) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b >= 0x80 then go acc (shift + 7)
    else if acc < 0 then corrupt "varint out of range"
    else acc
  in
  go 0 0

let read_string r = read_fixed r (read_varint r)

let read_bool r =
  match read_char r with
  | '\000' -> false
  | '\001' -> true
  | c -> corrupt (Printf.sprintf "bad bool byte %C" c)

let read_option f r = if read_bool r then Some (f r) else None

(* Every element takes at least one byte, so a count past the bytes
   left is corruption, refused before anything is allocated. *)
let read_count r =
  let n = read_varint r in
  if n > remaining r then corrupt "list count exceeds the bytes left";
  n

let read_list f r = List.init (read_count r) (fun _ -> f r)

(* [Array.init] applies [f] to the slots in increasing order. *)
let read_array f r = Array.init (read_count r) (fun _ -> f r)

let read_pair fa fb r =
  let a = fa r in
  (a, fb r)

let read_triple fa fb fc r =
  let a = fa r in
  let b = fb r in
  (a, b, fc r)

let read_int64 r = String.get_int64_le (read_fixed r 8) 0

let read_magic r magic =
  if read_fixed r (String.length magic) <> magic then
    corrupt (Printf.sprintf "missing %s magic" magic)

(* ------------------------------------------------------------------ *)
(* CRC32 framing *)

let crc_table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 1 to 8 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 b ~off ~len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    let byte = Char.code (Bytes.get b i) in
    c := crc_table.((!c lxor byte) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Frames larger than this are treated as corruption: no legitimate
   record approaches it, and an insane length field must not drive a
   gigabyte allocation. *)
let max_frame = 1 lsl 30

(* The frame header is filled in place, in front of the payload. *)
let encode_frame f =
  let b = run ~header:8 f in
  let len = Bytes.length b - 8 in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 b ~off:8 ~len));
  Bytes.unsafe_to_string b

let read_frame s pos =
  let u32 at = Int32.to_int (String.get_int32_le s at) land 0xFFFFFFFF in
  if pos + 8 > String.length s then None
  else
    let len = u32 pos in
    if len > max_frame || pos + 8 + len > String.length s then None
    else if
      crc32 (Bytes.unsafe_of_string s) ~off:(pos + 8) ~len <> u32 (pos + 4)
    then None
    else Some (String.sub s (pos + 8) len, pos + 8 + len)
