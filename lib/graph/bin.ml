exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

(* ------------------------------------------------------------------ *)
(* Writers *)

let add_varint buf x =
  if x < 0 then invalid_arg "Bin.add_varint: negative value";
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

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_option f buf = function
  | None -> add_bool buf false
  | Some v ->
      add_bool buf true;
      f buf v

let add_list f buf l =
  add_varint buf (List.length l);
  List.iter (f buf) l

let add_pair fa fb buf (a, b) =
  fa buf a;
  fb buf b

let add_triple fa fb fc buf (a, b, c) =
  fa buf a;
  fb buf b;
  fc buf c

let add_int64 buf v = Buffer.add_int64_le buf v

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

let read_list f r =
  let n = read_varint r in
  if n > remaining r then corrupt "list count exceeds the bytes left";
  List.init n (fun _ -> f r)

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
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 1 to 8 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* Frames larger than this are treated as corruption: no legitimate
   record approaches it, and an insane length field must not drive a
   gigabyte allocation. *)
let max_frame = 1 lsl 30

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_int32_le buf (Int32.of_int (crc32 payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

let read_frame s pos =
  let u32 at = Int32.to_int (String.get_int32_le s at) land 0xFFFFFFFF in
  if pos + 8 > String.length s then None
  else
    let len = u32 pos in
    if len > max_frame || pos + 8 + len > String.length s then None
    else
      let payload = String.sub s (pos + 8) len in
      if crc32 payload <> u32 (pos + 4) then None
      else Some (payload, pos + 8 + len)
