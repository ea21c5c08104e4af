let width = 12

let pad s =
  if String.length s >= width then s
  else s ^ String.make (width - String.length s) ' '

type cell = Int of int | Float of float | Str of string

let cell_f x = Float x
let cell_i x = Int x
let cell_s x = Str x

let cell_text = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.4f" f
  | Str s -> s

(* Optional structured capture.  When enabled, [section]/[table_header]/
   [row]/[note] append to an in-memory record of what was printed, so
   the bench driver can serialize the experiment results (BENCH_v1.json)
   without changing any experiment code.  Printing is unaffected. *)

type table = { columns : string list; rows : cell list list }

type captured_section = {
  id : string;
  title : string;
  claim : string;
  tables : table list;
  notes : string list;
}

(* Accumulators are kept in reverse order and flipped in [capture]. *)
type accum = {
  mutable acc_id : string;
  mutable acc_title : string;
  mutable acc_claim : string;
  mutable acc_tables : table list;
  mutable acc_notes : string list;
}

let capturing : accum list ref option ref = ref None

let start_capture () = capturing := Some (ref [])

let finish acc =
  let flip_table t = { t with rows = List.rev t.rows } in
  {
    id = acc.acc_id;
    title = acc.acc_title;
    claim = acc.acc_claim;
    tables = List.rev_map flip_table acc.acc_tables;
    notes = List.rev acc.acc_notes;
  }

let capture () =
  match !capturing with
  | None -> []
  | Some sections ->
      capturing := None;
      List.rev_map finish !sections

let current () =
  match !capturing with
  | None -> None
  | Some sections -> ( match !sections with [] -> None | acc :: _ -> Some acc)

let section ~id ~title ~claim =
  Printf.printf "\n=== %s — %s ===\n" id title;
  Printf.printf "paper claim: %s\n" claim;
  match !capturing with
  | None -> ()
  | Some sections ->
      let acc =
        {
          acc_id = id;
          acc_title = title;
          acc_claim = claim;
          acc_tables = [];
          acc_notes = [];
        }
      in
      sections := acc :: !sections

let table_header cols =
  print_string (String.concat " " (List.map pad cols));
  print_newline ();
  print_string
    (String.concat " " (List.map (fun _ -> String.make width '-') cols));
  print_newline ();
  match current () with
  | None -> ()
  | Some acc -> acc.acc_tables <- { columns = cols; rows = [] } :: acc.acc_tables

let row cells =
  print_string
    (String.concat " " (List.map (fun c -> pad (cell_text c)) cells));
  print_newline ();
  match current () with
  | None -> ()
  | Some acc -> (
      match acc.acc_tables with
      | [] ->
          (* A row without a header: record it under an anonymous table. *)
          acc.acc_tables <- [ { columns = []; rows = [ cells ] } ]
      | t :: rest -> acc.acc_tables <- { t with rows = cells :: t.rows } :: rest)

let note s =
  Printf.printf "shape: %s\n" s;
  match current () with
  | None -> ()
  | Some acc -> acc.acc_notes <- s :: acc.acc_notes

module J = Wm_obs.Json

let to_json s =
  let strings l = J.List (List.map (fun x -> J.Str x) l) in
  let cell = function
    | Int i -> J.Int i
    | Float f -> J.Float f
    | Str s -> J.Str s
  in
  let table t =
    J.Obj
      [
        ("columns", strings t.columns);
        ("rows", J.List (List.map (fun r -> J.List (List.map cell r)) t.rows));
      ]
  in
  J.Obj
    [
      ("id", J.Str s.id);
      ("title", J.Str s.title);
      ("claim", J.Str s.claim);
      ("tables", J.List (List.map table s.tables));
      ("notes", strings s.notes);
    ]

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_of f xs = mean (List.map f xs)
