(* The list-and-Hashtbl text parser that [Graph_io]'s cursor parser
   replaced, kept as its differential oracle: split the text into lines,
   each trimmed line into a filtered token list, and check duplicates
   with a Hashtbl of (min, max) pairs as each edge is read.  A problem
   line whose kind is not [wm] fails on that line when it is read. *)

module G = Wm_graph.Weighted_graph
module IO = Wm_graph.Graph_io

let parse_fail line msg = raise (IO.Parse_error { line; msg })

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

let of_string s =
  let header = ref None in
  let src = Wm_graph.Arena.Ints.create ()
  and dst = Wm_graph.Arena.Ints.create ()
  and ws = Wm_graph.Arena.Ints.create () in
  let count = ref 0 in
  let total = ref 0 in
  let seen = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' s in
  (* A trailing newline makes [split_on_char] emit a phantom empty
     element past the final line. *)
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
                if kind <> "wm" then
                  fail (Printf.sprintf "expected 'p wm', got 'p %s'" kind);
                header := Some (n, count)
            | _ -> fail "bad problem line")
        | "p" :: _ -> fail "bad problem line"
        | [ "e"; u; v; w ] -> (
            let n =
              match !header with
              | None -> fail "edge before problem line"
              | Some (n, _) -> n
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
                if w > G.max_total_weight - !total then
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
                Wm_graph.Arena.Ints.push src u;
                Wm_graph.Arena.Ints.push dst v;
                Wm_graph.Arena.Ints.push ws w
            | _ -> fail "bad edge line")
        | _ -> fail "unrecognised line")
    lines;
  match !header with
  | None -> parse_fail last_line "missing problem line"
  | Some (n, announced) ->
      if !count <> announced then
        parse_fail last_line
          (Printf.sprintf "problem line announces %d edges, found %d" announced
             !count);
      G.of_flat ~n ~m:!count ~src:(Wm_graph.Arena.Ints.data src)
        ~dst:(Wm_graph.Arena.Ints.data dst) ~w:(Wm_graph.Arena.Ints.data ws)
