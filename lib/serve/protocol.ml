module J = Wm_obs.Json

type algo = Streaming | Mpc | Greedy

type solve_params = {
  algo : algo;
  epsilon : float;
  seed : int;
  deadline_ms : int option;
}

(* Pre-drawn chaos carried on an internal (router -> shard) solve: the
   router owns the fault injector, draws the plan at admission, and the
   worker replays it instead of drawing its own — that is what keeps
   transcripts byte-identical across --shards settings. *)
type chaos = {
  expire_round : int option;  (** injected deadline-expiry round *)
  crashes : int;  (** attempts to abort before one succeeds *)
  warm : string option;  (** hex-encoded warm-start matching binary *)
  want_matching : bool;  (** return the matching with the result *)
}

type verb =
  | Load of { graph : string option; path : string option }
  | Solve of {
      digest : string option;
      params : solve_params;
      chaos : chaos option;
    }
  | Add_edges of { digest : string option; edges : (int * int * int) list }
  | Remove_edges of { digest : string option; edges : (int * int) list }
  | Add_vertices of { digest : string option; count : int }
  | Stats
  | Evict of { digest : string option }
  | Ping
  | Report
  | Shutdown

type request = { id : int; verb : verb }

let algo_name = function
  | Streaming -> "streaming"
  | Mpc -> "mpc"
  | Greedy -> "greedy"

let algo_of_name = function
  | "streaming" -> Some Streaming
  | "mpc" -> Some Mpc
  | "greedy" -> Some Greedy
  | _ -> None

(* Field accessors over the request object; each returns a one-line
   error naming the field when the type is wrong. *)
let str_field obj key =
  match J.member key obj with
  | Some (J.Str s) -> Ok (Some s)
  | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a string" key)

let int_field obj key =
  match J.member key obj with
  | Some (J.Int n) -> Ok (Some n)
  | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)

let float_field obj key =
  match J.member key obj with
  | Some (J.Float f) -> Ok (Some f)
  | Some (J.Int n) -> Ok (Some (float_of_int n))
  | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a number" key)

let bool_field obj key =
  match J.member key obj with
  | Some (J.Bool b) -> Ok (Some b)
  | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)

let ( let* ) = Result.bind

(* The x_* fields are the internal router->shard surface: they are
   parsed like any other field (the protocol stays one grammar) but
   only the shard router emits them. *)
let parse_chaos obj =
  let* expire = int_field obj "x_expire" in
  let* crashes = int_field obj "x_crashes" in
  let* warm = str_field obj "x_warm" in
  let* want = bool_field obj "x_matching" in
  match (expire, crashes, warm, want) with
  | None, None, None, None -> Ok None
  | _ ->
      Ok
        (Some
           {
             expire_round = expire;
             crashes = Option.value crashes ~default:0;
             warm;
             want_matching = Option.value want ~default:false;
           })

let parse_solve obj =
  let* digest = str_field obj "digest" in
  (* "latest" is spelled out in transcripts; normalise it to the
     omitted-digest form so both route to the last-loaded session. *)
  let digest = match digest with Some "latest" -> None | d -> d in
  let* algo_s = str_field obj "algo" in
  let* algo =
    match algo_s with
    | None -> Ok Streaming
    | Some s -> (
        match algo_of_name s with
        | Some a -> Ok a
        | None ->
            Error
              (Printf.sprintf
                 "unknown algo %S (expected streaming, mpc or greedy)" s))
  in
  let* epsilon = float_field obj "epsilon" in
  let epsilon = Option.value epsilon ~default:0.1 in
  let* () =
    if epsilon > 0.0 && epsilon < 1.0 then Ok ()
    else Error "field \"epsilon\" must be in (0, 1)"
  in
  let* seed = int_field obj "seed" in
  let seed = Option.value seed ~default:42 in
  let* deadline_ms = int_field obj "deadline_ms" in
  let* () =
    match deadline_ms with
    | Some d when d <= 0 -> Error "field \"deadline_ms\" must be positive"
    | _ -> Ok ()
  in
  let* chaos = parse_chaos obj in
  Ok (Solve { digest; params = { algo; epsilon; seed; deadline_ms }; chaos })

(* Mutation targets accept the same digest addressing as [solve]:
   omitted or "latest" means the most recently loaded session. *)
let target_digest obj =
  let* digest = str_field obj "digest" in
  Ok (match digest with Some "latest" -> None | d -> d)

(* The "edges" payload of a mutation verb: a non-empty JSON list of
   fixed-arity integer tuples ([u, v, w] for additions, [u, v] for
   removals). *)
let edge_tuples ~arity ~shape obj =
  let bad () =
    Error
      (Printf.sprintf "field \"edges\" must be a non-empty list of %s" shape)
  in
  match J.member "edges" obj with
  | Some (J.List (_ :: _ as items)) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.List tuple :: rest
          when List.length tuple = arity
               && List.for_all (function J.Int _ -> true | _ -> false) tuple
          ->
            let ints =
              List.map (function J.Int n -> n | _ -> assert false) tuple
            in
            go (ints :: acc) rest
        | _ -> bad ()
      in
      go [] items
  | Some _ | None -> bad ()

let parse_add_edges obj =
  let* digest = target_digest obj in
  let* tuples = edge_tuples ~arity:3 ~shape:"[u, v, weight] triples" obj in
  let edges =
    List.map (function [ u; v; w ] -> (u, v, w) | _ -> assert false) tuples
  in
  Ok (Add_edges { digest; edges })

let parse_remove_edges obj =
  let* digest = target_digest obj in
  let* tuples = edge_tuples ~arity:2 ~shape:"[u, v] pairs" obj in
  let edges =
    List.map (function [ u; v ] -> (u, v) | _ -> assert false) tuples
  in
  Ok (Remove_edges { digest; edges })

let parse_add_vertices obj =
  let* digest = target_digest obj in
  let* count = int_field obj "count" in
  match count with
  | Some c when c > 0 -> Ok (Add_vertices { digest; count = c })
  | Some _ -> Error "field \"count\" must be positive"
  | None -> Error "add_vertices needs a \"count\" field"

let parse_request line =
  match J.of_string line with
  | Error e -> Error (0, Printf.sprintf "invalid JSON: %s" e)
  | Ok (J.Obj _ as obj) ->
      let id = match J.member "id" obj with Some (J.Int n) -> Some n | _ -> None in
      Result.map_error (fun msg -> (Option.value id ~default:0, msg))
      @@
      let* () =
        match J.member "schema" obj with
        | Some (J.Str "WM_REQ_v1") -> Ok ()
        | Some j ->
            Error (Printf.sprintf "unexpected schema %s" (J.to_string j))
        | None -> Error "missing \"schema\" field (expected \"WM_REQ_v1\")"
      in
      let* id = Option.to_result id ~none:"missing or non-integer \"id\" field" in
      let* verb_s =
        match J.member "verb" obj with
        | Some (J.Str s) -> Ok s
        | _ -> Error "missing or non-string \"verb\" field"
      in
      let* verb =
        match verb_s with
        | "load" -> (
            let* graph = str_field obj "graph" in
            let* path = str_field obj "path" in
            match (graph, path) with
            | None, None ->
                Error "load needs a \"graph\" (inline text) or \"path\" field"
            | _ -> Ok (Load { graph; path }))
        | "solve" -> parse_solve obj
        | "add_edges" -> parse_add_edges obj
        | "remove_edges" -> parse_remove_edges obj
        | "add_vertices" -> parse_add_vertices obj
        | "stats" -> Ok Stats
        | "evict" ->
            let* digest = str_field obj "digest" in
            Ok (Evict { digest })
        | "ping" -> Ok Ping
        | "report" -> Ok Report
        | "shutdown" -> Ok Shutdown
        | s ->
            Error
              (Printf.sprintf
                 "unknown verb %S (expected load, solve, add_edges, \
                  remove_edges, add_vertices, stats, evict, ping, report or \
                  shutdown)"
                 s)
      in
      Ok { id; verb }
  | Ok _ -> Error (0, "request is not a JSON object")

(* Canonical textual form of a mutation delta: endpoints normalised to
   (min, max), entries sorted, additions before removals.  Two requests
   describing the same delta — whatever order they listed the edges in —
   canonicalise identically, so ledger rows and tests can compare
   mutations as strings. *)
let canonical_delta ~add_vertices ~add ~remove =
  let norm2 (u, v) = (Stdlib.min u v, Stdlib.max u v) in
  let adds =
    List.sort compare
      (List.map
         (fun (u, v, w) ->
           let u, v = norm2 (u, v) in
           (u, v, w))
         add)
  in
  let removes = List.sort compare (List.map norm2 remove) in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "v+%d" add_vertices);
  List.iter
    (fun (u, v, w) -> Buffer.add_string buf (Printf.sprintf "|+%d-%d:%d" u v w))
    adds;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "|-%d-%d" u v))
    removes;
  Buffer.contents buf

let canonical_params p =
  Printf.sprintf "algo=%s,epsilon=%.6g,seed=%d" (algo_name p.algo) p.epsilon
    p.seed

let cache_key ~digest p = digest ^ "|" ^ canonical_params p

let response ~id ~status fields =
  J.Obj
    ([
       ("schema", J.Str "WM_RESP_v1");
       ("id", J.Int id);
       ("status", J.Str status);
     ]
    @ fields)

let error_response ~id msg = response ~id ~status:"error" [ ("error", J.Str msg) ]

let status_code = function
  | "ok" -> 0
  | "overloaded" -> 1
  | "deadline" -> 2
  | _ -> 3

(* ------------------------------------------------------------------ *)
(* Hex framing for binary payloads carried inside JSON strings (warm
   matchings, returned matchings).  JSON strings are not binary-safe;
   hex is, and stays diffable in transcripts. *)

let hex_encode s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "hex_decode: odd length";
  let nib i =
    match s.[i] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "hex_decode: not a hex digit"
  in
  String.init (n / 2) (fun i -> Char.chr ((nib (2 * i) lsl 4) lor nib ((2 * i) + 1)))

(* ------------------------------------------------------------------ *)
(* Request-line builders: the router's half of the wire.  Emitting
   through the same grammar [parse_request] reads keeps the internal
   hop on the public protocol — a worker is a stock server. *)

let request_line ~id ~verb fields =
  J.to_string
    (J.Obj
       ([ ("schema", J.Str "WM_REQ_v1"); ("id", J.Int id); ("verb", J.Str verb) ]
       @ fields))

let load_line ~id ~graph = request_line ~id ~verb:"load" [ ("graph", J.Str graph) ]

let solve_line ~id ~digest ~params ~chaos =
  let base =
    [
      ("digest", J.Str digest);
      ("algo", J.Str (algo_name params.algo));
      ("epsilon", J.Float params.epsilon);
      ("seed", J.Int params.seed);
    ]
    @ (match params.deadline_ms with
      | Some ms -> [ ("deadline_ms", J.Int ms) ]
      | None -> [])
  in
  let extra =
    match chaos with
    | None -> []
    | Some c ->
        (match c.expire_round with
        | Some k -> [ ("x_expire", J.Int k) ]
        | None -> [])
        @ [ ("x_crashes", J.Int c.crashes) ]
        @ (match c.warm with Some w -> [ ("x_warm", J.Str w) ] | None -> [])
        @ if c.want_matching then [ ("x_matching", J.Bool true) ] else []
  in
  request_line ~id ~verb:"solve" (base @ extra)

let evict_line ~id ~digest =
  request_line ~id ~verb:"evict"
    (match digest with Some d -> [ ("digest", J.Str d) ] | None -> [])

let ping_line ~id = request_line ~id ~verb:"ping" []
let report_line ~id = request_line ~id ~verb:"report" []
let shutdown_line ~id = request_line ~id ~verb:"shutdown" []
