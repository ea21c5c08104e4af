module J = Wm_obs.Json
module Obs = Wm_obs.Obs

type stats = {
  clients : int;
  windows : int;
  requests : int;
  ok : int;
  cached : int;
  overloaded : int;
  deadline : int;
  errors : int;
  elapsed_ns : int;
  p50_ns : int;
  p99_ns : int;
}

let percentile_exact sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

(* The parameter pool: [distinct] combinations of these algorithms and
   seeds from [base_seed] on. *)
let algos = [ Protocol.Streaming; Protocol.Greedy ]
let base_seed = 1000

let run ~server ~clients ~windows ?(distinct = 0) () =
  let distinct = if distinct > 0 then distinct else Stdlib.max 2 (clients / 2) in
  let n_algos = List.length algos in
  let submitted = Hashtbl.create 64 in
  (* id -> submit time *)
  let latencies = ref [] in
  let ok = ref 0
  and cached = ref 0
  and overloaded = ref 0
  and deadline = ref 0
  and errors = ref 0 in
  let consume resps =
    let now = Obs.now_ns () in
    List.iter
      (fun resp ->
        (match J.member "id" resp with
        | Some (J.Int id) -> (
            match Hashtbl.find_opt submitted id with
            | Some t0 ->
                latencies := (now - t0) :: !latencies;
                Hashtbl.remove submitted id
            | None -> ())
        | _ -> ());
        (match J.member "status" resp with
        | Some (J.Str "ok") ->
            incr ok;
            if J.member "cached" resp = Some (J.Bool true) then incr cached
        | Some (J.Str "overloaded") -> incr overloaded
        | Some (J.Str "deadline") -> incr deadline
        | _ -> incr errors))
      resps
  in
  let started = Obs.now_ns () in
  let reqno = ref 0 in
  for w = 0 to windows - 1 do
    for c = 0 to clients - 1 do
      let combo = ((w * clients) + c) mod distinct in
      let algo = List.nth algos (combo mod n_algos) in
      let seed = base_seed + (combo / n_algos) in
      let params = { Protocol.algo; epsilon = 0.1; seed; deadline_ms = None } in
      incr reqno;
      let id = !reqno in
      Hashtbl.replace submitted id (Obs.now_ns ());
      consume
        (Server.handle_request server
           { Protocol.id; verb = Protocol.Solve { digest = None; params; chaos = None } })
    done;
    consume (Server.flush server)
  done;
  let elapsed_ns = Obs.now_ns () - started in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  {
    clients;
    windows;
    requests = !reqno;
    ok = !ok;
    cached = !cached;
    overloaded = !overloaded;
    deadline = !deadline;
    errors = !errors;
    elapsed_ns;
    p50_ns = percentile_exact sorted 0.50;
    p99_ns = percentile_exact sorted 0.99;
  }

let throughput_rps s =
  if s.elapsed_ns <= 0 then 0.
  else float_of_int s.requests /. (float_of_int s.elapsed_ns /. 1e9)

let hit_ratio s =
  if s.ok = 0 then 0. else float_of_int s.cached /. float_of_int s.ok
