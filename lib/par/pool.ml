type t = {
  domains : int;
  mutable workers : unit Domain.t array;
  jobs : (unit -> unit) Queue.t;
  lock : Mutex.t;
  wake : Condition.t;
  mutable stopping : bool;
}

(* Set while a domain is executing a pool task (worker domains
   permanently; the submitting domain only for the duration of its own
   share of the work).  Nested [map] calls observe it and degrade to
   sequential execution instead of re-entering the queue. *)
let inside : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let inside_task () = !(Domain.DLS.get inside)

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.jobs && not t.stopping do
    Condition.wait t.wake t.lock
  done;
  (* Drain queued work even when stopping: a completion latch may be
     waiting on a task that is still queued. *)
  match Queue.take_opt t.jobs with
  | None -> Mutex.unlock t.lock (* stopping && empty: exit *)
  | Some job ->
      Mutex.unlock t.lock;
      (* Jobs trap their own exceptions (see [parallel_map_array]); a
         stray one must not kill the worker. *)
      (try job () with _ -> ());
      worker_loop t

let create ~domains =
  let domains = Stdlib.max 1 domains in
  let t =
    {
      domains;
      workers = [||];
      jobs = Queue.create ();
      lock = Mutex.create ();
      wake = Condition.create ();
      stopping = false;
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.get inside := true;
            worker_loop t));
  t

let size t = t.domains

(* Idempotent and race-safe: the worker array is taken under the lock,
   so concurrent destroyers (e.g. an explicit shutdown path racing the
   at_exit teardown of the default pool) join disjoint — second and
   later callers join nothing. *)
let destroy t =
  Mutex.lock t.lock;
  let workers = t.workers in
  t.workers <- [||];
  t.stopping <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  Array.iter Domain.join workers

let parallel_map_array t f arr =
  (* Submitting to a destroyed pool has no workers to drain the queued
     helper thunks; rather than silently degrading (or leaking queue
     entries forever), fail fast with a one-line diagnostic. *)
  if t.stopping then
    invalid_arg "Wm_par.Pool: map on a destroyed pool";
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.domains = 1 || n = 1 || inside_task () then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Completion latch: every task (caller- or worker-executed)
       decrements; the caller sleeps until it hits zero rather than
       spinning, which matters when domains outnumber cores. *)
    let pending = ref n in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    let first_exn = Atomic.make None in
    let run_one i =
      (match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
          ignore (Atomic.compare_and_set first_exn None (Some e)));
      Mutex.lock done_lock;
      decr pending;
      if !pending = 0 then Condition.broadcast done_cond;
      Mutex.unlock done_lock
    in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one i;
        drain ()
      end
    in
    let helpers = Stdlib.min (t.domains - 1) (n - 1) in
    Mutex.lock t.lock;
    for _ = 1 to helpers do
      Queue.push drain t.jobs
    done;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    (* The caller works too, flagged so tasks that fan out again run
       their nested maps inline. *)
    let flag = Domain.DLS.get inside in
    flag := true;
    Fun.protect ~finally:(fun () -> flag := false) drain;
    Mutex.lock done_lock;
    while !pending > 0 do
      Condition.wait done_cond done_lock
    done;
    Mutex.unlock done_lock;
    (match Atomic.get first_exn with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let map t f xs = Array.to_list (parallel_map_array t f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* Default pool *)

let recommended_jobs ?(cap = 8) () =
  Stdlib.max 1 (Stdlib.min cap (Domain.recommended_domain_count ()))

let default_lock = Mutex.create ()
let configured_jobs = ref 1
let default_pool : t option ref = ref None

let set_default_jobs n =
  Mutex.lock default_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock default_lock)
    (fun () ->
      let n = Stdlib.max 1 n in
      (match !default_pool with
      | Some p when size p <> n ->
          destroy p;
          default_pool := None
      | Some _ | None -> ());
      configured_jobs := n)

let default_jobs () = !configured_jobs

let default () =
  Mutex.lock default_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock default_lock)
    (fun () ->
      match !default_pool with
      | Some p -> p
      | None ->
          let p = create ~domains:!configured_jobs in
          default_pool := Some p;
          p)

let () =
  at_exit (fun () ->
      Mutex.lock default_lock;
      let p = !default_pool in
      default_pool := None;
      Mutex.unlock default_lock;
      match p with Some p -> destroy p | None -> ())
