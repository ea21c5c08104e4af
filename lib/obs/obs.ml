type counter = int Atomic.t

(* ------------------------------------------------------------------ *)
(* Histograms: log2-bucketed, atomic per bucket, so any number of
   domains observe into the same histogram and the result is the merge
   (bucket counts are commutative sums). *)

let bucket_count = 64

type histogram = {
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_min : int Atomic.t;
  h_max : int Atomic.t;
  h_buckets : int Atomic.t array;
}

type timer = { total_ns : int Atomic.t; count : int Atomic.t; hist : histogram }

type open_span = { name : string; path : string; start_ns : int }

type t = {
  counters : (string, counter) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
  gauges : (string, unit -> int) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  lock : Mutex.t; (* guards table structure; cell updates are atomic *)
  spans : open_span list ref Domain.DLS.key;
      (* per-domain open-span stack: spans opened on a domain must be
         closed on the same domain, so nesting paths never interleave
         across domains; closed durations land in the shared atomic
         [timers] table, which is the merge-on-snapshot *)
}

let create () =
  {
    counters = Hashtbl.create 64;
    timers = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    lock = Mutex.create ();
    spans = Domain.DLS.new_key (fun () -> ref []);
  }

let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Instrument names must stay out of the span-path namespace: a name
   containing '/' would be indistinguishable from a nested span path in
   snapshots (["a/b"] the instrument vs ["b"] opened under ["a"]). *)
let check_name fn name =
  if String.contains name '/' then
    invalid_arg
      (Printf.sprintf
         "%s: instrument name %S must not contain '/' (reserved for span \
          nesting paths)"
         fn name)

(* ------------------------------------------------------------------ *)
(* Counters *)

let counter t name =
  check_name "Obs.counter" name;
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add t.counters name c;
          c)

let incr c = ignore (Atomic.fetch_and_add c 1)

let add c k =
  if k < 0 then invalid_arg "Obs.add: counters are monotone";
  ignore (Atomic.fetch_and_add c k)

(* CAS loop: a plain read-compare-write would drop concurrent raises. *)
let rec set_max c v =
  let cur = Atomic.get c in
  if v > cur && not (Atomic.compare_and_set c cur v) then set_max c v

let value c = Atomic.get c

let counter_value t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> Atomic.get c
      | None -> 0)

(* ------------------------------------------------------------------ *)
(* Histograms *)

let make_histogram () =
  {
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0;
    h_min = Atomic.make max_int;
    h_max = Atomic.make min_int;
    h_buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
  }

let histogram t name =
  check_name "Obs.histogram" name;
  locked t (fun () ->
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
          let h = make_histogram () in
          Hashtbl.add t.histograms name h;
          h)

(* Bucket 0 holds v <= 0; bucket i >= 1 holds [2^(i-1), 2^i - 1]. *)
let bucket_index v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      Stdlib.incr i;
      v := !v lsr 1
    done;
    Stdlib.min !i (bucket_count - 1)
  end

let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)
let bucket_hi i = if i = 0 then 0 else (1 lsl i) - 1

let rec set_min_atomic c v =
  let cur = Atomic.get c in
  if v < cur && not (Atomic.compare_and_set c cur v) then set_min_atomic c v

let observe h v =
  ignore (Atomic.fetch_and_add h.h_count 1);
  ignore (Atomic.fetch_and_add h.h_sum v);
  set_min_atomic h.h_min v;
  set_max h.h_max v;
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) 1)

(* Percentile by linear interpolation inside the covering bucket,
   clamped to the observed [min, max] — deterministic in the bucket
   counts, hence invariant under observation order and domain count. *)
let percentile h p =
  let n = Atomic.get h.h_count in
  if n = 0 then 0.0
  else begin
    let p = Stdlib.min 1.0 (Stdlib.max 0.0 p) in
    let rank = p *. float_of_int n in
    let rec find i cum =
      if i >= bucket_count then bucket_count - 1
      else begin
        let c = Atomic.get h.h_buckets.(i) in
        if float_of_int (cum + c) >= rank && c > 0 then i
        else if cum + c >= n then i
        else find (i + 1) (cum + c)
      end
    in
    let rec cum_before i j acc =
      if j >= i then acc
      else cum_before i (j + 1) (acc + Atomic.get h.h_buckets.(j))
    in
    let i = find 0 0 in
    let before = cum_before i 0 0 in
    let in_bucket = Stdlib.max 1 (Atomic.get h.h_buckets.(i)) in
    let frac = (rank -. float_of_int before) /. float_of_int in_bucket in
    let frac = Stdlib.min 1.0 (Stdlib.max 0.0 frac) in
    let lo = float_of_int (bucket_lo i) and hi = float_of_int (bucket_hi i) in
    let v = lo +. (frac *. (hi -. lo)) in
    let mn = float_of_int (Atomic.get h.h_min)
    and mx = float_of_int (Atomic.get h.h_max) in
    Stdlib.min mx (Stdlib.max mn v)
  end

let reset_histogram h =
  Atomic.set h.h_count 0;
  Atomic.set h.h_sum 0;
  Atomic.set h.h_min max_int;
  Atomic.set h.h_max min_int;
  Array.iter (fun b -> Atomic.set b 0) h.h_buckets

let histogram_to_json h =
  let n = Atomic.get h.h_count in
  let buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    let c = Atomic.get h.h_buckets.(i) in
    if c > 0 then
      buckets := Json.List [ Json.Int (bucket_lo i); Json.Int c ] :: !buckets
  done;
  Json.Obj
    [
      ("count", Json.Int n);
      ("sum", Json.Int (Atomic.get h.h_sum));
      ("min", Json.Int (if n = 0 then 0 else Atomic.get h.h_min));
      ("max", Json.Int (if n = 0 then 0 else Atomic.get h.h_max));
      ("p50", Json.Float (percentile h 0.50));
      ("p90", Json.Float (percentile h 0.90));
      ("p99", Json.Float (percentile h 0.99));
      ("buckets", Json.List !buckets);
    ]

(* ------------------------------------------------------------------ *)
(* Timers *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let push_span t span =
  let stack = Domain.DLS.get t.spans in
  stack := span :: !stack;
  if Trace.enabled () then Trace.begin_ span.name

let span_open t name =
  check_name "Obs.span_open" name;
  let stack = Domain.DLS.get t.spans in
  let path =
    match !stack with
    | [] -> name
    | outer :: _ -> outer.path ^ "/" ^ name
  in
  push_span t { name; path; start_ns = now_ns () }

(* Root-path spans: the recorded path is exactly [path], regardless of
   the calling domain's ambient stack.  This is what keeps per-scale /
   per-tau-pair attribution identical whether the work runs inline
   (nested under the round span on the caller's stack) or on a pool
   worker domain (whose stack is empty). *)
let span_open_root t path =
  push_span t { name = path; path; start_ns = now_ns () }

let timer_cell t path =
  locked t (fun () ->
      match Hashtbl.find_opt t.timers path with
      | Some tm -> tm
      | None ->
          let tm =
            {
              total_ns = Atomic.make 0;
              count = Atomic.make 0;
              hist = make_histogram ();
            }
          in
          Hashtbl.add t.timers path tm;
          tm)

let span_close t =
  let stack = Domain.DLS.get t.spans in
  match !stack with
  | [] ->
      invalid_arg
        "Obs.span_close: no open span on this domain (span_open/span_close \
         must balance within each domain)"
  | { name; path; start_ns } :: rest ->
      stack := rest;
      let elapsed = Stdlib.max 0 (now_ns () - start_ns) in
      let tm = timer_cell t path in
      ignore (Atomic.fetch_and_add tm.total_ns elapsed);
      ignore (Atomic.fetch_and_add tm.count 1);
      observe tm.hist elapsed;
      if Trace.enabled () then Trace.end_ name

let with_span t name f =
  span_open t name;
  match f () with
  | v ->
      span_close t;
      v
  | exception exn ->
      span_close t;
      raise exn

let with_span_root t path f =
  span_open_root t path;
  match f () with
  | v ->
      span_close t;
      v
  | exception exn ->
      span_close t;
      raise exn

(* ------------------------------------------------------------------ *)
(* Gauges *)

let gauge t name read =
  check_name "Obs.gauge" name;
  locked t (fun () -> Hashtbl.replace t.gauges name read)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  locked t (fun () ->
      let counters =
        List.map
          (fun (k, c) -> (k, Json.Int (Atomic.get c)))
          (sorted_bindings t.counters)
      in
      let timers =
        List.map
          (fun (k, tm) ->
            ( k,
              Json.Obj
                [
                  ("total_ns", Json.Int (Atomic.get tm.total_ns));
                  ("count", Json.Int (Atomic.get tm.count));
                  ("p50_ns", Json.Float (percentile tm.hist 0.50));
                  ("p90_ns", Json.Float (percentile tm.hist 0.90));
                  ("p99_ns", Json.Float (percentile tm.hist 0.99));
                ] ))
          (sorted_bindings t.timers)
      in
      let gauges =
        List.map
          (fun (k, read) -> (k, Json.Int (read ())))
          (sorted_bindings t.gauges)
      in
      let histograms =
        List.map
          (fun (k, h) -> (k, histogram_to_json h))
          (sorted_bindings t.histograms)
      in
      Json.Obj
        [
          ("counters", Json.Obj counters);
          ("timers", Json.Obj timers);
          ("gauges", Json.Obj gauges);
          ("histograms", Json.Obj histograms);
        ])

let reset t =
  locked t (fun () ->
      (* Zero in place: modules intern counter handles at init time, so
         the handles must survive a reset. *)
      Hashtbl.iter (fun _ c -> Atomic.set c 0) t.counters;
      Hashtbl.iter
        (fun _ tm ->
          Atomic.set tm.total_ns 0;
          Atomic.set tm.count 0;
          reset_histogram tm.hist)
        t.timers;
      Hashtbl.iter (fun _ h -> reset_histogram h) t.histograms);
  (* Only the calling domain's span stack is reachable; other domains
     drop theirs when their own spans unwind. *)
  Domain.DLS.get t.spans := []
