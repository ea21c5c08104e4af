(* Clocks, order statistics and host probes shared by the workloads. *)

(* Stop the run without a result: a broken set-up or a lost instrument
   is not a measurement. *)
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("wmbench: " ^ s); exit 2) fmt

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.0

(* A benchmark-side span around a call into a layer; free unless the
   trace sink is on (traced runs only). *)
let span name f =
  Wm_obs.Trace.begin_ name;
  let x = f () in
  Wm_obs.Trace.end_ name;
  x

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median of no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  if xs = [] then invalid_arg "mean of no samples"
  else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The highest whole percentile that still has at least ten ops beyond
   it, so the reported tail is never a single outlier. *)
let tail_rank n = if n <= 10 then 0 else 100 * (n - 10) / n

(* Nearest-rank percentile ([p] in whole percent). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let k = ((p * n) + 99) / 100 in
  a.(Stdlib.max 0 (Stdlib.min (n - 1) (k - 1)))

(* ------------------------------------------------------------------ *)
(* /proc probes *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (fun w -> w <> "")

(* (all jiffies, steal jiffies) from the aggregate cpu line. *)
let cpu_jiffies () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match words line with
  | "cpu" :: fields ->
      let v = Array.of_list (List.map int_of_string fields) in
      let total = ref 0 in
      for i = 0 to Stdlib.min 7 (Array.length v - 1) do
        total := !total + v.(i)
      done;
      (!total, if Array.length v > 7 then v.(7) else 0)
  | _ -> (0, 0)

let loadavg () = float_of_string (List.hd (words (read_file "/proc/loadavg")))

(* Peak resident set (VmHWM) of a live process, in kB; 0 once it is
   gone. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match words l with
             | "VmHWM:" :: kb :: _ -> int_of_string_opt kb
             | _ -> None)
      |> Option.value ~default:0

(* Direct children of [pid], found through each process's ppid. *)
let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some child -> (
             match read_file (Printf.sprintf "/proc/%d/stat" child) with
             | exception Sys_error _ -> None
             | stat -> (
                 (* "pid (comm) state ppid ..."; comm may hold spaces. *)
                 let after = String.rindex stat ')' + 2 in
                 match
                   words (String.sub stat after (String.length stat - after))
                 with
                 | _state :: ppid :: _ when int_of_string_opt ppid = Some pid ->
                     Some child
                 | _ -> None)))

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* ------------------------------------------------------------------ *)
(* What a workload hands back to wmbench *)

type outcome = {
  attempted : int;
  failed : int;  (** non-ok response, invalid matching or weight mismatch *)
  checks : (string * bool) list;  (** whole-run correctness checks *)
  metrics : (string * float) list;  (** units come from the metric table *)
  notes : (string * Wm_obs.Json.t) list;  (** diagnostics, never gated *)
}

(* The six end-to-end metrics every workload reports, plus the notes
   that state the op count and which percentile the tail is. *)
let end_to_end ~setup ~ops ~wall_s ~weight_ratio ~rss_kb =
  let n = List.length ops in
  let p = tail_rank n in
  ( [
      ("setup_s", median setup);
      ("op_p50_ms", median ops);
      ("op_tail_ms", percentile ops p);
      ("ops_per_s", float_of_int n /. wall_s);
      ("weight_ratio", weight_ratio);
      ("peak_rss_mb", float_of_int rss_kb /. 1024.0);
    ],
    Wm_obs.Json.
      [
        ("ops", Int n);
        ("op_tail_ms_is", Str (Printf.sprintf "p%d" p));
        ("setup_samples_s", List (List.map (fun s -> Float s) setup));
        ("op_ms", List (List.rev_map (fun x -> Float (Float.round (x *. 10.0) /. 10.0)) ops));
      ] )
