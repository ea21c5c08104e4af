(** Closed-loop load generator for the serving layer.

    Drives an in-process {!Server.t} with windows of concurrent solve
    requests: each window submits [clients] solves against the
    last-loaded session and then forces a batch boundary, modelling
    [clients] closed-loop clients that each wait for their response
    before issuing the next request.  Request parameters cycle through a
    bounded pool of [distinct] (algo, seed) combinations, so sustained
    load repeats earlier requests and exercises the result cache.

    The generator measures latency itself — submit time to response
    time per request — and reports exact (not histogram-interpolated)
    p50/p99, plus outcome tallies read back from the response bodies.
    Used by experiment T9. *)

type stats = {
  clients : int;
  windows : int;
  requests : int;  (** total solve requests submitted *)
  ok : int;  (** [status = "ok"] responses *)
  cached : int;  (** ok responses answered from the result cache *)
  overloaded : int;
  deadline : int;
  errors : int;
  elapsed_ns : int;
  p50_ns : int;
  p99_ns : int;
}

val run :
  server:Server.t -> clients:int -> windows:int -> ?distinct:int -> unit -> stats
(** [run ~server ~clients ~windows ()] submits [clients * windows]
    solves without a deadline, cycling through [distinct] (default
    [max 2 (clients / 2)]) combinations of the streaming and greedy
    algorithms with seeds from 1000 on.  The server must already hold at
    least one loaded session. *)

val throughput_rps : stats -> float
(** Completed requests per second of wall-clock elapsed time. *)

val hit_ratio : stats -> float
(** [cached / ok] ([0.] when no request succeeded). *)
