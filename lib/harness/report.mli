(** Plain-text table reporting for the experiment harness.

    Every experiment prints: a header naming the experiment and the
    paper claim it regenerates, a fixed-width table of rows, and a note
    describing the expected shape (who wins, by what factor).  The
    formatting is deliberately stable so EXPERIMENTS.md can quote the
    output verbatim.

    The module can additionally {e capture} everything printed into a
    structured form (see {!start_capture}), which the bench driver uses
    to emit machine-readable BENCH_v1.json reports without touching any
    experiment code. *)

val section : id:string -> title:string -> claim:string -> unit
(** Print the experiment banner. *)

val table_header : string list -> unit
(** Print column names and a separator; column width is fixed at 12.
    When capturing, starts a new table within the current section. *)

type cell = Int of int | Float of float | Str of string
(** A table cell.  The typed value is what BENCH_v1 reports carry; the
    text table prints it through {!cell_text}. *)

val row : cell list -> unit

val cell_f : float -> cell

val cell_i : int -> cell

val cell_s : string -> cell

val cell_text : cell -> string
(** The printed form: ints in decimal, floats with 4 decimals, strings
    as they are (each padded to the 12-char column by {!row}). *)

val note : string -> unit
(** Print a wrapped "shape:" footnote. *)

(** {1 Structured capture} *)

type table = { columns : string list; rows : cell list list }

type captured_section = {
  id : string;
  title : string;
  claim : string;
  tables : table list;  (** in print order; one per {!table_header} call *)
  notes : string list;
}

val start_capture : unit -> unit
(** Begin recording sections/tables/rows/notes as they are printed.
    Idempotent restart: any previously captured data is discarded. *)

val capture : unit -> captured_section list
(** Stop capturing and return the sections recorded since
    {!start_capture}, in print order.  Returns [[]] when capture was
    never started. *)

val to_json : captured_section -> Wm_obs.Json.t
(** A section as a BENCH_v1 [experiments] entry:
    [{id, title, claim, tables: [{columns, rows}], notes}], each cell
    a JSON int, float or string per its constructor. *)

val mean : float list -> float

val mean_of : ('a -> float) -> 'a list -> float
