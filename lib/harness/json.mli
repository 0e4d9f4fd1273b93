(** JSON for the harness: one string escaper for every hand-written
    emitter (Report, Causal, Forensics, Trace, Perfetto, Space, Slo keep
    their printf templates and escape strings through it), and a
    minimal recursive-descent reader — just enough to re-read an
    emitted file and check it structurally, with no external
    dependency. *)

val escape : string -> string
(** The body of a JSON string literal, without the enclosing quotes:
    double quotes and backslashes are backslash-escaped, newline, tab
    and carriage return use their short escapes, and other control
    bytes become [\u00XX]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; [Error] names the offset of the first problem
    (trailing garbage included). *)

(** {1 Object field accessors}

    [None] when the field is absent or has another type. *)

val field : string -> (string * t) list -> t option
val fnum : string -> (string * t) list -> float option
val fstr : string -> (string * t) list -> string option
val fbool : string -> (string * t) list -> bool option

val fint : string -> (string * t) list -> int option
(** A number field truncated to an int. *)
