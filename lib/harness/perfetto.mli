(** Convert a [Trace] JSONL file into Chrome [trace_event] JSON that
    ui.perfetto.dev (or chrome://tracing) can open directly.

    Mapping (documented in DESIGN.md, "Observability"):

    - one track per logical thread ([pid] 1, [tid] = simulated tid, named
      via ["thread_name"] metadata events);
    - each [op_begin]/[op_end] pair becomes a complete slice
      (["ph":"X"]) labelled ["<kind>(<key>)"] with args [ok],
      [cas_failures], [helped];
    - [pwb]/[pfence]/[psync] and failed [cas] events become thread-scoped
      instants (["ph":"i"], scope ["t"]);
    - [crash], [round] and [note] events become global instants;
    - timestamps are virtual nanoseconds converted to the microseconds
      Perfetto expects.  Per-thread clocks restart at 0 on every
      campaign round, so each round is re-based at the maximum clock
      reached in the previous one; spans still open at a crash or round
      boundary are closed there and tagged [interrupted].

    The converter only needs the JSONL file, not the process that wrote
    it, so traces can be converted after the fact ([repro trace --from]). *)

type stats = {
  out_spans : int;  (** complete slices emitted *)
  out_threads : int;  (** thread tracks *)
  in_events : int;  (** JSONL lines consumed *)
}

val convert : jsonl:string -> out:string -> (stats, string) result
(** [convert ~jsonl ~out] reads [jsonl] and writes [out].  [Error] on
    unreadable input or a line that does not parse. *)

(** {1 JSON reader}

    {!Json}'s value type and parser, re-exported for existing callers. *)

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result

val validate_file : string -> (stats, string) result
(** Parse [file] as [trace_event] JSON and check that it has a
    [traceEvents] array and that every thread track carries at least one
    complete ([ph = "X"]) span.  Returns the re-counted stats. *)
