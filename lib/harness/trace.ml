(* Structured event tracing for the simulator and crash harness.

   When started, installs the observability hooks of [Sim] and [Pmem] and
   serializes every event as one JSON object per line (JSONL).  The schema
   is documented in DESIGN.md ("Trace JSONL schema"); keep the two in
   sync.  When no trace is active the hooks are [None] and the
   instrumented fast paths pay a single ref read. *)

(* The sink is domain-local, like the Sim/Pmem hooks it installs:
   tracing on one domain never observes (or interleaves with) runs on
   another.  Worker domains of a parallel campaign trace nothing unless
   they install their own sink. *)
let sink : out_channel option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_sink () = Domain.DLS.get sink
let set_sink v = Domain.DLS.set sink v

let active () = get_sink () <> None

let emit fmt =
  Printf.ksprintf
    (fun line ->
      match get_sink () with
      | None -> ()
      | Some oc ->
          output_string oc line;
          output_char oc '\n')
    fmt

let impact_name = function
  | Pstats.Low -> "low"
  | Pstats.Medium -> "medium"
  | Pstats.High -> "high"

let on_sim_event : Sim.trace_event -> unit = function
  | Sim.Sched { step; tid; clock } ->
      emit {|{"ev":"sched","step":%d,"tid":%d,"clock":%.1f}|} step tid clock
  | Sim.Crash { step } -> emit {|{"ev":"crash","step":%d}|} step

(* The per-thread virtual clock at the instant of the event (resets to 0
   at every [Sim.run]; the Perfetto converter re-bases rounds).  New
   fields are appended after the existing ones so consumers matching on
   line prefixes keep working. *)
let clk () = if Sim.in_sim () then Sim.now () else 0.

let on_pmem_event : Pmem.trace_event -> unit = function
  | Pmem.Read { tid; line; hit } ->
      emit {|{"ev":"read","tid":%d,"line":"%s","hit":%b}|} tid
        (Json.escape line) hit
  | Pmem.Write { tid; line; hit; invalidated } ->
      emit {|{"ev":"write","tid":%d,"line":"%s","hit":%b,"inv":%d}|} tid
        (Json.escape line) hit invalidated
  | Pmem.Cas { tid; line; success; invalidated } ->
      emit {|{"ev":"cas","tid":%d,"line":"%s","ok":%b,"inv":%d,"clock":%.1f}|}
        tid (Json.escape line) success invalidated (clk ())
  | Pmem.Pwb { tid; site; impact; line } ->
      emit
        {|{"ev":"pwb","tid":%d,"site":"%s","impact":"%s","clock":%.1f,"line":"%s"}|}
        tid (Json.escape site) (impact_name impact) (clk ()) (Json.escape line)
  | Pmem.Pfence { tid; site } ->
      emit {|{"ev":"pfence","tid":%d,"site":"%s","clock":%.1f}|} tid
        (Json.escape site) (clk ())
  | Pmem.Psync { tid; site } ->
      emit {|{"ev":"psync","tid":%d,"site":"%s","clock":%.1f}|} tid
        (Json.escape site) (clk ())
  | Pmem.Alloc { tid; heap; line; site } ->
      emit
        {|{"ev":"alloc","tid":%d,"heap":"%s","line":"%s","site":"%s","clock":%.1f}|}
        tid (Json.escape heap) (Json.escape line) (Json.escape site) (clk ())

let stop () =
  match get_sink () with
  | None -> ()
  | Some oc ->
      Sim.set_tracer None;
      Pmem.set_tracer None;
      set_sink None;
      flush oc;
      if oc != stdout && oc != stderr then close_out_noerr oc

let start_channel oc =
  stop ();
  set_sink (Some oc);
  Sim.set_tracer (Some on_sim_event);
  Pmem.set_tracer (Some on_pmem_event)

(* Stop the previous trace (if any) *before* opening the new file: the
   old order opened first, so restarting into the same path truncated the
   file while the outgoing channel still held buffered events, and the
   final flush-on-close then clobbered the fresh trace. *)
let start path =
  stop ();
  start_channel (open_out path)

let with_file path f =
  start path;
  Fun.protect ~finally:stop f

(* ---- harness-level boundaries ---------------------------------------- *)

let round ~kind n =
  if active () then
    emit {|{"ev":"round","n":%d,"kind":"%s"}|} n
      (match kind with `Work -> "work" | `Recover -> "recover")

let note msg =
  if active () then emit {|{"ev":"note","msg":"%s"}|} (Json.escape msg)

(* Per-shard windowed time-series of a serve run (emitted by Store once
   the SLO report is built; the Perfetto converter turns these into
   counter tracks). *)
let win ~sid ~index ~start_ns ~end_ns ~completions ~mops ~lat_mean_ns =
  if active () then
    emit
      {|{"ev":"win","sid":%d,"index":%d,"start":%.1f,"end":%.1f,"completions":%d,"mops":%.6f,"lat_mean":%s}|}
      sid index start_ns end_ns completions mops
      (match lat_mean_ns with
      | None -> "null"
      | Some ns -> Printf.sprintf "%.1f" ns)

(* ---- operation spans (emitted by Harness.Metrics) --------------------- *)

let op_begin ~tid ~kind ~key ~clock =
  if active () then
    emit {|{"ev":"op_begin","tid":%d,"kind":"%s","key":%d,"clock":%.1f}|} tid
      (Json.escape kind) key clock

let op_end ~tid ~ok ~cas_failures ~helped ~clock =
  if active () then
    emit {|{"ev":"op_end","tid":%d,"ok":%b,"cas_fail":%d,"helped":%b,"clock":%.1f}|}
      tid ok cas_failures helped clock
