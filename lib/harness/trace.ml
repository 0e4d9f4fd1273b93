(* Structured event tracing: while a trace is active, one subscriber on
   the Sim observer bus serializes every event as one JSON object per
   line (JSONL); the harness adds notes and serve windows by direct call.
   The schema is documented in DESIGN.md ("Event traces"); keep the two
   in sync.  With no trace active nothing is subscribed, and the
   instrumented paths pay one field load. *)

(* The sink is domain-local, like the bus it subscribes to: tracing on
   one domain never observes (or interleaves with) runs on another.
   Worker domains of a parallel campaign trace nothing unless they
   install their own sink. *)
type sink = {
  oc : out_channel;
  (* Per thread, since its last op_begin: failed CASes, and whether
     another thread helped the operation — the op_end fields. *)
  cas_fail : int array;
  helped : bool array;
}

let sink : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_sink () = Domain.DLS.get sink
let set_sink v = Domain.DLS.set sink v

let active () = get_sink () <> None

let out s fmt =
  Printf.ksprintf
    (fun line ->
      output_string s.oc line;
      output_char s.oc '\n')
    fmt

let impact_name = function
  | Pstats.Low -> "low"
  | Pstats.Medium -> "medium"
  | Pstats.High -> "high"

(* The per-thread virtual clock at the instant of the event (resets to 0
   at every [Sim.run]; the Perfetto converter re-bases rounds).  New
   fields are appended after the existing ones so consumers matching on
   line prefixes keep working. *)
let clk () = if Sim.in_sim () then Sim.now () else 0.

let in_range tid = tid >= 0 && tid < Pmem.max_threads

let on_pmem_event s : Pmem.trace_event -> unit = function
  | Pmem.Read { tid; line; hit } ->
      out s {|{"ev":"read","tid":%d,"line":"%s","hit":%b}|} tid
        (Json.escape line) hit
  | Pmem.Write { tid; line; hit; invalidated } ->
      out s {|{"ev":"write","tid":%d,"line":"%s","hit":%b,"inv":%d}|} tid
        (Json.escape line) hit invalidated
  | Pmem.Cas { tid; line; success; invalidated } ->
      if (not success) && in_range tid then
        s.cas_fail.(tid) <- s.cas_fail.(tid) + 1;
      out s {|{"ev":"cas","tid":%d,"line":"%s","ok":%b,"inv":%d,"clock":%.1f}|}
        tid (Json.escape line) success invalidated (clk ())
  | Pmem.Pwb { tid; site; impact; line } ->
      out s
        {|{"ev":"pwb","tid":%d,"site":"%s","impact":"%s","clock":%.1f,"line":"%s"}|}
        tid (Json.escape site) (impact_name impact) (clk ()) (Json.escape line)
  | Pmem.Pfence { tid; site } ->
      out s {|{"ev":"pfence","tid":%d,"site":"%s","clock":%.1f}|} tid
        (Json.escape site) (clk ())
  | Pmem.Psync { tid; site } ->
      out s {|{"ev":"psync","tid":%d,"site":"%s","clock":%.1f}|} tid
        (Json.escape site) (clk ())
  | Pmem.Alloc { tid; heap; line; site; time; _ } ->
      out s
        {|{"ev":"alloc","tid":%d,"heap":"%s","line":"%s","site":"%s","clock":%.1f}|}
        tid (Json.escape heap) (Json.escape line) (Json.escape site) time

let on_event ev =
  match get_sink () with
  | None -> ()
  | Some s -> (
      match ev with
      | Sim.Engine (Sim.Sched { step; tid; clock }) ->
          out s {|{"ev":"sched","step":%d,"tid":%d,"clock":%.1f}|} step tid
            clock
      | Sim.Engine (Sim.Crash { step }) ->
          out s {|{"ev":"crash","step":%d}|} step
      | Pmem.Mem e -> on_pmem_event s e
      | Tracking.Helped { owner } ->
          if in_range owner then s.helped.(owner) <- true
      | Events.Op_begin { tid; kind; key; clock } ->
          if in_range tid then begin
            s.cas_fail.(tid) <- 0;
            s.helped.(tid) <- false;
            out s {|{"ev":"op_begin","tid":%d,"kind":"%s","key":%d,"clock":%.1f}|}
              tid (Json.escape kind) key clock
          end
      | Events.Op_end { tid; ok; clock } ->
          if in_range tid then
            out s
              {|{"ev":"op_end","tid":%d,"ok":%b,"cas_fail":%d,"helped":%b,"clock":%.1f}|}
              tid ok s.cas_fail.(tid) s.helped.(tid) clock
      | Events.Round { kind; n } ->
          out s {|{"ev":"round","n":%d,"kind":"%s"}|} n
            (match kind with `Work -> "work" | `Recover -> "recover")
      | _ -> ())

let stop () =
  match get_sink () with
  | None -> ()
  | Some s ->
      Sim.unsubscribe on_event;
      set_sink None;
      flush s.oc;
      if s.oc != stdout && s.oc != stderr then close_out_noerr s.oc

let start_channel oc =
  stop ();
  set_sink
    (Some
       {
         oc;
         cas_fail = Array.make Pmem.max_threads 0;
         helped = Array.make Pmem.max_threads false;
       });
  Sim.subscribe on_event

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

(* ---- direct harness markers ------------------------------------------- *)

let note msg =
  match get_sink () with
  | None -> ()
  | Some s -> out s {|{"ev":"note","msg":"%s"}|} (Json.escape msg)

(* Per-shard windowed time-series of a serve run (emitted by Store once
   the SLO report is built; the Perfetto converter turns these into
   counter tracks). *)
let win ~sid ~index ~start_ns ~end_ns ~completions ~mops ~lat_mean_ns =
  match get_sink () with
  | None -> ()
  | Some s ->
      out s
        {|{"ev":"win","sid":%d,"index":%d,"start":%.1f,"end":%.1f,"completions":%d,"mops":%.6f,"lat_mean":%s}|}
        sid index start_ns end_ns completions mops
        (match lat_mean_ns with
        | None -> "null"
        | Some ns -> Printf.sprintf "%.1f" ns)
