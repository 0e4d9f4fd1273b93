(* Command-line driver for the reproduction: regenerate figures, run
   crash-injection campaigns, sweep throughput, classify pwb sites. *)

open Cmdliner

let algo_conv =
  let parse s =
    match Set_intf.by_name s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  let print ppf f = Format.pp_print_string ppf f.Set_intf.fname in
  Arg.conv (parse, print)

let mix_conv =
  let parse = function
    | "read" | "read-intensive" -> Ok Workload.read_intensive
    | "update" | "update-intensive" -> Ok Workload.update_intensive
    | s -> (
        match int_of_string_opt s with
        | Some p when p >= 0 && p <= 100 -> Ok (Workload.mix_of_find_pct p)
        | _ -> Error (`Msg "expected read | update | <find-%>"))
  in
  let print ppf m = Format.pp_print_string ppf m.Workload.name in
  Arg.conv (parse, print)

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Coarse sweep, single seed.")

let algo =
  Arg.(
    value
    & opt algo_conv Set_intf.tracking
    & info [ "algo"; "a" ] ~docv:"ALGO" ~doc:"Implementation to drive.")

let mix =
  Arg.(
    value
    & opt mix_conv Workload.update_intensive
    & info [ "mix"; "m" ] ~docv:"MIX" ~doc:"Operation mix: read | update | <find-%>.")

let cfg_of_quick quick =
  if quick then Figures.quick_config
  else { Figures.default_config with duration_ns = 200_000.; seeds = 2 }

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the campaign across $(docv) domains (0 = one per core). \
           Reported results and repro files are deterministic and \
           byte-identical to -j 1; worker domains are not traced.")

let resolve_jobs j = if j <= 0 then Parallel.default_jobs () else j

(* -- flags shared by several commands ------------------------------------- *)

(* One definition per flag; each command passes its own default (and its
   own doc where the flag means something else there). *)
let int_flag names ~doc default =
  Arg.(value & opt int default & info names ~doc)

let threads = int_flag [ "threads"; "t" ] ~doc:"Logical threads."
let ops ?(doc = "Operations per thread.") d = int_flag [ "ops" ] ~doc d
let keys = int_flag [ "keys" ] ~doc:"Key range size."
let crashes ?(doc = "Max crashes injected.") d = int_flag [ "crashes" ] ~doc d
let seed ?(doc = "Workload seed.") d = int_flag [ "seed" ] ~doc d
let prefill = int_flag [ "prefill" ] ~doc:"Keys inserted before the run."

let file_flag ?(docv = "FILE") name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let json doc = file_flag "json" ~doc
let csv ?docv doc = file_flag ?docv "csv" ~doc

let trace what =
  file_flag "trace"
    ~doc:(Printf.sprintf "Write a JSONL event trace of %s to $(docv)." what)

let repro_out what =
  file_flag "repro"
    ~doc:(Printf.sprintf "On failure, save a replayable %s to $(docv)." what)

let traced trace go =
  match trace with Some p -> Trace.with_file p go | None -> go ()

let refuse msg =
  Format.printf "%s@." msg;
  exit 2

let valid = function Ok () -> () | Error msg -> refuse msg

(* The one way a campaign command (crash, explore, stats, soak, trace,
   space) builds its run: the record Crashes runs, refused through its
   validator before anything runs. *)
let campaign factory mix ~threads ~ops ~crashes ~keys ~prefill =
  let cfg =
    {
      Crashes.factory;
      threads;
      ops_per_thread = ops;
      workload =
        { Workload.mix; key_range = keys; prefill_n = prefill; dist = Uniform };
      max_crashes = crashes;
    }
  in
  valid (Crashes.validate cfg);
  cfg

(* A command that crashes its structure has nothing to check on one
   that cannot recover.  [repro space] accounts such a structure through
   crash campaigns all the same. *)
let require_recoverable algo =
  if not algo.Set_intf.supports_crash then begin
    Format.printf "%s is volatile: it cannot recover from crashes@."
      algo.Set_intf.fname;
    exit 1
  end

(* -- repro files of either kind ------------------------------------------- *)

(* A campaign or a serve repro; the file's magic line says which. *)
type repro = Campaign of Repro.t | Serve of Store_repro.t

let load_repro file =
  let serve =
    try
      In_channel.with_open_text file In_channel.input_line
      = Some Store_repro.magic
    with Sys_error _ -> false
  in
  match
    if serve then Result.map (fun r -> Serve r) (Store_repro.load file)
    else Result.map (fun r -> Campaign r) (Repro.load file)
  with
  | Ok r -> r
  | Error msg -> refuse (Printf.sprintf "cannot load %s: %s" file msg)

let repro_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:"Repro file (campaign or serve) written on a failure.")

let save_repro path = function
  | Campaign r -> Repro.save path r
  | Serve r -> Store_repro.save path r

let replay_repro = function
  | Campaign r -> Crashes.replay r
  | Serve r -> Store_repro.replay r

let explain_repro = function
  | Campaign r -> Crashes.explain r
  | Serve r -> Store_repro.explain r

let recorded_error = function
  | Campaign r -> r.Repro.error
  | Serve r -> r.Store_repro.error

(* The one failure path: the violation, the repro (saved if asked for)
   and the postmortem of explaining that repro, printed through one
   formatter so they never interleave out of order; then exit 1. *)
let violation ?repro_file ~msg repro =
  Format.printf "DETECTABILITY VIOLATION — %s@." msg;
  Option.iter
    (fun p ->
      save_repro p repro;
      Format.printf "%s saved to %s@."
        (match repro with Campaign _ -> "repro" | Serve _ -> "serve repro")
        p)
    repro_file;
  (match explain_repro repro with
  | Ok pm -> Format.printf "@.%s" (Forensics.render_text pm)
  | Error reason -> Format.printf "@.(no postmortem: %s)@." reason);
  exit 1

(* -- figures ------------------------------------------------------------ *)

let figure_ids =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FIG"
        ~doc:"Figure ids (3a..4f, 5r, 6r, 5u, 6u, 7r, 7u, 8r, 8u); all if \
              none.")

let figures_cmd =
  let run quick ids csv =
    let cfg = cfg_of_quick quick in
    (match List.filter (fun id -> not (List.mem_assoc id Figures.all)) ids with
    | [] -> ()
    | bad ->
        refuse
          (Printf.sprintf "unknown figure %s (valid: %s)"
             (String.concat ", " bad)
             (String.concat " " (List.map fst Figures.all))));
    let figs =
      Report.print_figures cfg
        (List.filter (fun (id, _) -> ids = [] || List.mem id ids) Figures.all)
    in
    if ids = [] then Report.print_classifications cfg;
    Option.iter (fun dir -> Report.write_csv_dir ~dir figs) csv
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures (§5).")
    Term.(
      const run $ quick $ figure_ids
      $ csv ~docv:"DIR" "Also write one CSV per figure into $(docv).")

(* -- sweep --------------------------------------------------------------- *)

let sweep_cmd =
  let threads =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16; 24; 32; 48; 60 ]
      & info [ "threads"; "t" ] ~docv:"N,N,..." ~doc:"Thread counts.")
  in
  let duration =
    Arg.(
      value & opt float 200_000.
      & info [ "duration-ns" ] ~doc:"Virtual nanoseconds per point.")
  in
  let run algo mix threads duration =
    List.iter
      (fun n ->
        let p =
          Runner.measure ~duration_ns:duration algo ~threads:n
            (Workload.default mix)
        in
        Format.printf "%a@." Runner.pp_point p)
      threads
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Throughput sweep for one implementation.")
    Term.(const run $ algo $ mix $ threads $ duration)

(* -- crash campaigns ------------------------------------------------------ *)

let crash_cmd =
  let seeds =
    Arg.(value & opt int 100 & info [ "seeds" ] ~doc:"Number of seeded runs.")
  in
  let run algo mix seeds threads ops crashes keys trace repro_file =
    let cfg =
      campaign algo mix ~threads ~ops ~crashes ~keys ~prefill:(keys / 2)
    in
    require_recoverable algo;
    match
      traced trace (fun () ->
          Crashes.run_campaign cfg ~seeds:(List.init seeds Fun.id))
    with
    | Ok (n, o) ->
        Format.printf
          "%s: %d runs passed — %d operations, %d recovered through crashes, \
           %d crashes injected@."
          algo.Set_intf.fname n o.Crashes.completed_ops o.Crashes.recovered_ops
          o.Crashes.crashes
    | Error r ->
        violation ?repro_file
          ~msg:(Printf.sprintf "seed %d: %s" r.Repro.seed r.Repro.error)
          (Campaign r)
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:"Crash-injection campaign with detectability checking.")
    Term.(
      const run $ algo $ mix $ seeds $ threads 4 $ ops 15
      $ crashes ~doc:"Max crashes per run." 3
      $ keys 64 $ trace "the whole campaign" $ repro_out "repro")

(* -- explore -------------------------------------------------------------- *)

let explore_cmd =
  (* the search's own bounds: counts, so a negative one is a usage error *)
  let count =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (`Msg "expected a non-negative integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let bound name ~doc default =
    Arg.(value & opt count default & info [ name ] ~doc)
  in
  let preemptions =
    bound "preemptions" 2
      ~doc:"CHESS preemption bound: max preemptive context switches \
            explored per execution."
  in
  let crashes = bound "crashes" 1 ~doc:"Max crashes injected per execution." in
  let wb =
    bound "wb" 2
      ~doc:"Write-back sweep width: prefix depths tried per crash, \
            besides drop-all and complete-all."
  in
  let max_execs =
    bound "max-execs" 100_000
      ~doc:"Execution budget; 0 = run until exhausted."
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going" ]
          ~doc:"Keep exploring after the first failure (count them all).")
  in
  let run algo mix threads ops keys prefill preemptions crashes wb max_execs
      seed keep_going trace repro_file jobs =
    let campaign =
      campaign algo mix ~threads ~ops ~crashes:(max crashes 1) ~keys ~prefill
    in
    require_recoverable algo;
    let jobs = resolve_jobs jobs in
    if jobs > 1 && trace <> None then
      Format.eprintf
        "note: -j %d traces only the calling domain (discovery execution); \
         worker-domain executions are not traced@."
        jobs;
    let cfg =
      { Explore.campaign; seed; preemptions; crashes; wb_width = wb; max_execs }
    in
    let go () =
      Explore.run ~stop_on_failure:(not keep_going)
        ~progress:Report.explore_progress ~jobs cfg
    in
    let o = traced trace go in
    Format.printf "%a" Report.pp_explore o.Explore.stats;
    Option.iter
      (fun r -> violation ?repro_file ~msg:r.Repro.error (Campaign r))
      o.Explore.failure
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded exhaustive exploration: enumerate every schedule (up to a \
          preemption bound), crash point and write-back subset of a small \
          campaign, checking detectability on each execution.")
    Term.(
      const run $ algo $ mix $ threads 2 $ ops 1 $ keys 8 $ prefill 4
      $ preemptions $ crashes $ wb $ max_execs $ seed 0 $ keep_going
      $ trace "the exploration"
      $ repro_out "repro" $ jobs_arg)

(* -- replay --------------------------------------------------------------- *)

let replay_run file do_shrink any_error out trace =
  let r = load_repro file in
  (match r with
  | Serve _ when do_shrink || any_error ->
      refuse
        ("cannot shrink " ^ file
       ^ ": --shrink and --any-error take a campaign repro")
  | _ -> ());
  (* transcripts are pinned byte for byte (make output-golden): the
     campaign one follows the file with a blank line, the serve one not *)
  (match r with
  | Campaign c -> Format.printf "%a@." Repro.pp c
  | Serve s -> Format.printf "%a" Store_repro.pp s);
  let r =
    match r with
    | Campaign c when do_shrink ->
        let c = Crashes.shrink ~match_error:(not any_error) c in
        Format.printf "shrunk to: threads=%d ops/thread=%d rounds=%d@."
          c.Repro.config.threads c.Repro.config.ops_per_thread
          (List.length c.Repro.rounds);
        Campaign c
    | r -> r
  in
  Option.iter
    (fun p ->
      save_repro p r;
      Format.printf "wrote %s@." p)
    out;
  let recorded = recorded_error r in
  match traced trace (fun () -> replay_repro r) with
  | Error msg when String.equal msg recorded ->
      Format.printf "reproduced: %s@." msg
  | Error msg ->
      Format.printf "reproduced a DIFFERENT failure: %s@." msg;
      Format.printf "(recorded: %s)@." recorded;
      exit 1
  | Ok () ->
      Format.printf "did NOT reproduce — the replay passed@.";
      exit 1

let replay_cmd =
  let shrinkf =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily minimize a campaign repro (fewer threads, fewer \
                ops, earlier crash) before replaying.")
  in
  let any_error =
    Arg.(
      value & flag
      & info [ "any-error" ]
          ~doc:"While shrinking, accept probe runs that fail with a \
                different error than the recorded one (default: only \
                matching failures are adopted).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the (possibly shrunk) repro back out to $(docv).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically replay (and optionally shrink) a saved \
          failing-campaign or failing-serve repro.")
    Term.(
      const replay_run $ repro_file_arg $ shrinkf $ any_error $ out
      $ trace "the replay")

(* -- explain (crash forensics) -------------------------------------------- *)

let explain_run file json =
  match explain_repro (load_repro file) with
  | Error msg ->
      Format.printf "cannot explain %s: %s@." file msg;
      exit 1
  | Ok pm ->
      if json then print_endline (Forensics.render_json pm)
      else print_string (Forensics.render_text pm)

let explain_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Render the postmortem as one JSON object instead of text.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Crash-forensics postmortem for a saved failing repro: replay it \
          under the forensic recorder and report each crash's write-back \
          fates (persisted vs dropped, with the resolution that decided \
          them), the durable-vs-volatile state diff naming every \
          never-persisted cache line and the site that wrote it, the \
          culprit analysis (including registered-but-disabled persist \
          sites), and the lineage of the operations touching the failure.  \
          Output is deterministic: byte-identical across replays.")
    Term.(const explain_run $ repro_file_arg $ json)

(* -- soak ----------------------------------------------------------------- *)

let soak_cmd =
  let rounds =
    Arg.(
      value & opt int 0
      & info [ "rounds" ] ~doc:"Campaign rounds; 0 = run until interrupted.")
  in
  let run algo mix rounds threads =
    let cfg =
      campaign algo mix ~threads ~ops:20 ~crashes:4 ~keys:64 ~prefill:32
    in
    require_recoverable algo;
    let round = ref 0 in
    let continue () = rounds = 0 || !round < rounds in
    while continue () do
      incr round;
      let seeds = List.init 50 (fun i -> (!round * 1000) + i) in
      match Crashes.run_campaign cfg ~seeds with
      | Ok (n, o) ->
          Format.printf
            "round %d: %d runs ok — %d ops, %d recovered, %d crashes@."
            !round n o.Crashes.completed_ops o.Crashes.recovered_ops
            o.Crashes.crashes
      | Error r ->
          Format.printf "round %d: " !round;
          violation
            ~msg:(Printf.sprintf "seed %d: %s" r.Repro.seed r.Repro.error)
            (Campaign r)
    done
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run crash-injection campaigns indefinitely (or for --rounds),           50 fresh seeds per round.")
    Term.(const run $ algo $ mix $ rounds $ threads 6)

(* -- stats ---------------------------------------------------------------- *)

let stats_cmd =
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~doc:"Contended cache lines to report.")
  in
  let run algo mix threads ops crashes keys seed top json =
    let cfg =
      campaign algo mix ~threads ~ops ~crashes ~keys ~prefill:(keys / 2)
    in
    if crashes > 0 then require_recoverable algo;
    Metrics.enable ();
    let result =
      Fun.protect
        ~finally:(fun () -> Metrics.disable ())
        (fun () ->
          let r = Crashes.run_campaign cfg ~seeds:[ seed ] in
          (* --json - owns stdout: the human report would corrupt the
             stream for anything piping the output into a JSON parser. *)
          if json <> Some "-" then begin
            Format.printf
              "%s: %d threads × %d ops, mix %s, seed %d@.@."
              algo.Set_intf.fname threads ops mix.Workload.name seed;
            Report.pp_metrics ~top Format.std_formatter ()
          end;
          (match json with
          | Some "-" -> print_endline (Report.metrics_json ~top ())
          | Some p ->
              Out_channel.with_open_text p (fun oc ->
                  Out_channel.output_string oc (Report.metrics_json ~top ());
                  Out_channel.output_char oc '\n');
              Format.printf "@.wrote %s@." p
          | None -> ());
          r)
    in
    match result with
    | Ok _ -> ()
    | Error r ->
        Format.printf "@.";
        violation ~msg:r.Repro.error (Campaign r)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run one seeded crash campaign with metrics enabled and print the \
          report: latency histograms per op kind, the most contended cache \
          lines, recovery durations.  Nothing is written to disk.")
    Term.(
      const run $ algo $ mix $ threads 4 $ ops 50 $ crashes 2 $ keys 64
      $ seed 1 $ top
      $ json "Also write the report as JSON to $(docv) (\"-\" = stdout).")

(* -- space ---------------------------------------------------------------- *)

let space_cmd =
  let variants =
    Arg.(
      value & pos_all algo_conv []
      & info [] ~docv:"ALGO"
          ~doc:
            "Implementations to account (default: tracking, tracking-hash, \
             capsules-opt, memento-list, memento-comb).")
  in
  let find_pct =
    Arg.(
      value & opt int 20
      & info [ "find-pct" ] ~docv:"P" ~doc:"Percentage of find operations.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit nonzero if any run failed or any detectable variant fell \
             below the metadata space lower bound.")
  in
  let run variants threads ops find_pct crashes keys prefill seed jobs json
      csv strict =
    let mix = Workload.mix_of_find_pct find_pct in
    let cfgs =
      List.map
        (fun f -> campaign f mix ~threads ~ops ~crashes ~keys ~prefill)
        (if variants <> [] then variants
         else
           Set_intf.[ tracking; tracking_hash; capsules_opt; memento_list;
                      memento_comb ])
    in
    let cfg = List.hd cfgs in
    let rs = Space.campaign ~jobs:(resolve_jobs jobs) ~seed cfgs in
    let emit dst text =
      match dst with
      | "-" -> print_string text
      | p ->
          Out_channel.with_open_text p (fun oc ->
              Out_channel.output_string oc text);
          Format.printf "wrote %s@." p
    in
    (* --json - / --csv - own stdout: suppress the human report there. *)
    if json <> Some "-" && csv <> Some "-" then
      print_string (Space.render_text cfg ~seed rs);
    (match json with
    | Some dst -> emit dst (Space.render_json cfg ~seed rs)
    | None -> ());
    (match csv with
    | Some dst -> emit dst (Space.render_csv rs)
    | None -> ());
    if strict then
      match Space.check rs with
      | Ok () -> ()
      | Error msg ->
          Format.printf "@.SPACE CHECK FAILED — %s@." msg;
          exit 1
  in
  Cmd.v
    (Cmd.info "space"
       ~doc:
         "Run one seeded crash campaign per implementation with the \
          allocation registry attached and account every persistent cache \
          line: live payload vs detectability metadata vs garbage, \
          space-per-op, metadata-overhead ratio, garbage growth over \
          virtual time, and the detectable-object space lower bound \
          (arXiv 2002.11378).")
    Term.(
      const run $ variants $ threads 4 $ ops 120 $ find_pct $ crashes 3
      $ keys 64 $ prefill 16 $ seed 1 $ jobs_arg
      $ json "Also write the report as JSON to $(docv) (\"-\" = stdout)."
      $ csv "Also write the summary table as CSV to $(docv) (\"-\" = stdout)."
      $ strict)

(* -- causal --------------------------------------------------------------- *)

let causal_cmd =
  let factors =
    Arg.(
      value
      & opt (list float) [ 0.; 0.5; 2. ]
      & info [ "factors" ] ~docv:"F,F,..."
          ~doc:"Cost-scaling sweep besides the implicit 1x baseline.")
  in
  let no_sites =
    Arg.(value & flag & info [ "no-sites" ] ~doc:"Skip per-site rows.")
  in
  let no_categories =
    Arg.(
      value & flag
      & info [ "no-categories" ] ~doc:"Skip per-impact-category rows.")
  in
  let mechanisms =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "mechanisms" ] ~docv:"KNOB,..."
          ~doc:
            "Cost-table knobs to sweep (default: the persistence and \
             contention set; \"none\" = skip mechanism rows).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Smoke assertion: exit nonzero unless the profile reproduces \
             the paper's ordering (high-impact pwbs above low-impact ones, \
             psync sensitivity near zero).")
  in
  let run algo mix quick threads ops seed factors no_sites no_categories
      mechanisms json csv check jobs =
    let base =
      if quick then Causal.quick_config algo mix
      else Causal.default_config algo mix
    in
    let cfg =
      {
        base with
        Causal.threads = (if quick then base.Causal.threads else threads);
        ops_per_thread =
          (if quick then base.Causal.ops_per_thread else ops);
        seed;
        factors;
        sites = not no_sites;
        categories = not no_categories;
        mechanisms =
          (match mechanisms with
          | Some [ "none" ] -> []
          | Some ms -> ms
          | None -> base.Causal.mechanisms);
      }
    in
    let p = Causal.profile ~jobs:(resolve_jobs jobs) cfg in
    (* --json - owns stdout; the table and "wrote" notices move aside. *)
    let notice = if json = Some "-" then Format.eprintf else Format.printf in
    if json <> Some "-" then Report.pp_causal Format.std_formatter p;
    (match csv with
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Causal.to_csv p));
        notice "wrote %s@." path
    | None -> ());
    (match json with
    | Some "-" -> print_endline (Causal.to_json p)
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Causal.to_json p);
            Out_channel.output_char oc '\n');
        Format.printf "wrote %s@." path
    | None -> ());
    if check then begin
      (* The paper's ordering is per-instruction impact: one high-impact
         pwb costs far more than one low-impact pwb, even though the low
         ones dominate in count (and hence in aggregate sensitivity). *)
      let sens_of t =
        List.find_map
          (fun (r : Causal.row) ->
            if r.Causal.target = t && r.Causal.executions > 0 then
              Some (r.Causal.sensitivity /. float_of_int r.Causal.executions)
            else None)
          p.Causal.rows
      in
      let high = sens_of (Causal.Category Pstats.High) in
      let low = sens_of (Causal.Category Pstats.Low) in
      let psync_ok =
        (* psync sites must be (nearly) off the critical path: their
           sensitivity should be a sliver of the baseline cost. *)
        List.for_all
          (fun (r : Causal.row) ->
            r.Causal.group <> "psync"
            || Float.abs r.Causal.sensitivity
               < 0.05 *. p.Causal.baseline_ns_per_op)
          p.Causal.rows
      in
      let ordering_ok =
        match (high, low) with
        | Some h, Some l -> h > l
        | _ -> false
      in
      if ordering_ok && psync_ok then
        notice
          "@.check OK: high-impact above low-impact per execution, psyncs \
           near zero@."
      else begin
        notice "@.CHECK FAILED:%s%s@."
          (if ordering_ok then ""
           else " high-impact per-execution sensitivity not above low-impact;")
          (if psync_ok then "" else " a psync site has material sensitivity;");
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "causal"
       ~doc:
         "Causal what-if profile: rerun a fixed workload under the recorded \
          baseline schedule with each pwb site / impact category / cost \
          knob virtually scaled, and rank targets by throughput \
          sensitivity.")
    Term.(
      const run $ algo $ mix $ quick $ threads 16
      $ ops ~doc:"Operations per thread (fixed work, not time)." 250
      $ seed 1 $ factors $ no_sites $ no_categories $ mechanisms
      $ json "Write the profile as JSON to $(docv) (\"-\" = stdout)."
      $ csv "Write the attribution table as CSV to $(docv)."
      $ check $ jobs_arg)

(* -- trace (Perfetto export) ---------------------------------------------- *)

let trace_cmd =
  let from =
    Arg.(
      value
      & opt (some file) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "Convert an existing JSONL trace instead of running a campaign.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Also keep the intermediate JSONL trace at $(docv).")
  in
  let perfetto =
    Arg.(
      required
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"Write Chrome trace_event JSON to $(docv) (open in \
                ui.perfetto.dev).")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Re-parse the emitted JSON and check every thread track has at \
             least one complete span; exit nonzero otherwise.")
  in
  let run algo mix threads ops crashes keys seed from jsonl perfetto validate =
    let src, cleanup =
      match from with
      | Some f -> (f, fun () -> ())
      | None ->
          let cfg =
            campaign algo mix ~threads ~ops ~crashes ~keys ~prefill:(keys / 2)
          in
          let path, cleanup =
            match jsonl with
            | Some p -> (p, fun () -> ())
            | None ->
                let t = Filename.temp_file "repro-trace" ".jsonl" in
                (t, fun () -> try Sys.remove t with Sys_error _ -> ())
          in
          let result, _ =
            Trace.with_file path (fun () -> Crashes.run_logged cfg ~seed)
          in
          (match result with
          | Ok o ->
              Format.printf
                "campaign: %d ops, %d recovered, %d crashes@."
                o.Crashes.completed_ops o.Crashes.recovered_ops
                o.Crashes.crashes
          | Error msg ->
              (* still convert: a trace of a failing run is the useful one *)
              Format.printf "campaign FAILED (converting anyway): %s@." msg);
          (path, cleanup)
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    match Perfetto.convert ~jsonl:src ~out:perfetto with
    | Error msg ->
        Format.printf "conversion failed: %s@." msg;
        exit 2
    | Ok s ->
        Format.printf "wrote %s: %d spans on %d thread tracks (%d events)@."
          perfetto s.Perfetto.out_spans s.Perfetto.out_threads
          s.Perfetto.in_events;
        if validate then begin
          match Perfetto.validate_file perfetto with
          | Ok v ->
              Format.printf
                "validated: parses, %d spans, every one of %d tracks has a \
                 complete span@."
                v.Perfetto.out_spans v.Perfetto.out_threads
          | Error msg ->
              Format.printf "VALIDATION FAILED: %s@." msg;
              exit 1
        end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a small traced campaign (or convert --from an existing JSONL \
          trace) and export Chrome trace_event JSON for ui.perfetto.dev: \
          one track per logical thread, operation spans, persistence \
          instants, crash/round markers.")
    Term.(
      const run $ algo $ mix $ threads 3 $ ops 10 $ crashes 2 $ keys 32
      $ seed 1 $ from $ jsonl $ perfetto $ validate)

(* -- serve (sharded store service) ----------------------------------------- *)

let wb_conv =
  let parse s =
    Result.map_error
      (fun _ -> `Msg "expected rng | drop | all | prefix:<k>")
      (Repro.wb_of_string s)
  in
  let print ppf wb = Format.pp_print_string ppf (Repro.wb_to_string wb) in
  Arg.conv (parse, print)

let serve_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Number of shards.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Client fibers.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ]
          ~doc:"Max requests a server drains per mailbox activation.")
  in
  let skew =
    Arg.(
      value
      & opt (some float) None
      & info [ "skew" ] ~docv:"S"
          ~doc:
            "Skewed keys: fraction $(docv) of requests target the hottest \
             20% of keys (0.2 = uniform, 0.8 = classic hot set).")
  in
  let open_loop =
    Arg.(
      value
      & opt (some float) None
      & info [ "open-loop" ] ~docv:"NS"
          ~doc:
            "Open-loop clients with mean interarrival $(docv) virtual ns \
             (Poisson); default is closed-loop.")
  in
  let crash_shard =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-shard" ] ~docv:"SID"
          ~doc:"Crash shard $(docv) mid-traffic and recover it live.")
  in
  let crash_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after" ] ~docv:"N"
          ~doc:
            "Inject the crash once $(docv) requests completed store-wide \
             (default: a third of the total).")
  in
  let crash_both =
    Arg.(
      value
      & opt (some (pair int int)) None
      & info [ "crash-both" ] ~docv:"A,B"
          ~doc:
            "Correlated power loss: crash shards $(docv) together, each \
             at its own --crash-dispatch'th dispatch, each heap's \
             write-backs resolved independently (--wb / --wb2).")
  in
  let crash_cascade =
    Arg.(
      value
      & opt (some (pair int int)) None
      & info [ "crash-cascade" ] ~docv:"A,B"
          ~doc:
            "Cascade: crash shard A at its --crash-dispatch'th dispatch, \
             then crash B while A is still recovering.")
  in
  let crash_dispatch =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-dispatch" ] ~docv:"N"
          ~doc:
            "Server dispatch index at which --crash-both/--crash-cascade \
             interrupts fire (default 8).")
  in
  let wb =
    Arg.(
      value
      & opt (some wb_conv) None
      & info [ "wb" ] ~docv:"RES"
          ~doc:
            "Write-back resolution at the crash: rng | drop | all | \
             prefix:<k> (default rng).")
  in
  let wb2 =
    Arg.(
      value
      & opt (some wb_conv) None
      & info [ "wb2" ] ~docv:"RES"
          ~doc:
            "Write-back resolution of the second correlated-crash victim \
             (default: same as --wb).")
  in
  let backend =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated per-shard structure names (length must equal \
             --shards), e.g. tracking,rqueue-topic,tracking-cas.  Default: \
             every shard uses the -a algorithm.")
  in
  let replicate =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:
            "Mirror every committed update to a per-shard replica heap; a \
             crashed primary promotes its replica (failover) instead of \
             restarting.")
  in
  let failover_ns =
    Arg.(
      value & opt float 500.
      & info [ "failover-ns" ]
          ~doc:"Virtual replica-promotion latency (with --replicate).")
  in
  let migrate =
    Arg.(
      value
      & opt (some int) None
      & info [ "migrate" ] ~docv:"SID"
          ~doc:
            "Live-split shard $(docv) mid-traffic: migrate half its key \
             space to a new shard with detectable handoff.")
  in
  let migrate_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "migrate-after" ] ~docv:"N"
          ~doc:
            "Release the migration once $(docv) requests completed \
             (default: a quarter of the total).")
  in
  let broken_handoff =
    Arg.(
      value & flag
      & info [ "broken-handoff" ]
          ~doc:
            "Negative control: elide the migration's handoff-commit pwb — \
             crash campaigns must catch the key lost from both shards.")
  in
  let check_balance =
    Arg.(
      value
      & opt (some float) None
      & info [ "check-balance" ] ~docv:"R"
          ~doc:
            "With --check: also require the max/min per-shard resident \
             key-count ratio across set-model shards to be at most $(docv).")
  in
  let restart_ns =
    Arg.(
      value & opt float 5_000.
      & info [ "restart-ns" ]
          ~doc:"Virtual restart latency charged before shard recovery.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Smoke assertion: exit nonzero unless zero requests were lost \
             and (with a crash planned) survivors kept completing requests \
             inside the recovery window.")
  in
  let explore =
    Arg.(
      value & flag
      & info [ "explore" ]
          ~doc:
            "Bounded exhaustive exploration instead of one run: every \
             victim shard (and both migration endpoints) x server dispatch \
             x write-back resolution of each crashed heap (keep the config \
             small).  Takes no crash, write-back, report or check flag.")
  in
  let dispatch_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "dispatch-budget" ]
          ~doc:
            "Server dispatches per victim that --explore crashes at \
             (default 64).")
  in
  let run algo mix shards clients ops batch key_range skew open_loop
      crash_shard crash_after crash_both crash_cascade crash_dispatch wb wb2
      backend replicate failover_ns migrate migrate_after broken_handoff
      check_balance restart_ns seed json csv check repro_file trace explore
      dispatch_budget jobs =
    (* --explore picks every crash itself and prints the search's report,
       not an SLO report: a flag it would ignore is a usage error *)
    let ignored =
      List.filter_map
        (fun (flag, given) -> if explore && given then Some flag else None)
        [ ("--crash-shard", crash_shard <> None);
          ("--crash-both", crash_both <> None);
          ("--crash-cascade", crash_cascade <> None);
          ("--crash-after", crash_after <> None); ("--wb", wb <> None);
          ("--wb2", wb2 <> None); ("--json", json <> None);
          ("--csv", csv <> None); ("--check", check);
          ("--check-balance", check_balance <> None) ]
    in
    if ignored <> [] then
      refuse ("--explore does not take " ^ String.concat ", " ignored);
    (* a flag that only qualifies another one changes nothing alone *)
    let unmet =
      List.filter_map
        (fun (flag, given, needs, met) ->
          if given && not met then Some (flag ^ " needs " ^ needs) else None)
        [ ("--crash-dispatch", crash_dispatch <> None,
           "--crash-both or --crash-cascade",
           crash_both <> None || crash_cascade <> None);
          ("--crash-after", crash_after <> None, "--crash-shard",
           crash_shard <> None);
          ("--migrate-after", migrate_after <> None, "--migrate",
           migrate <> None);
          ("--broken-handoff", broken_handoff, "--migrate", migrate <> None);
          ("--dispatch-budget", dispatch_budget <> None, "--explore", explore) ]
    in
    if unmet <> [] then refuse (String.concat "; " unmet);
    let crash_dispatch = Option.value crash_dispatch ~default:8 in
    let dispatch_budget = Option.value dispatch_budget ~default:64 in
    if
      crash_shard <> None || crash_both <> None || crash_cascade <> None
      || explore || migrate <> None || replicate
    then require_recoverable algo;
    let backends =
      match backend with
      | None -> None
      | Some csv ->
          let names = String.split_on_char ',' csv in
          let resolve name =
            match Set_intf.by_name (String.trim name) with
            | Ok f -> f
            | Error msg -> refuse ("bad --backend: " ^ msg)
          in
          Some (Array.of_list (List.map resolve names))
    in
    let dist =
      match skew with
      | None -> Workload.Uniform
      | Some s -> (
          try Workload.skewed s
          with Invalid_argument msg -> refuse ("bad --skew: " ^ msg))
    in
    let total = clients * ops in
    let crash =
      match (crash_shard, crash_both, crash_cascade) with
      | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
          refuse
            "--crash-shard, --crash-both and --crash-cascade are mutually \
             exclusive"
      | Some victim, None, None ->
          let requests =
            match crash_after with Some n -> n | None -> max 1 (total / 3)
          in
          Some (Store.After_requests { victim; requests })
      | None, Some (a, b), None ->
          Some (Store.Both_at_dispatch { a; b; dispatch = crash_dispatch })
      | None, None, Some (first, second) ->
          Some (Store.Cascade { first; second; dispatch = crash_dispatch })
      | None, None, None -> None
    in
    let migrate =
      match migrate with
      | None -> None
      | Some msrc ->
          let m_after =
            match migrate_after with
            | Some n -> n
            | None -> max 1 (total / 4)
          in
          Some { Store.msrc; m_after; m_broken = broken_handoff }
    in
    let cfg =
      {
        Store.factory = algo;
        backends;
        shards;
        clients;
        ops_per_client = ops;
        batch;
        workload =
          {
            Workload.mix;
            key_range;
            prefill_n = key_range / 2;
            dist;
          };
        open_loop_ns = open_loop;
        crash;
        wb = Option.value wb ~default:`Rng;
        wb2;
        restart_ns;
        failover_ns;
        replicate;
        migrate;
        seed;
      }
    in
    (* a config the store refuses is a usage error, not a violation *)
    valid (Store.validate cfg);
    if explore then begin
      let o =
        traced trace (fun () ->
            Store.explore ~jobs:(resolve_jobs jobs) ~dispatch_budget cfg)
      in
      Format.printf "%a" Report.pp_explore o.Explore.stats;
      Option.iter
        (fun r -> violation ?repro_file ~msg:r.Store.error (Serve r))
        o.Explore.failure
    end
    else begin
      match traced trace (fun () -> Store.run cfg) with
      | Error msg ->
          (* Only a failing run needs its schedule, recorded by a re-run
             outside the trace. *)
          violation ?repro_file ~msg (Serve (Store.failure_of cfg msg))
      | Ok report ->
          (* --json - owns stdout for pipelines *)
          if json <> Some "-" then Format.printf "%a" Slo.pp report;
          (match csv with
          | Some p ->
              Out_channel.with_open_text p (fun oc ->
                  Out_channel.output_string oc (Slo.windows_csv report));
              if json <> Some "-" then Format.printf "wrote %s@." p
          | None -> ());
          (match json with
          | Some "-" -> print_endline (Slo.to_json report)
          | Some p ->
              Out_channel.with_open_text p (fun oc ->
                  Out_channel.output_string oc (Slo.to_json report);
                  Out_channel.output_char oc '\n');
              Format.printf "wrote %s@." p
          | None -> ());
          if check || check_balance <> None then begin
            match
              Slo.check ?balance_max:check_balance
                ~crash_expected:(crash <> None) report
            with
            | Ok () -> Format.printf "check OK@."
            | Error msg ->
                Format.printf "CHECK FAILED: %s@." msg;
                exit 1
          end
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive the sharded recoverable KV service: client fibers \
          (closed- or open-loop) routed over N independently recoverable \
          shards, optionally crashing one shard mid-traffic and recovering \
          it while the survivors keep serving; reports throughput, latency \
          quantiles, per-shard recovery durations and the degraded window.")
    Term.(
      const run $ algo $ mix $ shards $ clients
      $ ops ~doc:"Requests per client." 200
      $ batch $ keys 128 $ skew $ open_loop $ crash_shard $ crash_after
      $ crash_both $ crash_cascade $ crash_dispatch $ wb $ wb2 $ backend
      $ replicate $ failover_ns $ migrate $ migrate_after $ broken_handoff
      $ check_balance $ restart_ns
      $ seed ~doc:"Run seed." 1
      $ json "Write the SLO report as JSON to $(docv) (\"-\" = stdout)."
      $ csv
          "Write the per-shard windowed time-series (throughput and mean \
           latency per virtual-time window) as CSV to $(docv)."
      $ check $ repro_out "serve repro" $ trace "the serve" $ explore
      $ dispatch_budget $ jobs_arg)

(* -- classify ------------------------------------------------------------- *)

let classify_cmd =
  let run algo mix quick =
    let cfg = cfg_of_quick quick in
    Report.pp_classification Format.std_formatter
      (Figures.classification cfg mix algo)
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Measure each pwb code line's impact (paper §5 methodology) and \
          print the low/medium/high classification.")
    Term.(const run $ algo $ mix $ quick)

let () =
  let doc =
    "Reproduction of 'Detectable Recovery of Lock-Free Data Structures' \
     (PPoPP 2022) on a simulated multicore with NVMM."
  in
  (* [repro] without a subcommand prints the help. *)
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "repro" ~doc)
          [ figures_cmd; sweep_cmd; crash_cmd; explore_cmd; replay_cmd;
            explain_cmd; soak_cmd; classify_cmd; stats_cmd; space_cmd;
            trace_cmd; causal_cmd; serve_cmd ]))
