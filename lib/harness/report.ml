let pp_figure ppf (f : Figures.figure) =
  Format.fprintf ppf "@.=== Figure %s — %s (%s) ===@." f.Figures.id
    f.Figures.title f.Figures.ylabel;
  let labels = List.map (fun s -> s.Figures.label) f.Figures.series in
  let width = List.fold_left (fun w l -> max w (String.length l)) 10 labels in
  Format.fprintf ppf "%8s" "threads";
  List.iter (fun l -> Format.fprintf ppf " %*s" width l) labels;
  Format.pp_print_newline ppf ();
  List.iter
    (fun n ->
      Format.fprintf ppf "%8d" n;
      List.iter
        (fun s ->
          match List.assoc_opt n s.Figures.values with
          | Some v -> Format.fprintf ppf " %*.3f" width v
          | None -> Format.fprintf ppf " %*s" width "-")
        f.Figures.series;
      Format.pp_print_newline ppf ())
    f.Figures.threads

let pp_classification ppf rows =
  Format.fprintf ppf "%-28s %-8s %s@." "site (code line)" "class" "impact";
  List.iter
    (fun (name, cat, impact) ->
      let cat_s = Format.asprintf "%a" Pstats.pp_category cat in
      Format.fprintf ppf "%-28s %-8s %5.1f%%@." name cat_s (100. *. impact))
    rows

let print_figures cfg builders =
  List.map
    (fun (id, build) ->
      Format.eprintf "[figures] rendering %s...@." id;
      let f = build cfg in
      Format.printf "%a" pp_figure f;
      f)
    builders

let print_classifications cfg =
  List.iter
    (fun (factory, mix) ->
      Format.printf "@.--- pwb code-line classification: %s, %s ---@."
        factory.Set_intf.fname mix.Workload.name;
      pp_classification Format.std_formatter
        (Figures.classification cfg mix factory))
    [
      (Set_intf.tracking, Workload.read_intensive);
      (Set_intf.tracking, Workload.update_intensive);
      (Set_intf.capsules_opt, Workload.read_intensive);
      (Set_intf.capsules_opt, Workload.update_intensive);
    ]

let pp_explore ppf (s : Explore.stats) =
  Format.fprintf ppf "executions        %d@." s.Explore.executions;
  Format.fprintf ppf "failures          %d@." s.Explore.failures;
  Format.fprintf ppf "sched decisions   %d@." s.Explore.decision_points;
  Format.fprintf ppf "crash points      %d@." s.Explore.crash_points;
  Format.fprintf ppf "write-back alts   %d@." s.Explore.wb_choices;
  Format.fprintf ppf "pruned (preempt)  %d@." s.Explore.pruned;
  Format.fprintf ppf "coverage          %s@."
    (if s.Explore.complete then "complete (bounded tree exhausted)"
     else "INCOMPLETE (budget hit or stopped on failure)")

let explore_progress (s : Explore.stats) =
  Format.eprintf
    "[explore] %d execs, %d failures, %d sched points, %d crash points, %d \
     wb alts, %d pruned@."
    s.Explore.executions s.Explore.failures s.Explore.decision_points
    s.Explore.crash_points s.Explore.wb_choices s.Explore.pruned

(* The metrics report behind `repro stats`: latency table per op kind,
   top-N contended cache lines, recovery durations, counters. *)
let pp_metrics ?(top = 10) ppf () =
  Format.fprintf ppf "— operation latency (virtual ns) —@.";
  Format.fprintf ppf "%-16s %8s %10s %10s %10s %10s %10s@." "histogram" "count"
    "mean" "p50" "p90" "p99" "max";
  List.iter
    (fun (name, s) ->
      if s.Metrics.count > 0 then
        Format.fprintf ppf "%-16s %8d %10.1f %10.1f %10.1f %10.1f %10.1f@."
          name s.Metrics.count s.Metrics.mean s.Metrics.p50 s.Metrics.p90
          s.Metrics.p99 s.Metrics.max)
    (Metrics.histograms ());
  (match Metrics.contention_top top with
  | [] -> ()
  | lines ->
      Format.fprintf ppf "@.— contention: top %d cache lines —@." top;
      Format.fprintf ppf "%-32s %12s %14s@." "line" "cas failures"
        "invalidations";
      List.iter
        (fun c ->
          Format.fprintf ppf "%-32s %12d %14d@." c.Metrics.ct_line
            c.Metrics.ct_cas_failures c.Metrics.ct_invalidations)
        lines);
  (match Metrics.alloc_sites_top top with
  | [] -> ()
  | sites ->
      Format.fprintf ppf "@.— allocation: top %d sites —@." top;
      Format.fprintf ppf "%-28s %-16s %8s@." "heap" "site" "lines";
      List.iter
        (fun (s : Metrics.alloc_site) ->
          Format.fprintf ppf "%-28s %-16s %8d@." s.Metrics.as_heap
            s.Metrics.as_site s.Metrics.as_lines)
        sites);
  (match Metrics.heap_occupancy () with
  | [] -> ()
  | heaps ->
      Format.fprintf ppf "@.— heap occupancy (lines allocated) —@.";
      List.iter
        (fun (h, n) -> Format.fprintf ppf "%-28s %8d@." h n)
        heaps);
  (match Metrics.recovery_durations () with
  | [] -> ()
  | rounds ->
      Format.fprintf ppf "@.— recovery rounds —@.";
      Format.fprintf ppf "%8s %14s@." "round" "duration ns";
      List.iter
        (fun (r, d) -> Format.fprintf ppf "%8d %14.1f@." r d)
        rounds);
  (match Metrics.crash_reports () with
  | [] -> ()
  | reports ->
      Format.fprintf ppf "@.— write-backs at crashes —@.";
      Format.fprintf ppf "%6s %-28s %-10s %9s %8s@." "crash" "heap"
        "resolution" "persisted" "dropped";
      List.iteri
        (fun i (r : Pmem.crash_report) ->
          Format.fprintf ppf "%6d %-28s %-10s %9d %8d@." i r.Pmem.cr_heap
            (Repro.wb_to_string r.Pmem.cr_resolution)
            r.Pmem.cr_persisted r.Pmem.cr_dropped)
        reports);
  Format.fprintf ppf "@.— counters —@.";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-24s %d@." name v)
    (Metrics.counters ());
  if Metrics.spans_dropped () > 0 then
    Format.fprintf ppf "(span storage capped: %d spans dropped)@."
      (Metrics.spans_dropped ())

let pp_causal ppf (p : Causal.profile) =
  Format.fprintf ppf
    "=== causal profile: %s, %s, %d threads × %d ops (seed %d) ===@." p.algo
    p.mix p.threads p.ops_per_thread p.seed;
  Format.fprintf ppf
    "baseline: %.1f ns/op (%.3f Mops/s); persistence time %.0f ns@."
    p.Causal.baseline_ns_per_op p.Causal.baseline_mops
    p.Causal.persistence_time_ns;
  Format.fprintf ppf "factors swept: %s@.@."
    (String.concat ", "
       (List.map (Printf.sprintf "%gx") p.Causal.factors));
  Format.fprintf ppf "%4s %-10s %-26s %7s %6s %12s %10s %9s %4s@." "rank"
    "group" "target" "execs" "time%" "sens ns/op" "sens/exec" "headroom" "div";
  List.iteri
    (fun i (r : Causal.row) ->
      let pct v =
        if Float.is_nan v then "-" else Printf.sprintf "%.1f" (100. *. v)
      in
      let per_exec =
        if r.Causal.executions > 0 then
          Printf.sprintf "%.4f"
            (r.Causal.sensitivity /. float_of_int r.Causal.executions)
        else "-"
      in
      Format.fprintf ppf "%4d %-10s %-26s %7d %6s %12.2f %10s %9s %4d@."
        (i + 1) r.Causal.group r.Causal.label r.Causal.executions
        (pct r.Causal.time_share) r.Causal.sensitivity per_exec
        (pct r.Causal.headroom) r.Causal.divergences)
    p.Causal.rows;
  Format.fprintf ppf
    "@.(sensitivity: d(ns/op)/d(cost factor) under the replayed baseline \
     schedule; headroom: throughput gain with the target's cost at zero; \
     div > 0 marks reruns whose schedule diverged from the tape)@."

let metrics_json ?(top = 10) () =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let fl v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v in
  add "{\"histograms\":[";
  List.iteri
    (fun i (name, (s : Metrics.summary)) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf
           "{\"name\":\"%s\",\"count\":%d,\"mean\":%s,\"p50\":%s,\"p90\":%s,\
            \"p99\":%s,\"max\":%s}"
           (Json.escape name) s.Metrics.count (fl s.Metrics.mean)
           (fl s.Metrics.p50) (fl s.Metrics.p90) (fl s.Metrics.p99)
           (fl s.Metrics.max)))
    (Metrics.histograms ());
  add "],\"contention\":[";
  List.iteri
    (fun i (c : Metrics.contention) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf
           "{\"line\":\"%s\",\"cas_failures\":%d,\"invalidations\":%d}"
           (Json.escape c.Metrics.ct_line) c.Metrics.ct_cas_failures
           c.Metrics.ct_invalidations))
    (Metrics.contention_top top);
  add "],\"alloc_sites\":[";
  List.iteri
    (fun i (s : Metrics.alloc_site) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf "{\"heap\":\"%s\",\"site\":\"%s\",\"lines\":%d}"
           (Json.escape s.Metrics.as_heap) (Json.escape s.Metrics.as_site)
           s.Metrics.as_lines))
    (Metrics.alloc_sites_top top);
  add "],\"heap_occupancy\":{";
  List.iteri
    (fun i (h, n) ->
      if i > 0 then add ",";
      add (Printf.sprintf "\"%s\":%d" (Json.escape h) n))
    (Metrics.heap_occupancy ());
  add "},\"recovery_rounds\":[";
  List.iteri
    (fun i (round, ns) ->
      if i > 0 then add ",";
      add (Printf.sprintf "{\"round\":%d,\"duration_ns\":%s}" round (fl ns)))
    (Metrics.recovery_durations ());
  add "],\"crash_writebacks\":[";
  List.iteri
    (fun i (r : Pmem.crash_report) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf
           "{\"crash\":%d,\"heap\":\"%s\",\"scope\":\"%s\",\"resolution\":\"%s\",\"persisted\":%d,\"dropped\":%d}"
           i (Json.escape r.Pmem.cr_heap)
           (match r.Pmem.cr_scope with `Machine -> "machine" | `Heap -> "heap")
           (Json.escape (Repro.wb_to_string r.Pmem.cr_resolution))
           r.Pmem.cr_persisted r.Pmem.cr_dropped))
    (Metrics.crash_reports ());
  add "],\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then add ",";
      add (Printf.sprintf "\"%s\":%d" (Json.escape name) v))
    (Metrics.counters ());
  add "},";
  add (Printf.sprintf "\"spans_dropped\":%d}" (Metrics.spans_dropped ()));
  Buffer.contents buf

let figure_to_csv (f : Figures.figure) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "threads";
  List.iter
    (fun s ->
      Buffer.add_char buf ',';
      Buffer.add_string buf s.Figures.label)
    f.Figures.series;
  Buffer.add_char buf '\n';
  List.iter
    (fun n ->
      Buffer.add_string buf (string_of_int n);
      List.iter
        (fun s ->
          Buffer.add_char buf ',';
          (* fixed %.3f so CSV output is byte-stable across environments
             (and matches the latency columns' precision) *)
          match List.assoc_opt n s.Figures.values with
          | Some v -> Buffer.add_string buf (Printf.sprintf "%.3f" v)
          | None -> ())
        f.Figures.series;
      Buffer.add_char buf '\n')
    f.Figures.threads;
  Buffer.contents buf

let write_csv_dir ~dir figs =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      let path = Filename.concat dir ("fig-" ^ f.Figures.id ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (figure_to_csv f));
      Format.eprintf "[figures] wrote %s@." path)
    figs
