(* The repository benchmark: one workload per process.

     bench.exe --workload W --seed S [--seconds N] [--trace 0|1]
               [--trace-file F] [--tiny]
     bench.exe --smoke [--seed S]

   Untraced (--trace 0): one untimed warm-up slice, then, within N
   seconds, the set-up samples and timed rounds of slices on the
   workload's seeds S, S+1, ..., S+k-1; prints every end-to-end metric,
   the simulated results of the first round, and a last line of JSON.
   Traced (--trace 1): unit costs of single layers, then a fixed pass of
   slices run untraced and again through {!Spans}; prints every per-layer
   metric and writes a Chrome trace.  Every slice's outputs are checked;
   any failure exits 1.

   --smoke runs every workload at --tiny size, both ways, checks that
   each metric BENCHMARK.json names is printed with its unit, and
   validates the traces.  Lines starting with "det" are the simulated
   results and layer counts, identical for identical seeds. *)

(* Untraced runs cycle through the workload's seeds S .. S+k-1 round
   after round until --seconds have passed, and make at least this many
   rounds. *)
let min_rounds = 2

(* Set-up samples per untraced run.  Each is a fresh process: a process
   starts only once, and /proc/self/stat gives its start time only to a
   clock tick (10 ms), too coarse for a set-up of ~0.3 s. *)
let setup_runs = 5

(* The warm-up slice's seed: fixed, so set-up does the same work whatever
   seed the timed slices start from. *)
let warmup_seed = 0

(* Per-layer metrics: name, unit, and whether the value is a count fixed
   by the seed (printed again on a "det" line). *)
let per_layer =
  let algo_metrics =
    List.concat_map
      (fun a ->
        [
          ("nvm.pwbs_per_op." ^ a, "count", true);
          ("nvm.psyncs_per_op." ^ a, "count", true);
          ("nvm.high_pwb_frac." ^ a, "ratio", true);
          ("nvm.persist_share." ^ a, "ratio", true);
        ])
      (Array.to_list Spans.algos)
  in
  [
    ("sim.dispatches_per_unit", "count", true);
    ("sim.dispatch_ns", "ns", false);
    ("sim.run_us", "us", false);
    ("nvm.reads_per_unit", "count", true);
    ("nvm.writes_per_unit", "count", true);
    ("nvm.cas_per_unit", "count", true);
    ("nvm.cas_fail_ratio", "ratio", true);
  ]
  @ algo_metrics
  @ [
      ("nvm.lines_per_unit", "count", true);
      ("nvm.read_ns", "ns", false);
      ("nvm.write_ns", "ns", false);
      ("nvm.cas_ns", "ns", false);
      ("nvm.pwb_ns", "ns", false);
      ("nvm.psync_ns", "ns", false);
      ("nvm.read_ns.observed", "ns", false);
      ("nvm.crash_us", "us", false);
      ("core.helps_per_op", "count", true);
      ("core.op_ns", "ns", false);
      ("core.op_self_us", "us", false);
      ("memento.op_ns", "ns", false);
      ("memento.op_self_us", "us", false);
      ("baselines.op_ns", "ns", false);
      ("baselines.op_self_us", "us", false);
      ("harness.oracle_ns_per_event", "ns", false);
      ("harness.recover_calls_per_exec", "count", true);
      ("harness.recover_self_us", "us", false);
      ("harness.self_share", "ratio", false);
      ("harness.explore.executions", "count", true);
      ("harness.explore.decisions_per_exec", "count", true);
      ("harness.explore.crash_points", "count", true);
      ("harness.explore.wb_choices", "count", true);
      ("harness.explore.pruned", "count", true);
      ("harness.parallel_speedup", "ratio", false);
      ("ocaml.minor_words_per_unit", "count", false);
      ("ocaml.major_collections", "count", false);
      ("store.hot_shard_share", "ratio", true);
      ("store.max_queue", "count", true);
      ("store.retried", "count", true);
      ("store.recovered", "count", true);
      ("store.deferred", "count", true);
      ("store.forwarded", "count", true);
      ("store.recovery_ns", "ns", true);
      ("store.host_us_per_request", "us", false);
      ("trace_overhead", "ratio", false);
    ]

(* ---- options ------------------------------------------------------------- *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_file : string option;
  tiny : bool;
  smoke : bool;
  setup_only : bool;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed S [--seconds N] [--trace 0|1] \
     [--trace-file F] [--tiny]\n\
    \       bench.exe --smoke [--seed S]\n\
     workloads: list-read list-contended crash-explore serve-failover";
  exit 2

let parse_args () =
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: r -> go { o with workload = Some v } r
    | "--seed" :: v :: r -> go { o with seed = int_arg v } r
    | "--seconds" :: v :: r -> go { o with seconds = float_of_int (int_arg v) } r
    | "--trace" :: v :: r -> go { o with trace = int_arg v <> 0 } r
    | "--trace-file" :: v :: r -> go { o with trace_file = Some v } r
    | "--tiny" :: r -> go { o with tiny = true } r
    | "--smoke" :: r -> go { o with smoke = true } r
    | "--setup-only" :: r -> go { o with setup_only = true } r
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 10.;
      trace = false;
      trace_file = None;
      tiny = false;
      smoke = false;
      setup_only = false;
    }
    (List.tl (Array.to_list Sys.argv))

(* ---- reporting ------------------------------------------------------------- *)

(* Printed metrics, kept so --smoke can check them against BENCHMARK.json. *)
let printed : (string * string) list ref = ref []

let print_metric name unit_ (s : Measure.summary) =
  printed := (name, unit_) :: !printed;
  Printf.printf "metric %s %s median=%.6g p25=%.6g p75=%.6g n=%d\n" name unit_
    s.Measure.median s.Measure.p25 s.Measure.p75 s.Measure.n

let print_value name unit_ v =
  printed := (name, unit_) :: !printed;
  Printf.printf "metric %s %s value=%.6g\n" name unit_ v

let det w key v = Printf.printf "det %s %s %.17g\n" w key v

let print_env (w : Loads.t) o ~jobs ~seeds ~slices =
  Printf.printf
    "env nproc=%d jobs=%d ocaml=%s git=%s unit=%s warmup_seed=%d seeds=%d..%d \
     slices=%d size=%s\n"
    (Measure.nproc ()) jobs Sys.ocaml_version (Measure.git_head ()) w.Loads.unit_name
    warmup_seed o.seed
    (o.seed + seeds - 1)
    slices
    (if o.tiny then "tiny" else "full")

let result_line ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (Measure.json_float v) unit_)
          metrics))

let report_checks (slices : Loads.slice list) =
  let all = Loads.combine slices in
  List.iter (fun e -> Printf.printf "error %s\n" e) all.Loads.errors;
  Printf.printf "check attempted=%d failed=%d fail_ratio=%g\n" all.Loads.attempted
    all.Loads.failed
    (float_of_int all.Loads.failed /. float_of_int (max 1 all.Loads.attempted));
  all

let rate (s : Loads.slice) = float_of_int s.Loads.units /. s.Loads.host_s

let virt_values key slices =
  List.filter_map (fun s -> List.assoc_opt key s.Loads.virt) slices

let virt_keys slices =
  List.sort_uniq compare
    (List.concat_map (fun s -> List.map fst s.Loads.virt) slices)

(* ---- untraced run ------------------------------------------------------------ *)

let size o = if o.tiny then Loads.Tiny else Loads.Full

(* Set-up time: from spawning a fresh process of this benchmark to the
   end of its warm-up slice (exec, runtime and module initialisation,
   warm-up), timed here on the monotonic clock. *)
let spawn_setup o (w : Loads.t) =
  let args =
    [ Sys.executable_name; "--workload"; w.Loads.name; "--setup-only" ]
    @ if o.tiny then [ "--tiny" ] else []
  in
  let t0 = Measure.now_ns () in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let line = In_channel.input_line ic in
  let setup = Measure.secs_since t0 in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some "ready" -> setup
  | _ -> failwith "set-up process failed"

(* A repeat of a seed must reproduce the simulated results of its first
   slice; one that does not counts as failed. *)
let check_repeat (first : (int * Loads.slice) list) (seed, (s : Loads.slice)) =
  let f = List.assoc seed first in
  if s.Loads.units = f.Loads.units && compare s.Loads.virt f.Loads.virt = 0 then s
  else
    {
      s with
      Loads.failed = s.Loads.failed + max 1 s.Loads.units;
      errors = Printf.sprintf "seed %d: a repeat changed the simulated results" seed :: s.Loads.errors;
    }

(* Untraced runs use one domain, crash-explore too: with two, a slice's
   rate also depends on the interference on both vCPUs and on how evenly
   each tree splits (see README.md, Load shape). *)
let run_untraced o (w : Loads.t) =
  let run seed = w.Loads.run ~size:(size o) ~jobs:1 Loads.untraced seed in
  let warm = run warmup_seed in
  if o.setup_only then begin
    if warm.Loads.failed = 0 then print_endline "ready";
    exit (if warm.Loads.failed = 0 then 0 else 1)
  end;
  (* memory after a fixed amount of work: start-up and the warm-up slice *)
  let rss = Measure.peak_rss_mb () in
  let k = if o.tiny then 2 else w.Loads.seeds in
  (* the set-up samples count against --seconds; the slices take the rest *)
  let t0 = Measure.now_ns () in
  let setups = List.init setup_runs (fun _ -> spawn_setup o w) in
  let rec loop i acc =
    if i >= min_rounds * k && Measure.secs_since t0 >= o.seconds then List.rev acc
    else
      let seed = o.seed + (i mod k) in
      loop (i + 1) ((seed, run seed) :: acc)
  in
  let slices = loop 0 [] in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=0\n" w.Loads.name
    o.seed o.seconds;
  print_env w o ~jobs:1 ~seeds:k ~slices:(List.length slices);
  List.iter
    (fun (seed, (s : Loads.slice)) ->
      Printf.printf "slice seed=%d units=%d host_s=%.4f\n" seed s.Loads.units s.Loads.host_s)
    slices;
  (* the first round: one slice per seed, its simulated results a function
     of the seeds alone *)
  let first = List.filteri (fun i _ -> i < k) slices in
  (* Interference from other tenants only ever slows a slice, so each
     seed's fastest repeat estimates the simulator's own speed on it. *)
  let best seed =
    List.fold_left
      (fun m (s', (sl : Loads.slice)) -> if s' = seed then Float.min m sl.Loads.host_s else m)
      infinity slices
  in
  let units = List.fold_left (fun a (_, s) -> a + s.Loads.units) 0 first in
  let units_per_s =
    float_of_int units /. List.fold_left (fun a (seed, _) -> a +. best seed) 0. first
  in
  let setup_s = Measure.summarize setups in
  print_metric "setup_s" "s" setup_s;
  print_value "units_per_s" "1/s" units_per_s;
  let per_seed =
    Measure.summarize (List.map (fun (seed, s) -> float_of_int s.Loads.units /. best seed) first)
  in
  Printf.printf "per-seed best units_per_s median=%.6g p25=%.6g p75=%.6g n=%d\n"
    per_seed.Measure.median per_seed.Measure.p25 per_seed.Measure.p75 per_seed.Measure.n;
  print_value "peak_rss_mb" "MB" rss;
  let fixed = List.map snd first in
  List.iter
    (fun key ->
      let s = Measure.summarize (virt_values key fixed) in
      Printf.printf "virtual %s median=%.6g p25=%.6g p75=%.6g n=%d\n" key
        s.Measure.median s.Measure.p25 s.Measure.p75 s.Measure.n)
    (virt_keys fixed);
  List.iteri
    (fun i (s : Loads.slice) ->
      let key k = Printf.sprintf "slice%d.%s" i k in
      det w.Loads.name (key "units") (float_of_int s.Loads.units);
      det w.Loads.name (key "failed") (float_of_int s.Loads.failed);
      List.iter (fun (k, v) -> det w.Loads.name (key k) v) s.Loads.virt)
    fixed;
  let all = report_checks (warm :: List.map (check_repeat first) slices) in
  result_line ~attempted:all.Loads.attempted ~failed:all.Loads.failed
    [
      ("setup_s", "s", setup_s.Measure.median);
      ("units_per_s", "1/s", units_per_s);
      ("peak_rss_mb", "MB", rss);
    ];
  all.Loads.failed

(* ---- traced run ---------------------------------------------------------------- *)

let traced_hooks = { Loads.wrap = Spans.wrap; entry = Spans.host }

(* The traced crash-explore run also runs its pass across this many
   domains, for [harness.parallel_speedup]. *)
let parallel_jobs = min 2 (Measure.nproc ())

(* Each tree's executions and failures, which must not depend on the
   number of domains exploring it. *)
let explore_outcome slices =
  List.map
    (fun (s : Loads.slice) ->
      ( s.Loads.failed,
        List.filter (fun (k, _) -> String.starts_with ~prefix:"explore.executions." k) s.Loads.virt
      ))
    slices

(* The parallel pass, failed as a whole when its trees differ from the
   one-domain pass's. *)
let check_parallel ~plain parallel =
  let p = Loads.combine parallel in
  if explore_outcome plain = explore_outcome parallel then p
  else
    {
      p with
      Loads.failed = p.Loads.failed + max 1 p.Loads.units;
      errors =
        Printf.sprintf "-j %d changed crash-explore's executions or failures" parallel_jobs
        :: p.Loads.errors;
    }

let run_traced o (w : Loads.t) =
  let name = w.Loads.name in
  let warm = w.Loads.run ~size:(size o) ~jobs:1 Loads.untraced warmup_seed in
  Printf.printf "perfbench workload=%s seed=%d trace=1\n" name o.seed;
  if w == Loads.crash_explore then
    Printf.printf
      "note: the traced pass runs at -j 1 (hooks are domain-local); a pass at -j %d \
       times harness.parallel_speedup and must repeat the -j 1 trees\n"
      parallel_jobs;
  let n = if o.tiny then 1 else w.Loads.seeds in
  print_env w o ~jobs:1 ~seeds:n ~slices:n;
  let micro = Micro.all ~scale:(if o.tiny then 20 else 1) in
  let seeds = List.init n (fun i -> o.seed + i) in
  let pass ~jobs hooks = List.map (w.Loads.run ~size:(size o) ~jobs hooks) seeds in
  let total slices = Loads.combine slices in
  let g0 = Gc.quick_stat () in
  let plain_slices = pass ~jobs:1 Loads.untraced in
  let g1 = Gc.quick_stat () in
  let plain = total plain_slices in
  let parallel =
    if w == Loads.crash_explore then
      Some (check_parallel ~plain:plain_slices (pass ~jobs:parallel_jobs Loads.untraced))
    else None
  in
  (* a function of the seed alone, so computed here rather than in every
     untraced run: up to 11 more store runs *)
  if w == Loads.serve_failover then begin
    let v = Loads.capacity ~size:(size o) o.seed in
    Printf.printf "virtual v_capacity_mops value=%g p99_limit_ns=%g seed=%d\n" v
      Loads.p99_limit_ns o.seed;
    det name "v_capacity_mops" v
  end;
  Spans.start ();
  let traced_slices =
    Spans.host name (fun () ->
        List.map
          (fun s ->
            Spans.host (Printf.sprintf "slice %d" s) (fun () ->
                w.Loads.run ~size:(size o) ~jobs:1 traced_hooks s))
          seeds)
  in
  let c = Spans.stop () in
  let lines = Spans.lines_allocated () in
  let traced = total traced_slices in
  let trace_file =
    match o.trace_file with
    | Some f -> f
    | None -> Printf.sprintf ".perfbench/trace-%s.json" name
  in
  (match Filename.dirname trace_file with
  | "." -> ()
  | d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755);
  Spans.write_chrome trace_file;
  Printf.printf "trace %s spans=%d dropped=%d\n" trace_file !Spans.n_stored !Spans.dropped;
  let units = float_of_int (max 1 traced.Loads.units) in
  let per x = float_of_int x /. units in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let us_per t count =
    if count = 0 then 0. else Int64.to_float t /. float_of_int count /. 1e3
  in
  let virt_sum prefix =
    List.fold_left
      (fun acc (k, v) -> if String.starts_with ~prefix k then acc +. v else acc)
      0. traced.Loads.virt
  in
  let virt_median key =
    match virt_values key traced_slices with [] -> 0. | vs -> Measure.median vs
  in
  let algo_values =
    List.concat
      (List.mapi
         (fun i a ->
           [
             ("nvm.pwbs_per_op." ^ a, ratio c.Spans.pwbs.(i) c.Spans.ops.(i));
             ("nvm.psyncs_per_op." ^ a, ratio c.Spans.psyncs.(i) c.Spans.ops.(i));
             ("nvm.high_pwb_frac." ^ a, ratio c.Spans.high_pwbs.(i) c.Spans.pwbs.(i));
             ("nvm.persist_share." ^ a, virt_median ("persist_share." ^ a));
           ])
         (Array.to_list Spans.algos))
  in
  let op_self a =
    let i = Spans.algo_index a in
    us_per c.Spans.op_self.(i) c.Spans.ops.(i)
  in
  let explore_execs = virt_sum "explore.executions." in
  let values =
    micro @ algo_values
    @ [
        ("sim.dispatches_per_unit", per c.Spans.dispatches);
        ("nvm.reads_per_unit", per c.Spans.reads);
        ("nvm.writes_per_unit", per c.Spans.writes);
        ("nvm.cas_per_unit", per c.Spans.cas);
        ("nvm.cas_fail_ratio", ratio c.Spans.cas_failed c.Spans.cas);
        ("nvm.lines_per_unit", per lines);
        ("core.helps_per_op", ratio c.Spans.helps c.Spans.ops.(Spans.algo_index "tracking"));
        ("core.op_self_us", op_self "tracking");
        ("memento.op_self_us", op_self "memento-list");
        ("baselines.op_self_us", op_self "capsules-opt");
        ( "harness.recover_calls_per_exec",
          if explore_execs = 0. then 0. else float_of_int c.Spans.recovers /. explore_execs );
        ("harness.recover_self_us", us_per c.Spans.recover_self c.Spans.recovers);
        ( "harness.self_share",
          Int64.to_float c.Spans.outside_self
          /. Int64.to_float (Int64.add c.Spans.outside_self c.Spans.inside_self) );
        ("harness.explore.executions", explore_execs);
        ( "harness.explore.decisions_per_exec",
          if explore_execs = 0. then 0. else virt_sum "explore.decisions." /. explore_execs );
        ("harness.explore.crash_points", virt_sum "explore.crash_points.");
        ("harness.explore.wb_choices", virt_sum "explore.wb_choices.");
        ("harness.explore.pruned", virt_sum "explore.pruned.");
        ( "harness.parallel_speedup",
          match parallel with Some p -> rate p /. rate plain | None -> 0. );
        ( "ocaml.minor_words_per_unit",
          (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 plain.Loads.units) );
        ( "ocaml.major_collections",
          float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
        ( "store.host_us_per_request",
          if w == Loads.serve_failover then 1e6 /. rate plain else 0. );
        ("trace_overhead", (rate plain /. rate traced) -. 1.);
      ]
    @ List.map
        (fun k -> (k, virt_median k))
        [ "store.hot_shard_share"; "store.max_queue"; "store.retried"; "store.recovered";
          "store.deferred"; "store.forwarded"; "store.recovery_ns" ]
  in
  let metrics =
    List.map
      (fun (m, unit_, exact) ->
        let v = List.assoc m values in
        print_value m unit_ v;
        if exact then det name ("layer." ^ m) v;
        (m, unit_, v))
      per_layer
  in
  let all = report_checks ((warm :: plain :: Option.to_list parallel) @ traced_slices) in
  result_line ~attempted:all.Loads.attempted ~failed:all.Loads.failed metrics;
  (all.Loads.failed, trace_file)

(* ---- smoke --------------------------------------------------------------------- *)

(* Metric names and units BENCHMARK.json declares, from the working
   directory (the root of the checkout). *)
let declared () =
  let text = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
  let field k = function Perfetto.Obj f -> List.assoc_opt k f | _ -> None in
  match Perfetto.parse_json text with
  | Error m -> failwith ("BENCHMARK.json: " ^ m)
  | Ok j ->
      List.concat_map
        (fun section ->
          match field section j with
          | Some (Perfetto.Arr ms) ->
              List.filter_map
                (fun m ->
                  match (field "name" m, field "unit" m) with
                  | Some (Perfetto.Str n), Some (Perfetto.Str u) -> Some (section, n, u)
                  | _ -> None)
                ms
          | _ -> failwith ("BENCHMARK.json: no " ^ section))
        [ "end_to_end"; "per_layer" ]

let smoke o =
  let o = { o with tiny = true; seconds = 0. } in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let declared = declared () in
  List.iter
    (fun (w : Loads.t) ->
      printed := [];
      if run_untraced o w > 0 then problem "%s: untraced run failed" w.Loads.name;
      let check section =
        List.iter
          (fun (s, n, u) ->
            if s = section && not (List.mem (n, u) !printed) then
              problem "%s: %s metric %s (%s) not printed" w.Loads.name s n u)
          declared
      in
      check "end_to_end";
      printed := [];
      let failed, trace_file = run_traced o w in
      if failed > 0 then problem "%s: traced run failed" w.Loads.name;
      check "per_layer";
      match Perfetto.validate_file trace_file with
      | Ok st -> Printf.printf "trace valid: %d spans on %d tracks\n" st.Perfetto.out_spans st.Perfetto.out_threads
      | Error m -> problem "%s: trace invalid: %s" w.Loads.name m)
    Loads.all;
  match List.rev !problems with
  | [] ->
      print_endline "smoke OK";
      0
  | ps ->
      List.iter (fun p -> prerr_endline ("SMOKE FAILED: " ^ p)) ps;
      1

let () =
  let o = parse_args () in
  let code =
    if o.smoke then smoke o
    else
      match Option.map Loads.find o.workload with
      | None | Some None -> usage ()
      | Some (Some w) -> if o.trace then fst (run_traced o w) else run_untraced o w
  in
  exit (if code = 0 then 0 else 1)
