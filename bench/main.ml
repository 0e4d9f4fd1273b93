(* Benchmark harness: every figure of §5 regenerated on the simulated
   multicore + NVMM and printed as series tables, plus the measured
   per-code-line pwb classification behind Figures 3e/4e, the ablations
   and extensions beyond the paper, and (with --wallclock) the host-time
   campaign suite.  The simulator's own host cost per workload and per
   layer is measured by perfbench (perfbench/README.md).

   Flags: --quick (coarser sweep), --skip-figures, --skip-extras,
   --wallclock [-j LIST] [--out FILE]. *)

(* ---- ablations and extensions beyond the paper's figures -------------- *)

let thr ?prepare factory ~threads ~duration mix_cfg =
  Pstats.set_all_enabled true;
  let p = Runner.measure ~duration_ns:duration ?prepare factory ~threads mix_cfg in
  Pstats.set_all_enabled true;
  p.Runner.throughput_mops

let table header rows =
  Printf.printf "\n%s\n" header;
  List.iter
    (fun (label, cells) ->
      Printf.printf "  %-28s %s\n" label
        (String.concat " "
           (List.map (fun v -> Printf.sprintf "%8.3f" v) cells)))
    rows;
  print_newline ()

let run_extras ~quick =
  let duration = if quick then 60_000. else 150_000. in
  let sweep = if quick then [ 1; 8; 32 ] else [ 1; 4; 8; 16; 32; 48; 60 ] in
  let ri = Workload.default Workload.read_intensive in
  let ui = Workload.default Workload.update_intensive in
  Printf.printf
    "\n== Ablations and extensions (threads: %s) ==\n%!"
    (String.concat "," (List.map string_of_int sweep));

  (* Ablation 1: the read-only optimization (red code of Algorithm 1) *)
  table "[ablation] read-only optimization, read-intensive (Mops/s)"
    [
      ( "tracking (optimized)",
        List.map (fun n -> thr Set_intf.tracking ~threads:n ~duration ri) sweep );
      ( "tracking (no optimization)",
        List.map
          (fun n -> thr Set_intf.tracking_no_ro_opt ~threads:n ~duration ri)
          sweep );
    ];

  (* Ablation 2: the Intel CAS store-buffer drain — with it, removing all
     psyncs barely matters (the paper's finding); without it, it does. *)
  let nosync_gain drains n =
    Cost.with_table
      (fun c -> c.Cost.cas_drains_wb <- drains)
      (fun () ->
        let full = thr Set_intf.tracking ~threads:n ~duration ui in
        let nos =
          thr
            ~prepare:(fun () ->
              Pstats.set_kind_enabled Pstats.Psync false;
              Pstats.set_kind_enabled Pstats.Pfence false)
            Set_intf.tracking ~threads:n ~duration ui
        in
        nos /. full)
  in
  table
    "[ablation] throughput gain from removing all psyncs (ratio; 1.0 = \
     psyncs free)"
    [
      ("with CAS drain (Intel)", List.map (nosync_gain true) sweep);
      ("without CAS drain", List.map (nosync_gain false) sweep);
    ];

  (* Ablation 3: the foreign-dirty-line flush penalty drives the
     Tracking-vs-Capsules-Opt crossover. *)
  let ratio steal n =
    Cost.with_table
      (fun c -> c.Cost.pwb_steal <- steal)
      (fun () ->
        thr Set_intf.tracking ~threads:n ~duration ui
        /. thr Set_intf.capsules_opt ~threads:n ~duration ui)
  in
  table
    "[ablation] tracking/capsules-opt throughput ratio vs steal penalty, \
     update-intensive"
    (List.map
       (fun steal ->
         (Printf.sprintf "pwb_steal = %.0f ns" steal,
          List.map (ratio steal) sweep))
       [ 20.; 400.; 1600. ]);

  (* Extension 1: other key ranges (paper: "other ranges exhibit the same
     trends"). *)
  List.iter
    (fun range ->
      let wl = { ui with Workload.key_range = range; prefill_n = range / 2 } in
      table
        (Printf.sprintf
           "[extension] key range [1,%d], update-intensive (Mops/s)" range)
        [
          ( "tracking",
            List.map (fun n -> thr Set_intf.tracking ~threads:n ~duration wl) sweep );
          ( "capsules-opt",
            List.map
              (fun n -> thr Set_intf.capsules_opt ~threads:n ~duration wl)
              sweep );
        ])
    [ 100; 2000 ];

  (* Extension 2: other operation mixes (paper: "results were similar"). *)
  table "[extension] tracking across find percentages at 32 threads (Mops/s)"
    [
      ( "finds 10/30/50/70/90 %",
        List.map
          (fun pct ->
            thr Set_intf.tracking ~threads:32 ~duration
              (Workload.default (Workload.mix_of_find_pct pct)))
          [ 10; 30; 50; 70; 90 ] );
    ];

  (* Extension 3: the recoverable BST (§6), which the paper derives but
     does not benchmark. *)
  table "[extension] recoverable BST vs list (tracking), update-intensive"
    [
      ( "tracking list",
        List.map (fun n -> thr Set_intf.tracking ~threads:n ~duration ui) sweep );
      ( "tracking bst",
        List.map (fun n -> thr Set_intf.tracking_bst ~threads:n ~duration ui) sweep );
    ];

  (* Extensions 4 and 5: the Tracking-derived recoverable queue, stack
     and exchanger (not in the paper; they demonstrate the
     transformation's generality).  [rate] runs [n] fibers, each calling
     [step] with its own rng (seeded with its tid and [seed]) until
     [duration], and returns the counted steps per virtual microsecond. *)
  let rate what ~seed n step =
    let ops = ref 0 in
    let body (_ : int) =
      let rng = Random.State.make [| Sim.tid (); seed |] in
      let rec go () =
        if Sim.now () < duration then begin
          if step rng then incr ops;
          go ()
        end
      in
      go ()
    in
    (match Sim.run ~policy:`Perf (Array.make n body) with
    | Sim.All_done -> ()
    | Sim.Crashed_at at ->
        failwith
          (Printf.sprintf
             "%s bench: crash injected at step %d, but throughput runs \
              configure no crash point"
             what at));
    float_of_int !ops /. duration *. 1000.
  in
  let queue_rate n =
    Pmem.reset_pending ();
    let q = Rqueue.create (Pmem.heap ~track_for_crash:false ()) ~threads:n in
    for i = 0 to 63 do
      Rqueue.enqueue q i
    done;
    Pmem.reset_pending ();
    rate "queue" ~seed:3 n (fun rng ->
        if Random.State.bool rng then Rqueue.enqueue q 1
        else ignore (Rqueue.dequeue q : int option);
        true)
  in
  let stack_rate n =
    Pmem.reset_pending ();
    let st = Rstack.create (Pmem.heap ~track_for_crash:false ()) ~threads:n in
    for i = 0 to 63 do
      Rstack.push st i
    done;
    Pmem.reset_pending ();
    rate "stack" ~seed:5 n (fun rng ->
        if Random.State.bool rng then Rstack.push st 1
        else ignore (Rstack.pop st : int option);
        true)
  in
  table "[extension] recoverable queue and stack, 50/50 mixes (Mops/s)"
    [
      ("tracking queue", List.map queue_rate sweep);
      ("tracking stack", List.map stack_rate sweep);
    ];
  (* an exchange counts only when it met a partner; no rng is drawn *)
  let exchanger_rate n =
    Pmem.reset_pending ();
    let heap = Pmem.heap ~track_for_crash:false () in
    let x = Rexchanger.create heap ~threads:n in
    rate "exchanger" ~seed:0 n (fun _ ->
        Rexchanger.exchange ~spins:200 x (Sim.tid ()) <> None)
  in
  table "[extension] exchanger rendezvous rate (Mops/s)"
    [ ("exchanges", List.map exchanger_rate (List.filter (fun n -> n >= 2) sweep)) ];

  (* Extension 6: operation latency profiles, from the metrics layer.
     Virtual nanoseconds; throughput numbers above are unaffected because
     metrics charge no simulator cost. *)
  let latency factory =
    Metrics.enable ();
    Fun.protect ~finally:Metrics.disable (fun () ->
        let p =
          Runner.measure ~duration_ns:duration ~seed:1 ~prepare:Metrics.enable
            factory ~threads:16 ui
        in
        [ p.Runner.lat_p50_ns; p.Runner.lat_p90_ns; p.Runner.lat_p99_ns;
          p.Runner.lat_max_ns ])
  in
  table
    "[extension] operation latency at 16 threads, update-intensive (virtual \
     ns: p50 p90 p99 max)"
    [
      ("tracking", latency Set_intf.tracking);
      ("capsules-opt", latency Set_intf.capsules_opt);
    ];

  (* Extension 7: causal what-if attribution — for each impact category,
     the exact throughput sensitivity to its cost under the replayed
     baseline schedule, plus the headroom with that cost at zero. *)
  let causal_rows factory =
    let cfg =
      let base = Causal.quick_config factory Workload.update_intensive in
      {
        base with
        Causal.sites = false;
        mechanisms = [];
        threads = (if quick then 8 else 16);
        ops_per_thread = (if quick then 120 else 250);
      }
    in
    let p = Causal.profile cfg in
    List.filter_map
      (fun (r : Causal.row) ->
        match r.Causal.target with
        | Causal.Category c ->
            Some
              ( Printf.sprintf "%s pwb[%s]" factory.Set_intf.fname
                  (Format.asprintf "%a" Pstats.pp_category c),
                [ r.Causal.sensitivity; 100. *. r.Causal.headroom ] )
        | _ -> None)
      p.Causal.rows
  in
  table
    "[extension] causal sensitivity per pwb category, update-intensive \
     (d(ns/op)/d(factor), headroom %)"
    (causal_rows Set_intf.tracking @ causal_rows Set_intf.capsules_opt);

  (* Extension 8: the sharded store service (Store) — throughput scaling
     with shard count at a fixed client population.  Each shard is an
     independent recoverable structure on its own heap, so adding shards
     splits both the contention and the persistence traffic. *)
  let shard_sweep = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8; 16 ] in
  let store_clients = if quick then 4 else 8 in
  let store_rate factory shards =
    let cfg =
      {
        (Store.default_config factory) with
        Store.shards;
        clients = store_clients;
        ops_per_client = (if quick then 100 else 250);
        workload = { ui with Workload.key_range = 256; prefill_n = 128 };
      }
    in
    match Store.run cfg with
    | Ok r -> r.Slo.throughput_mops
    | Error msg -> failwith ("store bench: " ^ msg)
  in
  table
    (Printf.sprintf
       "[extension] store service: closed-loop throughput vs shard count \
        (%d clients; shards %s; Mops/s)"
       store_clients
       (String.concat "," (List.map string_of_int shard_sweep)))
    [
      ("tracking shards", List.map (store_rate Set_intf.tracking) shard_sweep);
      ( "capsules-opt shards",
        List.map (store_rate Set_intf.capsules_opt) shard_sweep );
    ];

  (* Extension 9: two detectability frameworks over the same structure —
     the paper's Tracking transformation against the Memento-composed
     List-mmt and the combining Comb-mmt.  Same mix, same sweep, so the
     per-framework overhead (helping + checkpoints vs phase tracking)
     reads straight across the rows. *)
  table "[extension] detectability frameworks, update-intensive (Mops/s)"
    [
      ( "tracking",
        List.map (fun n -> thr Set_intf.tracking ~threads:n ~duration ui) sweep );
      ( "memento-list",
        List.map
          (fun n -> thr Set_intf.memento_list ~threads:n ~duration ui)
          sweep );
      ( "memento-comb",
        List.map
          (fun n -> thr Set_intf.memento_comb ~threads:n ~duration ui)
          sweep );
    ]

(* ---- wall-clock campaign suite (-j scaling) ---------------------------- *)

(* A fixed set of campaigns — bounded-exhaustive explore, quick causal
   profile, and the store's crash-point exploration with and without a
   migration — timed in real (host) seconds at
   each requested -j and appended to BENCH_wallclock.json.  Every
   campaign's *output* is byte-identical across -j values (the
   test_parallel suite locks this), so the records measure pure driver
   scaling.  Methodology: EXPERIMENTS.md, "Wall-clock methodology". *)

let wallclock_explore ~jobs () =
  let cfg =
    Explore.
      {
        campaign =
          Crashes.
            {
              factory = Set_intf.tracking;
              threads = 2;
              ops_per_thread = 2;
              workload =
                {
                  Workload.(default update_intensive) with
                  key_range = 8;
                  prefill_n = 2;
                };
              max_crashes = 1;
            };
        seed = 0;
        preemptions = 1;
        crashes = 1;
        wb_width = 1;
        max_execs = 0;
      }
  in
  let o = Explore.run ~stop_on_failure:false ~jobs cfg in
  if not o.Explore.stats.Explore.complete then
    failwith "wallclock explore: tree not exhausted";
  Printf.sprintf "%d execs" o.Explore.stats.Explore.executions

let wallclock_causal ~jobs () =
  let cfg = Causal.quick_config Set_intf.tracking Workload.update_intensive in
  let p = Causal.profile ~jobs cfg in
  Printf.sprintf "%d rows" (List.length p.Causal.rows)

let wallclock_store ~jobs () =
  let cfg =
    {
      (Store.default_config Set_intf.tracking) with
      Store.shards = 3;
      clients = 3;
      ops_per_client = 60;
      workload =
        {
          Workload.(default update_intensive) with
          key_range = 64;
          prefill_n = 32;
        };
      seed = 1;
    }
  in
  let o = Store.explore ~dispatch_budget:40 ~jobs cfg in
  Printf.sprintf "%d execs" o.Explore.stats.Explore.executions

(* Serve-with-migration exploration: the elastic store's crash points
   over a live 2-shard split — source, destination and the
   correlated both-endpoints campaign, every point re-proving the
   every-key-in-exactly-one-shard invariant. *)
let wallclock_migrate ~jobs () =
  let cfg =
    {
      (Store.default_config Set_intf.tracking) with
      Store.shards = 2;
      clients = 2;
      ops_per_client = 16;
      workload =
        {
          Workload.(default update_intensive) with
          key_range = 16;
          prefill_n = 8;
        };
      migrate = Some { Store.msrc = 0; m_after = 3; m_broken = false };
      seed = 1;
    }
  in
  let st = (Store.explore ~dispatch_budget:100 ~jobs cfg).Explore.stats in
  if st.Explore.failures > 0 then
    failwith "wallclock migrate: exploration found failures"
  else Printf.sprintf "%d execs" st.Explore.executions

let timed f =
  let t0 = Unix.gettimeofday () in
  let note = f () in
  (Unix.gettimeofday () -. t0, note)

(* Append an entry to the JSON array in [path], creating it if absent.
   The file stays a valid JSON array after every append. *)
let append_json_entry path entry =
  let existing =
    if Sys.file_exists path then
      In_channel.with_open_text path In_channel.input_all
    else ""
  in
  let trimmed = String.trim existing in
  Out_channel.with_open_text path (fun oc ->
      if trimmed = "" || trimmed = "[]" then
        Printf.fprintf oc "[\n%s\n]\n" entry
      else begin
        let upto =
          match String.rindex_opt trimmed ']' with
          | Some i -> String.trim (String.sub trimmed 0 i)
          | None -> failwith (path ^ ": not a JSON array")
        in
        Printf.fprintf oc "%s,\n%s\n]\n" upto entry
      end)

let run_wallclock ~jobs_list ~out =
  Printf.printf "== Wall-clock campaign suite ==\n%!";
  let cores = Domain.recommended_domain_count () in
  let date =
    let t = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
      t.Unix.tm_sec
  in
  List.iter
    (fun jobs ->
      Printf.printf "  -j %d ...\n%!" jobs;
      let explore_s, explore_note = timed (wallclock_explore ~jobs) in
      Printf.printf "    explore: %7.3f s (%s)\n%!" explore_s explore_note;
      let causal_s, causal_note = timed (wallclock_causal ~jobs) in
      Printf.printf "    causal:  %7.3f s (%s)\n%!" causal_s causal_note;
      let store_s, store_note = timed (wallclock_store ~jobs) in
      Printf.printf "    store:   %7.3f s (%s)\n%!" store_s store_note;
      let migrate_s, migrate_note = timed (wallclock_migrate ~jobs) in
      Printf.printf "    migrate: %7.3f s (%s)\n%!" migrate_s migrate_note;
      let total = explore_s +. causal_s +. store_s +. migrate_s in
      Printf.printf "    total:   %7.3f s\n%!" total;
      let entry =
        Printf.sprintf
          "  {\"date\": \"%s\", \"cores\": %d, \"ocaml\": \"%s\", \"jobs\": \
           %d,\n\
           \   \"explore_s\": %.3f, \"causal_s\": %.3f, \"store_s\": %.3f, \
           \"migrate_s\": %.3f, \"total_s\": %.3f}"
          date cores Sys.ocaml_version jobs explore_s causal_s store_s
          migrate_s total
      in
      append_json_entry out entry;
      Printf.printf "    appended to %s\n%!" out)
    jobs_list

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let skip_figures = List.mem "--skip-figures" args in
  let skip_extras = List.mem "--skip-extras" args in
  let after_flag name =
    let rec find = function
      | f :: v :: _ when f = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  if List.mem "--wallclock" args then begin
    let jobs_list =
      match after_flag "-j" with
      | None -> [ 1; 2; 4 ]
      | Some s ->
          List.map
            (fun x ->
              match int_of_string_opt (String.trim x) with
              | Some n when n >= 1 -> n
              | _ -> failwith ("bad -j list element: " ^ x))
            (String.split_on_char ',' s)
    in
    let out =
      Option.value (after_flag "--out") ~default:"BENCH_wallclock.json"
    in
    run_wallclock ~jobs_list ~out
  end
  else begin
    if not skip_figures then begin
      let cfg =
        if quick then Figures.quick_config
        else { Figures.default_config with duration_ns = 200_000.; seeds = 2 }
      in
      Printf.printf "\n== Paper figures regenerated on the simulator ==\n%!";
      ignore (Report.print_figures cfg Figures.all : Figures.figure list);
      Report.print_classifications cfg
    end;
    if not skip_extras then run_extras ~quick
  end
