(* The metrics layer: histogram quantiles against a brute-force oracle,
   the zero-event guarantee when disabled, registry reset between runs,
   span/contention/recovery collection during crash campaigns, the
   Trace.start restart fix, end-to-end Perfetto conversion, and the
   observer bus: subscribers that compose and the one-slot setters. *)

let campaign_cfg ?(threads = 4) ?(ops = 30) ?(max_crashes = 2) () =
  Crashes.
    {
      factory = Set_intf.tracking;
      threads;
      ops_per_thread = ops;
      workload =
        { (Workload.default Workload.update_intensive) with
          key_range = 64;
          prefill_n = 32;
        };
      max_crashes;
    }

let run_campaign cfg ~seed = fst (Crashes.run_logged cfg ~seed)

let with_metrics f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

(* ---- histogram quantiles vs. brute-force oracle ----------------------- *)

(* Log-uniform samples spanning the histogram's whole range. *)
let gen_samples =
  QCheck2.Gen.(
    list_size (int_range 1 400) (map Float.exp2 (float_range 0. 30.)))

let oracle_quantile sorted n q =
  let target =
    let t = int_of_float (Float.ceil (q *. float_of_int n)) in
    if t < 1 then 1 else if t > n then n else t
  in
  List.nth sorted (target - 1)

let prop_quantile_oracle =
  QCheck2.Test.make ~name:"histogram quantiles match oracle within a bucket"
    ~count:300 gen_samples (fun samples ->
      with_metrics @@ fun () ->
      Metrics.reset ();
      let h = Metrics.histogram "test.quantile" in
      List.iter (Metrics.observe h) samples;
      let sorted = List.sort compare samples in
      let n = List.length samples in
      let s = Metrics.summary h in
      if s.Metrics.count <> n then
        QCheck2.Test.fail_reportf "count %d <> %d" s.Metrics.count n;
      if s.Metrics.max <> List.nth sorted (n - 1) then
        QCheck2.Test.fail_reportf "max %g not exact" s.Metrics.max;
      List.iter
        (fun (q, v) ->
          let o = oracle_quantile sorted n q in
          (* bucket representatives are within 2^(1/8) of the sample at
             that rank; clamping to observed min/max never widens this *)
          let lo = o /. 1.25 and hi = o *. 1.25 in
          if not (v >= lo && v <= hi) then
            QCheck2.Test.fail_reportf "q%.2f: hist %g vs oracle %g (n=%d)" q
              v o n;
          if v < List.hd sorted || v > List.nth sorted (n - 1) then
            QCheck2.Test.fail_reportf "q%.2f out of observed range" q)
        [ (0.5, s.Metrics.p50); (0.9, s.Metrics.p90); (0.99, s.Metrics.p99) ];
      true)

(* ---- disabled path records nothing ------------------------------------ *)

let test_disabled_records_nothing () =
  Metrics.disable ();
  Metrics.reset ();
  (match run_campaign (campaign_cfg ()) ~seed:3 with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "campaign failed: %s" m);
  Alcotest.(check bool) "inactive" false (Metrics.active ());
  Alcotest.(check int) "no events recorded" 0 (Metrics.events_recorded ());
  Alcotest.(check int) "no spans" 0 (List.length (Metrics.spans ()))

(* ---- registry resets between Runner.measure calls --------------------- *)

let test_reset_between_measures () =
  with_metrics @@ fun () ->
  let measure seed =
    Runner.measure ~duration_ns:20_000. ~seed Set_intf.tracking ~threads:3
      (Workload.default Workload.update_intensive)
  in
  let p1 = measure 1 in
  let c1 =
    match Metrics.hist_summary "op" with
    | Some s -> s.Metrics.count
    | None -> -1
  in
  Alcotest.(check int) "first run: one sample per op" p1.Runner.ops c1;
  Alcotest.(check bool) "first run did ops" true (p1.Runner.ops > 0);
  let p2 = measure 2 in
  let c2 =
    match Metrics.hist_summary "op" with
    | Some s -> s.Metrics.count
    | None -> -1
  in
  Alcotest.(check int) "second run: registry was reset" p2.Runner.ops c2

let test_latency_point_fields () =
  let measure () =
    Runner.measure ~duration_ns:20_000. ~seed:1 Set_intf.tracking ~threads:3
      (Workload.default Workload.update_intensive)
  in
  let p = with_metrics measure in
  Alcotest.(check bool) "p50 > 0" true (p.Runner.lat_p50_ns > 0.);
  Alcotest.(check bool) "p50 <= p90" true
    (p.Runner.lat_p50_ns <= p.Runner.lat_p90_ns);
  Alcotest.(check bool) "p90 <= p99" true
    (p.Runner.lat_p90_ns <= p.Runner.lat_p99_ns);
  Alcotest.(check bool) "p99 <= max" true
    (p.Runner.lat_p99_ns <= p.Runner.lat_max_ns);
  let p' = measure () in
  Alcotest.(check (float 0.)) "disabled: zero latency columns" 0.
    p'.Runner.lat_p50_ns;
  Alcotest.(check (float 0.))
    "disabled: same throughput bit-for-bit (zero-overhead path)"
    p.Runner.throughput_mops p'.Runner.throughput_mops

(* ---- spans, contention, recovery from a crash campaign ----------------- *)

let test_campaign_profiles () =
  with_metrics @@ fun () ->
  (* find a seed whose run crashes (run_logged resets metrics on entry,
     so the recorded data is the crashing run's alone) *)
  let rec crashing_run seed =
    if seed > 20 then Alcotest.fail "no seed in 1..20 crashed"
    else
      match run_campaign (campaign_cfg ()) ~seed with
      | Ok o when o.Crashes.crashes > 0 -> o
      | Ok _ -> crashing_run (seed + 1)
      | Error m -> Alcotest.failf "campaign failed: %s" m
  in
  let o = crashing_run 1 in
  Alcotest.(check bool) "campaign crashed" true (o.Crashes.crashes > 0);
  let spans = Metrics.spans () in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 0);
  List.iter
    (fun sp ->
      if sp.Metrics.sp_end < sp.Metrics.sp_begin then
        Alcotest.failf "span ends before it begins";
      if
        not
          (List.mem sp.Metrics.sp_kind
             [ "insert"; "delete"; "find"; "recover" ])
      then Alcotest.failf "unexpected span kind %s" sp.Metrics.sp_kind)
    spans;
  Alcotest.(check bool) "recover spans present" true
    (List.exists (fun sp -> sp.Metrics.sp_kind = "recover") spans);
  (match Metrics.hist_summary "op" with
  | None -> Alcotest.fail "no op histogram"
  | Some s ->
      Alcotest.(check bool) "non-degenerate p50 < p99" true
        (s.Metrics.p50 < s.Metrics.p99));
  Alcotest.(check bool) "contention profile non-empty" true
    (Metrics.contention_top 10 <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "contention counts non-negative" true
        (c.Metrics.ct_cas_failures >= 0 && c.Metrics.ct_invalidations >= 0))
    (Metrics.contention_top 10);
  let rec_rounds = Metrics.recovery_durations () in
  Alcotest.(check bool) "recovery durations recorded" true (rec_rounds <> []);
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "recovery duration positive" true (d > 0.))
    rec_rounds

(* ---- Trace.start restart ----------------------------------------------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

let contains ~affix s =
  let n = String.length s and k = String.length affix in
  let rec go i = i + k <= n && (String.sub s i k = affix || go (i + 1)) in
  go 0

let test_trace_restart_two_files () =
  let a = Filename.temp_file "trace-a" ".jsonl" in
  let b = Filename.temp_file "trace-b" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Trace.stop ();
      Sys.remove a;
      Sys.remove b)
    (fun () ->
      Trace.start a;
      Trace.note "first-sink";
      Trace.start b;
      (* the old sink must be closed and flushed, the new one active *)
      Trace.note "second-sink";
      Trace.stop ();
      let ca = read_file a and cb = read_file b in
      Alcotest.(check bool) "a has its note" true
        (contains ~affix:"first-sink" ca);
      Alcotest.(check bool) "a lacks b's note" false
        (contains ~affix:"second-sink" ca);
      Alcotest.(check bool) "b has its note" true
        (contains ~affix:"second-sink" cb))

let test_trace_restart_same_path () =
  let a = Filename.temp_file "trace-same" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Trace.stop ();
      Sys.remove a)
    (fun () ->
      Trace.start a;
      Trace.note
        "a-deliberately-long-first-marker-so-stale-buffered-bytes-would-show";
      (* restarting into the same path used to truncate the file before
         closing the old channel, whose buffered flush then corrupted it *)
      Trace.start a;
      Trace.note "x";
      Trace.stop ();
      let c = read_file a in
      Alcotest.(check string) "clean single-note file"
        {|{"ev":"note","msg":"x"}|}
        (String.trim c))

(* ---- Perfetto conversion ------------------------------------------------ *)

let test_perfetto_roundtrip () =
  let jsonl = Filename.temp_file "perfetto" ".jsonl" in
  let out = Filename.temp_file "perfetto" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove jsonl;
      Sys.remove out)
    (fun () ->
      let result =
        with_metrics @@ fun () ->
        Trace.with_file jsonl (fun () ->
            run_campaign (campaign_cfg ~threads:3 ~ops:12 ()) ~seed:1)
      in
      (match result with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "campaign failed: %s" m);
      match Perfetto.convert ~jsonl ~out with
      | Error m -> Alcotest.failf "conversion failed: %s" m
      | Ok s -> (
          Alcotest.(check bool) "spans emitted" true (s.Perfetto.out_spans > 0);
          Alcotest.(check int) "one track per thread" 3 s.Perfetto.out_threads;
          match Perfetto.validate_file out with
          | Error m -> Alcotest.failf "validation failed: %s" m
          | Ok v ->
              Alcotest.(check int)
                "validator agrees on span count" s.Perfetto.out_spans
                v.Perfetto.out_spans))

(* ---- observers compose on the bus -------------------------------------- *)

(* A contended update-heavy campaign: 6 threads on 8 keys fail CASes and
   help each other, and seed 4 crashes once. *)
let contended_cfg =
  Crashes.
    {
      factory = Set_intf.tracking;
      threads = 6;
      ops_per_thread = 20;
      workload =
        { (Workload.default Workload.update_intensive) with
          key_range = 8;
          prefill_n = 4;
        };
      max_crashes = 1;
    }

let contended_seed = 4

(* The campaign traced into a temporary file, under [around]; returns the
   JSONL. *)
let traced_campaign around =
  let path = Filename.temp_file "compose" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      around (fun () ->
          Trace.with_file path (fun () ->
              match run_campaign contended_cfg ~seed:contended_seed with
              | Ok o ->
                  Alcotest.(check bool) "the campaign crashed" true
                    (o.Crashes.crashes > 0)
              | Error m -> Alcotest.failf "campaign failed: %s" m));
      read_file path)

let postmortem () =
  Forensics.render_text
    (Forensics.build ~algo:"tracking" ~seed:contended_seed ~error:"compose")

let with_forensics f =
  Forensics.start ();
  Fun.protect ~finally:Forensics.stop (fun () ->
      f ();
      postmortem ())

let with_space f =
  Space.reset ();
  Space.enable ();
  Fun.protect
    ~finally:(fun () ->
      Space.disable ();
      Space.reset ())
    (fun () ->
      f ();
      Space.recs ())

(* Trace, Metrics, Forensics and Space each subscribe one handler: none
   may change what another records.  The op_end fields come from the bus,
   so a trace no longer depends on Metrics being on. *)
let test_subscribers_compose () =
  let alone = traced_campaign (fun f -> f ()) in
  Alcotest.(check bool) "a failed CAS inside some span" true
    (List.exists
       (fun d -> contains ~affix:(Printf.sprintf {|"cas_fail":%d|} d) alone)
       [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
  Alcotest.(check bool) "a helped span" true
    (contains ~affix:{|"helped":true|} alone);
  let with_m = traced_campaign with_metrics in
  Alcotest.(check string) "trace with Metrics = trace alone" alone with_m;
  let pm_all = ref "" and space_all = ref [] in
  let with_all =
    traced_campaign (fun f ->
        with_metrics (fun () ->
            pm_all :=
              with_forensics (fun () -> space_all := with_space f)))
  in
  Alcotest.(check string) "trace with all four = trace alone" alone with_all;
  let run () =
    match run_campaign contended_cfg ~seed:contended_seed with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "campaign failed: %s" m
  in
  Alcotest.(check string) "postmortem = Forensics alone" (with_forensics run)
    !pm_all;
  let space_alone = with_space run in
  Alcotest.(check bool) "registry recorded allocations" true
    (space_alone <> []);
  Alcotest.(check bool) "registry = Space alone" true
    (space_alone = !space_all)

(* The one-slot setters perfbench uses: a second [Some] replaces the
   first, [None] removes it, and a collector sees exactly the memory
   events a trace writes. *)
let test_collector_shim () =
  let h = Pmem.heap ~track_for_crash:false ~name:"shim" () in
  let c = Pmem.alloc h 0 in
  let read5 _ =
    for _ = 1 to 5 do
      ignore (Pmem.read c : int)
    done
  in
  let reads () = ignore (Sim.run [| read5 |] : Sim.outcome) in
  let f = ref 0 and g = ref 0 in
  Fun.protect
    ~finally:(fun () -> Pmem.set_collector None)
    (fun () ->
      Pmem.set_collector (Some (fun _ -> incr f));
      Pmem.set_collector (Some (fun _ -> incr g));
      reads ();
      Alcotest.(check (pair int int)) "only the second collector" (0, 5)
        (!f, !g);
      Pmem.set_collector None;
      reads ();
      Alcotest.(check (pair int int)) "no collector after None" (0, 5)
        (!f, !g));
  let seen = Hashtbl.create 8 in
  let count k = Option.value ~default:0 (Hashtbl.find_opt seen k) in
  let bump k = Hashtbl.replace seen k (count k + 1) in
  let kind = function
    | Pmem.Read _ -> "read"
    | Pmem.Write _ -> "write"
    | Pmem.Cas _ -> "cas"
    | Pmem.Pwb _ -> "pwb"
    | Pmem.Pfence _ -> "pfence"
    | Pmem.Psync _ -> "psync"
    | Pmem.Alloc _ -> "alloc"
  in
  let trace =
    traced_campaign (fun run ->
        Pmem.set_collector (Some (fun ev -> bump (kind ev)));
        Fun.protect ~finally:(fun () -> Pmem.set_collector None) run)
  in
  let lines = String.split_on_char '\n' trace in
  List.iter
    (fun k ->
      let in_trace =
        List.length
          (List.filter
             (String.starts_with ~prefix:(Printf.sprintf {|{"ev":"%s",|} k))
             lines)
      in
      Alcotest.(check int) ("collector and trace agree on " ^ k) in_trace
        (count k))
    [ "read"; "write"; "cas"; "pwb"; "pfence"; "psync"; "alloc" ];
  Alcotest.(check bool) "the collector saw CASes" true (count "cas" > 0)

let test_json_parser () =
  let ok s = match Perfetto.parse_json s with Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "object" true
    (ok {|{"a":1,"b":[true,null,"x\n"],"c":-2.5e3}|});
  Alcotest.(check bool) "nested" true (ok {|[[[{"k":{}}]],[]]|});
  Alcotest.(check bool) "trailing garbage rejected" false (ok {|{} x|});
  Alcotest.(check bool) "unterminated rejected" false (ok {|{"a": [1, 2|});
  Alcotest.(check bool) "bare word rejected" false (ok {|nope|})

let suite =
  [
    QCheck_alcotest.to_alcotest prop_quantile_oracle;
    Alcotest.test_case "disabled path records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "registry resets between measures" `Quick
      test_reset_between_measures;
    Alcotest.test_case "latency columns in Runner.point" `Quick
      test_latency_point_fields;
    Alcotest.test_case "campaign spans/contention/recovery" `Quick
      test_campaign_profiles;
    Alcotest.test_case "Trace.start closes previous sink" `Quick
      test_trace_restart_two_files;
    Alcotest.test_case "Trace.start same-path restart" `Quick
      test_trace_restart_same_path;
    Alcotest.test_case "Perfetto conversion round-trip" `Quick
      test_perfetto_roundtrip;
    Alcotest.test_case "JSON parser corner cases" `Quick test_json_parser;
    Alcotest.test_case "bus subscribers compose" `Quick
      test_subscribers_compose;
    Alcotest.test_case "collector shim semantics" `Quick test_collector_shim;
  ]
