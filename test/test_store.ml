(* The sharded recoverable KV service: routing, per-shard crash/recovery
   under live traffic, exactly-once request outcomes, SLO reporting,
   serve repro files and the bounded crash-point exploration. *)

let factory name = Result.get_ok (Set_intf.by_name name)

let small_workload ~keys =
  {
    (Workload.default Workload.update_intensive) with
    key_range = keys;
    prefill_n = keys / 2;
  }

let cfg ?(algo = "tracking") ?(shards = 2) ?(clients = 2) ?(ops = 30)
    ?(keys = 32) () =
  {
    (Store.default_config (factory algo)) with
    shards;
    clients;
    ops_per_client = ops;
    workload = small_workload ~keys;
  }

let run_ok c =
  match Store.run c with Ok r -> r | Error e -> Alcotest.fail e

(* -- routing -------------------------------------------------------------- *)

let test_router_spreads_keys () =
  let shards = 4 in
  let counts = Array.make shards 0 in
  for k = 1 to 1000 do
    let s = Router.route ~shards k in
    Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d got a fair share (%d)" i c)
        true (c > 150))
    counts;
  (* deterministic: same key, same shard *)
  Alcotest.(check int) "stable" (Router.route ~shards 42)
    (Router.route ~shards 42)

(* -- serving -------------------------------------------------------------- *)

let test_serve_no_crash () =
  let c = cfg () in
  let r = run_ok c in
  let total = c.Store.clients * c.Store.ops_per_client in
  Alcotest.(check int) "all completed" total r.Slo.completed;
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  Alcotest.(check int) "no retries" 0 r.Slo.retried;
  Alcotest.(check bool) "no degraded window" true (r.Slo.degraded = None);
  Alcotest.(check bool) "positive throughput" true (r.Slo.throughput_mops > 0.);
  Alcotest.(check bool) "latency quantiles present and ordered" true
    (match (r.Slo.lat_p50_ns, r.Slo.lat_p90_ns, r.Slo.lat_p99_ns) with
    | Some p50, Some p90, Some p99 -> p50 <= p90 && p90 <= p99
    | _ -> false);
  match Slo.check ~crash_expected:false r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_serve_crash_zero_lost_survivors_progress () =
  let c =
    {
      (cfg ~shards:4 ~clients:4 ~ops:100 ~keys:128 ()) with
      Store.crash = Some (Store.After_requests { victim = 2; requests = 130 });
    }
  in
  let r = run_ok c in
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  Alcotest.(check int) "all completed" 400 r.Slo.completed;
  let victim = List.nth r.Slo.shards 2 in
  Alcotest.(check bool) "victim crashed" true (victim.Slo.ss_crashes >= 1);
  Alcotest.(check bool) "recovery duration recorded" true
    (victim.Slo.ss_recovery_ns <> []);
  (match r.Slo.degraded with
  | None -> Alcotest.fail "no degraded window reported"
  | Some d ->
      Alcotest.(check int) "window around the victim" 2 d.Slo.dg_victim;
      Alcotest.(check bool) "window has duration" true (d.Slo.dg_window_ns > 0.);
      Alcotest.(check bool) "survivors completed requests during recovery"
        true
        (d.Slo.dg_survivor_completions > 0));
  match Slo.check ~crash_expected:true r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* An At_dispatch crash that lands mid-operation: the interrupted request
   must resolve through detectable recovery (recover op), exactly once. *)
let test_inflight_request_recovered () =
  let base = cfg ~ops:12 ~keys:16 () in
  let rec find k =
    if k > 150 then
      Alcotest.fail "no dispatch point interrupted an in-flight request"
    else
      let c =
        {
          base with
          Store.crash = Some (Store.At_dispatch { victim = 0; dispatch = k });
        }
      in
      match Store.run c with
      | Error e -> Alcotest.fail e
      | Ok r when r.Slo.recovered >= 1 -> r
      | Ok _ -> find (k + 1)
  in
  let r = find 1 in
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  let victim = List.nth r.Slo.shards 0 in
  Alcotest.(check bool) "victim recovered its in-flight request" true
    (victim.Slo.ss_recovered >= 1)

let test_batching_under_open_loop () =
  let base = cfg ~shards:2 ~clients:4 ~ops:50 ~keys:64 () in
  let open_cfg batch =
    { base with Store.batch; open_loop_ns = Some 100. }
  in
  let r1 = run_ok (open_cfg 1) in
  let r8 = run_ok (open_cfg 8) in
  Alcotest.(check int) "batch=1 completes all" 200 r1.Slo.completed;
  Alcotest.(check int) "batch=8 completes all" 200 r8.Slo.completed;
  (* fast open-loop arrivals back the mailboxes up *)
  let max_q r =
    List.fold_left (fun m s -> max m s.Slo.ss_max_queue) 0 r.Slo.shards
  in
  Alcotest.(check bool) "queues actually built up" true (max_q r1 > 1);
  (* batching drains backlog in gulps: the makespan must not be worse *)
  Alcotest.(check bool) "batching is not slower" true
    (r8.Slo.makespan_ns <= r1.Slo.makespan_ns)

let test_run_deterministic_and_replayable () =
  let c =
    {
      (cfg ()) with
      Store.crash = Some (Store.After_requests { victim = 1; requests = 20 });
    }
  in
  let sched = ref [] in
  let r1 = ref None in
  (match Store.run ~record:(fun s -> sched := s :: !sched) c with
  | Ok r -> r1 := Some r
  | Error e -> Alcotest.fail e);
  let schedule = Array.of_list (List.rev !sched) in
  Alcotest.(check bool) "schedule recorded" true (Array.length schedule > 0);
  match Store.run ~schedule c with
  | Error e -> Alcotest.fail e
  | Ok r2 ->
      Alcotest.(check int) "replay has no divergence" 0 r2.Slo.divergences;
      let r1 = Option.get !r1 in
      Alcotest.(check string) "identical report" (Slo.to_json r1)
        (Slo.to_json { r2 with Slo.divergences = r1.Slo.divergences })

let test_validate_rejects_bad_configs () =
  let expect_err c =
    match Store.run c with
    | Error msg ->
        Alcotest.(check bool) "store error class" true
          (String.length msg >= 6 && String.sub msg 0 6 = "store:")
    | Ok _ -> Alcotest.fail "invalid config accepted"
  in
  expect_err { (cfg ()) with Store.shards = 0 };
  expect_err { (cfg ()) with Store.clients = 0 };
  expect_err { (cfg ()) with Store.batch = 0 };
  expect_err
    {
      (cfg ()) with
      Store.crash = Some (Store.After_requests { victim = 7; requests = 5 });
    };
  expect_err { (cfg ()) with Store.clients = 40; shards = 30 }

(* A serve with a split, a failover and open-loop arrivals: its idle
   polling is most of its dispatches. *)
let elastic_cfg ~ops =
  {
    (cfg ~shards:4 ~clients:4 ~ops ~keys:1024 ()) with
    Store.open_loop_ns = Some 2700.;
    replicate = true;
    migrate = Some { Store.msrc = 0; m_after = ops; m_broken = false };
    crash = Some (Store.After_requests { victim = 1; requests = 2 * ops });
  }

(* Without [record] the engine is quiet and runs idle polls in the ready
   heap (sim.mli); with it, through [dequeue].  Both must give
   the same report and the same trace, every [Sched] event included. *)
let test_record_unobservable () =
  let c = elastic_cfg ~ops:40 in
  let serve ?record () =
    let path = Filename.temp_file "tracking-nvm-serve" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let json =
          match Trace.with_file path (fun () -> Store.run ?record c) with
          | Ok r -> Slo.to_json r
          | Error e -> Alcotest.fail e
        in
        (json, In_channel.with_open_bin path In_channel.input_all))
  in
  let json, trace = serve () in
  let n = ref 0 in
  let json', trace' = serve ~record:(fun _ -> incr n) () in
  Alcotest.(check bool) "dispatches recorded" true (!n > 1000);
  Alcotest.(check string) "same report" json' json;
  Alcotest.(check bool) "same trace" true (String.equal trace' trace)

(* The host work of a request, measured deterministically: minor words
   per request of a small elastic serve, against a budget that only
   moves down.  Re-queueing each idle poll through the dispatch loop,
   with the heap's float argument boxed, cost 1,554.5 words per request
   here (set-up included); re-keying polls in the heap, running those
   ahead of a step from the step and inlining the sifts cut that to the
   budget.  A rise of more than 2% fails; a change that lowers it
   commits the new figure. *)
let test_words_per_request () =
  let c = elastic_cfg ~ops:250 in
  let serve () = ignore (Result.get_ok (Store.run c) : Slo.report) in
  serve ();
  let w0 = Gc.minor_words () in
  serve ();
  let words =
    (Gc.minor_words () -. w0)
    /. float_of_int (c.Store.clients * c.Store.ops_per_client)
  in
  Printf.printf "%.1f minor words per request\n%!" words;
  let budget = 1259.4 in
  if words > 1.02 *. budget then
    Alcotest.failf "%.1f minor words per request (budget %.1f)" words budget

(* -- serve repro files ---------------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let with_temp_file f =
  let path = Filename.temp_file "tracking-nvm-serve" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* The negative control: tracking-broken elides the new-node pwb, so a
   shard crash inside the link-to-cleanup window leaves reachable
   poisoned data.  The failure must save as a serve repro and replay to
   the identical error. *)
let broken_failure () =
  let base = cfg ~algo:"tracking-broken" ~ops:12 ~keys:16 () in
  let rec find k =
    if k > 250 then Alcotest.fail "broken variant never failed"
    else
      let c =
        {
          base with
          Store.crash = Some (Store.At_dispatch { victim = 0; dispatch = k });
          wb = `All;
        }
      in
      let sched = ref [] in
      match Store.run ~record:(fun s -> sched := s :: !sched) c with
      | Error error -> (c, error, Array.of_list (List.rev !sched))
      | Ok _ -> find (k + 1)
  in
  find 1

let test_store_repro_roundtrip () =
  let c, error, schedule = broken_failure () in
  let r = { Store_repro.config = c; error; schedule } in
  with_temp_file (fun path ->
      Store_repro.save path r;
      match Store_repro.load path with
      | Error e -> Alcotest.fail ("load: " ^ e)
      | Ok r' ->
          let c' = r'.Store_repro.config in
          Alcotest.(check string) "algo" "tracking-broken"
            c'.Store.factory.Set_intf.fname;
          Alcotest.(check string) "error survives" error r'.Store_repro.error;
          Alcotest.(check int) "schedule length" (Array.length schedule)
            (Array.length r'.Store_repro.schedule);
          Alcotest.(check bool) "crash plan survives" true
            (c'.Store.crash = c.Store.crash);
          Alcotest.(check bool) "wb survives" true (c'.Store.wb = `All);
          (match Store_repro.replay r' with
          | Error e -> Alcotest.(check string) "replays to same failure" error e
          | Ok () -> Alcotest.fail "saved serve repro did not reproduce"))

let test_store_repro_rejects_garbage () =
  with_temp_file (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "not a serve repro\n");
      match Store_repro.load path with
      | Ok _ -> Alcotest.fail "accepted a garbage file"
      | Error _ -> ())

(* Malformed serve files must be rejected at load, never half-parsed:
   the serve-kind counterpart of test_repro.ml's campaign corpus.  The
   base file loads, and every case changes one thing about it.
   A config the store refuses is malformed too: no serve could have
   recorded it, and its replay would reproduce only the refusal. *)
let test_store_repro_malformed_corpus () =
  let base =
    [
      ("algo", "tracking"); ("shards", "2"); ("clients", "2");
      ("ops-per-client", "4"); ("batch", "1"); ("find-pct", "30");
      ("key-range", "16"); ("prefill", "8"); ("dist", "uniform");
      ("open-loop-ns", "-"); ("crash", "none"); ("wb", "rng");
      ("restart-ns", "5000"); ("seed", "1"); ("error", "x");
      ("schedule", "-");
    ]
  in
  let body fields =
    String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") fields)
  in
  let render fields = Store_repro.magic ^ "\n" ^ body fields in
  let set key value =
    render
      (if List.mem_assoc key base then
         List.map (fun (k, v) -> (k, if k = key then value else v)) base
       else base @ [ (key, value) ])
  in
  let without key = render (List.remove_assoc key base) in
  let load contents =
    with_temp_file (fun path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc contents);
        Store_repro.load path)
  in
  (match load (render base) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "base file rejected: %s" e);
  let cases =
    [
      ("empty file", "");
      ("bad magic", "tracking-nvm-repro v1\n" ^ body base);
      ("unknown field", set "wibble" "3");
      ("duplicate field", render base ^ "shards 4\n");
      ("bad integer", set "shards" "two");
      ("bad number", set "restart-ns" "soon");
      ("bad dist", set "dist" "zipf");
      ("bad dist skew", set "dist" "skew:hot");
      ("bad open-loop-ns", set "open-loop-ns" "often");
      ("bad crash plan", set "crash" "later 1 2");
      ("bad wb", set "wb" "sometimes");
      ("bad wb prefix", set "wb" "prefix:0");
      ("bad wb2", set "wb2" "prefix:x");
      ("bad replicate", set "replicate" "yes");
      ("bad migrate plan", set "migrate" "0 3 2");
      ("bad schedule", set "schedule" "0,one,2");
      ("negative failover-ns", set "failover-ns" "-1");
      ("negative restart-ns", set "restart-ns" "-1");
      ("zero open-loop-ns", set "open-loop-ns" "0");
      ("crash dispatch 0", set "crash" "both 0 1 0");
      ("negative crash request count", set "crash" "after 1 -1");
      ("unknown algorithm", set "algo" "nope");
      ("unknown backend", set "backends" "tracking,nope");
      ("crash shard out of range", set "crash" "after 7 5");
      ( "split of a queue shard",
        render
          (base
          @ [ ("backends", "tracking-topic,tracking"); ("migrate", "0 1 0") ])
      );
    ]
    @ List.map
        (fun key -> ("missing " ^ key, without key))
        [
          "algo"; "shards"; "clients"; "ops-per-client"; "batch"; "find-pct";
          "key-range"; "prefill"; "restart-ns";
        ]
  in
  List.iter
    (fun (name, contents) ->
      match load contents with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" name)
    cases;
  (* a negative release point is refused as such, not as a source *)
  match load (set "migrate" "0 -1 0") with
  | Error e ->
      Alcotest.(check string) "negative migrate-after"
        "store: migrate-after must be >= 0" e
  | Ok _ -> Alcotest.fail "negative migrate-after: accepted"

(* Every serve rule, through the one validator: each refusal is one line
   naming the field, and the boundary values pass. *)
let test_validate_names_each_field () =
  let base = cfg () in
  let workload f = { base with Store.workload = f base.Store.workload } in
  let crash plan = { base with crash = Some plan } in
  let migrate m_after =
    { base with migrate = Some { Store.msrc = 0; m_after; m_broken = false } }
  in
  List.iter
    (fun (what, c) ->
      match Store.validate c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s refused: %s" what e)
    [
      ("base", base);
      ("instant restart", { base with restart_ns = 0.; failover_ns = 0. });
      ("empty prefill", workload (fun w -> { w with prefill_n = 0 }));
      ("crash at once", crash (After_requests { victim = 0; requests = 0 }));
      ("first dispatch", crash (At_dispatch { victim = 0; dispatch = 1 }));
      ("migrate at once", migrate 0);
    ];
  List.iter
    (fun (field, c) ->
      match Store.validate c with
      | Ok () -> Alcotest.failf "%s accepted" field
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names %s on one line" e field)
            true
            (contains ~sub:field e && not (String.contains e '\n')))
    [
      ("key-range", workload (fun w -> { w with key_range = 0 }));
      ("prefill", workload (fun w -> { w with prefill_n = -1 }));
      ( "find-pct",
        workload (fun w -> { w with mix = Workload.mix_of_find_pct 101 }) );
      ("restart-ns", { base with restart_ns = -1. });
      ("restart-ns", { base with restart_ns = Float.nan });
      ("failover-ns", { base with failover_ns = -1. });
      ("open-loop-ns", { base with open_loop_ns = Some 0. });
      ("crash-after", crash (After_requests { victim = 0; requests = -1 }));
      ("crash-dispatch", crash (At_dispatch { victim = 0; dispatch = 0 }));
      ("crash-dispatch", crash (Both_at_dispatch { a = 0; b = 1; dispatch = 0 }));
      ( "crash-dispatch",
        crash (Cascade { first = 0; second = 1; dispatch = -2 }) );
      ("migrate-after", migrate (-1));
    ]

(* A serve replay uses its whole tape: a schedule with entries the run
   never reaches, or one that ends before the run does, diverges, both
   for a run that ends and for one that raises (a poisoned read). *)
let test_tape_length_diverges () =
  let passing =
    Store.failure_of
      {
        (cfg ()) with
        Store.crash = Some (Store.After_requests { victim = 1; requests = 20 });
      }
      "none"
  in
  List.iter
    (fun (what, (r : Store.failure)) ->
      (match Store.replayed r with
      | Repro.Diverged e ->
          Alcotest.failf "%s: faithful replay diverged: %s" what e
      | Repro.Passed | Repro.Failed _ -> ());
      List.iter
        (fun (edit, schedule) ->
          match Store.replayed { r with schedule } with
          | Repro.Diverged e ->
              Alcotest.(check bool) (what ^ ", " ^ edit ^ ": " ^ e) true
                (contains ~sub:"schedule divergence" e)
          | Repro.Passed | Repro.Failed _ ->
              Alcotest.failf "%s, %s: not reported as a divergence" what edit)
        [
          ("long tape", Array.append r.schedule [| 0; 1; 0 |]);
          ("short tape", Array.sub r.schedule 0 (Array.length r.schedule - 5));
        ])
    [
      ("passing", passing);
      ( "poisoned",
        let config, error, schedule = broken_failure () in
        { Store.config; error; schedule } );
    ]

(* -- bounded crash-point exploration --------------------------------------- *)

let test_explore_clean_on_tracking () =
  let c = cfg ~ops:12 ~keys:16 () in
  let o = Store.explore ~dispatch_budget:40 c in
  let st = o.Explore.stats in
  Alcotest.(check int) "no failures" 0 st.Explore.failures;
  Alcotest.(check bool) "tree exhausted" true st.Explore.complete;
  (* each of the two shards has more than 40 server dispatches *)
  Alcotest.(check int) "crash points" 80 st.Explore.crash_points;
  Alcotest.(check bool) "one execution per crash point at least" true
    (st.Explore.executions > st.Explore.crash_points)

let test_explore_catches_broken_variant () =
  let c = cfg ~algo:"tracking-broken" ~ops:12 ~keys:16 () in
  let o = Store.explore ~dispatch_budget:200 c in
  Alcotest.(check bool) "failures found" true
    (o.Explore.stats.Explore.failures > 0);
  (* the first failure is a serve repro that replays to its error *)
  match o.Explore.failure with
  | None -> Alcotest.fail "failures counted but none reported"
  | Some r -> (
      Alcotest.(check bool) "the repro names its crash point" true
        (match r.Store.config.Store.crash with
        | Some (Store.At_dispatch _) -> true
        | _ -> false);
      match Store_repro.replay r with
      | Error e ->
          Alcotest.(check string) "replay reproduces the error" r.error e
      | Ok () -> Alcotest.fail "counterexample replayed clean")

(* An empty run has no latency distribution — the quantiles must be
   absent, not a fabricated 0 ns — and --check must refuse it loudly
   instead of vacuously passing a run that did no work. *)
let test_empty_report_has_no_quantiles () =
  let r =
    Slo.build ~total:0 ~divergences:0 ~requests:[] ~shards:[||]
      ~crash_victim:None
  in
  Alcotest.(check bool) "quantiles absent" true
    (r.Slo.lat_mean_ns = None
    && r.Slo.lat_p50_ns = None
    && r.Slo.lat_p90_ns = None
    && r.Slo.lat_p99_ns = None);
  Alcotest.(check bool) "json renders null" true
    (let j = Slo.to_json r in
     let has_null_p50 =
       let needle = "\"p50\":null" in
       let rec scan i =
         i + String.length needle <= String.length j
         && (String.sub j i (String.length needle) = needle || scan (i + 1))
       in
       scan 0
     in
     has_null_p50);
  match Slo.check ~crash_expected:false r with
  | Ok () -> Alcotest.fail "check accepted a zero-completed run"
  | Error e ->
      Alcotest.(check bool) "error names the empty run" true
        (String.length e > 0 && String.sub e 0 9 = "empty run")

let suite =
  [
    Alcotest.test_case "router spreads keys" `Quick test_router_spreads_keys;
    Alcotest.test_case "empty report: no quantiles, check refuses" `Quick
      test_empty_report_has_no_quantiles;
    Alcotest.test_case "serve without crash" `Quick test_serve_no_crash;
    Alcotest.test_case "crash of one shard loses nothing" `Quick
      test_serve_crash_zero_lost_survivors_progress;
    Alcotest.test_case "in-flight request detectably recovered" `Quick
      test_inflight_request_recovered;
    Alcotest.test_case "batching under open-loop arrivals" `Quick
      test_batching_under_open_loop;
    Alcotest.test_case "deterministic and schedule-replayable" `Quick
      test_run_deterministic_and_replayable;
    Alcotest.test_case "config validation" `Quick
      test_validate_rejects_bad_configs;
    Alcotest.test_case "record changes neither report nor trace" `Quick
      test_record_unobservable;
    Alcotest.test_case "minor words per request within budget" `Quick
      test_words_per_request;
    Alcotest.test_case "serve repro round-trips and replays" `Quick
      test_store_repro_roundtrip;
    Alcotest.test_case "serve repro rejects garbage" `Quick
      test_store_repro_rejects_garbage;
    Alcotest.test_case "serve repro rejects a malformed corpus" `Quick
      test_store_repro_malformed_corpus;
    Alcotest.test_case "store validator names each refused field" `Quick
      test_validate_names_each_field;
    Alcotest.test_case "a serve tape longer or shorter than its run diverges"
      `Quick test_tape_length_diverges;
    Alcotest.test_case "explore clean on tracking" `Quick
      test_explore_clean_on_tracking;
    Alcotest.test_case "explore catches the broken variant" `Quick
      test_explore_catches_broken_variant;
  ]
