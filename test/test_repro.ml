(* Deterministic trace/replay of crash campaigns.  The negative-control
   [tracking-broken] variant (new-node pwb elided) must fail campaigns;
   the failure must save as a repro, replay bit-for-bit, shrink to a tiny
   counterexample, and trace as well-formed JSONL. *)

let broken_cfg ~threads ~ops =
  Crashes.
    {
      factory = Result.get_ok (Set_intf.by_name "tracking-broken");
      threads;
      ops_per_thread = ops;
      workload =
        {
          (Workload.default Workload.update_intensive) with
          key_range = 64;
          prefill_n = 32;
        };
      max_crashes = 3;
    }

(* First failing seed of a small campaign, with its recorded rounds. *)
let find_failure () =
  let cfg = broken_cfg ~threads:4 ~ops:10 in
  let rec go seed =
    if seed > 200 then Alcotest.fail "broken variant never failed in 200 seeds"
    else
      match Crashes.run_logged cfg ~seed with
      | Error error, rounds -> (cfg, seed, error, rounds)
      | Ok _, _ -> go (seed + 1)
  in
  go 0

let test_broken_variant_replays () =
  let cfg, seed, error, rounds = find_failure () in
  let r = { Repro.config = cfg; seed; error; rounds } in
  (match Crashes.replay r with
  | Error e -> Alcotest.(check string) "identical failure" error e
  | Ok () -> Alcotest.fail "replay did not reproduce the failure");
  (* replay is itself deterministic *)
  match Crashes.replay r with
  | Error e -> Alcotest.(check string) "identical failure again" error e
  | Ok () -> Alcotest.fail "second replay did not reproduce the failure"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let with_temp_file f =
  let path = Filename.temp_file "tracking-nvm" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_save_load_roundtrip () =
  let cfg, seed, error, rounds = find_failure () in
  let r = { Repro.config = cfg; seed; error; rounds } in
  with_temp_file (fun path ->
      Repro.save path r;
      match Repro.load path with
      | Error e -> Alcotest.fail e
      | Ok r' ->
          let c = r.Repro.config and c' = r'.Repro.config in
          Alcotest.(check bool) "factory" true (c.factory == c'.factory);
          Alcotest.(check int) "threads" c.threads c'.threads;
          Alcotest.(check int) "ops" c.ops_per_thread c'.ops_per_thread;
          let w = c.workload and w' = c'.workload in
          Alcotest.(check int) "find-pct" w.mix.find_pct w'.mix.find_pct;
          Alcotest.(check int) "key-range" w.key_range w'.key_range;
          Alcotest.(check int) "prefill" w.prefill_n w'.prefill_n;
          Alcotest.(check int) "max-crashes" c.max_crashes c'.max_crashes;
          Alcotest.(check int) "seed" r.Repro.seed r'.Repro.seed;
          Alcotest.(check string) "error" r.Repro.error r'.Repro.error;
          List.iter2
            (fun (a : Repro.round) (b : Repro.round) ->
              Alcotest.(check bool) "round kind" true (a.Repro.kind = b.Repro.kind);
              Alcotest.(check int) "round crash" a.Repro.crash_at b.Repro.crash_at;
              Alcotest.(check (array int))
                "round schedule" a.Repro.schedule b.Repro.schedule;
              Alcotest.(check bool) "round wb" true (a.Repro.wb = b.Repro.wb))
            r.Repro.rounds r'.Repro.rounds;
          match Crashes.replay r' with
          | Error e -> Alcotest.(check string) "loaded file replays" error e
          | Ok () -> Alcotest.fail "loaded repro did not reproduce")

(* pp/load round-trip over arbitrary well-formed repros: every value the
   printer can emit must load back identically. *)
let gen_repro =
  let open QCheck.Gen in
  let gen_round =
    let* kind = oneofl [ `Work; `Recover ] in
    let* crash_at = frequency [ (1, return (-1)); (3, int_range 1 200) ] in
    let* schedule = array_size (int_range 0 12) (int_range 0 7) in
    let* wb =
      oneof
        [
          return `Rng; return `Drop; return `All;
          map (fun k -> `Prefix k) (int_range 1 9);
        ]
    in
    return { Repro.kind; crash_at; schedule; wb }
  in
  let* algo = oneofl [ "tracking"; "tracking-broken"; "capsules-opt" ] in
  let* threads = int_range 1 8 in
  let* ops_per_thread = int_range 1 30 in
  let* find_pct = int_range 0 100 in
  let* key_range = int_range 1 128 in
  let* prefill_n = int_range 0 64 in
  let* max_crashes = int_range 1 6 in
  let* seed = int_range 0 10_000 in
  let* error =
    oneofl
      [
        "oracle: key 3: phantom response";
        "poison: touched never-persisted data: node:7";
        "invariant: order violation: 5 before 2";
      ]
  in
  let* rounds = list_size (int_range 0 6) gen_round in
  return
    {
      Repro.config =
        {
          factory = Result.get_ok (Set_intf.by_name algo);
          threads;
          ops_per_thread;
          workload =
            {
              Workload.mix = Workload.mix_of_find_pct find_pct;
              key_range;
              prefill_n;
              dist = Workload.Uniform;
            };
          max_crashes;
        };
      seed;
      error;
      rounds;
    }

let test_qcheck_pp_load_roundtrip () =
  let prop r =
    with_temp_file (fun path ->
        Repro.save path r;
        match Repro.load path with
        | Error e -> QCheck.Test.fail_reportf "load failed: %s" e
        | Ok r' ->
            (* the factory holds closures: compare it physically *)
            let plain { Repro.config = c; seed; error; rounds } =
              (c.threads, c.ops_per_thread, c.workload, c.max_crashes, seed,
               error, rounds)
            in
            r'.config.factory == r.config.factory && plain r' = plain r)
  in
  let cell =
    QCheck.Test.make ~count:200 ~name:"repro pp/load round-trip"
      (QCheck.make gen_repro ~print:(fun r -> Format.asprintf "%a" Repro.pp r))
      prop
  in
  QCheck.Test.check_exn cell

(* Malformed files must be rejected with an error, never silently
   accepted: a vacuous config "replays" successfully while reproducing
   nothing. *)
let test_malformed_corpus () =
  let header =
    "tracking-nvm-repro v1\nalgo tracking\nthreads 2\nops-per-thread 3\n\
     find-pct 30\nkey-range 8\nprefill 4\nmax-crashes 2\nseed 7\nerror x\n"
  in
  let cases =
    [
      ("empty file", "");
      ("bad magic", "some-other-format v9\n" ^ header);
      ("missing algo", "tracking-nvm-repro v1\nthreads 2\nops-per-thread 3\n\
                        find-pct 30\nkey-range 8\nprefill 4\nmax-crashes 2\n\
                        seed 7\nerror x\n");
      ("zero threads", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo tracking"; "threads 0";
           "ops-per-thread 3"; "find-pct 30"; "key-range 8"; "prefill 4";
           "max-crashes 2"; "seed 7"; "error x"; "" ]);
      ("zero ops-per-thread", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo tracking"; "threads 2";
           "ops-per-thread 0"; "find-pct 30"; "key-range 8"; "prefill 4";
           "max-crashes 2"; "seed 7"; "error x"; "" ]);
      ("zero key-range", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo tracking"; "threads 2";
           "ops-per-thread 3"; "find-pct 30"; "key-range 0"; "prefill 4";
           "max-crashes 2"; "seed 7"; "error x"; "" ]);
      ("zero max-crashes", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo tracking"; "threads 2";
           "ops-per-thread 3"; "find-pct 30"; "key-range 8"; "prefill 4";
           "max-crashes 0"; "seed 7"; "error x"; "" ]);
      ("negative prefill", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo tracking"; "threads 2";
           "ops-per-thread 3"; "find-pct 30"; "key-range 8"; "prefill -1";
           "max-crashes 2"; "seed 7"; "error x"; "" ]);
      ("find-pct out of range", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo tracking"; "threads 2";
           "ops-per-thread 3"; "find-pct 140"; "key-range 8"; "prefill 4";
           "max-crashes 2"; "seed 7"; "error x"; "" ]);
      ("threads above the thread limit", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo tracking"; "threads 63";
           "ops-per-thread 3"; "find-pct 30"; "key-range 8"; "prefill 4";
           "max-crashes 2"; "seed 7"; "error x"; "" ]);
      ("queue-model algorithm", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo tracking-topic"; "threads 2";
           "ops-per-thread 3"; "find-pct 30"; "key-range 8"; "prefill 4";
           "max-crashes 2"; "seed 7"; "error x"; "" ]);
      ("unknown algorithm", String.concat "\n"
         [ "tracking-nvm-repro v1"; "algo nope"; "threads 2";
           "ops-per-thread 3"; "find-pct 30"; "key-range 8"; "prefill 4";
           "max-crashes 2"; "seed 7"; "error x"; "" ]);
      ("unknown field", header ^ "wibble 3\n");
      ("duplicate key", header ^ "threads 4\n");
      ("bad integer", "tracking-nvm-repro v1\nalgo tracking\nthreads two\n");
      ("bad round kind", header ^ "round sleep 5 0,1\n");
      ("bad round crash point", header ^ "round work x 0,1\n");
      ("bad round schedule", header ^ "round work 5 0,one,2\n");
      ("bad round wb", header ^ "round work 5 0,1 sometimes\n");
      ("bad round wb prefix", header ^ "round work 5 0,1 prefix:0\n");
      ("truncated round line", header ^ "round work\n");
    ]
  in
  List.iter
    (fun (name, contents) ->
      with_temp_file (fun path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc contents);
          match Repro.load path with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s: accepted" name))
    cases

(* A hand-corrupted schedule must fail the replay with a divergence
   report — never silently re-randomize into a "successful" replay. *)
let test_corrupted_schedule_diverges () =
  let cfg, seed, error, rounds = find_failure () in
  let r = { Repro.config = cfg; seed; error; rounds } in
  let corrupt (rd : Repro.round) =
    (* tid 61 exists in no campaign here: the entry can never be honored *)
    let s = Array.copy rd.Repro.schedule in
    if Array.length s > 0 then s.(Array.length s / 2) <- 61;
    { rd with Repro.schedule = s }
  in
  let r = { r with Repro.rounds = List.map corrupt r.Repro.rounds } in
  match Crashes.replay r with
  | Ok () -> Alcotest.fail "corrupted replay claimed success"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the divergence (%s)" e)
        true
        (starts_with ~prefix:"schedule divergence" e)

(* A replay uses its whole tape: a round whose recorded schedule holds
   more or fewer decisions than the round takes is not the recorded
   execution, even when the recorded failure message comes out again. *)
let test_tape_length_diverges () =
  let cfg, seed, error, rounds = find_failure () in
  let r = { Repro.config = cfg; seed; error; rounds } in
  let edit_round0 f =
    {
      r with
      Repro.rounds =
        List.mapi
          (fun i (rd : Repro.round) ->
            if i = 0 then { rd with Repro.schedule = f rd.Repro.schedule }
            else rd)
          r.Repro.rounds;
    }
  in
  List.iter
    (fun (name, r, says) ->
      match Crashes.replay r with
      | Ok () -> Alcotest.failf "%s: replay passed" name
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: a divergence that %s (%s)" name says e)
            true
            (starts_with ~prefix:"schedule divergence" e
            && contains ~sub:says e))
    [
      ("long tape", edit_round0 (fun s -> Array.append s [| 0; 1; 0; 1 |]),
       "unused");
      ( "short tape",
        edit_round0 (fun s -> Array.sub s 0 (Array.length s - 1)),
        "no entry" );
    ]

(* Every campaign rule, through the one validator: each refusal is one
   line naming the field; the boundary values pass, and so does a
   crash-free campaign ([repro stats --crashes 0]). *)
let test_validate_names_each_field () =
  let base = broken_cfg ~threads:2 ~ops:3 in
  let workload f = { base with Crashes.workload = f base.Crashes.workload } in
  let find_pct p = workload (fun w -> { w with mix = Workload.mix_of_find_pct p }) in
  List.iter
    (fun (what, cfg) ->
      match Crashes.validate cfg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s refused: %s" what e)
    [
      ("base", base);
      ("crash-free", { base with max_crashes = 0 });
      ("thread limit", { base with threads = Pmem.max_threads });
      ("empty prefill", workload (fun w -> { w with prefill_n = 0 }));
      ("all finds", find_pct 100);
    ];
  List.iter
    (fun (field, cfg) ->
      match Crashes.validate cfg with
      | Ok () -> Alcotest.failf "%s accepted" field
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names %s on one line" e field)
            true
            (contains ~sub:field e && not (String.contains e '\n')))
    [
      ("threads", { base with threads = 0 });
      ("threads", { base with threads = Pmem.max_threads + 1 });
      ("ops-per-thread", { base with ops_per_thread = 0 });
      ("max-crashes", { base with max_crashes = -1 });
      ("key-range", workload (fun w -> { w with key_range = 0 }));
      ("prefill", workload (fun w -> { w with prefill_n = -1 }));
      ("find-pct", find_pct 101);
      ("dist", workload (fun w -> { w with dist = Workload.skewed 0.8 }));
      ("find-pct", find_pct (-1));
      ( "FIFO queue backend",
        { base with factory = Result.get_ok (Set_intf.by_name "tracking-topic") }
      );
    ]

let test_shrink_minimizes () =
  let cfg, seed, error, rounds = find_failure () in
  let r = { Repro.config = cfg; seed; error; rounds } in
  let s = Crashes.shrink r in
  let c = s.Repro.config in
  Alcotest.(check bool)
    (Printf.sprintf "threads shrunk to %d" c.threads)
    true (c.threads <= 2);
  Alcotest.(check bool)
    (Printf.sprintf "ops/thread shrunk to %d" c.ops_per_thread)
    true (c.ops_per_thread <= 4);
  (* the shrinker may only adopt probes failing with the original bug *)
  let error_class e =
    match String.index_opt e ':' with Some i -> String.sub e 0 i | None -> e
  in
  Alcotest.(check string) "shrunk error is the original bug"
    (error_class error) (error_class s.Repro.error);
  (* the shrunk repro is itself a faithful, replayable counterexample *)
  match Crashes.replay s with
  | Error e -> Alcotest.(check string) "shrunk failure replays" s.Repro.error e
  | Ok () -> Alcotest.fail "shrunk repro did not reproduce"

let test_trace_is_wellformed_jsonl () =
  with_temp_file (fun path ->
      let cfg = broken_cfg ~threads:2 ~ops:4 in
      Trace.with_file path (fun () ->
          ignore (Crashes.run_logged cfg ~seed:0));
      Alcotest.(check bool) "tracing off afterwards" false (Trace.active ());
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check bool) "trace not empty" true (List.length lines > 100);
      let scheds = ref 0 and pwbs = ref 0 and rounds = ref 0 and mem = ref 0 in
      List.iter
        (fun l ->
          Alcotest.(check bool) "one object per line" true
            (String.length l >= 2
            && l.[0] = '{'
            && l.[String.length l - 1] = '}');
          if starts_with ~prefix:{|{"ev":"sched"|} l then incr scheds;
          if starts_with ~prefix:{|{"ev":"pwb"|} l then incr pwbs;
          if starts_with ~prefix:{|{"ev":"round"|} l then incr rounds;
          if
            starts_with ~prefix:{|{"ev":"read"|} l
            || starts_with ~prefix:{|{"ev":"write"|} l
            || starts_with ~prefix:{|{"ev":"cas"|} l
          then incr mem)
        lines;
      Alcotest.(check bool) "sched events" true (!scheds > 0);
      Alcotest.(check bool) "pwb events" true (!pwbs > 0);
      Alcotest.(check bool) "round markers" true (!rounds > 0);
      Alcotest.(check bool) "memory events" true (!mem > 0))

let test_tracing_does_not_perturb () =
  (* Installing the tracer must not change the simulation: the virtual-
     time metrics of a traced run are identical to an untraced one. *)
  let wl = Workload.default Workload.update_intensive in
  let p0 = Runner.measure ~duration_ns:30_000. Set_intf.tracking ~threads:4 wl in
  let p1 =
    with_temp_file (fun path ->
        Trace.with_file path (fun () ->
            Runner.measure ~duration_ns:30_000. Set_intf.tracking ~threads:4 wl))
  in
  Alcotest.(check bool) "identical measurement" true (p0 = p1)

let test_good_variants_still_pass () =
  (* sanity: the negative control fails for its intended reason, not
     because the replay plumbing broke campaigns in general *)
  let cfg = { (broken_cfg ~threads:4 ~ops:10) with Crashes.factory = Set_intf.tracking } in
  for seed = 0 to 9 do
    match Crashes.run_logged cfg ~seed with
    | Ok _, _ -> ()
    | Error e, _ -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e)
  done

let suite =
  [
    Alcotest.test_case "broken variant replays bit-for-bit" `Quick
      test_broken_variant_replays;
    Alcotest.test_case "repro save/load roundtrip" `Quick
      test_save_load_roundtrip;
    Alcotest.test_case "qcheck pp/load round-trip" `Quick
      test_qcheck_pp_load_roundtrip;
    Alcotest.test_case "malformed repro files rejected" `Quick
      test_malformed_corpus;
    Alcotest.test_case "corrupted schedule fails loudly" `Quick
      test_corrupted_schedule_diverges;
    Alcotest.test_case "a tape longer or shorter than its round diverges"
      `Quick test_tape_length_diverges;
    Alcotest.test_case "campaign validator names each refused field" `Quick
      test_validate_names_each_field;
    Alcotest.test_case "shrinker minimizes the counterexample" `Quick
      test_shrink_minimizes;
    Alcotest.test_case "trace is well-formed JSONL" `Quick
      test_trace_is_wellformed_jsonl;
    Alcotest.test_case "tracing does not perturb the simulation" `Quick
      test_tracing_does_not_perturb;
    Alcotest.test_case "good variants still pass campaigns" `Quick
      test_good_variants_still_pass;
  ]
