(* Parallel campaign fan-out: the whole point of the per-domain substrate
   state is that [-j N] is byte-identical to [-j 1].  These tests lock
   that contract for each parallelized surface, plus the isolation and
   determinism properties it rests on. *)

let explore_cfg ~algo ~seed ~preemptions =
  Explore.
    {
      campaign =
        Crashes.
          {
            factory = Result.get_ok (Set_intf.by_name algo);
            threads = 2;
            ops_per_thread = 1;
            workload =
              {
                (Workload.default Workload.update_intensive) with
                key_range = 4;
                prefill_n = 1;
              };
            max_crashes = 1;
          };
      seed;
      preemptions;
      crashes = 1;
      wb_width = 2;
      max_execs = 0;
    }

let stats_tuple (s : Explore.stats) =
  ( s.Explore.executions,
    s.Explore.failures,
    s.Explore.decision_points,
    s.Explore.crash_points,
    s.Explore.wb_choices,
    s.Explore.pruned,
    s.Explore.complete )

(* A repro is compared through its saved byte representation — exactly
   what `repro explore -j N --repro FILE` writes. *)
let repro_bytes = function
  | None -> ""
  | Some r ->
      let f = Filename.temp_file "parallel_repro" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove f)
        (fun () ->
          Repro.save f r;
          let ic = open_in_bin f in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic)))

let test_explore_jobs_identical () =
  (* exhausted tree, no failures: stats must agree exactly *)
  let cfg = explore_cfg ~algo:"tracking" ~seed:1 ~preemptions:1 in
  let o1 = Explore.run ~stop_on_failure:false ~jobs:1 cfg in
  let o2 = Explore.run ~stop_on_failure:false ~jobs:2 cfg in
  let o4 = Explore.run ~stop_on_failure:false ~jobs:4 cfg in
  Alcotest.(check bool) "j1 tree exhausted" true o1.Explore.stats.complete;
  Alcotest.(check (list int))
    "j2 stats = j1 stats"
    (let a, b, c, d, e, f, _ = stats_tuple o1.Explore.stats in
     [ a; b; c; d; e; f ])
    (let a, b, c, d, e, f, _ = stats_tuple o2.Explore.stats in
     [ a; b; c; d; e; f ]);
  Alcotest.(check bool) "j2 complete" true o2.Explore.stats.complete;
  Alcotest.(check (list int))
    "j4 stats = j1 stats"
    (let a, b, c, d, e, f, _ = stats_tuple o1.Explore.stats in
     [ a; b; c; d; e; f ])
    (let a, b, c, d, e, f, _ = stats_tuple o4.Explore.stats in
     [ a; b; c; d; e; f ])

let test_explore_jobs_same_counterexample () =
  (* the broken variant: the first counterexample (and hence the repro
     file) must be bit-identical across -j values, keep-going or not *)
  let cfg = explore_cfg ~algo:"tracking-broken" ~seed:1 ~preemptions:0 in
  let check_pair label o1 oN =
    Alcotest.(check bool)
      (label ^ ": both found a failure")
      true
      (o1.Explore.failure <> None && oN.Explore.failure <> None);
    Alcotest.(check string)
      (label ^ ": repro bytes identical")
      (repro_bytes o1.Explore.failure)
      (repro_bytes oN.Explore.failure)
  in
  let o1 = Explore.run ~jobs:1 cfg in
  let o2 = Explore.run ~jobs:2 cfg in
  check_pair "stop-on-failure" o1 o2;
  let k1 = Explore.run ~stop_on_failure:false ~jobs:1 cfg in
  let k2 = Explore.run ~stop_on_failure:false ~jobs:2 cfg in
  check_pair "keep-going" k1 k2;
  Alcotest.(check int)
    "keep-going failure counts agree" k1.Explore.stats.failures
    k2.Explore.stats.failures

let test_causal_jobs_identical () =
  let factory = Result.get_ok (Set_intf.by_name "tracking") in
  let cfg =
    {
      (Causal.quick_config factory Workload.update_intensive) with
      Causal.threads = 3;
      ops_per_thread = 12;
      mechanisms = [ "pwb_latency"; "cas_drains_wb" ];
    }
  in
  let p1 = Causal.profile ~jobs:1 cfg in
  let p2 = Causal.profile ~jobs:3 cfg in
  Alcotest.(check string)
    "JSON byte-identical" (Causal.to_json p1) (Causal.to_json p2);
  Alcotest.(check string)
    "CSV byte-identical" (Causal.to_csv p1) (Causal.to_csv p2)

let store_cfg () =
  let factory = Result.get_ok (Set_intf.by_name "tracking") in
  {
    (Store.default_config factory) with
    Store.shards = 3;
    clients = 2;
    ops_per_client = 12;
    seed = 1;
  }

let test_store_explore_jobs_identical () =
  let go jobs = Store.explore ~dispatch_budget:6 ~jobs (store_cfg ()) in
  let o1 = go 1 and o2 = go 2 in
  Alcotest.(check bool) "stats" true (o1.Explore.stats = o2.Explore.stats);
  Alcotest.(check (option string))
    "first failure"
    (Option.map (fun r -> r.Store.error) o1.Explore.failure)
    (Option.map (fun r -> r.Store.error) o2.Explore.failure)

(* Two simulations interleaved on separate domains: each domain's Pmem
   machine owns its own write-pending queues, so neither run may
   observe the other's outstanding write-backs (the historical global
   queue array made this exact scenario corrupt both runs). *)
let test_interleaved_runs_isolated () =
  let site = Pstats.make Pwb "test_parallel.pwb" in
  let run_one tag =
    let h = Pmem.heap ~name:(Printf.sprintf "iso-%d" tag) () in
    let seen = ref (-1) in
    let body _tid =
      let c = Pmem.alloc h tag in
      (* several steps so the two domains' runs genuinely interleave *)
      for i = 1 to 20 do
        Pmem.write c (tag + i);
        Pmem.pwb_f site c;
        Sim.step 5.
      done;
      seen := Pmem.outstanding_writebacks 0
    in
    (match Sim.run ~seed:tag [| body |] with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    !seen
  in
  let d1 = Domain.spawn (fun () -> run_one 1000) in
  let d2 = Domain.spawn (fun () -> run_one 2000) in
  let w1 = Domain.join d1 and w2 = Domain.join d2 in
  (* each run issued 20 pwbs of one line with no sync: exactly its own
     pending entries are visible, none of the other domain's *)
  Alcotest.(check int) "domain 1 sees only its own write-backs" 20 w1;
  Alcotest.(check int) "domain 2 sees only its own write-backs" 20 w2

(* Work-item results are pure functions of (seed, index): completing
   items in a different order must leave every per-item result unchanged.
   This is the RNG-audit regression: any hidden shared Random.State
   would make results order-sensitive. *)
let test_completion_order_insensitive () =
  let item seed idx =
    let h = Pmem.heap ~name:(Printf.sprintf "perm-%d" idx) () in
    let acc = ref 0 in
    let body tid =
      let rng = Random.State.make [| seed; idx; tid |] in
      let c = Pmem.alloc h 0 in
      for _ = 1 to 10 do
        let v = Random.State.int rng 1000 in
        Pmem.write c v;
        Sim.step 1.;
        acc := !acc + Pmem.read c
      done
    in
    (match Sim.run ~seed:(seed + idx) [| body; body |] with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    !acc
  in
  let n = 8 in
  let forward = Array.init n (fun i -> item 42 i) in
  let backward = Array.init n (fun i -> item 42 (n - 1 - i)) in
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "item %d result independent of completion order" i)
      forward.(i)
      backward.(n - 1 - i)
  done;
  (* and the same items through the pool give the same results *)
  let pooled = Parallel.run ~jobs:2 (fun i () -> item 42 i) (Array.make n ()) in
  Alcotest.(check (array int)) "pooled = sequential" forward pooled

let test_parallel_run_basics () =
  (* merge is by index, not completion order *)
  let r =
    Parallel.run ~jobs:3 (fun i x -> (i * 10) + x) (Array.init 17 (fun i -> i))
  in
  Alcotest.(check (array int)) "indexed merge" (Array.init 17 (fun i -> i * 11)) r;
  (* lowest-index failure attribution *)
  let r = [| Ok 0; Error "a"; Ok 2; Error "b" |] in
  (match Parallel.first_failure Result.is_error r with
  | Some (1, Error "a") -> ()
  | _ -> Alcotest.fail "first_failure must pick the lowest index");
  (* exceptions propagate from the pool *)
  match
    Parallel.run ~jobs:2
      (fun i () -> if i >= 2 then failwith (string_of_int i) else i)
      (Array.make 6 ())
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "worker exception must propagate"

let suite =
  [
    Alcotest.test_case "parallel driver basics" `Quick test_parallel_run_basics;
    Alcotest.test_case "explore -j N = -j 1 (stats)" `Quick
      test_explore_jobs_identical;
    Alcotest.test_case "explore -j N = -j 1 (counterexample bytes)" `Quick
      test_explore_jobs_same_counterexample;
    Alcotest.test_case "causal -j N = -j 1 (JSON/CSV bytes)" `Quick
      test_causal_jobs_identical;
    Alcotest.test_case "store explore -j N = -j 1" `Quick
      test_store_explore_jobs_identical;
    Alcotest.test_case "interleaved runs on two domains are isolated" `Quick
      test_interleaved_runs_isolated;
    Alcotest.test_case "work items insensitive to completion order" `Quick
      test_completion_order_insensitive;
  ]
