(* Bounded exhaustive exploration: the correct implementation must
   survive the entire bounded tree of a tiny campaign; the negative
   control must be caught within the bound, and the emitted repro must
   replay bit-for-bit through the ordinary script path. *)

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

let test_tracking_survives_full_tree () =
  let o = Explore.run (explore_cfg ~algo:"tracking" ~seed:1 ~preemptions:1) in
  Alcotest.(check bool) "tree exhausted" true o.Explore.stats.Explore.complete;
  Alcotest.(check int) "no failures" 0 o.Explore.stats.Explore.failures;
  Alcotest.(check bool) "failure is absent" true (o.Explore.failure = None);
  (* the run actually explored something on every axis *)
  let s = o.Explore.stats in
  Alcotest.(check bool) "many executions" true (s.Explore.executions > 100);
  Alcotest.(check bool) "crash points seen" true (s.Explore.crash_points > 0);
  Alcotest.(check bool) "wb choices seen" true (s.Explore.wb_choices > 0);
  Alcotest.(check bool) "sched points seen" true
    (s.Explore.decision_points > 0)

let test_budget_reported_honestly () =
  let cfg =
    { (explore_cfg ~algo:"tracking" ~seed:1 ~preemptions:2) with
      Explore.max_execs = 10 }
  in
  let o = Explore.run cfg in
  Alcotest.(check int) "stopped at the budget" 10
    o.Explore.stats.Explore.executions;
  Alcotest.(check bool) "not claimed complete" false
    o.Explore.stats.Explore.complete

let test_broken_found_and_replays () =
  (* seed 1 makes one thread insert an absent key: the elided new-node
     pwb leaves the node never-persisted, and some crash point + wb
     choice makes it durably reachable — the explorer must find it
     without any preemption budget at all. *)
  let o =
    Explore.run (explore_cfg ~algo:"tracking-broken" ~seed:1 ~preemptions:0)
  in
  Alcotest.(check bool) "found a violation" true
    (o.Explore.stats.Explore.failures > 0);
  let r =
    match o.Explore.failure with
    | Some r -> r
    | None -> Alcotest.fail "no repro emitted"
  in
  Alcotest.(check string) "repro names the algo" "tracking-broken"
    r.Repro.algo;
  (* an explorer-found failure needs a deliberate write-back choice: the
     poisoned node is reachable only if its predecessor's post-CAS pwb
     survives the crash, which `Rng-free exploration expresses as an
     explicit resolution on the crashing round *)
  Alcotest.(check bool) "some round carries an explicit wb" true
    (List.exists (fun rd -> rd.Repro.wb <> `Rng) r.Repro.rounds);
  (* the repro replays through the ordinary script path, reproducing the
     identical failure; any schedule divergence would surface as a
     different error message *)
  match Crashes.replay r with
  | Error e -> Alcotest.(check string) "bit-for-bit" r.Repro.error e
  | Ok () -> Alcotest.fail "explorer repro did not reproduce"

(* crash-explore's tree (perfbench's crash-explore workload), and a
   two-crash tree whose executions reach checkpoints after a recovery
   round and crash again inside recovery.  The two-crash tree runs its
   first 1,000 executions (most of them crash twice): the whole
   tree is 30-36k executions per row, too many to replay each one. *)
let crash_explore_tree (f : Set_intf.factory) seed =
  Explore.
    {
      campaign =
        Crashes.
          {
            factory = f;
            threads = 2;
            ops_per_thread = 2;
            workload =
              {
                (Workload.default Workload.update_intensive) with
                key_range = 8;
                prefill_n = 2;
              };
            max_crashes = 1;
          };
      seed;
      preemptions = 0;
      crashes = 1;
      wb_width = 1;
      max_execs = 0;
    }

let two_crash_tree (f : Set_intf.factory) seed =
  let t = crash_explore_tree f seed in
  Explore.
    {
      t with
      campaign =
        {
          t.campaign with
          Crashes.ops_per_thread = 1;
          workload =
            { t.campaign.Crashes.workload with key_range = 4; prefill_n = 1 };
          max_crashes = 2;
        };
      (* one preemption, so resumes must restore the explorer's budget;
         romulus and redo-opt livelock on a preempted lock holder (their
         waiter spins until the step budget runs out), so they keep 0 *)
      preemptions =
        (if List.mem f.fname [ "romulus"; "redo-opt" ] then 0 else 1);
      crashes = 2;
      max_execs = 1000;
    }

(* Every execution the explorer runs — most of them resumed from a
   checkpoint of an earlier execution — must return what a fresh build
   replaying its round log returns: the same verdict and the same round
   log, on every crash-capable set-model row. *)
let test_checkpointed_equal_fresh () =
  let rows =
    List.filter
      (fun (f : Set_intf.factory) ->
        f.supports_crash && f.model = Set_intf.Set_model)
      Set_intf.all
  in
  List.iter
    (fun (f : Set_intf.factory) ->
      List.iter
        (fun seed ->
          List.iter
            (fun (shape, (cfg : Explore.config)) ->
              let n = ref 0 and differ = ref 0 in
              let on_execution result rounds =
                incr n;
                let fresh =
                  Crashes.run_logged ~script:rounds cfg.Explore.campaign ~seed
                in
                if fresh <> (result, rounds) then incr differ
              in
              ignore
                (Explore.run ~stop_on_failure:false ~on_execution cfg
                  : Repro.t Explore.outcome);
              if !differ > 0 then
                Alcotest.failf
                  "%s seed %d, %s tree: %d of %d executions differ from a \
                   fresh replay"
                  f.fname seed shape !differ !n)
            [
              ("crash-explore", crash_explore_tree f seed);
              ("two-crash", two_crash_tree f seed);
            ])
        [ 1; 2 ])
    rows

(* The work an explored execution costs, measured deterministically:
   mean minor words and Sim dispatches per execution on crash-explore's
   tree (seeds 1 and 2), against budgets that only move down.  When
   every execution restarted from the post-prefill state it cost
   tracking 9,520.1 words and 176.97 dispatches, memento-list 6,366.7
   and 112.20; resuming from checkpoints cut that to 2,314.5 and 108.73,
   1,725.1 and 63.73.  The budgets are the figures measured once forced
   scheduling decisions stopped taking a path frame and a [choose] call
   and [Sim.run] kept one engine per domain.  A rise of more than 2%
   fails; a change that lowers them commits the new figures. *)
let test_work_per_execution () =
  List.iter
    (fun (name, budget_words, budget_dispatches) ->
      let f = Result.get_ok (Set_intf.by_name name) in
      let run seed =
        (Explore.run ~stop_on_failure:false (crash_explore_tree f seed))
          .Explore.stats
          .Explore.executions
      in
      ignore (run 1 : int);
      let w0 = Gc.minor_words () in
      let execs = run 1 + run 2 in
      let words = (Gc.minor_words () -. w0) /. float_of_int execs in
      let n = ref 0 in
      let count = function Sim.Engine (Sim.Sched _) -> incr n | _ -> () in
      Sim.subscribe count;
      Fun.protect
        ~finally:(fun () -> Sim.unsubscribe count)
        (fun () -> ignore (run 1 + run 2 : int));
      let dispatches = float_of_int !n /. float_of_int execs in
      Printf.printf "%s: %.1f words, %.2f dispatches per execution\n%!" name
        words dispatches;
      if words > 1.02 *. budget_words then
        Alcotest.failf "%s: %.1f minor words per execution (budget %.1f)" name
          words budget_words;
      if dispatches > 1.02 *. budget_dispatches then
        Alcotest.failf "%s: %.2f dispatches per execution (budget %.2f)" name
          dispatches budget_dispatches)
    [ ("tracking", 1940.7, 108.73); ("memento-list", 1361.6, 63.73) ]

let suite =
  [
    Alcotest.test_case "tracking survives the full bounded tree" `Quick
      test_tracking_survives_full_tree;
    Alcotest.test_case "execution budget reported honestly" `Quick
      test_budget_reported_honestly;
    Alcotest.test_case "broken variant found and replays" `Quick
      test_broken_found_and_replays;
    Alcotest.test_case "checkpointed executions equal fresh replays" `Quick
      test_checkpointed_equal_fresh;
    Alcotest.test_case "checkpoints cut work per execution" `Quick
      test_work_per_execution;
  ]
