(* The elastic store: pinned router placement (the determinism contract
   of router.mli), live shard-split migration with detectable handoff,
   correlated crashes of the migration endpoints, replica failover, and
   multi-structure backends. *)

let factory name = Result.get_ok (Set_intf.by_name name)

let small_workload ~keys =
  {
    (Workload.default Workload.update_intensive) with
    key_range = keys;
    prefill_n = keys / 2;
  }

let cfg ?(algo = "tracking") ?(shards = 2) ?(clients = 2) ?(ops = 40)
    ?(keys = 32) () =
  {
    (Store.default_config (factory algo)) with
    shards;
    clients;
    ops_per_client = ops;
    workload = small_workload ~keys;
  }

let migrate ?(m_after = 5) ?(m_broken = false) msrc =
  Some { Store.msrc; m_after; m_broken }

let run_ok c =
  match Store.run c with Ok r -> r | Error e -> Alcotest.fail e

let shard_stat r sid =
  List.find (fun s -> s.Slo.ss_sid = sid) r.Slo.shards

(* -- router determinism contract ------------------------------------------ *)

(* Golden placements, frozen.  Every committed serve repro file encodes
   prefill routing and crash points that assume these exact values
   (SplitMix64 finalizer + mod, see router.mli): if this test fails, the
   mixing constants changed and every committed repro is corrupt. *)
let test_router_golden_placements () =
  List.iter
    (fun (k, at2, at4) ->
      Alcotest.(check int)
        (Printf.sprintf "route ~shards:2 %d" k)
        at2
        (Router.route ~shards:2 k);
      Alcotest.(check int)
        (Printf.sprintf "route ~shards:4 %d" k)
        at4
        (Router.route ~shards:4 k))
    [
      (1, 1, 3);
      (2, 0, 0);
      (3, 1, 3);
      (5, 1, 3);
      (8, 0, 0);
      (13, 1, 3);
      (21, 1, 3);
      (42, 0, 2);
      (100, 0, 2);
      (1000, 0, 2);
    ];
  (* the split plan is equally pinned: bit 20 of the same mix *)
  let plan =
    List.filter (Router.splits ~shards:2 ~src:0) (List.init 32 (fun i -> i + 1))
  in
  Alcotest.(check (list int))
    "split plan of shard 0 (2 shards, keys 1..32)"
    [ 2; 6; 8; 12; 18; 19; 24; 29 ]
    plan;
  (* a plan key is necessarily owned by its source *)
  for k = 1 to 1000 do
    if Router.splits ~shards:2 ~src:0 k then
      Alcotest.(check int)
        (Printf.sprintf "plan key %d owned by src" k)
        0
        (Router.route ~shards:2 k)
  done

let test_router_two_phase_ownership () =
  let t = Router.create ~shards:2 in
  Alcotest.(check int) "fresh version" 0 (Router.version t);
  Alcotest.(check int) "base count" 2 (Router.shard_count t);
  Alcotest.(check bool) "no plan before split" false (Router.plan_mem t 2);
  (* migrate shard 0; pretend only key 2's handoff committed *)
  let dst = Router.begin_split t ~src:0 ~moved:(fun k -> k = 2) in
  Alcotest.(check int) "dst is the fresh shard" 2 dst;
  Alcotest.(check int) "version bumped" 1 (Router.version t);
  Alcotest.(check int) "count includes dst" 3 (Router.shard_count t);
  Alcotest.(check bool) "plan key recognized" true (Router.plan_mem t 2);
  Alcotest.(check int) "moved plan key serves at dst" dst (Router.owner t 2);
  Alcotest.(check int) "unmoved plan key still at src" 0 (Router.owner t 6);
  Alcotest.(check int) "non-plan key routes base" 1 (Router.owner t 1);
  Router.finish_split t;
  Alcotest.(check int) "version bumped again" 2 (Router.version t);
  Alcotest.(check int) "finished: plan key at dst" dst (Router.owner t 6);
  Alcotest.(check bool) "double split rejected" true
    (match Router.begin_split t ~src:0 ~moved:(fun _ -> false) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -- migration under live traffic ----------------------------------------- *)

let test_migration_clean_completion () =
  let c = { (cfg ()) with Store.migrate = migrate 0 } in
  let r = run_ok c in
  (* Store.run errors on an unfinished migration, resident keys in the
     wrong shard, or a union-conservation violation — reaching here IS
     the every-key-in-exactly-one-shard proof for this schedule *)
  Alcotest.(check int) "all completed"
    (c.Store.clients * c.Store.ops_per_client)
    r.Slo.completed;
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  Alcotest.(check int) "dst shard reported" 3 (List.length r.Slo.shards);
  let dst = shard_stat r 2 in
  Alcotest.(check bool) "dst holds migrated residents" true
    (dst.Slo.ss_keys > 0);
  let src = shard_stat r 0 in
  Alcotest.(check bool) "guard actually forwarded or deferred" true
    (src.Slo.ss_forwarded + src.Slo.ss_deferred > 0
    || dst.Slo.ss_served > 0);
  Alcotest.(check bool) "balance measurable" true (r.Slo.balance <> None)

let test_migration_balance_gate () =
  let c = { (cfg ()) with Store.migrate = migrate 0 } in
  let r = run_ok c in
  (match Slo.check ~balance_max:64. ~crash_expected:false r with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("lenient balance gate refused: " ^ e));
  (* resident-key ratios are >= 1 by construction: an impossible bound
     must fail loudly, proving the gate actually reads the report *)
  match Slo.check ~balance_max:0.5 ~crash_expected:false r with
  | Ok () -> Alcotest.fail "impossible balance bound accepted"
  | Error e ->
      Alcotest.(check bool) "error names the imbalance" true
        (String.length e >= 10 && String.sub e 0 10 = "imbalanced")

let test_migration_survives_source_crash () =
  let c =
    {
      (cfg ()) with
      Store.migrate = migrate 0;
      crash = Some (Store.After_requests { victim = 0; requests = 20 });
    }
  in
  let r = run_ok c in
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  let src = shard_stat r 0 in
  Alcotest.(check bool) "source crashed" true (src.Slo.ss_crashes >= 1)

(* Correlated power loss of BOTH migration endpoints, each heap's
   write-backs resolved independently and adversarially (drop vs all).
   The migration journal lives on the destination heap; the data it
   moves lives on both — recovery must still converge. *)
let test_migration_both_endpoint_power_loss () =
  let c =
    {
      (cfg ~clients:4 ()) with
      Store.migrate = migrate 0;
      crash = Some (Store.Both_at_dispatch { a = 0; b = 2; dispatch = 12 });
      wb = `Drop;
      wb2 = Some `All;
    }
  in
  let r = run_ok c in
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  Alcotest.(check bool) "source crashed" true
    ((shard_stat r 0).Slo.ss_crashes >= 1);
  Alcotest.(check bool) "destination crashed" true
    ((shard_stat r 2).Slo.ss_crashes >= 1)

let test_cascade_crash () =
  let c =
    {
      (cfg ~clients:4 ~ops:60 ()) with
      Store.crash = Some (Store.Cascade { first = 0; second = 1; dispatch = 10 });
    }
  in
  let r = run_ok c in
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  Alcotest.(check int) "all completed" 240 r.Slo.completed;
  Alcotest.(check bool) "first victim crashed" true
    ((shard_stat r 0).Slo.ss_crashes >= 1);
  Alcotest.(check bool) "second victim crashed during recovery" true
    ((shard_stat r 1).Slo.ss_crashes >= 1)

(* -- replica failover ------------------------------------------------------ *)

let test_failover_promotion () =
  let c =
    {
      (cfg ()) with
      Store.replicate = true;
      crash = Some (Store.After_requests { victim = 0; requests = 20 });
    }
  in
  let r = run_ok c in
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  let v = shard_stat r 0 in
  Alcotest.(check bool) "crash resolved by promotion" true
    (v.Slo.ss_promotions >= 1);
  Alcotest.(check bool) "failover window recorded" true
    (v.Slo.ss_failover_ns <> []);
  (* the point of replication: promotion beats a cold restart *)
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "failover window %.0f ns under restart latency" w)
        true (w < c.Store.restart_ns))
    v.Slo.ss_failover_ns

(* -- multi-structure backends ---------------------------------------------- *)

let test_mixed_backends_with_crash () =
  let c =
    {
      (cfg ()) with
      Store.backends =
        Some [| factory "tracking"; factory "tracking-topic" |];
      crash = Some (Store.After_requests { victim = 1; requests = 20 });
    }
  in
  let r = run_ok c in
  (* the FIFO-model oracle ran over the topic shard inside Store.run *)
  Alcotest.(check int) "zero lost" 0 r.Slo.lost;
  Alcotest.(check string) "shard 1 is the topic" "tracking-topic"
    (shard_stat r 1).Slo.ss_backend;
  Alcotest.(check bool) "topic shard crashed and served" true
    ((shard_stat r 1).Slo.ss_crashes >= 1 && (shard_stat r 1).Slo.ss_served > 0)

(* -- crash-point exploration over a migration ------------------------------ *)

let explore_cfg ~m_broken =
  {
    (cfg ~ops:16 ~keys:16 ()) with
    Store.migrate = migrate ~m_after:3 ~m_broken 0;
  }

let test_explore_migration_clean () =
  match Store.explore ~dispatch_budget:200 ~jobs:4 (explore_cfg ~m_broken:false) with
  | Error e -> Alcotest.fail e
  | Ok st ->
      Alcotest.(check int) "no failures across all crash points" 0
        st.Store.ex_failures;
      Alcotest.(check bool) "crash points fired" true (st.Store.ex_fired > 0);
      (* the sweep must cover the source, the destination AND the
         correlated both-endpoints campaign *)
      Alcotest.(check (array string)) "victim specs"
        [| "shard0"; "shard2"; "shard0+shard2" |]
        (Array.map fst st.Store.ex_max_dispatch);
      Array.iter
        (fun (label, d) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s explored" label)
            true (d > 0))
        st.Store.ex_max_dispatch

(* The negative control: eliding the handoff-commit pwb loses keys from
   BOTH shards under a destination crash.  The sweep must catch it, and
   the counterexample must round-trip through a serve repro file and
   replay to the identical bare error. *)
let test_explore_catches_broken_handoff () =
  match Store.explore ~dispatch_budget:200 ~jobs:4 (explore_cfg ~m_broken:true) with
  | Error e -> Alcotest.fail e
  | Ok st -> (
      Alcotest.(check bool) "failures found" true (st.Store.ex_failures > 0);
      match st.Store.ex_first_cex with
      | None -> Alcotest.fail "failures counted but no counterexample captured"
      | Some (cex, sched, bare) -> (
          Alcotest.(check bool) "counterexample kept the broken plan" true
            (match cex.Store.migrate with
            | Some m -> m.Store.m_broken
            | None -> false);
          let r =
            { Store_repro.config = cex; error = bare; schedule = sched }
          in
          match Store_repro.replay r with
          | Error e ->
              Alcotest.(check string) "replay reproduces the bare error" bare e
          | Ok () -> Alcotest.fail "counterexample replayed clean"))

(* -- serve repro files: elastic fields ------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "tracking-nvm-elastic" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_repro_elastic_fields_roundtrip () =
  let c =
    {
      (cfg ()) with
      Store.backends = Some [| factory "tracking"; factory "tracking-topic" |];
      crash = Some (Store.Both_at_dispatch { a = 0; b = 2; dispatch = 9 });
      wb = `Drop;
      wb2 = Some (`Prefix 2);
      replicate = true;
      failover_ns = 750.;
      migrate = migrate ~m_after:7 ~m_broken:true 0;
    }
  in
  let r =
    { Store_repro.config = c; error = "synthetic"; schedule = [| 1; 2; 3 |] }
  in
  with_temp_file (fun path ->
      Store_repro.save path r;
      match Store_repro.load path with
      | Error e -> Alcotest.fail ("load: " ^ e)
      | Ok r' ->
          let c' = r'.Store_repro.config in
          Alcotest.(check bool) "crash plan survives" true
            (c'.Store.crash = c.Store.crash);
          Alcotest.(check bool) "wb2 survives" true
            (c'.Store.wb2 = Some (`Prefix 2));
          Alcotest.(check bool) "backends survive" true
            (Option.map
               (Array.map (fun f -> f.Set_intf.fname))
               c'.Store.backends
            = Some [| "tracking"; "tracking-topic" |]);
          Alcotest.(check bool) "replicate survives" true c'.Store.replicate;
          Alcotest.(check (float 0.)) "failover-ns survives" 750.
            c'.Store.failover_ns;
          Alcotest.(check bool) "migrate plan survives" true
            (c'.Store.migrate = c.Store.migrate);
          Alcotest.(check bool) "config round-trips the plan" true
            (c'.Store.migrate = c.Store.migrate
            && c'.Store.wb2 = c.Store.wb2
            && c'.Store.replicate))

(* Pre-elastic serve repro files carry none of the new fields — they
   must still load, with the documented defaults. *)
let test_repro_pre_elastic_files_still_parse () =
  let r =
    { Store_repro.config = cfg (); error = "synthetic"; schedule = [||] }
  in
  with_temp_file (fun path ->
      Store_repro.save path r;
      let legacy_keys = [ "wb2"; "backends"; "replicate"; "failover-ns"; "migrate" ] in
      let keeps line =
        not
          (List.exists
             (fun k ->
               let p = k ^ " " in
               String.length line >= String.length p
               && String.sub line 0 (String.length p) = p)
             legacy_keys)
      in
      let lines =
        List.filter keeps
          (In_channel.with_open_text path In_channel.input_lines)
      in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
      match Store_repro.load path with
      | Error e -> Alcotest.fail ("pre-elastic file rejected: " ^ e)
      | Ok r' ->
          let c' = r'.Store_repro.config in
          Alcotest.(check bool) "defaults applied" true
            (c'.Store.wb2 = None
            && c'.Store.backends = None
            && (not c'.Store.replicate)
            && c'.Store.failover_ns = 500.
            && c'.Store.migrate = None))

let suite =
  [
    Alcotest.test_case "router: golden placements pinned" `Quick
      test_router_golden_placements;
    Alcotest.test_case "router: two-phase split ownership" `Quick
      test_router_two_phase_ownership;
    Alcotest.test_case "migration completes under live traffic" `Quick
      test_migration_clean_completion;
    Alcotest.test_case "migration balance gate" `Quick
      test_migration_balance_gate;
    Alcotest.test_case "migration survives a source crash" `Quick
      test_migration_survives_source_crash;
    Alcotest.test_case "both-endpoint power loss converges" `Quick
      test_migration_both_endpoint_power_loss;
    Alcotest.test_case "cascade: second crash inside first recovery" `Quick
      test_cascade_crash;
    Alcotest.test_case "replica failover beats restart" `Quick
      test_failover_promotion;
    Alcotest.test_case "mixed backends under crash" `Quick
      test_mixed_backends_with_crash;
    Alcotest.test_case "explore: clean migration proves exactly-one-shard"
      `Quick test_explore_migration_clean;
    Alcotest.test_case "explore: broken handoff caught and repro'd" `Quick
      test_explore_catches_broken_handoff;
    Alcotest.test_case "serve repro: elastic fields round-trip" `Quick
      test_repro_elastic_fields_roundtrip;
    Alcotest.test_case "serve repro: pre-elastic files parse" `Quick
      test_repro_pre_elastic_files_still_parse;
  ]
