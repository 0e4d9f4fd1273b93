(* Crash forensics: the postmortems attached to failing campaigns must
   name the elided persist site and the cache line it failed to flush —
   for both negative controls — must never fire on healthy variants, and
   must be byte-deterministic (the `repro explain` contract). *)

let explore_cfg ~algo ~threads ~ops ~keys ~prefill ~seed =
  Explore.
    {
      campaign =
        Crashes.
          {
            factory = Result.get_ok (Set_intf.by_name algo);
            threads;
            ops_per_thread = ops;
            workload =
              {
                (Workload.default Workload.update_intensive) with
                key_range = keys;
                prefill_n = prefill;
              };
            max_crashes = 1;
          };
      seed;
      preemptions = 0;
      crashes = 1;
      wb_width = 2;
      max_execs = 0;
    }

(* The same configurations the explore smoke tests use to catch each
   negative control; the repros shipped under repros/ were generated
   from exactly these. *)
let tracking_broken_cfg =
  explore_cfg ~algo:"tracking-broken" ~threads:2 ~ops:1 ~keys:4 ~prefill:1
    ~seed:1

let memento_broken_cfg =
  explore_cfg ~algo:"memento-broken" ~threads:1 ~ops:3 ~keys:3 ~prefill:0
    ~seed:0

let failing_repro cfg =
  let o = Explore.run cfg in
  match o.Explore.failure with
  | Some r -> r
  | None -> Alcotest.fail "exploration found no failure"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains what needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: %S not found in:\n%s" what needle hay

(* -- golden postmortems for the negative controls ------------------------- *)

let test_tracking_broken_postmortem () =
  let r = failing_repro tracking_broken_cfg in
  match Crashes.explain r with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok pm ->
      let text = Forensics.render_text pm in
      (* the elided flush site is named as disabled, and the culprit
         analysis points at it *)
      Alcotest.(check (list string))
        "disabled site" [ "rlist-broken.new.pwb" ]
        (Forensics.disabled_sites pm);
      check_contains "culprit names the site" "rlist-broken.new.pwb" text;
      (* the dropped cache line: the new node that never persisted *)
      check_contains "never-persisted line" "never persisted" text;
      check_contains "culprit names the line"
        "the failure touched never-persisted line node:4" text;
      check_contains "flush history" "no write-back was ever issued" text;
      check_contains "lineage present" "-- operation lineage" text

let test_memento_broken_postmortem () =
  let r = failing_repro memento_broken_cfg in
  match Crashes.explain r with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok pm ->
      let text = Forensics.render_text pm in
      Alcotest.(check (list string))
        "disabled site" [ "mmt-broken.cp.pwb" ]
        (Forensics.disabled_sites pm);
      check_contains "culprit names the site" "mmt-broken.cp.pwb" text;
      (* the checkpoint lines silently reverted to stale durable values
         — the durable-vs-volatile diff must say so, with the writer
         attributed as of the crash, not the end of the run *)
      check_contains "stale revert reported"
        "reverted to a stale durable value" text;
      check_contains "diff section"
        "reverted to older durable values" text;
      check_contains "writer attribution" "insert key 3" text

(* -- the variant table on the crash-explore tree --------------------------- *)

(* The persist sites a row's [make] leaves disabled: its elided site, if
   it has one. *)
let elided (f : Set_intf.factory) =
  Pstats.set_all_enabled true;
  ignore (f.make (Pmem.heap ~track_for_crash:false ()) ~threads:2 : Set_intf.t);
  let off =
    List.filter_map
      (fun s -> if Pstats.enabled s then None else Some (Pstats.name s))
      (Pstats.sites ())
  in
  Pstats.set_all_enabled true;
  off

(* Every crash-capable set-model row on the tree `make output-golden`
   explores (2 threads x 2 ops, keys 8, prefill 2, no preemptions, one
   crash, write-back width 1): a row with an elided site must fail, with
   exactly that site named as disabled; every other row must exhaust the
   tree. *)
let test_variant_table () =
  let controls = ref [] in
  List.iter
    (fun (f : Set_intf.factory) ->
      if f.supports_crash && f.model = Set_intf.Set_model then begin
        let cfg =
          {
            (explore_cfg ~algo:f.fname ~threads:2 ~ops:2 ~keys:8 ~prefill:2
               ~seed:0)
            with
            Explore.wb_width = 1;
          }
        in
        let o = Explore.run cfg in
        match (elided f, o.Explore.failure) with
        | [], None ->
            Alcotest.(check bool)
              (f.fname ^ " exhausts the tree")
              true o.Explore.stats.Explore.complete
        | [], Some r -> Alcotest.failf "%s failed: %s" f.fname r.Repro.error
        | _ :: _, None -> Alcotest.failf "%s: elided site not caught" f.fname
        | sites, Some r -> (
            controls := f.fname :: !controls;
            match Crashes.explain r with
            | Error e -> Alcotest.failf "%s: explain failed: %s" f.fname e
            | Ok pm ->
                Alcotest.(check (list string))
                  (f.fname ^ " disabled sites")
                  sites (Forensics.disabled_sites pm))
      end)
    Set_intf.all;
  Alcotest.(check (list string))
    "negative controls" [ "tracking-broken"; "memento-broken" ]
    (List.rev !controls)

(* -- healthy variants never produce a postmortem -------------------------- *)

let campaign ~algo ~threads ~ops ~keys ~crashes =
  Crashes.
    {
      factory = Result.get_ok (Set_intf.by_name algo);
      threads;
      ops_per_thread = ops;
      workload =
        {
          (Workload.default Workload.update_intensive) with
          key_range = keys;
          prefill_n = keys / 2;
        };
      max_crashes = crashes;
    }

let healthy_cfg ~algo = campaign ~algo ~threads:3 ~ops:6 ~keys:8 ~crashes:2

(* A postmortem is built only for a failing run, so a healthy variant
   yields none exactly when its runs pass with the recorder attached. *)
let prop_healthy_no_postmortem =
  QCheck2.Test.make ~name:"healthy variants yield zero postmortems"
    ~count:30
    QCheck2.Gen.(
      pair (oneofl [ "tracking"; "memento-list"; "memento-comb" ])
        (int_bound 1000))
    (fun (algo, seed) ->
      Forensics.start ();
      Fun.protect ~finally:Forensics.stop (fun () ->
          match Crashes.run_logged (healthy_cfg ~algo) ~seed with
          | Ok _, _ -> true
          | Error e, _ ->
              QCheck2.Test.fail_reportf "%s seed %d failed: %s" algo seed e))

(* -- determinism: explain twice, byte-identical --------------------------- *)

let test_explain_byte_identical () =
  let r = failing_repro memento_broken_cfg in
  let once () =
    match Crashes.explain r with
    | Ok pm -> (Forensics.render_text pm, Forensics.render_json pm)
    | Error e -> Alcotest.failf "explain failed: %s" e
  in
  let t1, j1 = once () in
  let t2, j2 = once () in
  Alcotest.(check string) "text byte-identical" t1 t2;
  Alcotest.(check string) "json byte-identical" j1 j2;
  (* and the JSON names the same culprit site *)
  check_contains "json culprit" "mmt-broken.cp.pwb" j1

(* -- each fate pairs with its own pwb ------------------------------------- *)

let pairing_pwb = Pstats.make Pstats.Pwb "test.pairing.pwb"
let pairing_sync = Pstats.make Pstats.Psync "test.pairing.psync"

(* [Pmem.reset_pending] drops a write-back without a fate: a later pwb of
   the same line by the same thread must meet its own fate, not stay
   outstanding behind the discarded one. *)
let test_fate_pairs_with_own_pwb () =
  Pstats.set_all_enabled true;
  Forensics.start ();
  Fun.protect ~finally:Forensics.stop (fun () ->
      let cell = Pmem.alloc ~name:"cell:7" (Pmem.heap ~name:"pairing" ()) 0 in
      Pmem.pwb_f pairing_pwb cell;
      Pmem.reset_pending ();
      let op (_ : int) =
        Events.op_begin ~kind:"insert" ~key:7;
        Pmem.write cell 1;
        Pmem.pwb_f pairing_pwb cell;
        Pmem.psync pairing_sync;
        Events.op_end ~ok:true
      in
      ignore (Sim.run [| op |] : Sim.outcome);
      let pm =
        Forensics.build ~algo:"pairing" ~seed:0 ~error:"oracle: key 7: lost"
      in
      check_contains "the op's pwb drained"
        "pwb cell:7 (site test.pairing.pwb) -> drained"
        (Forensics.render_text pm))

(* A line's write-back history is in issue order: the pwb issued
   outside any op (a prefill's) and discarded by [Pmem.reset_pending]
   comes before the op's later pwb of the same line, which is the one
   the history names last. *)
let order_prefill_pwb = Pstats.make Pstats.Pwb "test.order.prefill.pwb"
let order_op_pwb = Pstats.make Pstats.Pwb "test.order.op.pwb"

let test_history_in_issue_order () =
  Pstats.set_all_enabled true;
  Forensics.start ();
  Fun.protect ~finally:Forensics.stop (fun () ->
      let cell = Pmem.alloc ~name:"cell:9" (Pmem.heap ~name:"order" ()) 0 in
      Pmem.pwb_f order_prefill_pwb cell;
      Pmem.reset_pending ();
      let op (_ : int) =
        Events.op_begin ~kind:"insert" ~key:9;
        Pmem.write cell 1;
        Pmem.pwb_f order_op_pwb cell;
        Pmem.psync pairing_sync;
        Events.op_end ~ok:true
      in
      ignore (Sim.run [| op |] : Sim.outcome);
      let pm =
        Forensics.build ~algo:"order" ~seed:0
          ~error:"touched never-persisted data: cell:9"
      in
      check_contains "the op's pwb is the last"
        "2 write-back(s) issued; last from site test.order.op.pwb in round 0 \
         — drained"
        (Forensics.render_text pm))

(* -- a crash is described as of the crash --------------------------------- *)

let rule_pwb = Pstats.make Pstats.Pwb "test.rule.pwb"

(* Record [body] and build the postmortem of a failure on key 5. *)
let recorded body =
  Pstats.set_all_enabled true;
  Forensics.start ();
  Fun.protect ~finally:Forensics.stop (fun () ->
      body ();
      Forensics.build ~algo:"rules" ~seed:0 ~error:"oracle: key 5: lost")

(* One operation on key 5 of tid 0, as the run's only fiber. *)
let op5 body =
  ignore
    (Sim.run
       [|
         (fun (_ : int) ->
           Events.op_begin ~kind:"insert" ~key:5;
           body ();
           Events.op_end ~ok:true);
       |]
      : Sim.outcome)

(* A store shard's crash has no round, so nothing bounds it but the
   moment it happens: op #1's write and drained write-back come after
   the crash and must not be what explains it. *)
let test_heap_crash_described_at_crash () =
  let pm =
    recorded (fun () ->
        let heap = Pmem.heap ~name:"rules" () in
        let cell = Pmem.alloc ~name:"cell:5" heap 0 in
        Pmem.system_persist cell 0;
        op5 (fun () -> Pmem.write cell 1);
        Pmem.crash ~scope:`Heap ~resolution:`Drop heap;
        Events.crash_resolved ~round:(-1);
        op5 (fun () ->
            Pmem.write cell 2;
            Pmem.pwb_f rule_pwb cell;
            Pmem.psync pairing_sync))
  in
  let text = Forensics.render_text pm in
  check_contains "the crash entry"
    "cell:5 — last written by tid 0 op #0 (insert key 5); no write-back was \
     ever issued for this line"
    text;
  check_contains "the culprit" "lost at crash #0: line cell:5 reverted" text

(* A write-back before the line's last write does not cover it. *)
let test_flush_then_rewrite_lost () =
  let pm =
    recorded (fun () ->
        let heap = Pmem.heap ~name:"rewrite" () in
        let cell = Pmem.alloc ~name:"cell:6" heap 0 in
        op5 (fun () ->
            Pmem.write cell 1;
            Pmem.pwb_f rule_pwb cell;
            Pmem.psync pairing_sync;
            Pmem.write cell 2);
        Pmem.crash ~resolution:`Drop heap;
        Events.crash_resolved ~round:0)
  in
  check_contains "the rewrite is lost" "lost at crash #0: line cell:6 reverted"
    (Forensics.render_text pm)

(* A write-back [Pmem.reset_pending] emptied from the queue is
   discarded, not still outstanding: a machine crash resolves every
   write-back still queued. *)
let test_discarded_writeback () =
  let pm =
    recorded (fun () ->
        let heap = Pmem.heap ~name:"discard" () in
        let cell = Pmem.alloc ~name:"cell:8" heap 0 in
        Pmem.write cell 1;
        Pmem.pwb_f rule_pwb cell;
        Pmem.reset_pending ();
        Pmem.crash ~resolution:`Drop heap;
        Events.crash_resolved ~round:0)
  in
  check_contains "the prefill write-back's fate"
    "1 write-back(s) issued; last from site test.rule.pwb in round 0 — \
     discarded"
    (Forensics.render_text pm)

(* A write outside any operation is prefill or structure recovery only
   between runs; inside a run a fiber wrote it (in a serve, the
   migration's journal or a shard's in-run recovery). *)
let test_writer_inside_a_run () =
  let pm =
    recorded (fun () ->
        let heap = Pmem.heap ~name:"writers" () in
        let before = Pmem.alloc ~name:"cell:1" heap 0 in
        let inside = Pmem.alloc ~name:"cell:2" heap 0 in
        Pmem.write before 1;
        ignore
          (Sim.run [| (fun (_ : int) -> Pmem.write inside 1) |] : Sim.outcome);
        Pmem.crash ~resolution:`Drop heap;
        Events.crash_resolved ~round:0)
  in
  let text = Forensics.render_text pm in
  check_contains "a write between runs"
    "cell:1 — last written outside any operation (tid 0, round 0: prefill \
     or structure recovery)"
    text;
  check_contains "a write inside a run"
    "cell:2 — last written outside any operation (tid 0, round 0: during \
     the run)"
    text

(* -- lineage verdicts ------------------------------------------------------ *)

let lineage_decisions pm =
  match Json.parse (Forensics.render_json pm) with
  | Ok (Json.Obj o) -> (
      match Json.field "lineage" o with
      | Some (Json.Arr ops) ->
          List.filter_map
            (function Json.Obj op -> Json.fstr "decision" op | _ -> None)
            ops
      | _ -> Alcotest.fail "postmortem JSON has no lineage")
  | _ -> Alcotest.fail "postmortem JSON does not parse"

(* Each way an operation can end, as a sequence of begin/end events on
   one thread (a begin while an op is open is what a crash leaves), with
   the verdict of each op in order. *)
let verdict_table =
  [
    ("returned", [ `Begin "insert"; `End ], [ "completed" ]);
    ( "recovered after a cut",
      [ `Begin "insert"; `Begin "recover"; `End ],
      [ "interrupted by crash; completed via recovery -> true";
        "recovery attempt -> true" ] );
    ( "recovery cut by a second crash",
      [ `Begin "insert"; `Begin "recover"; `Begin "recover"; `End ],
      [ "interrupted by crash; recovery also interrupted";
        "recovery attempt interrupted by another crash";
        "recovery attempt -> true" ] );
    ( "recovery in flight at the failure",
      [ `Begin "insert"; `Begin "recover" ],
      [ "interrupted by crash; recovery in flight at the failure";
        "recovery attempt in flight at the failure" ] );
    ( "in flight at the failure",
      [ `Begin "insert" ],
      [ "in flight at the failure (never recovered)" ] );
    ( "cut with no recovery operation",
      [ `Begin "insert"; `Begin "delete"; `End ],
      [ "interrupted by crash; never recovered"; "completed" ] );
  ]

let test_lineage_verdicts () =
  List.iter
    (fun (name, script, want) ->
      let pm =
        recorded (fun () ->
            List.iter
              (function
                | `Begin kind -> Events.op_begin ~kind ~key:5
                | `End -> Events.op_end ~ok:true)
              script)
      in
      Alcotest.(check (list string)) name want (lineage_decisions pm))
    verdict_table

(* -- no postmortem cites an event after its crash -------------------------- *)

(* The round a rendered write-back history names, if any. *)
let cited_round flush =
  let tag = "in round " in
  let n = String.length flush and m = String.length tag in
  let rec find i =
    if i + m > n then None
    else if String.sub flush i m = tag then
      let j = ref (i + m) in
      while !j < n && flush.[!j] >= '0' && flush.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub flush (i + m) (!j - i - m))
    else find (i + 1)
  in
  find 0

(* Every write-back history of a crash entry cites a round no later
   than the crash's, and no verdict speaks of another crash when there
   was at most one. *)
let check_explains_its_crash what pm =
  let arr key o =
    match Json.field key o with Some (Json.Arr l) -> l | _ -> []
  in
  let objs l = List.filter_map (function Json.Obj o -> Some o | _ -> None) l in
  match Json.parse (Forensics.render_json pm) with
  | Ok (Json.Obj o) ->
      List.iter
        (fun c ->
          let round = Option.get (Json.fint "round" c) in
          List.iter
            (fun q ->
              let flush = Option.get (Json.fstr "flush" q) in
              match cited_round flush with
              | Some r when r > round ->
                  Alcotest.failf "%s: crash in round %d cites round %d: %s"
                    what round r flush
              | _ -> ())
            (objs (arr "never_persisted" c @ arr "reverted" c)))
        (objs (arr "crash_reports" o));
      if Option.get (Json.fint "crashes" o) < 2 then
        List.iter
          (fun op ->
            let d = Option.get (Json.fstr "decision" op) in
            if contains ~needle:"another crash" d
               || contains ~needle:"also interrupted" d
            then Alcotest.failf "%s: one crash, yet %S" what d)
          (objs (arr "lineage" o))
  | _ -> Alcotest.failf "%s: postmortem JSON does not parse" what

(* The negative controls' crash campaigns: tracking-broken at the crash
   command's defaults with one and three crashes, memento-broken as the
   output golden runs it.  Every failing seed is explained. *)
let test_no_postmortem_cites_a_later_event () =
  let explained = ref 0 in
  List.iter
    (fun cfg ->
      for seed = 0 to 39 do
        match Crashes.run_logged cfg ~seed with
        | Ok _, _ -> ()
        | Error error, rounds -> (
            let what =
              Printf.sprintf "%s seed %d (max %d crashes)"
                cfg.Crashes.factory.Set_intf.fname seed cfg.Crashes.max_crashes
            in
            let r = Crashes.repro_of cfg ~seed ~error ~rounds in
            match Crashes.explain r with
            | Error e -> Alcotest.failf "%s: explain failed: %s" what e
            | Ok pm ->
                incr explained;
                check_explains_its_crash what pm)
      done)
    [
      campaign ~algo:"tracking-broken" ~threads:4 ~ops:15 ~keys:64 ~crashes:1;
      campaign ~algo:"tracking-broken" ~threads:4 ~ops:15 ~keys:64 ~crashes:3;
      campaign ~algo:"memento-broken" ~threads:3 ~ops:5 ~keys:16 ~crashes:1;
    ];
  (* tracking-broken seeds 15, 28, 37 and 38 at both budgets, and
     memento-broken seed 14 *)
  Alcotest.(check int) "failing runs explained" 9 !explained

let suite =
  [
    Alcotest.test_case "tracking-broken postmortem names site and line"
      `Quick test_tracking_broken_postmortem;
    Alcotest.test_case "memento-broken postmortem names site and stale line"
      `Quick test_memento_broken_postmortem;
    Alcotest.test_case "every variant row on the crash-explore tree" `Quick
      test_variant_table;
    QCheck_alcotest.to_alcotest prop_healthy_no_postmortem;
    Alcotest.test_case "explain output is byte-identical" `Quick
      test_explain_byte_identical;
    Alcotest.test_case "each write-back fate pairs with its own pwb" `Quick
      test_fate_pairs_with_own_pwb;
    Alcotest.test_case "write-back history in issue order" `Quick
      test_history_in_issue_order;
    Alcotest.test_case "a heap crash is described as of the crash" `Quick
      test_heap_crash_described_at_crash;
    Alcotest.test_case "a flush before the last write does not cover it"
      `Quick test_flush_then_rewrite_lost;
    Alcotest.test_case "a discarded write-back is not outstanding" `Quick
      test_discarded_writeback;
    Alcotest.test_case "a write inside a run is not prefill" `Quick
      test_writer_inside_a_run;
    Alcotest.test_case "lineage verdicts" `Quick test_lineage_verdicts;
    Alcotest.test_case "no postmortem cites an event after its crash" `Quick
      test_no_postmortem_cites_a_later_event;
  ]
