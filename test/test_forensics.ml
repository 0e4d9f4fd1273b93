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
         attributed as of the crash round, not the end of the run *)
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

let healthy_cfg ~algo =
  Crashes.
    {
      factory = Result.get_ok (Set_intf.by_name algo);
      threads = 3;
      ops_per_thread = 6;
      workload =
        {
          (Workload.default Workload.update_intensive) with
          key_range = 8;
          prefill_n = 4;
        };
      max_crashes = 2;
    }

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
  ]
