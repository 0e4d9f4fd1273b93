(* Harness machinery: workload generation, the throughput runner, cost
   ablation toggles, figure generation plumbing, and cross-validation of
   the per-key oracle against the exhaustive linearizability checker. *)

let test_workload_mix () =
  let cfg = Workload.default Workload.read_intensive in
  let rng = Random.State.make [| 3 |] in
  let n = 20_000 in
  let finds = ref 0 and ins = ref 0 and del = ref 0 in
  for _ = 1 to n do
    match Workload.gen_op rng cfg with
    | Set_intf.Fnd k ->
        Alcotest.(check bool) "key in range" true (k >= 1 && k <= 500);
        incr finds
    | Set_intf.Ins _ -> incr ins
    | Set_intf.Del _ -> incr del
  done;
  let frac x = float_of_int !x /. float_of_int n in
  Alcotest.(check bool) "~70% finds" true (abs_float (frac finds -. 0.70) < 0.02);
  Alcotest.(check bool) "ins ~= del" true (abs_float (frac ins -. frac del) < 0.02)

let test_workload_mix_odd_remainder () =
  (* 75% finds leaves an odd 25% of updates: the generator must still
     split them evenly between inserts and deletes.  An integer halving
     here used to give deletes the extra percentage point, drifting sets
     toward empty on long runs. *)
  let cfg = Workload.default (Workload.mix_of_find_pct 75) in
  let rng = Random.State.make [| 9 |] in
  let n = 40_000 in
  let finds = ref 0 and ins = ref 0 and del = ref 0 in
  for _ = 1 to n do
    match Workload.gen_op rng cfg with
    | Set_intf.Fnd _ -> incr finds
    | Set_intf.Ins _ -> incr ins
    | Set_intf.Del _ -> incr del
  done;
  let frac x = float_of_int !x /. float_of_int n in
  Alcotest.(check bool) "~75% finds" true (abs_float (frac finds -. 0.75) < 0.01);
  Alcotest.(check bool) "even ins/del split" true
    (abs_float (frac ins -. frac del) < 0.01)

let test_workload_skew_ranking () =
  (* Empirical frequency must match the skew parameter: for hot-set mass
     s, the hottest 20% of keys receive ~s of the draws, and quintile
     frequencies are monotonically decreasing.  Also: more skew = a
     heavier hot set. *)
  let rng = Random.State.make [| 17 |] in
  let n = 50_000 in
  let mass_of s =
    let cfg =
      { (Workload.default Workload.read_intensive) with
        Workload.key_range = 100;
        dist = Workload.skewed s;
      }
    in
    let counts = Array.make 5 0 in
    for _ = 1 to n do
      let k = Workload.gen_key rng cfg in
      Alcotest.(check bool) "key in range" true (k >= 1 && k <= 100);
      counts.((k - 1) / 20) <- counts.((k - 1) / 20) + 1
    done;
    for q = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "s=%.2f: quintile %d >= quintile %d" s q (q + 1))
        true
        (counts.(q) >= counts.(q + 1))
    done;
    float_of_int counts.(0) /. float_of_int n
  in
  let m50 = mass_of 0.5 and m80 = mass_of 0.8 in
  Alcotest.(check bool)
    (Printf.sprintf "s=0.5: hot quintile holds ~50%% (%.3f)" m50)
    true
    (abs_float (m50 -. 0.5) < 0.03);
  Alcotest.(check bool)
    (Printf.sprintf "s=0.8: hot quintile holds ~80%% (%.3f)" m80)
    true
    (abs_float (m80 -. 0.8) < 0.03);
  Alcotest.(check bool) "more skew concentrates harder" true (m80 > m50);
  (* parameter validation *)
  (match Workload.skewed 0.1 with
  | _ -> Alcotest.fail "skew below 0.2 must be rejected"
  | exception Invalid_argument _ -> ());
  match Workload.skewed 1.0 with
  | _ -> Alcotest.fail "skew of 1.0 must be rejected"
  | exception Invalid_argument _ -> ()

let test_workload_uniform_stream_unchanged () =
  (* The Uniform path must consume exactly the historical rng draws:
     recorded campaign repros replay the stream. *)
  let cfg = Workload.default Workload.read_intensive in
  let r1 = Random.State.make [| 42 |] and r2 = Random.State.make [| 42 |] in
  for _ = 1 to 1_000 do
    let k = Workload.gen_key r1 cfg in
    Alcotest.(check int) "one int draw per key" (1 + Random.State.int r2 500) k
  done

let contains_substring msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let test_by_name_lists_valid_names () =
  (match Set_intf.by_name "tracking" with
  | Ok f -> Alcotest.(check string) "found" "tracking" f.Set_intf.fname
  | Error e -> Alcotest.fail e);
  match Set_intf.by_name "no-such-algo" with
  | Ok _ -> Alcotest.fail "unknown name must be an error"
  | Error msg ->
      Alcotest.(check bool) "error names the culprit" true
        (contains_substring msg "no-such-algo");
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "error lists %S" name)
            true
            (contains_substring msg name))
        (Set_intf.names ())

let test_prefill_fills () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let algo = Set_intf.tracking.Set_intf.make heap ~threads:1 in
  let cfg = Workload.default Workload.read_intensive in
  Workload.prefill (Random.State.make [| 1 |]) cfg algo;
  let n = List.length (algo.Set_intf.contents ()) in
  (* 250 random draws from 500 keys: expect ~40% full *)
  Alcotest.(check bool) "roughly 40% full" true (n > 150 && n < 250)

let test_runner_sanity () =
  let wl = Workload.default Workload.update_intensive in
  let p1 = Runner.measure ~duration_ns:60_000. Set_intf.tracking ~threads:1 wl in
  let p8 = Runner.measure ~duration_ns:60_000. Set_intf.tracking ~threads:8 wl in
  Alcotest.(check bool) "positive throughput" true (p1.Runner.throughput_mops > 0.);
  Alcotest.(check bool) "scales with threads" true
    (p8.Runner.throughput_mops > 2. *. p1.Runner.throughput_mops);
  Alcotest.(check bool) "counts pwbs" true (p1.Runner.pwbs_per_op > 1.);
  Alcotest.(check bool) "counts psyncs" true (p1.Runner.psyncs_per_op > 1.);
  Alcotest.(check bool) "fractions sum to 1" true
    (abs_float (p1.Runner.low_frac +. p1.Runner.medium_frac +. p1.Runner.high_frac -. 1.) < 1e-6);
  (* pfences are reported in their own column, no longer silently folded
     into psyncs_per_op *)
  Alcotest.(check bool) "counts pfences separately" true
    (p1.Runner.pfences_per_op > 0.)

let test_persistence_free_is_faster () =
  let wl = Workload.default Workload.update_intensive in
  let full = Runner.measure ~duration_ns:60_000. Set_intf.tracking ~threads:8 wl in
  let pfree =
    Runner.measure ~duration_ns:60_000.
      ~prepare:(fun () -> Pstats.set_all_enabled false)
      Set_intf.tracking ~threads:8 wl
  in
  Pstats.set_all_enabled true;
  Alcotest.(check bool) "pfree faster" true
    (pfree.Runner.throughput_mops > full.Runner.throughput_mops);
  Alcotest.(check (float 0.0001)) "pfree has no pwbs" 0. pfree.Runner.pwbs_per_op

let test_cas_drain_ablation_shifts_cost () =
  (* with the drain disabled, psyncs must carry the stall instead, so
     removing them should matter more *)
  let wl = Workload.default Workload.update_intensive in
  let gain table_tweak =
    Cost.with_table table_tweak (fun () ->
        let full =
          Runner.measure ~duration_ns:60_000. ~seed:3 Set_intf.tracking
            ~threads:4 wl
        in
        let nosync =
          Runner.measure ~duration_ns:60_000. ~seed:3
            ~prepare:(fun () ->
              Pstats.set_kind_enabled Pstats.Psync false;
              Pstats.set_kind_enabled Pstats.Pfence false)
            Set_intf.tracking ~threads:4 wl
        in
        Pstats.set_all_enabled true;
        nosync.Runner.throughput_mops /. full.Runner.throughput_mops)
  in
  let with_drain = gain (fun _ -> ()) in
  Alcotest.(check bool)
    (Printf.sprintf "psync removal is minor with CAS drain (%.3f)" with_drain)
    true (with_drain < 1.12)

let test_figures_quick_smoke () =
  let cfg =
    { Figures.quick_config with Figures.sweep = [ 1; 4 ]; duration_ns = 30_000. }
  in
  let fig = Figures.fig_throughput cfg Workload.read_intensive in
  Alcotest.(check string) "id" "3a" fig.Figures.id;
  Alcotest.(check int) "six series" 6 (List.length fig.Figures.series);
  List.iter
    (fun s ->
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "positive values" true (v > 0.))
        s.Figures.values)
    fig.Figures.series;
  let cls = Figures.classification cfg Workload.read_intensive Set_intf.tracking in
  Alcotest.(check bool) "tracking has pwb sites" true (List.length cls >= 8)

(* Soundness relation: any linearizable history must pass the per-key
   oracle (the oracle is a weakening that drops real-time order). *)
let gen_history =
  QCheck2.Gen.(
    list_size (int_range 0 8)
      (map3
         (fun kind k ok -> (kind, k, ok))
         (int_range 0 2) (int_range 0 3) bool))

let prop_oracle_weaker_than_linearize =
  QCheck2.Test.make ~name:"linearizable implies oracle-consistent" ~count:800
    gen_history
    (fun ops ->
      (* sequential (non-overlapping) histories: linearize order is the
         program order *)
      let entries =
        List.mapi
          (fun i (kind, k, ok) ->
            let op =
              match kind with
              | 0 -> Set_intf.Ins k
              | 1 -> Set_intf.Del k
              | _ -> Set_intf.Fnd k
            in
            { Linearize.op; ok; inv = 2 * i; res = (2 * i) + 1 })
          ops
      in
      if not (Linearize.check entries) then true
      else begin
        (* replay to compute the final state *)
        let module IS = Set.Make (Int) in
        let final =
          List.fold_left
            (fun st e ->
              match (e.Linearize.op, e.Linearize.ok) with
              | Set_intf.Ins k, true -> IS.add k st
              | Set_intf.Del k, true -> IS.remove k st
              | _ -> st)
            IS.empty entries
        in
        let events =
          List.map
            (fun e -> { Oracle.eop = e.Linearize.op; ok = e.Linearize.ok })
            entries
        in
        Oracle.check ~initial:[] ~final:(IS.elements final) events = Ok ()
      end)

(* Figure points are cached per process.  Two configurations that differ
   only in their virtual time per measurement must each get their own
   points: every series must equal what [Runner.measure] gives for that
   configuration. *)
let test_figures_cache_per_config () =
  let mix = Workload.update_intensive in
  List.iter
    (fun duration_ns ->
      let cfg =
        { Figures.quick_config with Figures.sweep = [ 4 ]; duration_ns }
      in
      let fig = Figures.fig_throughput cfg mix in
      List.iter
        (fun (s : Figures.series) ->
          let f = Result.get_ok (Set_intf.by_name s.Figures.label) in
          Pstats.set_all_enabled true;
          let p =
            Runner.measure ~duration_ns ~seed:1 f ~threads:4
              (Workload.default mix)
          in
          Alcotest.(check (list (pair int (float 0.))))
            (Printf.sprintf "%s at %.0f ns" s.Figures.label duration_ns)
            [ (4, p.Runner.throughput_mops) ]
            s.Figures.values)
        fig.Figures.series)
    [ 20_000.; 60_000. ]

let test_csv_rendering () =
  let fig =
    {
      Figures.id = "t";
      title = "test";
      ylabel = "y";
      threads = [ 1; 2 ];
      series =
        [
          { Figures.label = "a"; values = [ (1, 1.5); (2, 2.5) ] };
          { Figures.label = "b"; values = [ (1, 0.25) ] };
        ];
    }
  in
  let csv = Report.figure_to_csv fig in
  Alcotest.(check string) "csv" "threads,a,b\n1,1.500,0.250\n2,2.500,\n" csv

(* A figure built alone equals the same figure built with all the
   others: no builder depends on what an earlier one left behind.  Each
   is built alone first, the last one first, then the whole list in
   order. *)
let test_figure_alone_equals_full_list () =
  let cfg =
    {
      Figures.sweep = [ 1; 2 ];
      duration_ns = 10_000.;
      classify_at = 2;
      seeds = 1;
    }
  in
  let alone =
    List.rev_map (fun (id, build) -> (id, build cfg)) (List.rev Figures.all)
  in
  List.iter2
    (fun (id, fig) (id', build) ->
      Alcotest.(check string) "order" id' id;
      Alcotest.(check string) "the builder's id" id fig.Figures.id;
      Alcotest.(check bool) (id ^ " alone = in the list") true
        (compare fig (build cfg) = 0))
    alone Figures.all

let suite =
  [
    Alcotest.test_case "workload mix distribution" `Quick test_workload_mix;
    Alcotest.test_case "odd update remainder splits evenly" `Quick
      test_workload_mix_odd_remainder;
    Alcotest.test_case "skewed keys match the skew parameter" `Quick
      test_workload_skew_ranking;
    Alcotest.test_case "uniform rng stream unchanged" `Quick
      test_workload_uniform_stream_unchanged;
    Alcotest.test_case "by_name error lists valid names" `Quick
      test_by_name_lists_valid_names;
    Alcotest.test_case "prefill reaches ~40%" `Quick test_prefill_fills;
    Alcotest.test_case "runner sanity" `Quick test_runner_sanity;
    Alcotest.test_case "persistence-free is faster" `Quick
      test_persistence_free_is_faster;
    Alcotest.test_case "psync removal minor under CAS drain" `Quick
      test_cas_drain_ablation_shifts_cost;
    Alcotest.test_case "figures quick smoke" `Quick test_figures_quick_smoke;
    Alcotest.test_case "a figure built alone equals it in the full list"
      `Quick test_figure_alone_equals_full_list;
    Alcotest.test_case "figure points are cached per configuration" `Quick
      test_figures_cache_per_config;
    Alcotest.test_case "csv rendering" `Quick test_csv_rendering;
    QCheck_alcotest.to_alcotest prop_oracle_weaker_than_linearize;
  ]
