(* The causal what-if profiler: exact replay of site/category scalings,
   the paper's sensitivity orderings, exception-safe scaling installs,
   and the classification plumbing it leans on. *)

let small_config () =
  {
    (Causal.quick_config Set_intf.tracking Workload.update_intensive) with
    Causal.threads = 4;
    ops_per_thread = 60;
    factors = [ 0.; 2. ];
    mechanisms = [];
  }

(* Profiles are deterministic but not cheap; compute one and share it. *)
let shared_profile = lazy (Causal.profile (small_config ()))

let row_by target p =
  List.find_opt (fun (r : Causal.row) -> r.Causal.target = target) p.Causal.rows

(* Site and category scalings replay the recorded schedule exactly: the
   switch decision ignores the scaled part of every charge, so clocks
   dilate but the interleaving is bit-identical — zero divergences. *)
let test_replay_exact () =
  let p = Lazy.force shared_profile in
  Alcotest.(check bool) "has site rows" true
    (List.exists (fun r -> r.Causal.group = "pwb") p.Causal.rows);
  List.iter
    (fun (r : Causal.row) ->
      if r.Causal.group <> "mechanism" then
        Alcotest.(check int)
          (Format.asprintf "%a replays exactly" Causal.pp_target
             r.Causal.target)
          0 r.Causal.divergences)
    p.Causal.rows

(* Under a fixed interleaving every charge is monotone in the factor, so
   ns/op must be non-decreasing along each site row's sweep — a property
   only an exact (divergence-free) replay can guarantee. *)
let test_monotone_in_factor () =
  let p = Lazy.force shared_profile in
  List.iter
    (fun (r : Causal.row) ->
      if r.Causal.group <> "mechanism" then
        ignore
          (List.fold_left
             (fun prev (f, ns) ->
               Alcotest.(check bool)
                 (Printf.sprintf "%s: ns/op@%gx >= previous" r.Causal.label f)
                 true
                 (ns >= prev -. 1e-9);
               ns)
             0. r.Causal.points))
    p.Causal.rows

(* The paper's ordering (§5): per execution, a high-impact pwb costs more
   than a low-impact one, and psyncs are nearly free. *)
let test_paper_orderings () =
  let p = Lazy.force shared_profile in
  let per_exec t =
    match row_by t p with
    | Some r when r.Causal.executions > 0 ->
        r.Causal.sensitivity /. float_of_int r.Causal.executions
    | _ -> Alcotest.fail "category row missing"
  in
  let high = per_exec (Causal.Category Pstats.High) in
  let low = per_exec (Causal.Category Pstats.Low) in
  Alcotest.(check bool) "high-impact > low-impact per execution" true
    (high > low);
  List.iter
    (fun (r : Causal.row) ->
      if r.Causal.group = "psync" then
        Alcotest.(check bool)
          (r.Causal.label ^ " sensitivity is a sliver of baseline")
          true
          (Float.abs r.Causal.sensitivity
          < 0.05 *. p.Causal.baseline_ns_per_op))
    p.Causal.rows

let test_headroom_positive () =
  let p = Lazy.force shared_profile in
  (* zeroing ALL low-impact pwbs must buy measurable throughput *)
  match row_by (Causal.Category Pstats.Low) p with
  | Some r -> Alcotest.(check bool) "low-category headroom > 0" true (r.Causal.headroom > 0.)
  | None -> Alcotest.fail "low category row missing"

(* ---- scoped installs --------------------------------------------------- *)

let test_with_scaled_restores_on_raise () =
  let site =
    match Pstats.find "rlist.new.pwb" with
    | Some s -> s
    | None -> Alcotest.fail "expected site rlist.new.pwb to be registered"
  in
  (try
     Causal.with_scaled
       [
         (Causal.Site "rlist.new.pwb", 0.);
         (Causal.Category Pstats.High, 2.);
         (Causal.Mechanism "pwb_steal", 0.5);
       ]
       (fun () ->
         Alcotest.(check (float 1e-9)) "site mult installed" 0.
           (Pstats.cost_mult site);
         Alcotest.(check (float 1e-9)) "category mult installed" 2.
           (Pstats.category_mult Pstats.High);
         Alcotest.(check bool) "cost table tweaked" false
           (Cost.is_default (Cost.current ()));
         raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "site+category multipliers restored" true
    (Pstats.all_multipliers_default ());
  Alcotest.(check bool) "cost table restored" true
    (Cost.is_default (Cost.current ()))

let test_with_scaled_rejects_unknown () =
  Alcotest.check_raises "unknown site"
    (Invalid_argument "Causal: unknown site \"no.such.site\"") (fun () ->
      Causal.with_scaled [ (Causal.Site "no.such.site", 0.) ] (fun () -> ()));
  Alcotest.check_raises "unknown mechanism"
    (Invalid_argument "Causal: unknown mechanism \"no_such_knob\"") (fun () ->
      Causal.with_scaled [ (Causal.Mechanism "no_such_knob", 0.) ] (fun () ->
          ()))

(* A measurement that raises mid-sweep (here: a factory whose constructor
   throws) must leave the cost table and every site multiplier/enabled
   flag at defaults — the sweep-teardown regression of the hardening
   audit. *)
let test_raising_measurement_leaks_nothing () =
  let raising =
    {
      Set_intf.fname = "raiser";
      model = Set_model;
      supports_crash = true;
      make = (fun _ ~threads:_ -> failwith "constructor boom");
    }
  in
  (try
     ignore
       (Causal.with_scaled
          [
            (Causal.Category Pstats.Low, 0.);
            (Causal.Mechanism "cache_miss", 2.);
          ]
          (fun () ->
            Runner.measure ~duration_ns:10_000. raising ~threads:2
              (Workload.default Workload.update_intensive))
         : Runner.point);
     Alcotest.fail "expected the factory to raise"
   with Failure _ -> ());
  Alcotest.(check bool) "multipliers restored" true
    (Pstats.all_multipliers_default ());
  Alcotest.(check bool) "cost table restored" true
    (Cost.is_default (Cost.current ()));
  Alcotest.(check bool) "all sites enabled" true
    (List.for_all Pstats.enabled (Pstats.sites ()))

(* Each measurement resets classification state: two identical runs see
   identical counts (nothing accumulates across figure points). *)
let test_counts_reset_between_points () =
  let wl = Workload.default Workload.update_intensive in
  let run () =
    ignore
      (Runner.measure ~duration_ns:30_000. ~seed:5 Set_intf.tracking
         ~threads:2 wl
        : Runner.point);
    Pstats.totals ()
  in
  let t1 = run () in
  let t2 = run () in
  Alcotest.(check int) "pwb count identical, not accumulated"
    t1.Pstats.pwbs t2.Pstats.pwbs;
  Alcotest.(check int) "psync count identical" t1.Pstats.psyncs
    t2.Pstats.psyncs;
  Alcotest.(check int) "high count identical" t1.Pstats.high t2.Pstats.high

(* ---- export formats ---------------------------------------------------- *)

let test_export_shapes () =
  let p = Lazy.force shared_profile in
  let csv = Causal.to_csv p in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "one csv line per row plus header"
    (List.length p.Causal.rows + 1)
    (List.length lines);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  (match lines with
  | header :: _ ->
      Alcotest.(check bool) "header names the sensitivity column" true
        (contains header "sensitivity_ns_per_op")
  | [] -> Alcotest.fail "empty csv");
  let json = Causal.to_json p in
  Alcotest.(check bool) "json object" true
    (String.length json > 2 && json.[0] = '{'
    && json.[String.length json - 1] = '}');
  Alcotest.(check bool) "json has no NaN literal" true
    (not (contains json "nan"))

(* The profile's and the throughput runner's validators: each refusal
   is one line naming the field, and the boundary values pass. *)
let test_validators_name_each_field () =
  let base = small_config () in
  List.iter
    (fun (what, r) ->
      match r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s refused: %s" what e)
    [
      ("causal base", Causal.validate base);
      ("causal one thread, one op",
       Causal.validate { base with threads = 1; ops_per_thread = 1 });
      ("causal thread limit",
       Causal.validate { base with threads = Pmem.max_threads });
      ("runner one thread", Runner.validate ~threads:1 ~duration_ns:1.);
      ("runner thread limit",
       Runner.validate ~threads:Pmem.max_threads ~duration_ns:200_000.);
    ];
  List.iter
    (fun (field, r) ->
      match r with
      | Ok () -> Alcotest.failf "%s accepted" field
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names %s on one line" e field)
            true
            (Test_repro.contains ~sub:field e
            && not (String.contains e '\n')))
    [
      ("threads", Causal.validate { base with threads = 0 });
      ("threads", Causal.validate { base with threads = Pmem.max_threads + 1 });
      ("ops-per-thread", Causal.validate { base with ops_per_thread = 0 });
      ("key-range",
       Causal.validate
         { base with workload = { base.workload with key_range = 0 } });
      ("threads", Runner.validate ~threads:0 ~duration_ns:1.);
      ( "threads",
        Runner.validate ~threads:(Pmem.max_threads + 1) ~duration_ns:1. );
      ("duration-ns", Runner.validate ~threads:1 ~duration_ns:0.);
      ("duration-ns", Runner.validate ~threads:1 ~duration_ns:Float.nan);
    ]

let suite =
  [
    Alcotest.test_case "validators name each refused field" `Quick
      test_validators_name_each_field;
    Alcotest.test_case "site/category replay is divergence-free" `Quick
      test_replay_exact;
    Alcotest.test_case "ns/op monotone in cost factor" `Quick
      test_monotone_in_factor;
    Alcotest.test_case "paper orderings: high > low, psync ~ 0" `Quick
      test_paper_orderings;
    Alcotest.test_case "zeroing low-impact pwbs buys throughput" `Quick
      test_headroom_positive;
    Alcotest.test_case "with_scaled restores on raise" `Quick
      test_with_scaled_restores_on_raise;
    Alcotest.test_case "with_scaled rejects unknown targets" `Quick
      test_with_scaled_rejects_unknown;
    Alcotest.test_case "raising measurement leaks no state" `Quick
      test_raising_measurement_leaks_nothing;
    Alcotest.test_case "counts reset between figure points" `Quick
      test_counts_reset_between_points;
    Alcotest.test_case "csv/json export shapes" `Quick test_export_shapes;
  ]
