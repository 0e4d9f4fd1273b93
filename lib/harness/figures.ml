type series = { label : string; values : (int * float) list }

type figure = {
  id : string;
  title : string;
  ylabel : string;
  threads : int list;
  series : series list;
}

type config = {
  sweep : int list;
  duration_ns : float;
  classify_at : int;
  seeds : int;
}

let default_config =
  {
    sweep = [ 1; 2; 4; 8; 16; 24; 32; 48; 60 ];
    duration_ns = 250_000.;
    classify_at = 32;
    seeds = 3;
  }

let quick_config =
  { sweep = [ 1; 4; 16; 32 ]; duration_ns = 80_000.; classify_at = 16; seeds = 1 }

(* ---- measurement cache ------------------------------------------------ *)

(* Every config field that changes a point: the virtual time per
   measurement, the seeds averaged, and the classification's thread
   count, which decides the sites a category curve scales. *)
let cfg_key cfg =
  Printf.sprintf "%h/%d/%d" cfg.duration_ns cfg.seeds cfg.classify_at

type meas = {
  thr : float;
  pwbs : float;
  psyncs : float;
}

let cache : (string, meas) Hashtbl.t = Hashtbl.create 256

let enable_all () = Pstats.set_all_enabled true

(* An exception anywhere in a sweep (a raising [prepare], a [Step_limit]
   watchdog, a user interrupt) must not leak disabled sites or scaled
   multipliers into the next figure point — or worse, into the caller's
   unrelated measurements.  [Causal.with_scaled] restores its own
   scalings; this restores the ad-hoc [prepare] state. *)
let with_clean_sites f =
  Fun.protect
    ~finally:(fun () ->
      Pstats.set_all_enabled true;
      Pstats.reset_cost_mults ();
      Pstats.reset_category_mults ())
    f

let measure ?(scaled = []) cfg factory ~threads mix ~variant ~prepare =
  let key =
    Printf.sprintf "%s/%d/%s/%s/%s" factory.Set_intf.fname threads
      mix.Workload.name variant (cfg_key cfg)
  in
  match Hashtbl.find_opt cache key with
  | Some m -> m
  | None ->
      let acc = ref { thr = 0.; pwbs = 0.; psyncs = 0. } in
      with_clean_sites (fun () ->
          for seed = 1 to cfg.seeds do
            enable_all ();
            let p =
              Causal.with_scaled scaled (fun () ->
                  Runner.measure ~duration_ns:cfg.duration_ns ~seed ~prepare
                    factory ~threads (Workload.default mix))
            in
            acc :=
              {
                thr = !acc.thr +. p.Runner.throughput_mops;
                pwbs = !acc.pwbs +. p.Runner.pwbs_per_op;
                psyncs = !acc.psyncs +. p.Runner.psyncs_per_op;
              }
          done);
      let n = float_of_int cfg.seeds in
      let m =
        { thr = !acc.thr /. n; pwbs = !acc.pwbs /. n; psyncs = !acc.psyncs /. n }
      in
      Hashtbl.replace cache key m;
      m

let full cfg factory ~threads mix =
  measure cfg factory ~threads mix ~variant:"full" ~prepare:(fun () -> ())

(* ---- per-site classification (the paper's methodology) ---------------- *)

(* The pwb code lines an algorithm actually executes under this mix. *)
let discover_sites cfg factory mix =
  with_clean_sites (fun () ->
      enable_all ();
      Pstats.reset ();
      ignore
        (Runner.measure ~duration_ns:(cfg.duration_ns /. 4.) ~seed:7 factory
           ~threads:4 (Workload.default mix)
          : Runner.point);
      List.filter
        (fun s ->
          Pstats.kind s = Pstats.Pwb
          &&
          let l, m, h = Pstats.site_counts s in
          l + m + h > 0)
        (Pstats.sites ()))

let classification_cache : (string, (Pstats.site * Pstats.category * float) list) Hashtbl.t =
  Hashtbl.create 16

let classify cfg mix factory =
  let key =
    String.concat "/" [ factory.Set_intf.fname; mix.Workload.name; cfg_key cfg ]
  in
  match Hashtbl.find_opt classification_cache key with
  | Some c -> c
  | None ->
      let sites = discover_sites cfg factory mix in
      let classified =
        with_clean_sites (fun () ->
            let pfree () = Pstats.set_all_enabled false in
            let t0 =
              (measure cfg factory ~threads:cfg.classify_at mix
                 ~variant:"pfree" ~prepare:pfree)
                .thr
            in
            List.map
              (fun s ->
                let prepare () =
                  Pstats.set_all_enabled false;
                  Pstats.set_enabled s true
                in
                let t =
                  (measure cfg factory ~threads:cfg.classify_at mix
                     ~variant:("only:" ^ Pstats.name s) ~prepare)
                    .thr
                in
                let impact = Float.max 0. ((t0 -. t) /. t0) in
                let cat =
                  if impact <= 0.10 then Pstats.Low
                  else if impact <= 0.30 then Pstats.Medium
                  else Pstats.High
                in
                (s, cat, impact))
              sites)
      in
      Hashtbl.replace classification_cache key classified;
      classified

let classification cfg mix factory =
  List.map
    (fun (s, c, i) -> (Pstats.name s, c, i))
    (classify cfg mix factory)

let sites_of_category cfg mix factory cat =
  List.filter_map
    (fun (s, c, _) -> if c = cat then Some s else None)
    (classify cfg mix factory)

(* ---- the figures ------------------------------------------------------- *)

let throughput_factories =
  Set_intf.[ tracking; capsules; capsules_opt; romulus; redo; harris_volatile ]

let detectable_pair = Set_intf.[ tracking; capsules_opt ]

let fig_id mix suffix =
  (if mix.Workload.name = Workload.read_intensive.Workload.name then "3"
   else "4")
  ^ suffix

let fig_throughput cfg mix =
  {
    id = fig_id mix "a";
    title = "Throughput, " ^ mix.Workload.name;
    ylabel = "Mops/s";
    threads = cfg.sweep;
    series =
      List.map
        (fun f ->
          {
            label = f.Set_intf.fname;
            values =
              List.map (fun n -> (n, (full cfg f ~threads:n mix).thr)) cfg.sweep;
          })
        throughput_factories;
  }

let fig_psyncs_per_op cfg mix =
  {
    id = fig_id mix "b";
    title = "psync per operation, " ^ mix.Workload.name;
    ylabel = "psyncs/op";
    threads = cfg.sweep;
    series =
      List.map
        (fun f ->
          {
            label = f.Set_intf.fname;
            values =
              List.map
                (fun n -> (n, (full cfg f ~threads:n mix).psyncs))
                cfg.sweep;
          })
        detectable_pair;
  }

let fig_no_psync cfg mix =
  let no_sync () =
    Pstats.set_kind_enabled Pstats.Psync false;
    Pstats.set_kind_enabled Pstats.Pfence false
  in
  {
    id = fig_id mix "c";
    title = "Throughput with and without psync/pfence, " ^ mix.Workload.name;
    ylabel = "Mops/s";
    threads = cfg.sweep;
    series =
      List.concat_map
        (fun f ->
          [
            {
              label = f.Set_intf.fname;
              values =
                List.map
                  (fun n -> (n, (full cfg f ~threads:n mix).thr))
                  cfg.sweep;
            };
            {
              label = f.Set_intf.fname ^ "[no psync]";
              values =
                List.map
                  (fun n ->
                    ( n,
                      (measure cfg f ~threads:n mix ~variant:"nosync"
                         ~prepare:no_sync)
                        .thr ))
                  cfg.sweep;
            };
          ])
        detectable_pair;
  }

let fig_pwbs_per_op cfg mix =
  {
    id = fig_id mix "d";
    title = "pwb per operation, " ^ mix.Workload.name;
    ylabel = "pwbs/op";
    threads = cfg.sweep;
    series =
      List.map
        (fun f ->
          {
            label = f.Set_intf.fname;
            values =
              List.map (fun n -> (n, (full cfg f ~threads:n mix).pwbs)) cfg.sweep;
          })
        detectable_pair;
  }

(* Fraction of executed pwbs whose code line belongs to each measured
   category, per thread count. *)
let fig_pwb_categories cfg mix =
  let series =
    List.concat_map
      (fun f ->
        let classified = classify cfg mix f in
        let fractions n =
          enable_all ();
          ignore
            (Runner.measure ~duration_ns:cfg.duration_ns ~seed:1 f ~threads:n
               (Workload.default mix)
              : Runner.point);
          let count s =
            let l, m, h = Pstats.site_counts s in
            l + m + h
          in
          let per_cat cat =
            List.fold_left
              (fun acc (s, c, _) -> if c = cat then acc + count s else acc)
              0 classified
          in
          let low = per_cat Pstats.Low
          and med = per_cat Pstats.Medium
          and high = per_cat Pstats.High in
          let total = Float.max 1. (float_of_int (low + med + high)) in
          ( float_of_int low /. total,
            float_of_int med /. total,
            float_of_int high /. total )
        in
        let pts = List.map (fun n -> (n, fractions n)) cfg.sweep in
        [
          {
            label = f.Set_intf.fname ^ " L";
            values = List.map (fun (n, (l, _, _)) -> (n, l)) pts;
          };
          {
            label = f.Set_intf.fname ^ " M";
            values = List.map (fun (n, (_, m, _)) -> (n, m)) pts;
          };
          {
            label = f.Set_intf.fname ^ " H";
            values = List.map (fun (n, (_, _, h)) -> (n, h)) pts;
          };
        ])
      detectable_pair
  in
  {
    id = fig_id mix "e";
    title = "Categorization of executed pwbs, " ^ mix.Workload.name;
    ylabel = "fraction of pwbs";
    threads = cfg.sweep;
    series;
  }

(* Category ablations ride the causal engine: "removing" a category
   scales the cost of its sites to zero ([Causal.with_scaled]) instead of
   eliding the instructions.  The flushes still execute — durability
   semantics, statistics and scheduling points are unchanged — they are
   just virtually free, which is the what-if the paper's figures actually
   ask ("what would throughput be if these flushes cost nothing?"). *)

let zero_category cfg mix f cats =
  List.concat_map
    (fun cat ->
      List.map
        (fun s -> (Causal.Site (Pstats.name s), 0.))
        (sites_of_category cfg mix f cat))
    cats

let zero_all_sites () =
  List.map (fun s -> (Causal.Site (Pstats.name s), 0.)) (Pstats.sites ())

(* Cumulative removal: full, −L, −LM, −LMH (the paper's combined-impact
   experiment; psync/pfence stay in place). *)
let fig_category_removal cfg mix =
  let series =
    List.concat_map
      (fun f ->
        let curve label variant cats =
          {
            label = f.Set_intf.fname ^ label;
            values =
              List.map
                (fun n ->
                  ( n,
                    (measure
                       ~scaled:(zero_category cfg mix f cats)
                       cfg f ~threads:n mix ~variant
                       ~prepare:(fun () -> ()))
                      .thr ))
                cfg.sweep;
          }
        in
        [
          {
            label = f.Set_intf.fname;
            values =
              List.map (fun n -> (n, (full cfg f ~threads:n mix).thr)) cfg.sweep;
          };
          curve "[-L]" "z:L" [ Pstats.Low ];
          curve "[-LM]" "z:LM" [ Pstats.Low; Pstats.Medium ];
          curve "[-LMH]" "z:LMH" [ Pstats.Low; Pstats.Medium; Pstats.High ];
        ])
      detectable_pair
  in
  {
    id = fig_id mix "f";
    title = "Combined impact of pwb categories, " ^ mix.Workload.name;
    ylabel = "Mops/s";
    threads = cfg.sweep;
    series;
  }

(* Figures 5 / 6: persistence-free plus each category alone.  One line
   per curve: everything at 0x cost, the kept category back at 1x (later
   [with_scaled] entries override earlier ones for the same site). *)
let fig_category_impact cfg mix factory =
  let keep cats =
    zero_all_sites ()
    @ List.concat_map
        (fun cat ->
          List.map
            (fun s -> (Causal.Site (Pstats.name s), 1.))
            (sites_of_category cfg mix factory cat))
        cats
  in
  let curve label variant scaled =
    {
      label;
      values =
        List.map
          (fun n ->
            ( n,
              (measure ~scaled cfg factory ~threads:n mix ~variant
                 ~prepare:(fun () -> ()))
                .thr ))
          cfg.sweep;
    }
  in
  let fig_no =
    if factory.Set_intf.fname = "tracking" then "5" else "6"
  in
  {
    id = fig_no ^ (if mix.Workload.name = Workload.read_intensive.Workload.name then "r" else "u");
    title =
      Printf.sprintf "Impact of pwb categories on %s, %s"
        factory.Set_intf.fname mix.Workload.name;
    ylabel = "Mops/s";
    threads = cfg.sweep;
    series =
      [
        curve "original" "full" [];
        curve "persistence-free" "z:all" (zero_all_sites ());
        curve "pfree+L" "z:keep:L" (keep [ Pstats.Low ]);
        curve "pfree+M" "z:keep:M" (keep [ Pstats.Medium ]);
        curve "pfree+H" "z:keep:H" (keep [ Pstats.High ]);
      ];
  }

(* Beyond the paper: per-operation latency tails from the metrics layer
   (spans over the virtual clocks).  Not cached: the cache keys carry no
   metrics state, and latency points are cheap (one run per seed). *)
let fig_latency cfg mix =
  Fun.protect ~finally:Metrics.disable @@ fun () ->
  let series =
    List.concat_map
      (fun f ->
        let sweep q =
          List.map
            (fun n ->
              let acc = ref 0. in
              for seed = 1 to cfg.seeds do
                enable_all ();
                let p =
                  Runner.measure ~duration_ns:cfg.duration_ns ~seed
                    ~prepare:Metrics.enable f ~threads:n
                    (Workload.default mix)
                in
                acc :=
                  !acc
                  +. (if q = `P50 then p.Runner.lat_p50_ns
                      else p.Runner.lat_p99_ns)
              done;
              (n, !acc /. float_of_int cfg.seeds))
            cfg.sweep
        in
        [
          { label = f.Set_intf.fname ^ " p50"; values = sweep `P50 };
          { label = f.Set_intf.fname ^ " p99"; values = sweep `P99 };
        ])
      detectable_pair
  in
  {
    id =
      "7"
      ^ (if mix.Workload.name = Workload.read_intensive.Workload.name then "r"
         else "u");
    title = "Operation latency (virtual ns), " ^ mix.Workload.name;
    ylabel = "latency ns";
    threads = cfg.sweep;
    series;
  }

(* Beyond the paper: two detectability frameworks over the same
   structure.  Tracking (the paper's transformation) against the Memento
   derivations — List-mmt (same Harris list, composed from checkpoints
   and detectable CASes) and Comb-mmt (flat combining under one
   detectable root CAS).  Throughput and psync counts in one figure so
   the framework overhead comparison reads directly. *)
let framework_factories = Set_intf.[ tracking; memento_list; memento_comb ]

let fig_frameworks cfg mix =
  {
    id =
      "8"
      ^ (if mix.Workload.name = Workload.read_intensive.Workload.name then "r"
         else "u");
    title = "Detectability frameworks compared, " ^ mix.Workload.name;
    ylabel = "Mops/s";
    threads = cfg.sweep;
    series =
      List.concat_map
        (fun f ->
          [
            {
              label = f.Set_intf.fname;
              values =
                List.map
                  (fun n -> (n, (full cfg f ~threads:n mix).thr))
                  cfg.sweep;
            };
            {
              label = f.Set_intf.fname ^ " psyncs/op";
              values =
                List.map
                  (fun n -> (n, (full cfg f ~threads:n mix).psyncs))
                  cfg.sweep;
            };
          ])
        framework_factories;
  }

let all cfg =
  let mixes = [ Workload.read_intensive; Workload.update_intensive ] in
  List.concat_map
    (fun mix ->
      [
        fig_throughput cfg mix;
        fig_psyncs_per_op cfg mix;
        fig_no_psync cfg mix;
        fig_pwbs_per_op cfg mix;
        fig_pwb_categories cfg mix;
        fig_category_removal cfg mix;
      ])
    mixes
  @ List.concat_map
      (fun mix ->
        [
          fig_category_impact cfg mix Set_intf.tracking;
          fig_category_impact cfg mix Set_intf.capsules_opt;
        ])
      mixes
  @ List.map (fun mix -> fig_latency cfg mix) mixes
  @ List.map (fun mix -> fig_frameworks cfg mix) mixes
