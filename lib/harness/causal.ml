type target =
  | Site of string
  | Category of Pstats.category
  | Mechanism of string

let pp_target ppf = function
  | Site n -> Format.fprintf ppf "site:%s" n
  | Category c -> Format.fprintf ppf "category:%a" Pstats.pp_category c
  | Mechanism m -> Format.fprintf ppf "mechanism:%s" m

(* ---- scoped installation of what-if scalings -------------------------- *)

let rec with_scaled scaled f =
  match scaled with
  | [] -> f ()
  | (Site n, fac) :: rest -> (
      match Pstats.find n with
      | None -> invalid_arg (Printf.sprintf "Causal: unknown site %S" n)
      | Some s ->
          let old = Pstats.cost_mult s in
          Pstats.set_cost_mult s fac;
          Fun.protect
            ~finally:(fun () -> Pstats.set_cost_mult s old)
            (fun () -> with_scaled rest f))
  | (Category c, fac) :: rest ->
      let old = Pstats.category_mult c in
      Pstats.set_category_mult c fac;
      Fun.protect
        ~finally:(fun () -> Pstats.set_category_mult c old)
        (fun () -> with_scaled rest f)
  | (Mechanism m, fac) :: rest -> (
      match Cost.find_knob m with
      | None -> invalid_arg (Printf.sprintf "Causal: unknown mechanism %S" m)
      | Some (_, _, scale) ->
          Cost.with_tweaked
            (fun t -> scale t fac)
            (fun () -> with_scaled rest f))

(* ---- configuration ---------------------------------------------------- *)

type config = {
  factory : Set_intf.factory;
  workload : Workload.config;
  threads : int;
  ops_per_thread : int;
  seed : int;
  factors : float list;
  sites : bool;
  categories : bool;
  mechanisms : string list;
}

let default_mechanisms =
  [
    "pwb_issue";
    "pwb_accept";
    "pwb_latency";
    "pwb_steal";
    "pwb_shared";
    "pwb_inflight_stall";
    "pfence_base";
    "psync_base";
    "cas_contended";
    "cache_miss";
    "write_miss";
    "cas_drains_wb";
  ]

let validate cfg =
  Result.map_error (( ^ ) "causal: ")
    (Result.bind
       (Workload.validate_counts ~threads:cfg.threads
          ~ops_per_thread:cfg.ops_per_thread)
       (fun () -> Workload.validate cfg.workload))

let default_config factory mix =
  {
    factory;
    workload = Workload.default mix;
    threads = 16;
    ops_per_thread = 250;
    seed = 1;
    factors = [ 0.; 0.5; 2. ];
    sites = true;
    categories = true;
    mechanisms = default_mechanisms;
  }

let quick_config factory mix =
  { (default_config factory mix) with threads = 8; ops_per_thread = 120 }

(* ---- the fixed-work measurement core ---------------------------------- *)

(* Fixed work (N ops per thread), not fixed duration: under schedule
   replay a fixed-work run performs bit-identically the same operations
   in the same interleaving whatever the costs are — only the clocks
   move — so the throughput derivative is exact.  A fixed-duration run
   would let faster threads squeeze in extra operations and change the
   execution being compared. *)

type run_result = {
  makespan_ns : float;
  divergences : int;
  tape : int array;  (* recorded schedule; [||] when replaying *)
}

let run_fixed ?schedule cfg =
  Pmem.reset_pending ();
  let rng = Random.State.make [| cfg.seed; 0xCA5A |] in
  let heap =
    Pmem.heap ~track_for_crash:false ~name:cfg.factory.Set_intf.fname ()
  in
  let algo = cfg.factory.Set_intf.make heap ~threads:cfg.threads in
  Workload.prefill rng cfg.workload algo;
  Pmem.reset_pending ();
  Pstats.reset ();
  let finish = Array.make cfg.threads 0. in
  let body tid (_ : int) =
    let trng = Random.State.make [| cfg.seed; tid; 0x9E13 |] in
    for _ = 1 to cfg.ops_per_thread do
      let op = Workload.gen_op trng cfg.workload in
      ignore (Set_intf.apply algo op : bool)
    done;
    finish.(tid) <- Sim.now ()
  in
  let divergences = ref 0 in
  let recorded = ref [] in
  let record tid = if schedule = None then recorded := tid :: !recorded in
  let divergence ~step:_ ~want:_ = incr divergences in
  (match
     Sim.run ~policy:`Perf ~seed:cfg.seed ?schedule ~record ~divergence
       (Array.init cfg.threads (fun i -> body i))
   with
  | Sim.All_done -> ()
  | Sim.Crashed_at step ->
      failwith
        (Printf.sprintf
           "Causal.run_fixed: profiled run crashed at step %d (seed %d) — \
            causal profiles replay crash-free executions, so no workload \
            body may call Sim.request_crash"
           step cfg.seed));
  {
    makespan_ns = Array.fold_left Float.max 0. finish;
    divergences = !divergences;
    tape =
      (if schedule = None then Array.of_list (List.rev !recorded) else [||]);
  }

(* ---- attribution ------------------------------------------------------ *)

type row = {
  target : target;
  label : string;
  group : string;
  executions : int;
  time_share : float;
  points : (float * float) list;
  headroom : float;
  sensitivity : float;
  divergences : int;
}

type profile = {
  algo : string;
  mix : string;
  threads : int;
  ops_per_thread : int;
  total_ops : int;
  seed : int;
  factors : float list;
  baseline_ns_per_op : float;
  baseline_mops : float;
  persistence_time_ns : float;
  rows : row list;
}

let slope points =
  let n = float_of_int (List.length points) in
  if n < 2. then 0.
  else begin
    let xbar = List.fold_left (fun a (x, _) -> a +. x) 0. points /. n in
    let ybar = List.fold_left (fun a (_, y) -> a +. y) 0. points /. n in
    let num =
      List.fold_left
        (fun a (x, y) -> a +. ((x -. xbar) *. (y -. ybar)))
        0. points
    in
    let den =
      List.fold_left (fun a (x, _) -> a +. ((x -. xbar) ** 2.)) 0. points
    in
    if den = 0. then 0. else num /. den
  end

let kind_group = function
  | Pstats.Pwb -> "pwb"
  | Pstats.Pfence -> "pfence"
  | Pstats.Psync -> "psync"

let profile ?(jobs = 1) (cfg : config) =
  if cfg.factors = [] then invalid_arg "Causal.profile: empty factor sweep";
  let total_ops = cfg.threads * cfg.ops_per_thread in
  (* 1. Baseline: record the schedule, then snapshot per-site statistics
     before any rerun resets them. *)
  let base = run_fixed cfg in
  let base_ns_per_op = base.makespan_ns /. float_of_int total_ops in
  let executed_sites =
    List.filter_map
      (fun s ->
        let l, m, h = Pstats.site_counts s in
        let execs =
          match Pstats.kind s with
          | Pstats.Pwb -> l + m + h
          | Pstats.Pfence | Pstats.Psync -> Pstats.site_fences s
        in
        if execs > 0 then Some (s, execs, Pstats.site_time s) else None)
      (Pstats.sites ())
  in
  let cat_stats =
    let t = Pstats.totals () in
    [
      (Pstats.High, t.Pstats.high, Pstats.category_time Pstats.High);
      (Pstats.Medium, t.Pstats.medium, Pstats.category_time Pstats.Medium);
      (Pstats.Low, t.Pstats.low, Pstats.category_time Pstats.Low);
    ]
  in
  let persistence_time =
    List.fold_left (fun a (_, _, t) -> a +. t) 0. executed_sites
  in
  let share t = if persistence_time > 0. then t /. persistence_time else 0. in
  (* 2. Enumerate targets (label, group, baseline executions, time share). *)
  let targets =
    (if cfg.sites then
       List.map
         (fun (s, execs, time) ->
           ( Site (Pstats.name s),
             Pstats.name s,
             kind_group (Pstats.kind s),
             execs,
             share time ))
         executed_sites
     else [])
    @ (if cfg.categories then
         List.map
           (fun (c, n, time) ->
             ( Category c,
               Format.asprintf "pwb[%a]" Pstats.pp_category c,
               "category",
               n,
               share time ))
           cat_stats
       else [])
    @ List.map
        (fun m ->
          match Cost.find_knob m with
          | None ->
              invalid_arg (Printf.sprintf "Causal: unknown mechanism %S" m)
          | Some _ -> (Mechanism m, m, "mechanism", 0, Float.nan))
        cfg.mechanisms
  in
  (* 3. Replayed what-if sweep per target. *)
  let schedule = base.tape in
  let sweep_factors target =
    let non_baseline = List.filter (fun f -> f <> 1.) cfg.factors in
    match target with
    | Mechanism m -> (
        (* A Flag knob has no magnitude to scale: sweep it off vs. on. *)
        match Cost.find_knob m with
        | Some (_, Cost.Flag, _) -> [ 0. ]
        | _ -> non_baseline)
    | _ -> non_baseline
  in
  (* Every (target, factor) rerun is independent — replayed against the
     same recorded tape, scaling only domain-local cost state — so fan
     the flat pair list across domains and reassemble rows in target
     order.  Results are merged by work-item index, so the profile is
     byte-identical at every [jobs] value. *)
  let targets_arr = Array.of_list targets in
  let pairs =
    List.concat
      (List.mapi
         (fun ti (target, _, _, _, _) ->
           List.map (fun f -> (ti, f)) (sweep_factors target))
         targets)
  in
  let reruns =
    Parallel.run ~jobs
      (fun _ (ti, f) ->
        let target, _, _, _, _ = targets_arr.(ti) in
        let r = with_scaled [ (target, f) ] (fun () -> run_fixed ~schedule cfg) in
        (r.makespan_ns, r.divergences))
      (Array.of_list pairs)
  in
  let rerun_tbl = Hashtbl.create (Array.length reruns) in
  List.iteri
    (fun i (ti, f) -> Hashtbl.replace rerun_tbl (ti, f) reruns.(i))
    pairs;
  let rows =
    List.mapi
      (fun ti (target, label, group, executions, time_share) ->
        let divergences = ref 0 in
        let points =
          List.map
            (fun f ->
              let makespan_ns, divs = Hashtbl.find rerun_tbl (ti, f) in
              divergences := !divergences + divs;
              (f, makespan_ns /. float_of_int total_ops))
            (sweep_factors target)
        in
        let points =
          List.sort
            (fun (a, _) (b, _) -> compare a b)
            ((1.0, base_ns_per_op) :: points)
        in
        let headroom =
          match List.assoc_opt 0. points with
          | Some ns0 when ns0 > 0. -> (base_ns_per_op /. ns0) -. 1.
          | _ -> Float.nan
        in
        {
          target;
          label;
          group;
          executions;
          time_share;
          points;
          headroom;
          sensitivity = slope points;
          divergences = !divergences;
        })
      targets
  in
  let rows =
    List.sort
      (fun a b ->
        match compare b.sensitivity a.sensitivity with
        | 0 -> compare a.label b.label
        | c -> c)
      rows
  in
  {
    algo = cfg.factory.Set_intf.fname;
    mix = cfg.workload.Workload.mix.Workload.name;
    threads = cfg.threads;
    ops_per_thread = cfg.ops_per_thread;
    total_ops;
    seed = cfg.seed;
    factors = List.sort_uniq compare (1.0 :: cfg.factors);
    baseline_ns_per_op = base_ns_per_op;
    baseline_mops =
      (if base.makespan_ns > 0. then
         float_of_int total_ops /. base.makespan_ns *. 1000.
       else 0.);
    persistence_time_ns = persistence_time;
    rows;
  }

(* ---- export ----------------------------------------------------------- *)

let fmt_float v = if Float.is_nan v then "" else Printf.sprintf "%.3f" v

let to_csv p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "rank,group,target,executions,time_share,sensitivity_ns_per_op,sensitivity_per_exec,headroom,divergences";
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf ",ns_per_op@%gx" f))
    p.factors;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i r ->
      let per_exec =
        if r.executions > 0 then
          Printf.sprintf "%.6f" (r.sensitivity /. float_of_int r.executions)
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%d,%s,%s,%s,%s,%d" (i + 1) r.group r.label
           r.executions (fmt_float r.time_share) (fmt_float r.sensitivity)
           per_exec (fmt_float r.headroom) r.divergences);
      List.iter
        (fun f ->
          Buffer.add_char buf ',';
          match List.assoc_opt f r.points with
          | Some ns -> Buffer.add_string buf (fmt_float ns)
          | None -> ())
        p.factors;
      Buffer.add_char buf '\n')
    p.rows;
  Buffer.contents buf

(* JSON has no NaN: absent quantities (mechanism time shares, headroom
   without a 0x sweep) serialize as null. *)
let json_float v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v

let to_json p =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{";
  add (Printf.sprintf "\"algo\":\"%s\"," (Json.escape p.algo));
  add (Printf.sprintf "\"mix\":\"%s\"," (Json.escape p.mix));
  add (Printf.sprintf "\"threads\":%d," p.threads);
  add (Printf.sprintf "\"ops_per_thread\":%d," p.ops_per_thread);
  add (Printf.sprintf "\"total_ops\":%d," p.total_ops);
  add (Printf.sprintf "\"seed\":%d," p.seed);
  add
    (Printf.sprintf "\"factors\":[%s],"
       (String.concat "," (List.map json_float p.factors)));
  add
    (Printf.sprintf "\"baseline_ns_per_op\":%s,"
       (json_float p.baseline_ns_per_op));
  add (Printf.sprintf "\"baseline_mops\":%s," (json_float p.baseline_mops));
  add
    (Printf.sprintf "\"persistence_time_ns\":%s,"
       (json_float p.persistence_time_ns));
  add "\"rows\":[";
  List.iteri
    (fun i r ->
      if i > 0 then add ",";
      add "{";
      add (Printf.sprintf "\"rank\":%d," (i + 1));
      add (Printf.sprintf "\"group\":\"%s\"," (Json.escape r.group));
      add (Printf.sprintf "\"target\":\"%s\"," (Json.escape r.label));
      add (Printf.sprintf "\"executions\":%d," r.executions);
      add (Printf.sprintf "\"time_share\":%s," (json_float r.time_share));
      add (Printf.sprintf "\"sensitivity\":%s," (json_float r.sensitivity));
      add (Printf.sprintf "\"headroom\":%s," (json_float r.headroom));
      add (Printf.sprintf "\"divergences\":%d," r.divergences);
      add "\"points\":[";
      List.iteri
        (fun j (f, ns) ->
          if j > 0 then add ",";
          add
            (Printf.sprintf "{\"factor\":%s,\"ns_per_op\":%s}" (json_float f)
               (json_float ns)))
        r.points;
      add "]}")
    p.rows;
  add "]}";
  Buffer.contents buf
