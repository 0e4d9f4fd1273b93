(* The benchmark's four workloads.  A workload is a sequence of slices;
   slice [seed] generates that seed's inputs, drives them through the
   layers' entry calls ([Runner.measure], [Explore.run], [Store.run]),
   times those calls on the host clock and checks every output. *)

type size = Full | Tiny

type slice = {
  units : int;  (* simulated ops, crash executions or store requests *)
  host_s : float;  (* host time inside the entry calls *)
  attempted : int;
  failed : int;
  errors : string list;
  virt : (string * float) list;
      (* simulated results and layer counts: a pure function of the seed *)
}

(* How a slice is observed: untraced, or through {!Spans}. *)
type hooks = {
  wrap : Set_intf.factory -> Set_intf.factory;
  entry : 'a. string -> (unit -> 'a) -> 'a;
}

let untraced = { wrap = Fun.id; entry = (fun _ f -> f ()) }

type t = {
  name : string;
  unit_name : string;
  seeds : int;
      (* distinct seeds per run, one round of them 1-3 host seconds: the
         untraced run repeats the round, the traced run makes it once *)
  run : size:size -> jobs:int -> hooks -> int -> slice;
}

let timed hooks label f =
  let t0 = Measure.now_ns () in
  let r = try Ok (hooks.entry label f) with e -> Error (Printexc.to_string e) in
  (r, Measure.secs_since t0)

let combine slices =
  List.fold_left
    (fun acc s ->
      {
        units = acc.units + s.units;
        host_s = acc.host_s +. s.host_s;
        attempted = acc.attempted + s.attempted;
        failed = acc.failed + s.failed;
        errors = acc.errors @ s.errors;
        virt = acc.virt @ s.virt;
      })
    { units = 0; host_s = 0.; attempted = 0; failed = 0; errors = []; virt = [] }
    slices

(* ---- list-read, list-contended ----------------------------------------------- *)

(* Every call's outcome on one instance, prefill included, in a buffer
   reused across slices; code = ((key * 3 + kind) * 2 + ok). *)
let record_buf = ref (Array.make (1 lsl 18) 0)
let record_len = ref 0

let push code =
  if !record_len = Array.length !record_buf then begin
    let bigger = Array.make (2 * !record_len) 0 in
    Array.blit !record_buf 0 bigger 0 !record_len;
    record_buf := bigger
  end;
  !record_buf.(!record_len) <- code;
  incr record_len

let recorded_events () =
  List.init !record_len (fun i ->
      let c = !record_buf.(i) in
      let ok = c land 1 = 1 and kk = c lsr 1 in
      let k = kk / 3 in
      let eop =
        match kk mod 3 with
        | 0 -> Set_intf.Ins k
        | 1 -> Set_intf.Del k
        | _ -> Set_intf.Fnd k
      in
      { Oracle.eop; ok })

let recording (f : Set_intf.factory) (made : Set_intf.t option ref) =
  {
    f with
    Set_intf.make =
      (fun heap ~threads ->
        let t = f.Set_intf.make heap ~threads in
        made := Some t;
        let rec_ kind call k =
          let ok = call k in
          push ((((k * 3) + kind) * 2) + Bool.to_int ok);
          ok
        in
        {
          t with
          Set_intf.insert = rec_ 0 t.Set_intf.insert;
          delete = rec_ 1 t.Set_intf.delete;
          find = rec_ 2 t.Set_intf.find;
        });
  }

let list_algos = Set_intf.[ tracking; capsules_opt; memento_list ]
let list_threads = 16

(* One [Runner.measure] per algorithm; the instance must keep its
   invariants and its whole history must satisfy the per-key oracle. *)
let list_slice ~duration_ns wl ~size ~jobs:_ hooks seed =
  let duration_ns = match size with Full -> duration_ns | Tiny -> 20_000. in
  combine
    (List.map
       (fun (f : Set_intf.factory) ->
         record_len := 0;
         let made = ref None in
         let r, host_s =
           timed hooks ("measure " ^ f.Set_intf.fname) (fun () ->
               Runner.measure ~duration_ns ~seed
                 (recording (hooks.wrap f) made)
                 ~threads:list_threads wl)
         in
         let persist_ns =
           List.fold_left (fun acc s -> acc +. Pstats.site_time s) 0. (Pstats.sites ())
         in
         let verdict =
           match (r, !made) with
           | Error m, _ -> Error m
           | Ok _, None -> Error "no instance was made"
           | Ok _, Some t -> (
               match t.Set_intf.check () with
               | Error m -> Error m
               | Ok () ->
                   Oracle.check ~initial:[] ~final:(t.Set_intf.contents ())
                     (recorded_events ()))
         in
         let ops = match r with Ok p -> p.Runner.ops | Error _ -> 0 in
         let name = f.Set_intf.fname in
         {
           units = ops;
           host_s;
           attempted = max 1 ops;
           failed = (match verdict with Ok () -> 0 | Error _ -> max 1 ops);
           errors =
             (match verdict with
             | Ok () -> []
             | Error m -> [ Printf.sprintf "%s seed %d: %s" name seed m ]);
           virt =
             (match r with
             | Error _ -> []
             | Ok p ->
                 [
                   ("vmops." ^ name, p.Runner.throughput_mops);
                   ( "persist_share." ^ name,
                     persist_ns /. (float_of_int list_threads *. duration_ns) );
                 ]);
         })
       list_algos)

let list_read =
  {
    name = "list-read";
    unit_name = "op";
    seeds = 5;
    run =
      list_slice ~duration_ns:600_000. (Workload.default Workload.read_intensive);
  }

let list_contended =
  {
    name = "list-contended";
    unit_name = "op";
    seeds = 8;
    run =
      list_slice ~duration_ns:2_000_000.
        {
          (Workload.default Workload.update_intensive) with
          Workload.key_range = 64;
          prefill_n = 32;
          dist = Workload.skewed 0.8;
        };
  }

(* ---- crash-explore ---------------------------------------------------------- *)

let explore_algos = Set_intf.[ tracking; memento_list ]

let explore_config ~size factory seed =
  {
    Explore.campaign =
      {
        Crashes.factory;
        threads = 2;
        ops_per_thread = (match size with Full -> 2 | Tiny -> 1);
        workload =
          {
            (Workload.default Workload.update_intensive) with
            Workload.key_range = 8;
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

(* One exhaustive tree per framework; every execution runs the full
   oracle, invariant and poison checks of [Crashes]. *)
let explore_slice ~size ~jobs hooks seed =
  combine
    (List.map
       (fun (f : Set_intf.factory) ->
         let name = f.Set_intf.fname in
         let r, host_s =
           timed hooks ("explore " ^ name) (fun () ->
               Explore.run ~stop_on_failure:false ~jobs
                 (explore_config ~size (hooks.wrap f) seed))
         in
         match r with
         | Error m ->
             {
               units = 0;
               host_s;
               attempted = 1;
               failed = 1;
               errors = [ Printf.sprintf "%s seed %d: %s" name seed m ];
               virt = [];
             }
         | Ok o ->
             let st = o.Explore.stats in
             let incomplete = if st.Explore.complete then 0 else 1 in
             {
               units = st.Explore.executions;
               host_s;
               attempted = max 1 st.Explore.executions;
               failed = st.Explore.failures + incomplete;
               errors =
                 (if st.Explore.failures + incomplete = 0 then []
                  else
                    [
                      Printf.sprintf "%s seed %d: %d failures%s" name seed
                        st.Explore.failures
                        (if incomplete = 1 then ", tree not exhausted" else "");
                    ]);
               virt =
                 List.map
                   (fun (k, v) -> (Printf.sprintf "explore.%s.%s" k name, float_of_int v))
                   [
                     ("executions", st.Explore.executions);
                     ("decisions", st.Explore.decision_points);
                     ("crash_points", st.Explore.crash_points);
                     ("wb_choices", st.Explore.wb_choices);
                     ("pruned", st.Explore.pruned);
                   ];
             })
       explore_algos)

let crash_explore =
  { name = "crash-explore"; unit_name = "execution"; seeds = 24; run = explore_slice }

(* ---- serve-failover ---------------------------------------------------------- *)

let reference_mops = 1.5
let p99_limit_ns = 20_000.
let clients = 4

let serve_config ~size ~rate_mops factory seed =
  let ops = match size with Full -> 5_000 | Tiny -> 100 in
  let total = clients * ops in
  {
    (Store.default_config factory) with
    Store.shards = 4;
    clients;
    ops_per_client = ops;
    workload =
      {
        (Workload.default Workload.update_intensive) with
        Workload.key_range = 1024;
        prefill_n = 512;
        dist = Workload.skewed 0.8;
      };
    (* [clients] Poisson streams summing to [rate_mops] requests per µs *)
    open_loop_ns = Some (float_of_int clients *. 1e3 /. rate_mops);
    crash = Some (Store.After_requests { victim = 1; requests = total / 2 });
    replicate = true;
    migrate = Some { Store.msrc = 0; m_after = total / 4; m_broken = false };
    seed;
  }

let serve_once ~size ~rate_mops hooks seed =
  let cfg = serve_config ~size ~rate_mops (hooks.wrap Set_intf.tracking) seed in
  let total = cfg.Store.clients * cfg.Store.ops_per_client in
  let r, host_s =
    timed hooks (Printf.sprintf "serve %.2f Mops" rate_mops) (fun () -> Store.run cfg)
  in
  let r = match r with Ok (Ok rep) -> Ok rep | Ok (Error m) | Error m -> Error m in
  (cfg, total, r, host_s)

(* A request that never resolved, or any request of a run the store
   rejected, counts as failed. *)
let serve_slice ~size ~jobs:_ hooks seed =
  let _, total, r, host_s = serve_once ~size ~rate_mops:reference_mops hooks seed in
  match r with
  | Error m ->
      {
        units = 0;
        host_s;
        attempted = total;
        failed = total;
        errors = [ Printf.sprintf "serve seed %d: %s" seed m ];
        virt = [];
      }
  | Ok rep ->
      let failed = rep.Slo.lost + (total - rep.Slo.completed) in
      let shards = rep.Slo.shards in
      let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 shards) in
      let top f = float_of_int (List.fold_left (fun a s -> max a (f s)) 0 shards) in
      let windows =
        List.concat_map (fun s -> s.Slo.ss_recovery_ns @ s.Slo.ss_failover_ns) shards
      in
      let q = function Some x -> x | None -> nan in
      {
        units = rep.Slo.completed;
        host_s;
        attempted = total;
        failed;
        errors =
          (if failed = 0 then []
           else [ Printf.sprintf "serve seed %d: %d requests lost" seed failed ]);
        virt =
          [
            ("v_p50_ns", q rep.Slo.lat_p50_ns);
            ("v_p99_ns", q rep.Slo.lat_p99_ns);
            ("v_mops", rep.Slo.throughput_mops);
            ("store.hot_shard_share", top (fun s -> s.Slo.ss_served) /. sum (fun s -> s.Slo.ss_served));
            ("store.max_queue", top (fun s -> s.Slo.ss_max_queue));
            ("store.retried", sum (fun s -> s.Slo.ss_retried));
            ("store.recovered", sum (fun s -> s.Slo.ss_recovered));
            ("store.deferred", sum (fun s -> s.Slo.ss_deferred));
            ("store.forwarded", sum (fun s -> s.Slo.ss_forwarded));
            ("store.recovery_ns", List.fold_left ( +. ) 0. windows);
          ];
      }

let serve_failover =
  { name = "serve-failover"; unit_name = "request"; seeds = 4; run = serve_slice }

let ladder = List.init 11 (fun i -> 0.5 +. (0.25 *. float_of_int i))

(* The highest offered rate whose p99 stays within [p99_limit_ns], with
   every request completed and no backlog (makespan within 5% of the
   arrival span); the ladder stops at its first failing rung. *)
let capacity ~size seed =
  let meets rate_mops =
    let cfg, total, r, _ = serve_once ~size ~rate_mops untraced seed in
    match r with
    | Error _ -> false
    | Ok rep ->
        let span =
          float_of_int cfg.Store.ops_per_client *. Option.get cfg.Store.open_loop_ns
        in
        rep.Slo.completed = total && rep.Slo.lost = 0
        && (match rep.Slo.lat_p99_ns with Some p -> p <= p99_limit_ns | None -> false)
        && rep.Slo.makespan_ns <= 1.05 *. span
  in
  let rec climb best = function
    | r :: rest when meets r -> climb r rest
    | _ -> best
  in
  climb 0. ladder

let all = [ list_read; list_contended; crash_explore; serve_failover ]
let find name = List.find_opt (fun w -> w.name = name) all
