(* Service-level reporting for a serve run: request-latency quantiles,
   throughput, per-shard recovery durations and queue depths, and the
   degraded-window analysis around a shard crash.

   Latency is [done_ns - submit_ns] across two per-fiber virtual clocks
   (client submits, server completes).  Under the `Perf policy the
   scheduler keeps clocks closely aligned (min-clock dispatch), so the
   skew is bounded by one scheduling quantum; differences are clamped at
   zero.  Quantiles here are computed exactly from the raw samples
   (nearest-rank), independent of the log-bucketed Metrics histograms. *)

type shard_stat = {
  ss_sid : int;
  ss_backend : string;  (* structure instance name (multi-backend stores) *)
  ss_served : int;
  ss_keys : int;  (* resident keys at end of run (balance input) *)
  ss_crashes : int;
  ss_retried : int;
  ss_recovered : int;
  ss_deferred : int;  (* guard deferrals (key mid-handoff) *)
  ss_forwarded : int;  (* guard forwards (key owned elsewhere) *)
  ss_max_queue : int;
  ss_heap_lines : int;  (* occupancy of this shard's heap, in cache lines *)
  ss_recovery_ns : float list;  (* per crash, oldest first *)
  ss_promotions : int;  (* crashes resolved by replica failover *)
  ss_failover_ns : float list;  (* per promotion: crash -> promoted, oldest first *)
  ss_resync_ns : float list;  (* per completed replica re-sync, oldest first *)
}

type degraded = {
  dg_victim : int;
  dg_window_ns : float;  (* total virtual time spent crashed+recovering *)
  dg_survivor_completions : int;
  dg_survivor_mops : float;
}

(* One shard's slice of one virtual-time window: the raw material of the
   Perfetto counter tracks and the windows CSV.  Rows are flat
   (window x shard) so consumers never have to re-join. *)
type window = {
  w_index : int;
  w_start_ns : float;
  w_end_ns : float;
  w_sid : int;
  w_completions : int;
  w_mops : float;
  w_lat_mean_ns : float option;
}

type report = {
  total_requests : int;
  completed : int;
  lost : int;
  retried : int;
  recovered : int;
  makespan_ns : float;
  throughput_mops : float;
  lat_mean_ns : float option;
  lat_p50_ns : float option;
  lat_p90_ns : float option;
  lat_p99_ns : float option;
  degraded : degraded option;
  shards : shard_stat list;
  balance : float option;
      (* max/min resident-key ratio across the set-model shards: 1.0 is
         perfect balance; [None] when it is not measurable (no set-model
         shard, or some set-model shard ended empty) *)
  windows : window list;  (* window-major, then shard id; [] if empty run *)
  window_ns : float;
  divergences : int;
}

(* [None] when there are no samples: a run that completed nothing has no
   latency distribution, and reporting a fabricated 0 ns quantile would
   read as an impossibly fast service instead of an empty one. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    Some sorted.(max 0 (min (n - 1) (rank - 1)))

let latency (req : Shard.request) =
  match req.Shard.state with
  | Shard.Pending -> None
  | Shard.Done { done_ns; _ } ->
      Some (Float.max 0. (done_ns -. req.Shard.submit_ns))

let default_window_count = 8

let build ?window_ns ~total ~divergences ~requests ~(shards : Shard.t array)
    ~crash_victim () =
  let completed = ref 0 and lost = ref 0 in
  let first_submit = ref infinity and last_done = ref 0. in
  let lats = ref [] in
  List.iter
    (fun (r : Shard.request) ->
      if r.Shard.submit_ns < !first_submit then first_submit := r.Shard.submit_ns;
      match r.Shard.state with
      | Shard.Pending -> incr lost
      | Shard.Done { done_ns; _ } ->
          incr completed;
          if done_ns > !last_done then last_done := done_ns;
          lats := Float.max 0. (done_ns -. r.Shard.submit_ns) :: !lats)
    requests;
  let lats = Array.of_list !lats in
  Array.sort compare lats;
  let mean =
    if Array.length lats = 0 then None
    else
      Some (Array.fold_left ( +. ) 0. lats /. float_of_int (Array.length lats))
  in
  let makespan =
    if !completed = 0 then 0. else Float.max 1. (!last_done -. !first_submit)
  in
  let stats =
    Array.to_list
      (Array.map
         (fun (s : Shard.t) ->
           {
             ss_sid = s.Shard.sid;
             ss_backend = s.Shard.algo.Set_intf.name;
             ss_served = s.Shard.served;
             ss_keys = List.length (s.Shard.algo.Set_intf.contents ());
             ss_crashes = s.Shard.crashes;
             ss_retried = s.Shard.retried;
             ss_recovered = s.Shard.recovered;
             ss_deferred = s.Shard.deferred;
             ss_forwarded = s.Shard.forwarded;
             ss_max_queue = s.Shard.max_queue;
             ss_heap_lines = Pmem.lines_allocated s.Shard.heap;
             ss_recovery_ns =
               List.rev_map (fun (t0, t1) -> t1 -. t0) s.Shard.recoveries;
             ss_promotions =
               (match s.Shard.replica with
               | Some rep -> rep.Replica.promotions
               | None -> 0);
             ss_failover_ns =
               (match s.Shard.replica with
               | Some rep ->
                   List.rev_map (fun (t0, t1) -> t1 -. t0) rep.Replica.failovers
               | None -> []);
             ss_resync_ns =
               (match s.Shard.replica with
               | Some rep ->
                   List.rev_map (fun (t0, t1) -> t1 -. t0) rep.Replica.resyncs
               | None -> []);
           })
         shards)
  in
  (* Balance across the set-model shards only: a FIFO topic backend's
     resident count follows its enqueue/dequeue mix, not placement, so
     mixing it in would drown the router's signal. *)
  let balance =
    let key_counts =
      Array.to_list shards
      |> List.filter_map (fun (s : Shard.t) ->
             match s.Shard.model with
             | Set_intf.Set_model ->
                 Some (List.length (s.Shard.algo.Set_intf.contents ()))
             | Set_intf.Queue_model -> None)
    in
    match key_counts with
    | [] -> None
    | c :: cs ->
        let mn = List.fold_left min c cs and mx = List.fold_left max c cs in
        if mn = 0 then if mx = 0 then Some 1.0 else None
        else Some (float_of_int mx /. float_of_int mn)
  in
  let degraded =
    match crash_victim with
    | None -> None
    | Some victim when victim < 0 || victim >= Array.length shards -> None
    | Some victim ->
        let windows = shards.(victim).Shard.recoveries in
        if windows = [] then None
        else begin
          let window_ns =
            List.fold_left (fun acc (t0, t1) -> acc +. (t1 -. t0)) 0. windows
          in
          let in_window ns =
            List.exists (fun (t0, t1) -> ns >= t0 && ns <= t1) windows
          in
          let survivors =
            List.fold_left
              (fun acc (r : Shard.request) ->
                match r.Shard.state with
                | Shard.Done { done_ns; _ }
                  when r.Shard.rsid <> victim && in_window done_ns ->
                    acc + 1
                | _ -> acc)
              0 requests
          in
          Some
            {
              dg_victim = victim;
              dg_window_ns = window_ns;
              dg_survivor_completions = survivors;
              dg_survivor_mops =
                (if window_ns <= 0. then 0.
                 else float_of_int survivors /. window_ns *. 1000.);
            }
        end
  in
  (* Windowed per-shard time-series: split [first_submit, last_done] into
     fixed virtual-time windows and bucket completions by [done_ns].
     Every (window, shard) cell is emitted — including empty ones — so
     the counter tracks and the CSV have a regular grid. *)
  let wn =
    match window_ns with
    | Some w when w > 0. -> w
    | _ ->
        if makespan <= 0. then 0.
        else Float.max 1. (makespan /. float_of_int default_window_count)
  in
  let windows =
    if !completed = 0 || wn <= 0. then []
    else begin
      let nshards = Array.length shards in
      let nwin =
        max 1 (int_of_float (ceil (makespan /. wn)))
      in
      let counts = Array.make_matrix nwin nshards 0 in
      let lat_sums = Array.make_matrix nwin nshards 0. in
      List.iter
        (fun (r : Shard.request) ->
          match r.Shard.state with
          | Shard.Pending -> ()
          | Shard.Done { done_ns; _ } ->
              let w =
                int_of_float ((done_ns -. !first_submit) /. wn)
              in
              let w = max 0 (min (nwin - 1) w) in
              counts.(w).(r.Shard.rsid) <- counts.(w).(r.Shard.rsid) + 1;
              lat_sums.(w).(r.Shard.rsid) <-
                lat_sums.(w).(r.Shard.rsid)
                +. Float.max 0. (done_ns -. r.Shard.submit_ns))
        requests;
      List.concat
        (List.init nwin (fun w ->
             List.init nshards (fun sid ->
                 let n = counts.(w).(sid) in
                 {
                   w_index = w;
                   w_start_ns = !first_submit +. (float_of_int w *. wn);
                   w_end_ns = !first_submit +. (float_of_int (w + 1) *. wn);
                   w_sid = sid;
                   w_completions = n;
                   w_mops =
                     (if wn <= 0. then 0.
                      else float_of_int n /. wn *. 1000.);
                   w_lat_mean_ns =
                     (if n = 0 then None
                      else Some (lat_sums.(w).(sid) /. float_of_int n));
                 })))
    end
  in
  {
    total_requests = total;
    completed = !completed;
    lost = !lost;
    retried =
      Array.fold_left (fun acc s -> acc + s.Shard.retried) 0 shards;
    recovered =
      Array.fold_left (fun acc s -> acc + s.Shard.recovered) 0 shards;
    makespan_ns = makespan;
    throughput_mops =
      (if makespan <= 0. then 0.
       else float_of_int !completed /. makespan *. 1000.);
    lat_mean_ns = mean;
    lat_p50_ns = quantile lats 0.50;
    lat_p90_ns = quantile lats 0.90;
    lat_p99_ns = quantile lats 0.99;
    degraded;
    shards = stats;
    balance;
    windows;
    window_ns = wn;
    divergences;
  }

(* The service-level acceptance gate for `repro serve --check`:
   detectability at the request level means nothing may be lost and —
   when a crash was planned — the victim really crashed, recovery took
   measurable time, and the survivors kept completing requests inside
   the degraded window. *)
let check ?balance_max ~crash_expected r =
  if r.completed = 0 then
    Error
      (Printf.sprintf
         "empty run: 0 of %d requests completed — nothing to check"
         r.total_requests)
  else if r.lost > 0 then
    Error (Printf.sprintf "lost requests: %d never resolved" r.lost)
  else if r.completed <> r.total_requests then
    Error
      (Printf.sprintf "lost requests: completed %d of %d" r.completed
         r.total_requests)
  else
    let balance_verdict () =
      match balance_max with
      | None -> Ok ()
      | Some limit -> (
          match r.balance with
          | None ->
              Error
                "imbalanced shards: a set-model shard ended empty (ratio \
                 unbounded)"
          | Some ratio when ratio > limit ->
              Error
                (Printf.sprintf
                   "imbalanced shards: max/min key ratio %.2f exceeds %.2f"
                   ratio limit)
          | Some _ -> Ok ())
    in
    if crash_expected then
      match r.degraded with
      | None -> Error "lost crash: the planned shard crash never fired"
      | Some d ->
          if d.dg_window_ns <= 0. then
            Error "lost crash: recovery window has zero duration"
          else if d.dg_survivor_completions = 0 then
            Error
              "degraded throughput: no survivor completions during recovery"
          else balance_verdict ()
    else balance_verdict ()

let pp ppf r =
  Format.fprintf ppf
    "requests %d  completed %d  lost %d  retried %d  recovered %d@."
    r.total_requests r.completed r.lost r.retried r.recovered;
  let lat = function
    | None -> "-"
    | Some ns -> Printf.sprintf "%.0f" ns
  in
  Format.fprintf ppf
    "makespan %.0f ns  throughput %.3f Mops/s  latency mean %s  p50 %s  \
     p90 %s  p99 %s ns@."
    r.makespan_ns r.throughput_mops (lat r.lat_mean_ns) (lat r.lat_p50_ns)
    (lat r.lat_p90_ns) (lat r.lat_p99_ns);
  (match r.degraded with
  | None -> ()
  | Some d ->
      Format.fprintf ppf
        "degraded window: shard %d down %.0f ns; survivors completed %d \
         requests (%.3f Mops/s)@."
        d.dg_victim d.dg_window_ns d.dg_survivor_completions d.dg_survivor_mops);
  (match r.balance with
  | None -> ()
  | Some ratio -> Format.fprintf ppf "balance: max/min key ratio %.2f@." ratio);
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  shard %d (%s): served %d  keys %d  crashes %d  retried %d  \
         recovered %d  deferred %d  forwarded %d  max-queue %d  heap %d \
         lines%s%s@."
        s.ss_sid s.ss_backend s.ss_served s.ss_keys s.ss_crashes s.ss_retried
        s.ss_recovered s.ss_deferred s.ss_forwarded s.ss_max_queue
        s.ss_heap_lines
        (match s.ss_recovery_ns with
        | [] -> ""
        | ds ->
            "  recovery " ^ String.concat "+"
              (List.map (fun d -> Printf.sprintf "%.0fns" d) ds))
        (if s.ss_promotions = 0 then ""
         else
           Printf.sprintf "  failover %d (%s)%s" s.ss_promotions
             (String.concat "+"
                (List.map (fun d -> Printf.sprintf "%.0fns" d) s.ss_failover_ns))
             (match s.ss_resync_ns with
             | [] -> ", re-sync pending"
             | ds ->
                 ", re-sync " ^ String.concat "+"
                   (List.map (fun d -> Printf.sprintf "%.0fns" d) ds))))
    r.shards;
  if r.divergences > 0 then
    Format.fprintf ppf "  WARNING: %d schedule divergences@." r.divergences

let to_json r =
  let b = Buffer.create 1024 in
  let f fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  f "{";
  f "\"total_requests\":%d,\"completed\":%d,\"lost\":%d," r.total_requests
    r.completed r.lost;
  f "\"retried\":%d,\"recovered\":%d," r.retried r.recovered;
  f "\"makespan_ns\":%.1f,\"throughput_mops\":%.6f," r.makespan_ns
    r.throughput_mops;
  let lat = function
    | None -> "null"
    | Some ns -> Printf.sprintf "%.1f" ns
  in
  f "\"latency_ns\":{\"mean\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}," (lat r.lat_mean_ns)
    (lat r.lat_p50_ns) (lat r.lat_p90_ns) (lat r.lat_p99_ns);
  (match r.degraded with
  | None -> f "\"degraded\":null,"
  | Some d ->
      f
        "\"degraded\":{\"victim\":%d,\"window_ns\":%.1f,\"survivor_completions\":%d,\"survivor_mops\":%.6f},"
        d.dg_victim d.dg_window_ns d.dg_survivor_completions d.dg_survivor_mops);
  (match r.balance with
  | None -> f "\"balance\":null,"
  | Some ratio -> f "\"balance\":%.4f," ratio);
  f "\"shards\":[";
  List.iteri
    (fun i s ->
      if i > 0 then f ",";
      let ns_list l =
        String.concat "," (List.map (fun d -> Printf.sprintf "%.1f" d) l)
      in
      f
        "{\"sid\":%d,\"backend\":\"%s\",\"served\":%d,\"keys\":%d,\"crashes\":%d,\"retried\":%d,\"recovered\":%d,\"deferred\":%d,\"forwarded\":%d,\"max_queue\":%d,\"heap_lines\":%d,\"recovery_ns\":[%s],\"promotions\":%d,\"failover_ns\":[%s],\"resync_ns\":[%s]}"
        s.ss_sid (Json.escape s.ss_backend) s.ss_served s.ss_keys s.ss_crashes
        s.ss_retried s.ss_recovered s.ss_deferred s.ss_forwarded s.ss_max_queue
        s.ss_heap_lines (ns_list s.ss_recovery_ns) s.ss_promotions
        (ns_list s.ss_failover_ns) (ns_list s.ss_resync_ns))
    r.shards;
  f "],\"window_ns\":%.1f,\"windows\":[" r.window_ns;
  List.iteri
    (fun i w ->
      if i > 0 then f ",";
      f
        "{\"index\":%d,\"start_ns\":%.1f,\"end_ns\":%.1f,\"sid\":%d,\"completions\":%d,\"mops\":%.6f,\"lat_mean_ns\":%s}"
        w.w_index w.w_start_ns w.w_end_ns w.w_sid w.w_completions w.w_mops
        (match w.w_lat_mean_ns with
        | None -> "null"
        | Some ns -> Printf.sprintf "%.1f" ns))
    r.windows;
  f "],\"divergences\":%d}" r.divergences;
  Buffer.contents b

(* The per-shard windowed time-series as CSV (one row per window x shard,
   fixed precision so output is byte-stable). *)
let windows_csv r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "window,start_ns,end_ns,shard,completions,throughput_mops,lat_mean_ns\n";
  List.iter
    (fun w ->
      Buffer.add_string b
        (Printf.sprintf "%d,%.1f,%.1f,%d,%d,%.6f,%s\n" w.w_index w.w_start_ns
           w.w_end_ns w.w_sid w.w_completions w.w_mops
           (match w.w_lat_mean_ns with
           | None -> ""
           | Some ns -> Printf.sprintf "%.1f" ns)))
    r.windows;
  Buffer.contents b
