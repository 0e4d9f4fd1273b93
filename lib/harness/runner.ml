type point = {
  algo : string;
  threads : int;
  mix : string;
  throughput_mops : float;
  ops : int;
  pwbs_per_op : float;
  psyncs_per_op : float;
  pfences_per_op : float;
  low_frac : float;
  medium_frac : float;
  high_frac : float;
  lat_p50_ns : float;
  lat_p90_ns : float;
  lat_p99_ns : float;
  lat_max_ns : float;
}

let measure ?(duration_ns = 400_000.) ?(seed = 1) ?(prepare = fun () -> ())
    factory ~threads workload =
  Pmem.reset_pending ();
  let rng = Random.State.make [| seed; 0xBE7C |] in
  let heap = Pmem.heap ~track_for_crash:false ~name:factory.Set_intf.fname () in
  let algo = factory.Set_intf.make heap ~threads in
  Workload.prefill rng workload algo;
  Pmem.reset_pending ();
  prepare ();
  Pstats.reset ();
  if Metrics.active () then Metrics.reset ();
  let ops = Array.make threads 0 in
  let body tid (_ : int) =
    let trng = Random.State.make [| seed; tid; 0x9E13 |] in
    let rec go () =
      if Sim.now () < duration_ns then begin
        let op = Workload.gen_op trng workload in
        Events.op_begin ~kind:(Events.kind_of_op op) ~key:(Set_intf.op_key op);
        let ok = Set_intf.apply algo op in
        Events.op_end ~ok;
        ops.(tid) <- ops.(tid) + 1;
        go ()
      end
    in
    go ()
  in
  (match Sim.run ~policy:`Perf ~seed (Array.init threads (fun i -> body i)) with
  | Sim.All_done -> ()
  | Sim.Crashed_at step ->
      failwith
        (Printf.sprintf
           "Runner: throughput run crashed at step %d (seed %d) — \
            throughput runs configure no crash point, so no workload body \
            may call Sim.request_crash"
           step seed));
  let total_ops = Array.fold_left ( + ) 0 ops in
  let lat = if Metrics.active () then Metrics.hist_summary "op" else None in
  let t = Pstats.totals () in
  let per x = if total_ops = 0 then 0. else float_of_int x /. float_of_int total_ops in
  let frac x =
    if t.Pstats.pwbs = 0 then 0. else float_of_int x /. float_of_int t.Pstats.pwbs
  in
  {
    algo = algo.Set_intf.name;
    threads;
    mix = workload.Workload.mix.Workload.name;
    (* ops completed during [duration_ns] of virtual time on all threads:
       ops / ns * 1000 = Mops/s *)
    throughput_mops = float_of_int total_ops /. duration_ns *. 1000.;
    ops = total_ops;
    pwbs_per_op = per t.Pstats.pwbs;
    psyncs_per_op = per t.Pstats.psyncs;
    pfences_per_op = per t.Pstats.pfences;
    low_frac = frac t.Pstats.low;
    medium_frac = frac t.Pstats.medium;
    high_frac = frac t.Pstats.high;
    lat_p50_ns = (match lat with Some s -> s.Metrics.p50 | None -> 0.);
    lat_p90_ns = (match lat with Some s -> s.Metrics.p90 | None -> 0.);
    lat_p99_ns = (match lat with Some s -> s.Metrics.p99 | None -> 0.);
    lat_max_ns = (match lat with Some s -> s.Metrics.max | None -> 0.);
  }

let pp_point ppf p =
  Format.fprintf ppf
    "%-13s t=%-3d %-17s %7.3f Mops/s  ops=%-7d pwb/op=%5.1f psync/op=%4.1f \
     pfence/op=%4.1f  L/M/H=%.2f/%.2f/%.2f  lat[p50/p99/max]=%.3f/%.3f/%.3f"
    p.algo p.threads p.mix p.throughput_mops p.ops p.pwbs_per_op
    p.psyncs_per_op p.pfences_per_op p.low_frac p.medium_frac p.high_frac
    p.lat_p50_ns p.lat_p99_ns p.lat_max_ns
