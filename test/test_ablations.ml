(* Ablations: the design choices DESIGN.md calls out must be observable
   and must not break correctness when toggled. *)

module IS = Set.Make (Stdlib.Int)

(* The list without the read-only optimization is still a correct set. *)
let test_no_ro_opt_sequential () =
  let module L = Rlist.Int in
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let t = L.create ~prefix:"rlist-noopt" ~read_only_opt:false heap ~threads:4 in
  let rng = Random.State.make [| 9 |] in
  let model = ref IS.empty in
  for _ = 1 to 300 do
    let k = Random.State.int rng 20 in
    match Random.State.int rng 3 with
    | 0 ->
        let e = not (IS.mem k !model) in
        model := IS.add k !model;
        Alcotest.(check bool) "insert" e (L.insert t k)
    | 1 ->
        let e = IS.mem k !model in
        model := IS.remove k !model;
        Alcotest.(check bool) "delete" e (L.delete t k)
    | _ -> Alcotest.(check bool) "find" (IS.mem k !model) (L.find t k)
  done;
  Alcotest.(check (list int)) "final" (IS.elements !model) (L.to_list t)

let test_no_ro_opt_concurrent_and_crash () =
  let module L = Rlist.Int in
  for seed = 0 to 19 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t =
      L.create ~prefix:"rlist-noopt" ~read_only_opt:false heap ~threads:3
    in
    ignore (L.insert t 5);
    let pending = Array.make 3 None in
    let ok_log = ref [] in
    let body tid (_ : int) =
      let rng = Random.State.make [| seed; tid |] in
      for _ = 1 to 6 do
        let k = Random.State.int rng 8 in
        let op =
          match Random.State.int rng 3 with
          | 0 -> `Insert k
          | 1 -> `Delete k
          | _ -> `Find k
        in
        pending.(tid) <- Some op;
        let ok = L.apply t op in
        ok_log := (op, ok) :: !ok_log;
        pending.(tid) <- None
      done
    in
    (match
       Sim.run ~policy:`Random ~seed ~crash_at:(200 + (seed * 37))
         (Array.init 3 body)
     with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ ->
        Pmem.crash ~rng:(Random.State.make [| seed |]) heap;
        ignore
          (Sim.run ~seed:(seed + 1)
             (Array.init 3 (fun tid (_ : int) ->
                  match pending.(tid) with
                  | None -> ()
                  | Some op ->
                      let ok = L.recover t op in
                      ok_log := (op, ok) :: !ok_log;
                      pending.(tid) <- None))
            : Sim.outcome));
    match L.check_invariants t with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: %s" seed m
  done

(* The optimization must actually pay: read-intensive throughput with the
   optimization exceeds the unoptimized variant. *)
let test_ro_opt_pays () =
  let module L = Rlist.Int in
  let run ro =
    Pmem.reset_pending ();
    Pstats.set_all_enabled true;
    let heap = Pmem.heap ~track_for_crash:false () in
    let t =
      L.create
        ~prefix:(if ro then "rlist" else "rlist-noopt")
        ~read_only_opt:ro heap ~threads:8
    in
    for k = 1 to 100 do
      if k mod 2 = 0 then ignore (L.insert t k)
    done;
    Pmem.reset_pending ();
    Pstats.reset ();
    let ops = ref 0 in
    let body (_ : int) =
      let rng = Random.State.make [| 4; Sim.tid () |] in
      while Sim.now () < 120_000. do
        let k = 1 + Random.State.int rng 100 in
        ignore (L.find t k : bool);
        incr ops
      done
    in
    (match Sim.run ~policy:`Perf (Array.make 8 body) with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    !ops
  in
  let with_opt = run true and without_opt = run false in
  Alcotest.(check bool)
    (Printf.sprintf "optimized finds faster (%d vs %d ops)" with_opt
       without_opt)
    true
    (float_of_int with_opt > 1.2 *. float_of_int without_opt)

(* Disabling the Intel CAS-drain must make psync removal matter more. *)
let test_cas_drain_matters () =
  let wl = Workload.default Workload.update_intensive in
  let ratio drains =
    Cost.with_table
      (fun c -> c.Cost.cas_drains_wb <- drains)
      (fun () ->
        let full =
          Runner.measure ~duration_ns:80_000. ~seed:5 Set_intf.tracking
            ~threads:8 wl
        in
        let nosync =
          Runner.measure ~duration_ns:80_000. ~seed:5
            ~prepare:(fun () ->
              Pstats.set_kind_enabled Pstats.Psync false;
              Pstats.set_kind_enabled Pstats.Pfence false)
            Set_intf.tracking ~threads:8 wl
        in
        Pstats.set_all_enabled true;
        nosync.Runner.throughput_mops /. full.Runner.throughput_mops)
  in
  let with_drain = ratio true in
  Alcotest.(check bool)
    (Printf.sprintf "drain makes psyncs nearly free (ratio %.3f)" with_drain)
    true (with_drain < 1.12)

(* Steal penalty drives the crossover: without it, Capsules-Opt keeps its
   single-thread advantage at scale. *)
let test_steal_penalty_drives_crossover () =
  let wl = Workload.default Workload.update_intensive in
  let gap steal =
    Cost.with_table
      (fun c -> c.Cost.pwb_steal <- steal)
      (fun () ->
        let trk =
          Runner.measure ~duration_ns:80_000. Set_intf.tracking ~threads:16 wl
        in
        let cap =
          Runner.measure ~duration_ns:80_000. Set_intf.capsules_opt
            ~threads:16 wl
        in
        trk.Runner.throughput_mops /. cap.Runner.throughput_mops)
  in
  let cheap = gap 20. and expensive = gap 1600. in
  Alcotest.(check bool)
    (Printf.sprintf "steal favours tracking (%.2f -> %.2f)" cheap expensive)
    true
    (expensive > cheap +. 0.15)

let suite =
  [
    Alcotest.test_case "no-read-only-opt: sequential model" `Quick
      test_no_ro_opt_sequential;
    Alcotest.test_case "no-read-only-opt: concurrent + crash" `Quick
      test_no_ro_opt_concurrent_and_crash;
    Alcotest.test_case "read-only optimization pays" `Quick test_ro_opt_pays;
    Alcotest.test_case "CAS drain makes psyncs cheap" `Quick
      test_cas_drain_matters;
    Alcotest.test_case "steal penalty drives the crossover" `Quick
      test_steal_penalty_drives_crossover;
  ]
