(* Unit costs of single layers, each the median over [reps] timed
   repetitions of a fixed loop: a Sim dispatch, one Pmem instruction
   with observers off (and a read with a no-op collector on), a crash of
   a tracked heap, one operation of each framework on one fiber, and the
   oracle's cost per event. *)

let reps = 7

(* Median host ns per iteration of [f iters], after one untimed call. *)
let per_iter ~iters f =
  f iters;
  Measure.median
    (List.init reps (fun _ ->
         let t0 = Measure.now_ns () in
         f iters;
         Measure.secs_since t0 *. 1e9 /. float_of_int iters))

let in_one_fiber body = ignore (Sim.run [| (fun _ -> body ()) |] : Sim.outcome)

let pwb_site = Pstats.make Pstats.Pwb "perfbench.pwb"
let psync_site = Pstats.make Pstats.Psync "perfbench.psync"

let field () =
  let heap = Pmem.heap ~track_for_crash:false ~name:"perfbench" () in
  Pmem.alloc ~name:"cell" heap 0

let read_loop n =
  let f = field () in
  in_one_fiber (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Pmem.read f) : int)
      done)

let nvm ~scale =
  let n = 200_000 / scale in
  let write n =
    let f = field () in
    in_one_fiber (fun () ->
        for i = 1 to n do
          Pmem.write f i
        done)
  in
  let cas n =
    let f = field () in
    in_one_fiber (fun () ->
        for i = 1 to n do
          ignore (Pmem.cas f (i - 1) i : bool)
        done)
  in
  let pwb n =
    let f = field () in
    in_one_fiber (fun () ->
        for i = 1 to n do
          Pmem.write f i;
          Pmem.pwb_f pwb_site f
        done)
  in
  let psync n = in_one_fiber (fun () -> for _ = 1 to n do Pmem.psync psync_site done) in
  let observed n =
    Pmem.set_collector (Some ignore);
    Fun.protect ~finally:(fun () -> Pmem.set_collector None) (fun () -> read_loop n)
  in
  let measured =
    [
      ("nvm.read_ns", per_iter ~iters:n read_loop);
      ("nvm.write_ns", per_iter ~iters:n write);
      ("nvm.cas_ns", per_iter ~iters:n cas);
      ("nvm.pwb_ns", per_iter ~iters:(n / 4) pwb);
      ("nvm.psync_ns", per_iter ~iters:n psync);
      ("nvm.read_ns.observed", per_iter ~iters:n observed);
    ]
  in
  Pmem.reset_pending ();
  measured

(* A 1024-line tracked heap, half its lines flushed, crashed with every
   outstanding write-back dropped. *)
let crash_us ~scale =
  let heap = Pmem.heap ~track_for_crash:true ~name:"perfbench.crash" () in
  let fields = Array.init 1024 (fun i -> Pmem.alloc ~name:"line" heap i) in
  (* persisted once, so a crash reverts every line instead of poisoning *)
  in_one_fiber (fun () ->
      Array.iter (Pmem.pwb_f pwb_site) fields;
      Pmem.psync psync_site);
  Measure.median
    (List.init (100 / scale) (fun _ ->
         in_one_fiber (fun () ->
             Array.iteri
               (fun i f ->
                 Pmem.write f i;
                 if i land 1 = 0 then Pmem.pwb_f pwb_site f)
               fields);
         let t0 = Measure.now_ns () in
         Pmem.crash ~resolution:`Drop heap;
         Measure.secs_since t0 *. 1e6))

let sim ~scale =
  let n = 100_000 / scale in
  let ping_pong n =
    let body _ =
      for _ = 1 to n do
        Sim.step 100.
      done
    in
    ignore (Sim.run [| body; body |] : Sim.outcome)
  in
  let empty_runs n =
    for _ = 1 to n do
      ignore (Sim.run [| ignore; ignore |] : Sim.outcome)
    done
  in
  [
    (* [n] steps per fiber, two fibers: 2n dispatches *)
    ("sim.dispatch_ns", per_iter ~iters:n ping_pong /. 2.);
    ("sim.run_us", per_iter ~iters:(n / 10) empty_runs /. 1e3);
  ]

(* One operation of a read-intensive mix on one fiber, over a structure
   prefilled like the paper's list (keys [1,500], 250 inserts). *)
let op_ns ~scale (f : Set_intf.factory) =
  let wl = Workload.default Workload.read_intensive in
  let heap = Pmem.heap ~track_for_crash:false ~name:f.Set_intf.fname () in
  let t = f.Set_intf.make heap ~threads:1 in
  let rng = Random.State.make [| 11 |] in
  Workload.prefill rng wl t;
  let ops n =
    in_one_fiber (fun () ->
        for _ = 1 to n do
          ignore (Set_intf.apply t (Workload.gen_op rng wl) : bool)
        done);
    Pmem.reset_pending ()
  in
  per_iter ~iters:(4_000 / scale) ops

(* 10k events of a valid single-threaded history over 64 keys. *)
let oracle_ns ~scale =
  let n = 10_000 / scale in
  let present = Hashtbl.create 64 in
  let rng = Random.State.make [| 5 |] in
  let events =
    List.init n (fun _ ->
        let k = 1 + Random.State.int rng 64 in
        let was = Hashtbl.mem present k in
        match Random.State.int rng 3 with
        | 0 ->
            Hashtbl.replace present k ();
            { Oracle.eop = Set_intf.Ins k; ok = not was }
        | 1 ->
            Hashtbl.remove present k;
            { Oracle.eop = Set_intf.Del k; ok = was }
        | _ -> { Oracle.eop = Set_intf.Fnd k; ok = was })
  in
  let final = Hashtbl.to_seq_keys present |> List.of_seq |> List.sort compare in
  let check reps =
    for _ = 1 to reps do
      match Oracle.check ~initial:[] ~final events with
      | Ok () -> ()
      | Error m -> failwith ("oracle microbench: " ^ m)
    done
  in
  per_iter ~iters:1 check /. float_of_int n

(* Every unit cost; [scale] > 1 shrinks the loops for the smoke run. *)
let all ~scale =
  sim ~scale @ nvm ~scale
  @ [
      ("nvm.crash_us", crash_us ~scale);
      ("core.op_ns", op_ns ~scale Set_intf.tracking);
      ("memento.op_ns", op_ns ~scale Set_intf.memento_list);
      ("baselines.op_ns", op_ns ~scale Set_intf.capsules_opt);
      ("harness.oracle_ns_per_event", oracle_ns ~scale);
    ]
