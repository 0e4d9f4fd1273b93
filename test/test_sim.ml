(* The discrete-event engine: determinism, clock accounting, crash
   injection, scheduling fairness. *)

let test_runs_all () =
  let hits = Array.make 5 false in
  (match Sim.run (Array.init 5 (fun i _ -> hits.(i) <- true)) with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
  Array.iteri
    (fun i h -> Alcotest.(check bool) (Printf.sprintf "thread %d ran" i) true h)
    hits

let test_tid_and_in_sim () =
  Alcotest.(check bool) "outside" false (Sim.in_sim ());
  let seen = Array.make 3 (-1) in
  ignore
    (Sim.run
       (Array.init 3 (fun i _ ->
            Alcotest.(check bool) "inside" true (Sim.in_sim ());
            seen.(i) <- Sim.tid ()))
      : Sim.outcome);
  Alcotest.(check (list int)) "tids" [ 0; 1; 2 ] (Array.to_list seen);
  Alcotest.(check bool) "outside again" false (Sim.in_sim ())

let test_clock_accounting () =
  let final = ref 0. in
  ignore
    (Sim.run
       [|
         (fun _ ->
           Sim.step 100.;
           Sim.advance 50.;
           Sim.step 0.;
           final := Sim.now ());
       |]
      : Sim.outcome);
  Alcotest.(check (float 0.001)) "clock" 150. !final

let test_perf_policy_interleaves_by_clock () =
  (* A thread with cheap steps must run many steps while an expensive
     thread completes few: min-clock scheduling is fair in virtual time. *)
  let order = ref [] in
  ignore
    (Sim.run ~policy:`Perf
       [|
         (fun _ ->
           for i = 1 to 3 do
             Sim.step 1000.;
             order := (0, i) :: !order
           done);
         (fun _ ->
           for i = 1 to 3 do
             Sim.step 10.;
             order := (1, i) :: !order
           done);
       |]
      : Sim.outcome);
  (* the cheap thread's three steps all precede the expensive thread's
     second step *)
  let pos x =
    let rec idx n = function
      | [] -> Alcotest.fail "missing event"
      | e :: rest -> if e = x then n else idx (n + 1) rest
    in
    idx 0 (List.rev !order)
  in
  Alcotest.(check bool) "cheap thread runs ahead" true (pos (1, 3) < pos (0, 2))

let test_random_policy_deterministic_per_seed () =
  let trace seed =
    let log = ref [] in
    ignore
      (Sim.run ~policy:`Random ~seed
         (Array.init 3 (fun i _ ->
              for j = 0 to 4 do
                Sim.step 1.;
                log := (i, j) :: !log
              done))
        : Sim.outcome);
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 42 = trace 42);
  Alcotest.(check bool)
    "different seeds usually differ" true
    (List.exists (fun s -> trace s <> trace 42) [ 1; 2; 3; 4; 5 ])

let test_crash_at_step () =
  let completed = ref 0 in
  let outcome =
    Sim.run ~policy:`Random ~crash_at:10
      (Array.init 4 (fun _ _ ->
           for _ = 1 to 100 do
             Sim.step 1.
           done;
           incr completed))
  in
  (match outcome with
  | Sim.Crashed_at n -> Alcotest.(check bool) "at step 10" true (n >= 10)
  | Sim.All_done -> Alcotest.fail "expected crash");
  Alcotest.(check int) "no thread completed" 0 !completed

let test_crash_unwinds_with_exception () =
  let cleaned = ref false in
  (match
     Sim.run ~crash_at:5
       [|
         (fun _ ->
           Fun.protect
             ~finally:(fun () -> cleaned := true)
             (fun () ->
               for _ = 1 to 100 do
                 Sim.step 1.
               done));
       |]
   with
  | Sim.Crashed_at _ -> ()
  | Sim.All_done -> Alcotest.fail "expected crash");
  Alcotest.(check bool) "finalizer ran on Crashed" true !cleaned

let test_request_crash () =
  match
    Sim.run
      [| (fun _ -> Sim.step 1.); (fun _ -> Sim.request_crash ()) |]
  with
  | Sim.Crashed_at _ -> ()
  | Sim.All_done -> Alcotest.fail "expected crash"

let test_no_nested_runs () =
  match
    Sim.run [| (fun _ -> ignore (Sim.run [| (fun _ -> ()) |] : Sim.outcome)) |]
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "nested run must be rejected"

let test_exception_escapes_cleanly () =
  (match Sim.run [| (fun _ -> failwith "boom") |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception should propagate");
  (* the engine must not leak its context *)
  Alcotest.(check bool) "not in sim" false (Sim.in_sim ());
  Sim.step 5. (* must be a no-op, not an unhandled effect *)

let test_step_limit () =
  (* a livelocked fiber must abort the run instead of hanging it *)
  (match
     Sim.run ~step_limit:1000
       [| (fun _ -> while true do Sim.step 1. done) |]
   with
  | exception Sim.Step_limit -> ()
  | _ -> Alcotest.fail "expected Step_limit");
  Alcotest.(check bool) "engine clean" false (Sim.in_sim ());
  (* generous limits do not fire *)
  match Sim.run ~step_limit:1000 [| (fun _ -> Sim.step 1.) |] with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash"

let test_step_limit_runs_finalizers () =
  (* Fibers abandoned when the watchdog fires must be discontinued so
     their finalizers run — they used to be dropped as live continuations,
     leaking whatever the fiber held open. *)
  let cleaned = Array.make 3 false in
  (match
     Sim.run ~step_limit:500
       (Array.init 3 (fun i _ ->
            Fun.protect
              ~finally:(fun () -> cleaned.(i) <- true)
              (fun () ->
                while true do
                  Sim.step 1.
                done)))
   with
  | exception Sim.Step_limit -> ()
  | _ -> Alcotest.fail "expected Step_limit");
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "finalizer %d ran" i) true c)
    cleaned;
  Alcotest.(check bool) "engine clean" false (Sim.in_sim ());
  (* the engine is reusable afterwards *)
  match Sim.run [| (fun _ -> Sim.step 1.) |] with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash"

let test_schedule_record_replay () =
  let run ~seed ~schedule ~record =
    let log = ref [] in
    ignore
      (Sim.run ~policy:`Random ~seed ~schedule ~record
         (Array.init 4 (fun i _ ->
              for j = 0 to 9 do
                Sim.step 1.;
                log := (i, j) :: !log
              done))
        : Sim.outcome);
    List.rev !log
  in
  let picks = ref [] in
  let original =
    run ~seed:5 ~schedule:[||] ~record:(fun tid -> picks := tid :: !picks)
  in
  let schedule = Array.of_list (List.rev !picks) in
  Alcotest.(check bool) "picks recorded" true (Array.length schedule > 0);
  (* replaying the recorded schedule reproduces the interleaving exactly,
     even under a different rng seed: every decision comes from the tape *)
  let replayed = run ~seed:9999 ~schedule ~record:(fun _ -> ()) in
  Alcotest.(check bool) "identical interleaving" true (replayed = original)

let test_boundary_exactness () =
  (* Both bounds follow one convention (see sim.mli): a bound of n fires
     at the n-th scheduling step — steps 1..n-1 complete, the n-th [step]
     call does not return.  Lock the exact boundary on both sides. *)
  let body completed = [| (fun _ -> for _ = 1 to 5 do Sim.step 1. done; incr completed) |] in
  let c = ref 0 in
  (match Sim.run ~policy:`Random ~crash_at:5 (body c) with
  | Sim.Crashed_at n -> Alcotest.(check int) "crash at exactly 5" 5 n
  | Sim.All_done -> Alcotest.fail "crash_at 5 must fire on the 5th step");
  Alcotest.(check int) "5th step call did not return" 0 !c;
  let c = ref 0 in
  (match Sim.run ~policy:`Random ~crash_at:6 (body c) with
  | Sim.All_done -> ()
  | Sim.Crashed_at n -> Alcotest.failf "crash_at 6 fired at %d of 5 steps" n);
  Alcotest.(check int) "all 5 steps completed" 1 !c;
  let c = ref 0 in
  (match Sim.run ~policy:`Random ~step_limit:5 (body c) with
  | exception Sim.Step_limit -> ()
  | _ -> Alcotest.fail "step_limit 5 must fire on the 5th step");
  Alcotest.(check int) "5th step call aborted" 0 !c;
  let c = ref 0 in
  (match Sim.run ~policy:`Random ~step_limit:6 (body c) with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
  Alcotest.(check int) "limit 6 lets 5 steps finish" 1 !c

let test_replay_divergence_reported () =
  let bodies =
    Array.init 2 (fun _ _ ->
        for _ = 1 to 10 do
          Sim.step 1.
        done)
  in
  let picks = ref [] in
  ignore
    (Sim.run ~policy:`Random ~seed:3
       ~record:(fun tid -> picks := tid :: !picks)
       bodies
      : Sim.outcome);
  let schedule = Array.of_list (List.rev !picks) in
  (* a clean replay reports no divergence *)
  let count = ref 0 in
  ignore
    (Sim.run ~policy:`Random ~seed:3 ~schedule
       ~divergence:(fun ~step:_ ~want:_ -> incr count)
       bodies
      : Sim.outcome);
  Alcotest.(check int) "faithful replay has no divergence" 0 !count;
  (* corrupt one entry to a tid that is never ready: the divergence
     callback must fire with that entry, not be silently skipped *)
  let bad = Array.copy schedule in
  bad.(Array.length bad / 2) <- 61;
  let wants = ref [] in
  ignore
    (Sim.run ~policy:`Random ~seed:3 ~schedule:bad
       ~divergence:(fun ~step:_ ~want -> wants := want :: !wants)
       bodies
      : Sim.outcome);
  Alcotest.(check bool) "divergence reported" true (List.mem 61 !wants)

let test_choose_drives_scheduling () =
  (* an external chooser that always picks the highest ready tid must run
     thread 1 to completion before thread 0 executes at all *)
  let log = ref [] in
  let seen_single = ref false in
  ignore
    (Sim.run ~policy:`Random
       ~choose:(fun ~crashing:_ ready ->
         if Array.length ready = 1 then seen_single := true;
         ready.(Array.length ready - 1))
       (Array.init 2 (fun i _ ->
            for j = 0 to 4 do
              Sim.step 1.;
              log := (i, j) :: !log
            done))
      : Sim.outcome);
  let order = List.rev !log in
  Alcotest.(check (list (pair int int)))
    "thread 1 runs first"
    [ (1, 0); (1, 1); (1, 2); (1, 3); (1, 4);
      (0, 0); (0, 1); (0, 2); (0, 3); (0, 4) ]
    order;
  Alcotest.(check bool) "single-ready decisions also consulted" true
    !seen_single;
  (* a chooser returning a non-ready tid is a hard error, not a fallback *)
  (match
     Sim.run ~policy:`Random
       ~choose:(fun ~crashing:_ _ -> 61)
       [| (fun _ -> Sim.step 1.) |]
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "non-ready choose pick must fail");
  (* also for a decision taken at a step: the error escapes the run from
     the scheduler, past the fiber's own handlers *)
  let caught = ref false and calls = ref 0 in
  match
    Sim.run ~policy:`Random
      ~choose:(fun ~crashing:_ ready ->
        incr calls;
        if !calls = 1 then ready.(0) else 61)
      [|
        (fun _ ->
          try
            Sim.step 1.;
            Sim.step 1.
          with Failure _ -> caught := true);
      |]
  with
  | exception Failure _ ->
      Alcotest.(check bool) "the fiber did not see it" false !caught
  | _ -> Alcotest.fail "non-ready choose pick at a step must fail"

let test_many_threads () =
  let n = 60 in
  let done_ = Array.make n false in
  ignore
    (Sim.run ~policy:`Perf
       (Array.init n (fun i _ ->
            for _ = 1 to 50 do
              Sim.step 3.
            done;
            done_.(i) <- true))
      : Sim.outcome);
  Alcotest.(check bool) "all completed" true (Array.for_all Fun.id done_)

(* -- per-fiber interrupts ------------------------------------------------- *)

exception Boom

let test_interrupt_delivered_and_catchable () =
  let caught = ref (-1) in
  let finished = ref false in
  ignore
    (Sim.run ~policy:`Perf
       [|
         (fun _ ->
           let progress = ref 0 in
           (try
              for i = 1 to 100 do
                Sim.step 10.;
                progress := i
              done
            with Boom -> caught := !progress);
           (* the fiber survives the interrupt: in-fiber recovery *)
           Sim.step 5.;
           finished := true);
         (fun _ ->
           Sim.step 35.;
           Sim.interrupt ~tid:0 Boom;
           Sim.step 1.);
       |]
      : Sim.outcome);
  (* under `Perf the victim completes steps at 10/20/30, the attacker
     interrupts at clock 35, and the victim's next resumption (clock 40)
     receives the exception: progress is exactly 3 *)
  Alcotest.(check int) "delivered at the next resumption" 3 !caught;
  Alcotest.(check bool) "victim continued after catching" true !finished

let test_static_interrupt_at_exact_dispatch () =
  (* dispatch 1 is the fiber's initial thunk; dispatch n >= 2 resumes
     its (n-1)-th suspension.  Steps cost >= the expensive threshold so
     every one is a scheduling point (perf mode batches cheap steps).
     An interrupt at dispatch 3 replaces the return of the fiber's 2nd
     [step] call — the same boundary convention as [crash_at] — so
     exactly one loop iteration has finished. *)
  let caught_at = ref (-1) in
  ignore
    (Sim.run
       ~interrupts:[| (0, 3, Boom) |]
       [|
         (fun _ ->
           let progress = ref 0 in
           try
             for i = 1 to 10 do
               Sim.step 10.;
               progress := i
             done
           with Boom -> caught_at := !progress);
       |]
      : Sim.outcome);
  Alcotest.(check int) "one iteration completed before delivery" 1 !caught_at;
  (* at = 1 predates the first resumption: delivered there, 0 steps done *)
  let caught_at = ref (-1) in
  ignore
    (Sim.run
       ~interrupts:[| (0, 1, Boom) |]
       [|
         (fun _ ->
           let progress = ref 0 in
           try
             for i = 1 to 10 do
               Sim.step 10.;
               progress := i
             done
           with Boom -> caught_at := !progress);
       |]
      : Sim.outcome);
  Alcotest.(check int) "armed before any resumption" 0 !caught_at

let test_interrupt_on_finished_fiber_is_noop () =
  (* static: the victim finishes at dispatch 2, the interrupt armed for
     dispatch 5 never fires and must not wedge or escape the run *)
  (match
     Sim.run
       ~interrupts:[| (1, 5, Boom) |]
       [|
         (fun _ -> for _ = 1 to 20 do Sim.step 10. done);
         (fun _ -> Sim.step 10.);
       |]
   with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
  (* dynamic: aiming at a fiber that already completed is a no-op *)
  match
    Sim.run ~policy:`Perf
      [|
        (fun _ -> Sim.step 1.);
        (fun _ ->
          Sim.step 100.;
          Sim.interrupt ~tid:0 Boom;
          Sim.step 1.);
      |]
  with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash"

let test_self_interrupt_raises_immediately () =
  let caught = ref false in
  ignore
    (Sim.run
       [|
         (fun _ ->
           try Sim.interrupt ~tid:0 Boom with Boom -> caught := true);
       |]
      : Sim.outcome);
  Alcotest.(check bool) "self-interrupt raised in place" true !caught

(* -- poll_while ------------------------------------------------------------ *)

(* A producer (tid 0) counts up in [work] steps of [cost]; each waiter
   (tids 1..waiters) waits twice — for the counter to reach half of
   [target], then [target] — with a re-check every [period], stepping
   once between the waits.  The second wait also gives up at virtual
   time [deadline], so conditions read the clock too.  When the counter
   reaches [poke], the producer interrupts waiter 1, which catches the
   interrupt and moves on.  Periods below the expensive threshold take
   [poll_while]'s plain-loop fallback under [`Perf]. *)
type scenario = {
  random : bool;
  seed : int;
  period : float;
  waiters : int;
  work : int;
  cost : float;
  target : int;
  deadline : float;
  poke : int;  (* 0 = never *)
}

let show_scenario s =
  Printf.sprintf
    "{random=%b seed=%d period=%g waiters=%d work=%d cost=%g target=%d \
     deadline=%g poke=%d}"
    s.random s.seed s.period s.waiters s.work s.cost s.target s.deadline s.poke

let gen_scenario =
  QCheck2.Gen.(
    let* random = bool in
    let* seed = int_range 0 10_000 in
    let* period = oneofl [ 5.; 10.; 60. ] in
    let* waiters = int_range 1 3 in
    let* work = int_range 1 10 in
    let* cost = oneofl [ 1.5; 20.; 45. ] in
    let* target = int_range 0 work in
    let* deadline = oneofl [ infinity; 150.; 400. ] in
    let* poke = int_range 0 work in
    return { random; seed; period; waiters; work; cost; target; deadline; poke })

exception Poke

(* Everything a run exposes: its outcome, the [record] tape (empty
   without [~record]), the tracer's events, and a log of where each
   waiter finished a wait or caught an interrupt and where each fiber
   exited (normally or unwound): clock, own dispatch count and global
   step count.  Paired with the step indices of the loop's idle [step]
   calls (empty under [~poll:true]).  Without [~record] a [`Perf] run is
   quiet (sim.mli): its pollers' idle dispatches run in the ready heap,
   and a switching step runs those ahead of it itself. *)
let observe ~poll ?(record = true) ?crash_at ?step_limit ?(interrupts = [||])
    sc =
  let idle = ref [] in
  let wait ~period cond =
    if poll then Sim.poll_while ~period cond
    else
      while cond () do
        idle := (Sim.steps_executed () + 1) :: !idle;
        Sim.step period
      done
  in
  let counter = ref 0 in
  let log = ref [] in
  let note tid what =
    log :=
      (tid, what, Sim.now (), Sim.dispatches ~tid, Sim.steps_executed ())
      :: !log
  in
  let producer () =
    for _ = 1 to sc.work do
      Sim.step sc.cost;
      incr counter;
      if !counter = sc.poke then Sim.interrupt ~tid:1 Poke
    done
  in
  let waiter tid () =
    (try wait ~period:sc.period (fun () -> !counter < sc.target / 2)
     with Poke -> note tid "poked");
    note tid "first";
    Sim.step 3.;
    (try
       wait ~period:sc.period (fun () ->
           !counter < sc.target && Sim.now () < sc.deadline)
     with Poke -> note tid "poked");
    note tid "second"
  in
  let bodies =
    Array.init (sc.waiters + 1) (fun tid _ ->
        Fun.protect
          ~finally:(fun () -> note tid "exit")
          (if tid = 0 then producer else waiter tid))
  in
  let tape = ref [] and events = ref [] in
  Sim.set_tracer (Some (fun ev -> events := ev :: !events));
  let outcome =
    Fun.protect
      ~finally:(fun () -> Sim.set_tracer None)
      (fun () ->
        match
          Sim.run
            ~policy:(if sc.random then `Random else `Perf)
            ~seed:sc.seed ?crash_at ?step_limit ~interrupts
            ?record:(if record then Some (fun t -> tape := t :: !tape) else None)
            bodies
        with
        | Sim.All_done -> "done"
        | Sim.Crashed_at n -> Printf.sprintf "crashed@%d" n
        | exception Sim.Step_limit -> "step-limit"
        | exception Poke -> "poke escaped")
  in
  ((outcome, List.rev !tape, List.rev !events, List.rev !log), List.rev !idle)

(* The same observation with and without [record]. *)
let same_as_loop ?crash_at ?step_limit ?interrupts sc =
  List.for_all
    (fun record ->
      fst (observe ~poll:true ~record ?crash_at ?step_limit ?interrupts sc)
      = fst (observe ~poll:false ~record ?crash_at ?step_limit ?interrupts sc))
    [ true; false ]

let prop_poll_matches_loop =
  QCheck2.Test.make ~name:"poll_while replays the Sim.step loop exactly"
    ~count:300 ~print:show_scenario gen_scenario same_as_loop

(* Every crash point, step limit and static interrupt dispatch of the
   clean run gives the same observation. *)
let prop_poll_matches_loop_at_bounds =
  QCheck2.Test.make
    ~name:"poll_while matches the loop at every crash, limit and interrupt"
    ~count:40 ~print:show_scenario gen_scenario (fun sc ->
      let (_, tape, _, _), _ = observe ~poll:false sc in
      let upto f = List.for_all f (List.init (List.length tape + 1) succ) in
      upto (fun c -> same_as_loop ~crash_at:c sc)
      && upto (fun l -> same_as_loop ~step_limit:l sc)
      && upto (fun d -> same_as_loop ~interrupts:[| (1, d, Poke) |] sc))

let test_poll_idle_ticks () =
  (* With a switching period, most of a waiter's steps are idle ticks,
     which [poll_while] runs in the scheduler: a crash or step limit
     landing on each must match the loop, under both policies. *)
  List.iter
    (fun random ->
      let sc =
        { random; seed = 7; period = 10.; waiters = 2; work = 6; cost = 45.;
          target = 6; deadline = infinity; poke = 0 }
      in
      let _, idle = observe ~poll:false sc in
      Alcotest.(check bool) "idle ticks" true (List.length idle > 10);
      List.iter
        (fun c ->
          if not (same_as_loop ~crash_at:c sc) then
            Alcotest.failf "crash at idle step %d differs" c;
          if not (same_as_loop ~step_limit:c sc) then
            Alcotest.failf "step limit at idle step %d differs" c)
        idle)
    [ false; true ]

let test_poll_outside_run () =
  (* outside a run [step] is a no-op, so the wait only re-checks *)
  let n = ref 0 in
  Sim.poll_while ~period:60. (fun () -> incr n; !n < 3);
  Alcotest.(check int) "re-checked until false" 3 !n

let test_poll_cond_exception () =
  (* a [cond] that raises on an idle tick raises inside the waiting
     fiber, where its own handler catches it, as in the loop *)
  let caught = ref false in
  let ticks = ref 0 in
  (match
     Sim.run
       [|
         (fun _ ->
           try
             Sim.poll_while ~period:60. (fun () ->
                 incr ticks;
                 if !ticks = 3 then raise Boom;
                 true)
           with Boom -> caught := true);
       |]
   with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
  Alcotest.(check bool) "caught in the fiber" true !caught

(* A boxed float in the step path costs a minor allocation per
   [Sim.step] (so per Pmem access); this bound catches it coming back.
   Only the yields (one every 16 cheap steps under [`Perf]) allocate:
   their continuation and requeued fiber. *)
let test_step_allocation () =
  let steps = 100_000 in
  let body _ =
    for _ = 1 to steps do
      Sim.step 1.5
    done
  in
  ignore (Sim.run [| body; body |] : Sim.outcome);
  let before = Gc.minor_words () in
  ignore (Sim.run [| body; body |] : Sim.outcome);
  let per_step = (Gc.minor_words () -. before) /. float_of_int (2 * steps) in
  if per_step > 1.0 then
    Alcotest.failf "%.2f minor words per Sim.step 1.5 (bound 1.0)" per_step

(* -- scheduling goldens ---------------------------------------------------

   Each decision source (the replay tape, [choose], the seeded rng and the
   perf heap) is pinned by the exact [record] tape, tracer events and
   fiber log of a small run.  A switching [step] re-dispatches its own
   fiber in place when the decision picks it (sim.mli), and that must be
   unobservable: these values may not move.  The hooks also check where
   they run: [record], [choose], [divergence] and [keep] outside any
   fiber, the tracer inside the fiber it dispatches. *)

exception Zap

(* One run rendered as a string: outcome | tape (empty with
   [~record:false]) | tracer events and divergences | fiber log.  Each
   body gets a [note] that logs an event with the fiber's clock, own
   dispatch count and the global step count. *)
let sched_run ?(policy = `Random) ?(seed = 0) ?crash_at ?step_limit
    ?(schedule = [||]) ?(record = true) ?choose ?keep ?(interrupts = [||])
    bodies =
  let outside what =
    if Sim.in_sim () then Alcotest.failf "%s ran inside a fiber" what
  in
  let tape = Buffer.create 64 and events = Buffer.create 512 in
  let log = Buffer.create 128 in
  let note what =
    let tid = Sim.tid () in
    Printf.bprintf log " %d:%s@%g/%d/%d" tid what (Sim.now ())
      (Sim.dispatches ~tid) (Sim.steps_executed ())
  in
  let on_pick t =
    outside "record";
    Printf.bprintf tape "%d" t
  in
  let divergence ~step ~want =
    outside "divergence";
    Printf.bprintf events " div%d:%d" step want
  in
  let choose =
    Option.map
      (fun f ~crashing ready ->
        outside "choose";
        f ~crashing ready)
      choose
  in
  let keep =
    Option.map
      (fun f n ->
        outside "keep";
        f n)
      keep
  in
  let tracer = function
    | Sim.Sched { step; tid; clock } ->
        if (not (Sim.in_sim ())) || Sim.tid () <> tid then
          Alcotest.failf "Sched of tid %d traced outside its fiber" tid;
        Printf.bprintf events " %d:%d@%g" step tid clock
    | Sim.Crash { step } -> Printf.bprintf events " crash%d" step
  in
  Sim.set_tracer (Some tracer);
  let outcome =
    Fun.protect
      ~finally:(fun () -> Sim.set_tracer None)
      (fun () ->
        match
          Sim.run ~policy ~seed ?crash_at ?step_limit ~schedule
            ?record:(if record then Some on_pick else None)
            ~divergence ?choose ?keep ~interrupts
            (Array.map (fun body tid -> body note tid) bodies)
        with
        | Sim.All_done -> "done"
        | Sim.Crashed_at n -> Printf.sprintf "crashed@%d" n
        | exception Sim.Step_limit -> "step-limit")
  in
  Printf.sprintf "%s | %s |%s |%s" outcome (Buffer.contents tape)
    (Buffer.contents events) (Buffer.contents log)

(* Long observations are pinned by digest; the message shows the run. *)
let check_digest name expected obs =
  let got = Digest.to_hex (Digest.string obs) in
  if got <> expected then
    Alcotest.failf "%s: digest %s, expected %s; run:\n%s" name got expected obs

(* [n] steps of [cost], catching [Zap]. *)
let stepper ?(cost = 10.) n note _ =
  (try
     for _ = 1 to n do
       Sim.step cost
     done
   with Zap -> note "zap");
  note "end"

(* Choosers that allocate nothing per decision. *)
let mem (t : int) a =
  let r = ref false in
  for j = 0 to Array.length a - 1 do
    if a.(j) = t then r := true
  done;
  !r

(* Keep running the previous pick while it is ready (the explorer's
   default branch): nearly every decision resumes the yielder. *)
let sticky () =
  let prev = ref (-1) in
  fun ~crashing:_ ready ->
    let t = if mem !prev ready then !prev else ready.(0) in
    prev := t;
    t

(* Move to the next ready tid after the previous pick: never the
   yielder while another fiber is ready. *)
let rotating () =
  let prev = ref (-1) in
  fun ~crashing:_ ready ->
    let t =
      match Array.find_opt (fun t -> t > !prev) ready with
      | Some t -> t
      | None -> ready.(0)
    in
    prev := t;
    t

(* Eight fibers of mixed costs and lengths; fiber 7 waits in
   [poll_while] for fiber 0's counter, and fiber 0 interrupts the long
   fiber 5 after its third step. *)
let mixed_bodies () =
  let counter = ref 0 in
  Array.init 8 (fun t note tid ->
      match t with
      | 0 ->
          for i = 1 to 6 do
            Sim.step 7.;
            incr counter;
            if i = 3 then Sim.interrupt ~tid:5 Zap
          done;
          note "end"
      | 7 ->
          Sim.poll_while ~period:60. (fun () -> !counter < 4);
          note "woke";
          Sim.step 3.;
          note "end"
      | 5 -> stepper ~cost:25. 12 note tid
      | _ -> stepper ~cost:(float_of_int (5 * t)) (2 + (t mod 4)) note tid)

let test_golden_random () =
  List.iter
    (fun (seed, expected) ->
      check_digest
        (Printf.sprintf "random seed %d" seed)
        expected
        (sched_run ~seed (mixed_bodies ())))
    [
      (1, "5eba35e1e867d7bc5532c8dea8adadf5");
      (2, "8c27f72af9f8f555346b45e48336a73a");
      (3, "635771484b4e751e5125a497eddd7ad6");
    ]

let test_golden_choose () =
  let bodies () =
    Array.init 3 (fun t -> stepper ~cost:(float_of_int (t + 1)) 4)
  in
  Alcotest.(check string) "choose picks the yielder"
    "done | 000001111122222 | 0:0@0 1:0@1 2:0@2 3:0@3 4:0@4 4:1@0 5:1@2 6:1@4 \
     7:1@6 8:1@8 8:2@0 9:2@3 10:2@6 11:2@9 12:2@12 | 0:end@4/5/4 1:end@8/5/8 \
     2:end@12/5/12"
    (sched_run ~choose:(sticky ()) (bodies ()));
  Alcotest.(check string) "choose picks another fiber"
    "done | 012012012012012 | 0:0@0 1:1@0 2:2@0 3:0@1 4:1@2 5:2@3 6:0@2 7:1@4 \
     8:2@6 9:0@3 10:1@6 11:2@9 12:0@4 12:1@8 12:2@12 | 0:end@4/5/12 \
     1:end@8/5/12 2:end@12/5/12"
    (sched_run ~choose:(rotating ()) (bodies ()))

let test_golden_replay () =
  let bodies () = Array.init 3 (fun _ -> stepper 4) in
  let picks = ref [] in
  ignore
    (Sim.run ~policy:`Random ~seed:5
       ~record:(fun t -> picks := t :: !picks)
       (Array.map (fun b -> b ignore) (bodies ()))
      : Sim.outcome);
  let tape = Array.of_list (List.rev !picks) in
  tape.(Array.length tape / 2) <- 7;
  Alcotest.(check string) "random replay with a divergent entry"
    "done | 201011101002222 | 0:2@0 1:0@0 2:1@0 3:0@10 4:1@10 5:1@20 6:1@30 \
     div7:7 7:0@20 8:1@40 8:0@30 9:0@40 9:2@10 10:2@20 11:2@30 12:2@40 | \
     1:end@40/5/8 0:end@40/5/9 2:end@40/5/12"
    (sched_run ~seed:9 ~schedule:tape (bodies ()));
  Alcotest.(check string) "perf replay with a divergent entry"
    "done | 201011121002220 | 0:2@0 1:0@0 2:1@0 3:0@10 4:1@10 5:1@20 6:1@30 \
     div7:7 7:2@10 8:1@40 8:0@20 9:0@30 10:2@20 11:2@30 12:2@40 div12:2 \
     12:0@40 | 1:end@40/5/8 2:end@40/5/12 0:end@40/5/12"
    (sched_run ~policy:`Perf ~schedule:tape (bodies ()))

let test_golden_perf_ties () =
  let bodies =
    [|
      stepper 4;
      stepper 4;
      stepper ~cost:20. 3;
      (fun note _ ->
        for _ = 1 to 6 do
          Sim.step_as ~switch:10. 5.
        done;
        note "end");
      stepper ~cost:1. 40;
    |]
  in
  Alcotest.(check string) "perf clock ties"
    "done | 012343013342013301342012 | 0:0@0 1:1@0 2:2@0 3:3@0 4:4@0 5:3@5 \
     6:0@10 7:1@10 8:3@10 9:3@15 10:4@16 11:2@20 12:0@20 13:1@20 14:3@20 \
     15:3@25 16:0@30 17:1@30 18:3@30 18:4@32 18:2@40 19:0@40 19:1@40 19:2@60 \
     | 3:end@30/7/18 4:end@40/3/18 0:end@40/5/19 1:end@40/5/19 \
     2:end@60/4/19"
    (sched_run ~policy:`Perf bodies)

(* Bounds landing on a dispatch that resumes the yielder: [sticky]
   keeps fiber 0 running for all its steps, then fiber 1. *)
let test_bounds_on_in_place () =
  let bodies () = Array.init 2 (fun _ -> stepper 4) in
  let run ?crash_at ?step_limit ?interrupts () =
    sched_run ~choose:(sticky ()) ?crash_at ?step_limit ?interrupts (bodies ())
  in
  Alcotest.(check string) "crash_at 3"
    "crashed@3 | 0001 | 0:0@0 1:0@10 2:0@20 crash3 |" (run ~crash_at:3 ());
  Alcotest.(check string) "step_limit 3"
    "step-limit | 0001 | 0:0@0 1:0@10 2:0@20 |" (run ~step_limit:3 ());
  Alcotest.(check string) "interrupt at dispatch 3"
    "done | 00011111 | 0:0@0 1:0@10 2:0@20 2:1@0 3:1@10 4:1@20 5:1@30 6:1@40 \
     | 0:zap@20/3/2 0:end@20/3/2 1:end@40/5/6"
    (run ~interrupts:[| (0, 3, Zap) |] ());
  let all = Buffer.create 4096 in
  for k = 1 to 10 do
    Buffer.add_string all (run ~crash_at:k ());
    Buffer.add_string all (run ~step_limit:k ());
    for t = 0 to 1 do
      if k <= 6 then
        Buffer.add_string all (run ~interrupts:[| (t, k, Zap) |] ())
    done
  done;
  check_digest "every bound and interrupt" "d1f5c2a18502c151b39a7690ccb9caf2"
    (Buffer.contents all)

(* A dispatch that resumes the yielder is done in place: no continuation,
   no requeue and no ready array per decision. *)
let test_in_place_allocation () =
  let steps = 100_000 in
  let body _ =
    for _ = 1 to steps do
      Sim.step 1.
    done
  in
  let run () =
    ignore
      (Sim.run ~policy:`Random ~choose:(sticky ()) [| body; body |]
        : Sim.outcome)
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per = (Gc.minor_words () -. before) /. float_of_int (2 * steps) in
  if per >= 1.0 then
    Alcotest.failf "%.2f minor words per in-place dispatch (bound 1.0)" per

(* The host work of idle polling, measured deterministically: minor
   words per dispatch of a [`Perf] run in which five pollers re-check
   every 20–60 ns while a worker steps 45 ns at a time, against a budget
   that only moves down.  Re-queueing each idle poll through the
   dispatch loop, with the heap's float argument boxed, cost 4.2669
   words per dispatch here (150,508 dispatches); re-keying polls in the
   heap, running those ahead of a step from the step and inlining the
   sifts cut that to the budget, the run's fixed set-up alone.  A rise
   of more than 2% fails; a change that lowers it commits the new
   figure. *)
let test_poll_words_per_dispatch () =
  let bodies () =
    let finished = ref false in
    Array.init 6 (fun t _ ->
        if t = 0 then begin
          for _ = 1 to 20_000 do
            Sim.step 45.
          done;
          finished := true
        end
        else
          Sim.poll_while ~period:(float_of_int (10 * (t + 1))) (fun () ->
              not !finished))
  in
  let run b = ignore (Sim.run b : Sim.outcome) in
  run (bodies ());
  let b = bodies () in
  let w0 = Gc.minor_words () in
  run b;
  let words = Gc.minor_words () -. w0 in
  let n = ref 0 in
  let count = function Sim.Engine (Sim.Sched _) -> incr n | _ -> () in
  Sim.subscribe count;
  Fun.protect ~finally:(fun () -> Sim.unsubscribe count) (fun () -> run (bodies ()));
  let per = words /. float_of_int !n in
  Printf.printf "%.6f minor words per dispatch (%d dispatches)\n%!" per !n;
  let budget = 0.001223 in
  if per > 1.02 *. budget then
    Alcotest.failf "%.6f minor words per dispatch (budget %.6f)" per budget

(* Sixteen [`Perf] fibers of mixed costs: batched cheap steps, expensive
   steps, [step_as] with a cheap charge on an expensive basis, clock-only
   [advance]s, a [poll_while] waiter on fiber 0's counter and an
   interrupt of fiber 9.  Nearly every switching step picks the heap's
   root. *)
let perf_bodies () =
  let counter = ref 0 in
  Array.init 16 (fun t note tid ->
      match t with
      | 0 ->
          for i = 1 to 20 do
            Sim.step 12.;
            incr counter;
            if i = 5 then Sim.interrupt ~tid:9 Zap
          done;
          note "end"
      | 15 ->
          Sim.poll_while ~period:40. (fun () -> !counter < 12);
          note "woke";
          stepper ~cost:1.5 20 note tid
      | 9 -> stepper ~cost:30. 25 note tid
      | _ when t mod 4 = 1 -> stepper ~cost:1.5 (30 + t) note tid
      | _ when t mod 4 = 2 ->
          for _ = 1 to 8 + t do
            Sim.step_as ~switch:10. 2.
          done;
          note "end"
      | _ when t mod 4 = 3 ->
          for i = 1 to 6 do
            Sim.advance (float_of_int (7 * t));
            Sim.step (if i mod 2 = 0 then 45. else 3.)
          done;
          note "end"
      | _ -> stepper ~cost:(float_of_int (5 * t)) (4 + t) note tid)

let record_tape ?(policy = `Perf) ?(seed = 0) bodies =
  let picks = ref [] in
  ignore
    (Sim.run ~policy ~seed
       ~record:(fun t -> picks := t :: !picks)
       (Array.map (fun b tid -> b ignore tid) bodies)
      : Sim.outcome);
  Array.of_list (List.rev !picks)

let test_golden_perf_many () =
  check_digest "perf, 16 mixed fibers" "b2568f537e034c8e587772568d4f73dd"
    (sched_run ~policy:`Perf (perf_bodies ()));
  (* A [`Perf] tape replayed under [`Perf]: every non-self pick is the
     root. *)
  check_digest "perf replay, root picks" "b2568f537e034c8e587772568d4f73dd"
    (sched_run ~policy:`Perf
       ~schedule:(record_tape (perf_bodies ()))
       (perf_bodies ()));
  (* A [`Random] tape replayed under [`Perf]: most picks are not the
     root, and the run takes fewer decisions than the tape holds, so it
     ends with each unused entry reported as a divergence ([div-1:tid]). *)
  check_digest "perf replay, non-root picks" "499bce3cbd4885fe566bd64e1b282802"
    (sched_run ~policy:`Perf
       ~schedule:(record_tape ~policy:`Random ~seed:4 (perf_bodies ()))
       (perf_bodies ()))

(* -- pollers dispatched by a step ------------------------------------------

   On a quiet engine ([`Perf] with no [record], no [keep] and no tape
   left) a poller's idle dispatch re-keys it in place, and a switching
   step whose pick would be a poller runs the idle dispatches of every
   poller ahead of its own requeue (sim.mli).  Fiber 0 steps 25 ns at a
   time, so each step switches, while pollers 1 and 2 re-check every
   10 ns: each step of fiber 0 runs two or three of their dispatches,
   and every 50 ns fiber 0's clock ties a poller it just re-ticked,
   which fiber 0 wins by the seq it took before those re-ticks.  Poller
   1's first wait ends when its [cond] turns false, its second at an
   interrupt fiber 0 arms; poller 2's first [cond] raises.  Every run
   must match the same run written with the [Sim.step] loop each wait
   stands for, at every crash point, step limit and static interrupt
   dispatch of either poller. *)
let ahead_bodies ~poll =
  let counter = ref 0 in
  let wait ~period cond =
    if poll then Sim.poll_while ~period cond
    else
      while cond () do
        Sim.step period
      done
  in
  let waiter first second note _ =
    let caught f = try f () with Zap -> note "zap" | Boom -> note "boom" in
    caught (fun () -> wait ~period:10. first);
    note "woke";
    caught (fun () -> Sim.step 3.);
    caught (fun () -> wait ~period:10. second);
    note "end"
  in
  [|
    (fun note _ ->
      for j = 1 to 7 do
        Sim.step 25.;
        incr counter;
        if j = 4 then Sim.interrupt ~tid:1 Zap
      done;
      note "end");
    waiter (fun () -> !counter < 2) (fun () -> !counter < 7);
    waiter
      (fun () -> if !counter >= 3 then raise Boom else true)
      (fun () -> !counter < 6);
  |]

let test_pollers_ahead_of_step () =
  let run ~poll ~record ?crash_at ?step_limit ?interrupts () =
    sched_run ~policy:`Perf ~record ?crash_at ?step_limit ?interrupts
      (ahead_bodies ~poll)
  in
  let clean = run ~poll:false ~record:true () in
  let contains sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length clean && (String.sub clean i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun what ->
      if not (contains what) then Alcotest.failf "no %S in %s" what clean)
    [ "1:woke"; "1:zap"; "2:boom"; "0:end" ];
  let dispatches =
    match String.split_on_char '|' clean with
    | _ :: tape :: _ -> String.length (String.trim tape)
    | _ -> 0
  in
  List.iter
    (fun record ->
      let same name ?crash_at ?step_limit ?interrupts () =
        Alcotest.(check string)
          (Printf.sprintf "%s, record %b" name record)
          (run ~poll:false ~record ?crash_at ?step_limit ?interrupts ())
          (run ~poll:true ~record ?crash_at ?step_limit ?interrupts ())
      in
      same "clean" ();
      for k = 1 to dispatches + 1 do
        same (Printf.sprintf "crash_at %d" k) ~crash_at:k ();
        same (Printf.sprintf "step_limit %d" k) ~step_limit:k ();
        for t = 1 to 2 do
          same
            (Printf.sprintf "interrupt of %d at dispatch %d" t k)
            ~interrupts:[| (t, k, Zap) |]
            ()
        done
      done)
    [ false; true ]

(* A [keep] that always keeps: every switching step continues its
   runner, so [choose] (or the rng) decides only in the dispatch loop —
   at a thread's start, after the previous thread finished — while
   [record] and the tracer still see every dispatch.  Inside [keep] no fiber is
   running: [Sim.tid] raises, and a [Sim.step] or [Sim.advance] there
   charges nothing (the clocks below are the steps' own). *)
let test_keep_contract () =
  let bodies () =
    Array.init 3 (fun t -> stepper ~cost:(float_of_int (t + 1)) 4)
  in
  let chosen = ref [] and kept = ref [] in
  let choose ~crashing:_ ready =
    chosen := Array.to_list ready :: !chosen;
    ready.(0)
  in
  let keep n =
    (match Sim.tid () with
    | _ -> Alcotest.fail "Sim.tid answered inside keep"
    | exception Sim.Not_in_run _ -> ());
    Sim.step 50.;
    Sim.advance 50.;
    kept := n :: !kept;
    true
  in
  Alcotest.(check string) "keep keeps the runner"
    "done | 000001111122222 | 0:0@0 1:0@1 2:0@2 3:0@3 4:0@4 4:1@0 5:1@2 6:1@4 \
     7:1@6 8:1@8 8:2@0 9:2@3 10:2@6 11:2@9 12:2@12 | 0:end@4/5/4 1:end@8/5/8 \
     2:end@12/5/12"
    (sched_run ~choose ~keep (bodies ()));
  Alcotest.(check (list (list int)))
    "choose: thread starts and after each finish" [ [ 0; 1; 2 ]; [ 1; 2 ]; [ 2 ] ]
    (List.rev !chosen);
  Alcotest.(check (list int))
    "keep: every switching step, runner counted"
    [ 3; 3; 3; 3; 2; 2; 2; 2; 1; 1; 1; 1 ]
    (List.rev !kept);
  (* without [choose] the seeded rng decides in the loop only: whatever
     the seed, each thread runs all its dispatches once started *)
  for seed = 1 to 6 do
    let run = sched_run ~seed ~keep:(fun _ -> true) (bodies ()) in
    let tape = List.nth (String.split_on_char '|' run) 1 in
    let blocks = String.trim tape |> String.to_seq |> List.of_seq in
    let rec runs = function
      | a :: (b :: _ as rest) when a = b -> runs rest
      | _ :: rest -> 1 + runs rest
      | [] -> 0
    in
    Alcotest.(check (pair int int))
      (Printf.sprintf "seed %d: three runs of five dispatches" seed)
      (3, 15)
      (runs blocks, List.length blocks)
  done

(* -- engine reuse -----------------------------------------------------------

   [run] keeps one engine per domain and resets it per run.  Runs that
   end every way a run can end, with every kind of hook and a changing
   fiber count, are made in sequence on one domain — the first four on
   two fibers, so each abnormal end is followed by a run that reuses
   its engine; each must observe what the same run observes first thing
   on a fresh domain, and the engine must keep nothing of a finished
   run alive. *)

exception Tagged of int ref

(* One run rendered: outcome | record tape | each fiber's clock and
   dispatch count when it exited (normally, raising or unwound).
   [track] is shown every value the run hands the engine. *)
let reuse_run ~track ~policy ~n ?crash_at ?step_limit ?(raise_at = -1)
    ?(tape = false) ?(hooks = false) ?(intr = false) seed =
  let exits = Array.make n "-" in
  let forever = step_limit <> None in
  let body tid =
    let steps = ref 0 in
    Fun.protect
      ~finally:(fun () ->
        exits.(tid) <-
          Printf.sprintf "%g/%d" (Sim.now ()) (Sim.dispatches ~tid))
      (fun () ->
        try
          while forever || !steps < 4 + tid do
            incr steps;
            Sim.step (float_of_int ((7 * tid) + !steps));
            if tid = 1 && !steps = raise_at then failwith "boom"
          done
        with Tagged _ -> ())
  in
  let bodies = Array.init n (fun _ -> body) in
  track (Obj.repr bodies);
  let buf = Buffer.create 16 in
  let record t = Buffer.add_char buf (Char.chr (48 + t)) in
  track (Obj.repr record);
  let schedule =
    if tape then Array.init 7 (fun i -> (i * 5) mod n) else [||]
  in
  if tape then track (Obj.repr schedule);
  let choose, keep =
    if hooks then begin
      let turns = ref 0 in
      let choose ~crashing:_ ready =
        incr turns;
        ready.(!turns mod Array.length ready)
      in
      let keep k =
        incr turns;
        k = 1 || !turns mod 3 <> 0
      in
      track (Obj.repr choose);
      track (Obj.repr keep);
      (Some choose, Some keep)
    end
    else (None, None)
  in
  let interrupts =
    if intr then [| (0, 2, Tagged (ref 0)); (1, 60, Tagged (ref 1)) |] else [||]
  in
  Array.iter (fun (_, _, x) -> track (Obj.repr x)) interrupts;
  let outcome =
    match
      Sim.run ~policy ~seed ?crash_at ?step_limit ~schedule ~record ?choose
        ?keep ~interrupts bodies
    with
    | Sim.All_done -> "done"
    | Sim.Crashed_at k -> Printf.sprintf "crashed@%d" k
    | exception Sim.Step_limit -> "step-limit"
    | exception Failure m -> m
  in
  Printf.sprintf "%s | %s | %s" outcome (Buffer.contents buf)
    (String.concat " " (Array.to_list exits))

let reuse_runs =
  [
    ( "step limit",
      fun track ->
        reuse_run ~track ~policy:`Random ~n:2 ~step_limit:9 ~hooks:true 5 );
    ("fiber raises", fun track -> reuse_run ~track ~policy:`Perf ~n:2 ~raise_at:2 5);
    ( "interrupts and crash_at",
      fun track ->
        reuse_run ~track ~policy:`Random ~n:2 ~intr:true ~crash_at:4 5 );
  ]
  @ List.concat_map
      (fun policy ->
        List.mapi
          (fun k n ->
            ( Printf.sprintf "%s, %d fibers (%d)"
                (match policy with `Perf -> "perf" | `Random -> "random")
                n k,
              fun track ->
                reuse_run ~track ~policy ~n ~tape:(k = 1) ~hooks:(k <> 0) 5 ))
          [ 2; 3; 2 ])
      [ `Perf; `Random ]

let test_engine_reuse () =
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  let fresh =
    List.map
      (fun (name, run) ->
        (name, on_fresh_domain (fun () -> run ignore)))
      reuse_runs
  in
  (* The sequence, and what it handed the engine, on one domain.  Weak
     pointers see whether any of it outlives its run. *)
  let reused, kept_alive =
    on_fresh_domain (fun () ->
        let weak = Weak.create 64 and tracked = ref 0 in
        let track x =
          Weak.set weak !tracked (Some x);
          incr tracked
        in
        let obs = List.map (fun (name, run) -> (name, run track)) reuse_runs in
        Gc.full_major ();
        let alive = ref 0 in
        for j = 0 to !tracked - 1 do
          if Weak.check weak j then incr alive
        done;
        (obs, !alive))
  in
  List.iter2
    (fun (name, want) (_, got) ->
      Alcotest.(check string) (name ^ ": as on a fresh domain") want got)
    fresh reused;
  Alcotest.(check bool) "a run reached its step limit" true
    (List.exists (fun (_, o) -> String.starts_with ~prefix:"step-limit" o) fresh);
  Alcotest.(check bool) "a run crashed" true
    (List.exists (fun (_, o) -> String.starts_with ~prefix:"crashed" o) fresh);
  Alcotest.(check int) "bodies, hooks, tapes and interrupts kept alive" 0
    kept_alive

let suite =
  [
    Alcotest.test_case "runs all threads" `Quick test_runs_all;
    Alcotest.test_case "tid and in_sim" `Quick test_tid_and_in_sim;
    Alcotest.test_case "clock accounting" `Quick test_clock_accounting;
    Alcotest.test_case "perf policy follows virtual clocks" `Quick
      test_perf_policy_interleaves_by_clock;
    Alcotest.test_case "random policy deterministic per seed" `Quick
      test_random_policy_deterministic_per_seed;
    Alcotest.test_case "crash at a chosen step" `Quick test_crash_at_step;
    Alcotest.test_case "crash unwinds fibers" `Quick
      test_crash_unwinds_with_exception;
    Alcotest.test_case "request_crash" `Quick test_request_crash;
    Alcotest.test_case "nested runs rejected" `Quick test_no_nested_runs;
    Alcotest.test_case "escaping exception leaves engine clean" `Quick
      test_exception_escapes_cleanly;
    Alcotest.test_case "step-limit watchdog" `Quick test_step_limit;
    Alcotest.test_case "step-limit teardown runs finalizers" `Quick
      test_step_limit_runs_finalizers;
    Alcotest.test_case "schedule record/replay" `Quick
      test_schedule_record_replay;
    Alcotest.test_case "crash/step-limit boundary exactness" `Quick
      test_boundary_exactness;
    Alcotest.test_case "replay divergence reported" `Quick
      test_replay_divergence_reported;
    Alcotest.test_case "choose drives scheduling" `Quick
      test_choose_drives_scheduling;
    Alcotest.test_case "sixty threads" `Quick test_many_threads;
    Alcotest.test_case "interrupt delivered and catchable" `Quick
      test_interrupt_delivered_and_catchable;
    Alcotest.test_case "static interrupt at exact dispatch" `Quick
      test_static_interrupt_at_exact_dispatch;
    Alcotest.test_case "interrupt on finished fiber is no-op" `Quick
      test_interrupt_on_finished_fiber_is_noop;
    Alcotest.test_case "self-interrupt raises immediately" `Quick
      test_self_interrupt_raises_immediately;
    QCheck_alcotest.to_alcotest prop_poll_matches_loop;
    QCheck_alcotest.to_alcotest prop_poll_matches_loop_at_bounds;
    Alcotest.test_case "poll_while: bounds on idle ticks" `Quick
      test_poll_idle_ticks;
    Alcotest.test_case "poll_while outside a run" `Quick test_poll_outside_run;
    Alcotest.test_case "poll_while: cond exception reaches the fiber" `Quick
      test_poll_cond_exception;
    Alcotest.test_case "Sim.step allocation bound" `Quick test_step_allocation;
    Alcotest.test_case "golden: seeded rng" `Quick test_golden_random;
    Alcotest.test_case "golden: choose" `Quick test_golden_choose;
    Alcotest.test_case "golden: replay with a divergence" `Quick
      test_golden_replay;
    Alcotest.test_case "golden: perf clock ties" `Quick test_golden_perf_ties;
    Alcotest.test_case "golden: perf, sixteen fibers and replays" `Quick
      test_golden_perf_many;
    Alcotest.test_case "bounds on in-place dispatches" `Quick
      test_bounds_on_in_place;
    Alcotest.test_case "in-place dispatch allocation bound" `Quick
      test_in_place_allocation;
    Alcotest.test_case "idle polling: minor words per dispatch within budget"
      `Quick test_poll_words_per_dispatch;
    Alcotest.test_case "pollers ahead of a step: same as the loop" `Quick
      test_pollers_ahead_of_step;
    Alcotest.test_case "keep: runner continues, hooks outside fibers" `Quick
      test_keep_contract;
    Alcotest.test_case "engine reuse: runs isolated, nothing kept alive"
      `Quick test_engine_reuse;
  ]
