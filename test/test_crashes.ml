(* Detectable-recovery campaigns (the paper's core guarantee): random
   schedules, adversarial crash points and write-back resolution, full
   recovery, oracle-checked responses — for every recoverable
   implementation, plus dedicated Tracking recovery-path tests. *)

let campaign f ~seeds ~threads ~ops ~max_crashes ~key_range =
  let cfg =
    Crashes.
      {
        factory = f;
        threads;
        ops_per_thread = ops;
        workload =
          { Workload.(default update_intensive) with key_range; prefill_n = key_range / 2 };
        max_crashes;
      }
  in
  match Crashes.run_campaign cfg ~seeds:(List.init seeds Fun.id) with
  | Ok (n, o) ->
      Alcotest.(check int) "all seeds ran" seeds n;
      Alcotest.(check bool)
        "some crashes actually happened" true (o.Crashes.crashes > 0)
  | Error r ->
      Alcotest.failf "%s: seed %d: %s" f.Set_intf.fname r.Repro.seed
        r.Repro.error

let test_tracking_campaign () =
  campaign Set_intf.tracking ~seeds:60 ~threads:4 ~ops:12 ~max_crashes:3
    ~key_range:32

let test_tracking_small_hot () =
  (* tiny key range maximizes helping and tag conflicts across crashes *)
  campaign Set_intf.tracking ~seeds:40 ~threads:6 ~ops:10 ~max_crashes:4
    ~key_range:4

let test_tracking_bst_campaign () =
  campaign Set_intf.tracking_bst ~seeds:40 ~threads:4 ~ops:10 ~max_crashes:3
    ~key_range:24

let test_tracking_noopt_campaign () =
  campaign Set_intf.tracking_no_ro_opt ~seeds:30 ~threads:4 ~ops:10
    ~max_crashes:3 ~key_range:24

let test_capsules_campaign () =
  campaign Set_intf.capsules ~seeds:40 ~threads:4 ~ops:10 ~max_crashes:3
    ~key_range:24

let test_capsules_opt_campaign () =
  campaign Set_intf.capsules_opt ~seeds:40 ~threads:4 ~ops:10 ~max_crashes:3
    ~key_range:24

let test_romulus_campaign () =
  campaign Set_intf.romulus ~seeds:40 ~threads:4 ~ops:10 ~max_crashes:3
    ~key_range:24

let test_redo_campaign () =
  campaign Set_intf.redo ~seeds:40 ~threads:4 ~ops:10 ~max_crashes:3
    ~key_range:24

(* Direct recovery-path tests for Tracking's Op-Recover (Algorithm 1). *)
module L = Rlist.Int

let test_recover_completed_update_returns_same () =
  (* Crash after completion but before the caller could record the
     response: recovery must return the recorded result, not re-execute. *)
  for crash_at = 1 to 400 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = L.create heap ~threads:1 in
    let returned = ref None in
    let outcome =
      Sim.run ~policy:`Random ~seed:crash_at ~crash_at
        [| (fun _ -> returned := Some (L.insert t 7)) |]
    in
    match outcome with
    | Sim.All_done ->
        Alcotest.(check (option bool)) "completed" (Some true) !returned
    | Sim.Crashed_at _ ->
        let rng = Random.State.make [| crash_at |] in
        Pmem.crash ~rng heap;
        let r = ref false in
        (match
           Sim.run [| (fun _ -> r := L.recover t (`Insert 7)) |]
         with
        | Sim.All_done -> ()
        | Sim.Crashed_at _ -> Alcotest.fail "crash during recovery run");
        Alcotest.(check bool) "recovered response" true !r;
        Alcotest.(check bool) "key durable" true (L.mem_volatile t 7);
        (match L.check_invariants t with
        | Ok () -> ()
        | Error m -> Alcotest.fail m)
  done

let test_recover_twice_is_stable () =
  (* multiple crashes during recovery: the response must not change *)
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let t = L.create heap ~threads:1 in
  (match
     Sim.run ~crash_at:120 ~policy:`Random
       [| (fun _ -> ignore (L.insert t 3)) |]
   with
  | Sim.All_done | Sim.Crashed_at _ -> ());
  Pmem.crash heap;
  let answers = ref [] in
  for i = 1 to 3 do
    (match
       Sim.run ~seed:i [| (fun _ -> answers := L.recover t (`Insert 3) :: !answers) |]
     with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected");
    Pmem.crash heap
  done;
  match !answers with
  | [ a; b; c ] ->
      Alcotest.(check bool) "stable" true (a = b && b = c)
  | _ -> Alcotest.fail "expected three answers"

let test_find_recovery_reinvokes () =
  (* a crashed find leaves CP at 0, so recovery re-invokes and returns a
     fresh, correct answer *)
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let t = L.create heap ~threads:1 in
  ignore (L.insert t 5);
  (match
     Sim.run ~crash_at:60 ~policy:`Random [| (fun _ -> ignore (L.find t 5)) |]
   with
  | Sim.All_done | Sim.Crashed_at _ -> ());
  Pmem.crash heap;
  let r = ref false in
  (match Sim.run [| (fun _ -> r := L.recover t (`Find 5)) |] with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected");
  Alcotest.(check bool) "find recovered correctly" true !r

(* A prepared state serves a whole sweep and every run from it equals a
   fresh run: for each crash-capable factory, one [Crashes.prepare] on
   crash-explore's tree shape serves a crash at every step of the
   crash-free round 0, under four write-back resolutions ([`Rng] among
   them), and each run's verdict and round log must equal a fresh
   [run_logged] with the same script.  The prepared runs go first, back
   to back, so each one starts from the state the previous one left —
   what [Pmem.restore] and the structure's [save_volatile] must undo.
   Runs from one prepared state stay independent: an uncontrolled run
   draws from its own copy of the harness rng, and a controlled run
   never advances it, so for the two frameworks of crash-explore a
   controlled run crashing at the same step ([`Drop]) precedes each
   prepared run and changes nothing.  For those two the restore must
   also allocate at least 1,000 minor words per run less than the
   rebuild it replaces. *)
let test_prepared_equals_fresh () =
  let tree f =
    Crashes.
      {
        factory = f;
        threads = 2;
        ops_per_thread = 2;
        workload =
          {
            (Workload.default Workload.update_intensive) with
            key_range = 8;
            prefill_n = 2;
          };
        max_crashes = 1;
      }
  in
  let round c wb = [ { Repro.kind = `Work; crash_at = c; schedule = [||]; wb } ] in
  let crash_capable (f : Set_intf.factory) = f.supports_crash in
  List.iter
    (fun (f : Set_intf.factory) ->
      let cfg = tree f in
      List.iter
        (fun seed ->
          let steps =
            match Crashes.run_logged ~script:(round 0 `Rng) cfg ~seed with
            | _, r0 :: _ -> Array.length r0.Repro.schedule - cfg.threads
            | _, [] -> Alcotest.failf "%s: no round 0" f.fname
          in
          let crashes =
            List.concat_map
              (fun c ->
                List.map (fun wb -> (c, round c wb)) [ `Drop; `All; `Prefix 1; `Rng ])
              (List.init (steps + 1) Fun.id)
          in
          let scripts = List.map snd crashes in
          let framework = List.mem f.fname [ "tracking"; "memento-list" ] in
          let ctl c =
            {
              Crashes.ctl_crash_at =
                (fun ~kind:_ ~round -> if round = 0 then c else 0);
              ctl_choose = (fun ~crashing:_ ready -> ready.(0));
              ctl_keep = (fun n -> n = 1);
              ctl_wb = (fun ~round:_ ~depth:_ -> `Drop);
              ctl_checkpoint = ignore;
            }
          in
          let p = Crashes.prepare cfg ~seed in
          let prepared_words = ref 0. in
          let prepared =
            List.map
              (fun (c, script) ->
                if framework then ignore (Crashes.run_prepared ~ctl:(ctl c) p);
                let w = Gc.minor_words () in
                let r = Crashes.run_prepared ~script p in
                prepared_words := !prepared_words +. (Gc.minor_words () -. w);
                r)
              crashes
          in
          let w1 = Gc.minor_words () in
          let fresh = List.map (fun script -> Crashes.run_logged ~script cfg ~seed) scripts in
          let w2 = Gc.minor_words () in
          let differ =
            List.filter (fun (a, b) -> a <> b) (List.combine prepared fresh)
          in
          if differ <> [] then
            Alcotest.failf "%s seed %d: %d of %d prepared runs differ from fresh runs"
              f.fname seed (List.length differ) (List.length scripts);
          if framework then begin
            let n = float_of_int (List.length scripts) in
            let saved = ((w2 -. w1) -. !prepared_words) /. n in
            if saved < 1000. then
              Alcotest.failf "%s seed %d: restore saves %.0f minor words per run"
                f.fname seed saved
          end)
        [ 1; 2 ])
    (List.filter crash_capable Set_intf.all)

let suite =
  [
    Alcotest.test_case "tracking campaign" `Quick test_tracking_campaign;
    Alcotest.test_case "tracking campaign, hot keys" `Quick
      test_tracking_small_hot;
    Alcotest.test_case "tracking-bst campaign" `Quick
      test_tracking_bst_campaign;
    Alcotest.test_case "tracking without read-only opt campaign" `Quick
      test_tracking_noopt_campaign;
    Alcotest.test_case "capsules campaign" `Quick test_capsules_campaign;
    Alcotest.test_case "capsules-opt campaign" `Quick
      test_capsules_opt_campaign;
    Alcotest.test_case "romulus campaign" `Quick test_romulus_campaign;
    Alcotest.test_case "redo-opt campaign" `Quick test_redo_campaign;
    Alcotest.test_case "recover a completed update returns its result"
      `Quick test_recover_completed_update_returns_same;
    Alcotest.test_case "repeated recovery is stable" `Quick
      test_recover_twice_is_stable;
    Alcotest.test_case "find recovery re-invokes" `Quick
      test_find_recovery_reinvokes;
    Alcotest.test_case "prepared runs equal fresh runs" `Quick
      test_prepared_equals_fresh;
  ]
