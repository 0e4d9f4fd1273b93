(* Baseline implementations: Harris list, both Capsules variants,
   Romulus, RedoOpt — sequential semantics and concurrent consistency. *)

module IS = Set.Make (Stdlib.Int)

let fresh_algo (f : Set_intf.factory) threads =
  Pmem.reset_pending ();
  let heap = Pmem.heap ~name:f.Set_intf.fname () in
  f.Set_intf.make heap ~threads

let all_factories =
  Set_intf.
    [ harris_volatile; capsules; capsules_opt; romulus; redo; tracking ]

(* Every implementation must agree with the Set model sequentially. *)
let test_sequential_model () =
  List.iter
    (fun f ->
      let algo = fresh_algo f 4 in
      let rng = Random.State.make [| 17 |] in
      let model = ref IS.empty in
      for _ = 1 to 400 do
        let k = Random.State.int rng 30 in
        match Random.State.int rng 3 with
        | 0 ->
            let expected = not (IS.mem k !model) in
            model := IS.add k !model;
            if algo.Set_intf.insert k <> expected then
              Alcotest.failf "%s: insert(%d) wrong" f.Set_intf.fname k
        | 1 ->
            let expected = IS.mem k !model in
            model := IS.remove k !model;
            if algo.Set_intf.delete k <> expected then
              Alcotest.failf "%s: delete(%d) wrong" f.Set_intf.fname k
        | _ ->
            if algo.Set_intf.find k <> IS.mem k !model then
              Alcotest.failf "%s: find(%d) wrong" f.Set_intf.fname k
      done;
      Alcotest.(check (list int))
        (f.Set_intf.fname ^ " final")
        (IS.elements !model)
        (algo.Set_intf.contents ());
      match algo.Set_intf.check () with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" f.Set_intf.fname m)
    all_factories

(* Concurrent per-key consistency under the adversarial scheduler. *)
let test_concurrent_per_key () =
  List.iter
    (fun f ->
      for seed = 0 to 7 do
        let algo = fresh_algo f 4 in
        let initial = algo.Set_intf.contents () in
        let events = Array.make 4 [] in
        let body tid (_ : int) =
          let rng = Random.State.make [| seed; tid; 21 |] in
          for _ = 1 to 20 do
            let k = Random.State.int rng 10 in
            let op =
              match Random.State.int rng 3 with
              | 0 -> Set_intf.Ins k
              | 1 -> Set_intf.Del k
              | _ -> Set_intf.Fnd k
            in
            let ok = Set_intf.apply algo op in
            events.(tid) <- { Oracle.eop = op; ok } :: events.(tid)
          done
        in
        (match Sim.run ~policy:`Random ~seed (Array.init 4 body) with
        | Sim.All_done -> ()
        | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
        let evs = List.concat_map Array.to_list [ events ] |> List.concat in
        (match
           Oracle.check ~initial ~final:(algo.Set_intf.contents ()) evs
         with
        | Ok () -> ()
        | Error m ->
            Alcotest.failf "%s seed %d: %s" f.Set_intf.fname seed m);
        match algo.Set_intf.check () with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s: %s" f.Set_intf.fname m
      done)
    all_factories

(* Romulus: the two copies must agree when idle, and readers never block
   updaters permanently. *)
let test_romulus_twins () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let r = Romulus.create heap ~threads:2 in
  List.iter (fun k -> ignore (Romulus.insert r k)) [ 5; 1; 9 ];
  ignore (Romulus.delete r 1);
  Alcotest.(check (list int)) "contents" [ 5; 9 ] (Romulus.to_list r);
  match Romulus.check_invariants r with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* Redo: log replay after a crash must reconstruct the volatile state
   that was never flushed directly. *)
let test_redo_replay () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let r = Redo.create ~checkpoint_every:1000 heap ~threads:2 in
  List.iter (fun k -> ignore (Redo.insert r k)) [ 4; 2; 7; 9 ];
  ignore (Redo.delete r 7);
  Pmem.crash heap;
  Redo.recover_structure r;
  Alcotest.(check (list int)) "replayed" [ 2; 4; 9 ] (Redo.to_list r)

(* Capsules recoverable CAS: the (writer, seq) identity distinguishes
   whose mark landed. *)
let test_capsules_mark_identity () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let c = Capsules.create ~variant:`Opt heap ~threads:2 in
  ignore (Capsules.insert c 5);
  ignore (Capsules.delete c 5);
  Alcotest.(check (list int)) "deleted" [] (Capsules.to_list c);
  (* recover with a mismatching op re-invokes rather than replays *)
  ignore
    (Sim.run
       [|
         (fun _ ->
           Alcotest.(check bool)
             "recover of a different op re-invokes" true
             (Capsules.recover c (`Insert 6)));
       |]
      : Sim.outcome);
  Alcotest.(check (list int)) "6 inserted" [ 6 ] (Capsules.to_list c)

(* Exhaustive crash-point sweeps through Romulus's commit protocol and
   Redo's combine/replay: crash a single update at every step, run
   structure recovery, and demand the recovered response match the
   durable state. *)
let test_romulus_crash_sweep () =
  for crash_at = 1 to 250 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let r = Romulus.create heap ~threads:1 in
    ignore (Romulus.insert r 5);
    (match
       Sim.run ~policy:`Random ~seed:crash_at ~crash_at
         [| (fun (_ : int) -> ignore (Romulus.insert r 9 : bool)) |]
     with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ ->
        Pmem.crash ~rng:(Random.State.make [| crash_at |]) heap;
        Romulus.recover_structure r;
        let resp = ref false in
        (match
           Sim.run [| (fun (_ : int) -> resp := Romulus.recover r (`Insert 9)) |]
         with
        | Sim.All_done -> ()
        | Sim.Crashed_at _ -> Alcotest.fail "crash in recovery");
        if not !resp then
          Alcotest.failf "crash_at=%d: recovered insert said false" crash_at;
        if Romulus.to_list r <> [ 5; 9 ] then
          Alcotest.failf "crash_at=%d: bad durable contents" crash_at;
        (match Romulus.check_invariants r with
        | Ok () -> ()
        | Error m -> Alcotest.failf "crash_at=%d: %s" crash_at m))
  done

let test_redo_crash_sweep () =
  for crash_at = 1 to 250 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let r = Redo.create ~checkpoint_every:2 heap ~threads:1 in
    ignore (Redo.insert r 5);
    ignore (Redo.insert r 1);
    (match
       Sim.run ~policy:`Random ~seed:crash_at ~crash_at
         [| (fun (_ : int) -> ignore (Redo.delete r 5 : bool)) |]
     with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ ->
        Pmem.crash ~rng:(Random.State.make [| crash_at |]) heap;
        Redo.recover_structure r;
        let resp = ref false in
        (match
           Sim.run [| (fun (_ : int) -> resp := Redo.recover r (`Delete 5)) |]
         with
        | Sim.All_done -> ()
        | Sim.Crashed_at _ -> Alcotest.fail "crash in recovery");
        if not !resp then
          Alcotest.failf "crash_at=%d: recovered delete said false" crash_at;
        if Redo.to_list r <> [ 1 ] then
          Alcotest.failf "crash_at=%d: bad durable contents" crash_at)
  done

let test_capsules_crash_sweep () =
  List.iter
    (fun variant ->
      for crash_at = 1 to 250 do
        Pmem.reset_pending ();
        let heap = Pmem.heap () in
        let c = Capsules.create ~variant heap ~threads:1 in
        ignore (Capsules.insert c 5);
        (match
           Sim.run ~policy:`Random ~seed:crash_at ~crash_at
             [| (fun (_ : int) -> ignore (Capsules.delete c 5 : bool)) |]
         with
        | Sim.All_done -> ()
        | Sim.Crashed_at _ ->
            Pmem.crash ~rng:(Random.State.make [| crash_at |]) heap;
            let resp = ref false in
            (match
               Sim.run
                 [| (fun (_ : int) -> resp := Capsules.recover c (`Delete 5)) |]
             with
            | Sim.All_done -> ()
            | Sim.Crashed_at _ -> Alcotest.fail "crash in recovery");
            if not !resp then
              Alcotest.failf "crash_at=%d: recovered delete said false" crash_at;
            if Capsules.to_list c <> [] then
              Alcotest.failf "crash_at=%d: key survived its delete" crash_at)
      done)
    [ `General; `Opt ]

let suite =
  [
    Alcotest.test_case "sequential model agreement (all)" `Quick
      test_sequential_model;
    Alcotest.test_case "concurrent per-key consistency (all)" `Quick
      test_concurrent_per_key;
    Alcotest.test_case "romulus twin copies agree" `Quick test_romulus_twins;
    Alcotest.test_case "redo log replay" `Quick test_redo_replay;
    Alcotest.test_case "capsules mark identity" `Quick
      test_capsules_mark_identity;
    Alcotest.test_case "romulus, every crash point" `Quick
      test_romulus_crash_sweep;
    Alcotest.test_case "redo, every crash point" `Quick test_redo_crash_sweep;
    Alcotest.test_case "capsules, every crash point (both variants)" `Quick
      test_capsules_crash_sweep;
  ]
