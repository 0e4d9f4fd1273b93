(* The exhaustive linearizability checker, and rlist/rbst histories with
   real invocation/response timestamps checked against it. *)

let e op ok inv res = { Linearize.op; ok; inv; res }

let test_sequential_histories () =
  Alcotest.(check bool) "empty" true (Linearize.check []);
  Alcotest.(check bool)
    "ins-find" true
    (Linearize.check
       [ e (Set_intf.Ins 1) true 0 1; e (Set_intf.Fnd 1) true 2 3 ]);
  Alcotest.(check bool)
    "find-before-ins must be false" false
    (Linearize.check
       [ e (Set_intf.Fnd 1) true 0 1; e (Set_intf.Ins 1) true 2 3 ]);
  Alcotest.(check bool)
    "initial state respected" true
    (Linearize.check ~initial:[ 7 ] [ e (Set_intf.Del 7) true 0 1 ])

let test_concurrent_reorder () =
  (* overlapping ops may linearize in either order *)
  Alcotest.(check bool)
    "overlap allows find=true" true
    (Linearize.check
       [ e (Set_intf.Ins 1) true 0 10; e (Set_intf.Fnd 1) true 1 2 ]);
  Alcotest.(check bool)
    "overlap allows find=false" true
    (Linearize.check
       [ e (Set_intf.Ins 1) true 0 10; e (Set_intf.Fnd 1) false 1 2 ]);
  (* but real-time precedence binds *)
  Alcotest.(check bool)
    "strict precedence rejects stale find" false
    (Linearize.check
       [ e (Set_intf.Ins 1) true 0 1; e (Set_intf.Fnd 1) false 5 6 ])

let test_double_insert () =
  Alcotest.(check bool)
    "two concurrent inserts: one must fail" false
    (Linearize.check
       [ e (Set_intf.Ins 1) true 0 5; e (Set_intf.Ins 1) true 0 5 ]);
  Alcotest.(check bool)
    "insert-delete-insert alternation" true
    (Linearize.check
       [
         e (Set_intf.Ins 1) true 0 5;
         e (Set_intf.Ins 1) true 0 9;
         e (Set_intf.Del 1) true 0 7;
       ])

(* Run real concurrent histories on the recoverable list and check them
   with the exhaustive checker, timestamps taken from simulator steps. *)
let test_rlist_histories_linearizable () =
  let module L = Rlist.Int in
  for seed = 0 to 39 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = L.create heap ~threads:3 in
    ignore (L.insert t 2);
    let entries = ref [] in
    let body tid (_ : int) =
      let rng = Random.State.make [| seed; tid; 13 |] in
      for _ = 1 to 3 do
        let k = Random.State.int rng 4 in
        let inv = Sim.steps_executed () in
        let op, ok =
          match Random.State.int rng 3 with
          | 0 -> (Set_intf.Ins k, L.insert t k)
          | 1 -> (Set_intf.Del k, L.delete t k)
          | _ -> (Set_intf.Fnd k, L.find t k)
        in
        let res = Sim.steps_executed () in
        entries := { Linearize.op; ok; inv; res } :: !entries
      done
    in
    (match Sim.run ~policy:`Random ~seed (Array.init 3 body) with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    if not (Linearize.check ~initial:[ 2 ] !entries) then begin
      List.iter
        (fun en -> Format.eprintf "  %a@." Linearize.pp_entry en)
        (List.rev !entries);
      Alcotest.failf "seed %d: rlist history not linearizable" seed
    end
  done

let test_rbst_histories_linearizable () =
  let module T = Rbst.Int in
  for seed = 0 to 39 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = T.create heap ~threads:3 in
    ignore (T.insert t 2);
    let entries = ref [] in
    let body tid (_ : int) =
      let rng = Random.State.make [| seed; tid; 14 |] in
      for _ = 1 to 3 do
        let k = Random.State.int rng 4 in
        let inv = Sim.steps_executed () in
        let op, ok =
          match Random.State.int rng 3 with
          | 0 -> (Set_intf.Ins k, T.insert t k)
          | 1 -> (Set_intf.Del k, T.delete t k)
          | _ -> (Set_intf.Fnd k, T.find t k)
        in
        let res = Sim.steps_executed () in
        entries := { Linearize.op; ok; inv; res } :: !entries
      done
    in
    (match Sim.run ~policy:`Random ~seed (Array.init 3 body) with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    if not (Linearize.check ~initial:[ 2 ] !entries) then
      Alcotest.failf "seed %d: rbst history not linearizable" seed
  done

(* Histories that survive a crash: recovered responses belong to the SAME
   operation interval (invocation before the crash, response after). *)
let test_crash_spanning_history () =
  let module L = Rlist.Int in
  for seed = 0 to 39 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = L.create heap ~threads:2 in
    ignore (L.insert t 1);
    let entries = ref [] in
    let pending = Array.make 2 None in
    let body tid (_ : int) =
      let rng = Random.State.make [| seed; tid; 15 |] in
      for _ = 1 to 2 do
        let k = Random.State.int rng 3 in
        let op =
          match Random.State.int rng 3 with
          | 0 -> `Insert k
          | 1 -> `Delete k
          | _ -> `Find k
        in
        let inv = Sim.steps_executed () in
        pending.(tid) <- Some (op, inv);
        let ok = L.apply t op in
        entries :=
          { Linearize.op = (match op with
             | `Insert k -> Set_intf.Ins k
             | `Delete k -> Set_intf.Del k
             | `Find k -> Set_intf.Fnd k);
            ok; inv; res = Sim.steps_executed () } :: !entries;
        pending.(tid) <- None
      done
    in
    (match
       Sim.run ~policy:`Random ~seed ~crash_at:(60 + (seed * 13)) (Array.init 2 body)
     with
    | Sim.All_done -> ()
    | Sim.Crashed_at crash_step ->
        let rng = Random.State.make [| seed |] in
        Pmem.crash ~rng heap;
        (match
           Sim.run ~seed:(seed + 1)
             (Array.init 2 (fun tid (_ : int) ->
                  match pending.(tid) with
                  | None -> ()
                  | Some (op, inv) ->
                      let ok = L.recover t op in
                      entries :=
                        {
                          Linearize.op =
                            (match op with
                            | `Insert k -> Set_intf.Ins k
                            | `Delete k -> Set_intf.Del k
                            | `Find k -> Set_intf.Fnd k);
                          ok;
                          inv;
                          res = crash_step + 1000 + Sim.steps_executed ();
                        }
                        :: !entries;
                      pending.(tid) <- None))
         with
        | Sim.All_done -> ()
        | Sim.Crashed_at _ -> Alcotest.fail "crash during recovery"));
    if not (Linearize.check ~initial:[ 1 ] !entries) then begin
      List.iter
        (fun en -> Format.eprintf "  %a@." Linearize.pp_entry en)
        (List.rev !entries);
      Alcotest.failf "seed %d: crash-spanning history not linearizable" seed
    end
  done

let suite =
  [
    Alcotest.test_case "sequential histories" `Quick test_sequential_histories;
    Alcotest.test_case "concurrent reordering" `Quick test_concurrent_reorder;
    Alcotest.test_case "double insert rejected" `Quick test_double_insert;
    Alcotest.test_case "rlist histories linearizable" `Quick
      test_rlist_histories_linearizable;
    Alcotest.test_case "rbst histories linearizable" `Quick
      test_rbst_histories_linearizable;
    Alcotest.test_case "crash-spanning histories linearizable" `Quick
      test_crash_spanning_history;
  ]
