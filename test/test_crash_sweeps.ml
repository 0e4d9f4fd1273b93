(* Exhaustive crash-point sweeps: crash a single operation at EVERY
   simulator step and recover, for each structure.  Complements the
   randomized campaigns with full coverage of the small cases. *)

let sweep_single ~max_step ~setup ~run ~recover_and_check =
  for crash_at = 1 to max_step do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let st = setup heap in
    let outcome =
      Sim.run ~policy:`Random ~seed:crash_at ~crash_at
        [| (fun (_ : int) -> run st) |]
    in
    match outcome with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ ->
        Pmem.crash ~rng:(Random.State.make [| crash_at; 5 |]) heap;
        (match
           Sim.run [| (fun (_ : int) -> recover_and_check crash_at st) |]
         with
        | Sim.All_done -> ()
        | Sim.Crashed_at _ -> Alcotest.fail "crash during recovery")
  done

(* -- BST ---------------------------------------------------------------- *)
module T = Rbst.Int

let test_bst_insert_sweep () =
  sweep_single ~max_step:400
    ~setup:(fun heap ->
      let t = T.create heap ~threads:1 in
      ignore (T.insert t 5);
      ignore (T.insert t 9);
      t)
    ~run:(fun t -> ignore (T.insert t 7 : bool))
    ~recover_and_check:(fun crash_at t ->
      if not (T.recover t (`Insert 7)) then
        Alcotest.failf "crash_at=%d: recovered insert said false" crash_at;
      if not (T.mem_volatile t 7) then
        Alcotest.failf "crash_at=%d: 7 not durable" crash_at;
      match T.check_invariants t with
      | Ok () -> ()
      | Error m -> Alcotest.failf "crash_at=%d: %s" crash_at m)

let test_bst_delete_sweep () =
  sweep_single ~max_step:400
    ~setup:(fun heap ->
      let t = T.create heap ~threads:1 in
      ignore (T.insert t 5);
      ignore (T.insert t 9);
      ignore (T.insert t 7);
      t)
    ~run:(fun t -> ignore (T.delete t 7 : bool))
    ~recover_and_check:(fun crash_at t ->
      if not (T.recover t (`Delete 7)) then
        Alcotest.failf "crash_at=%d: recovered delete said false" crash_at;
      if T.mem_volatile t 7 then
        Alcotest.failf "crash_at=%d: 7 still durable" crash_at;
      match T.check_invariants t with
      | Ok () -> ()
      | Error m -> Alcotest.failf "crash_at=%d: %s" crash_at m)

(* -- queue ---------------------------------------------------------------- *)

let test_queue_sweep () =
  sweep_single ~max_step:350
    ~setup:(fun heap ->
      let q = Rqueue.create heap ~threads:1 in
      Rqueue.enqueue q 1;
      Rqueue.enqueue q 2;
      q)
    ~run:(fun q -> ignore (Rqueue.dequeue q : int option))
    ~recover_and_check:(fun crash_at q ->
      (match Rqueue.recover q Rqueue.Dequeue with
      | Some 1 -> ()
      | Some v -> Alcotest.failf "crash_at=%d: dequeued %d, wanted 1" crash_at v
      | None -> Alcotest.failf "crash_at=%d: dequeue lost" crash_at);
      if Rqueue.to_list q <> [ 2 ] then
        Alcotest.failf "crash_at=%d: bad remainder" crash_at;
      match Rqueue.check_invariants q with
      | Ok () -> ()
      | Error m -> Alcotest.failf "crash_at=%d: %s" crash_at m)

(* -- stack ---------------------------------------------------------------- *)

let test_stack_sweep () =
  sweep_single ~max_step:350
    ~setup:(fun heap ->
      let s = Rstack.create heap ~threads:1 in
      Rstack.push s 1;
      Rstack.push s 2;
      s)
    ~run:(fun s -> ignore (Rstack.pop s : int option))
    ~recover_and_check:(fun crash_at s ->
      (match Rstack.recover s Rstack.Pop with
      | Some 2 -> ()
      | Some v -> Alcotest.failf "crash_at=%d: popped %d, wanted 2" crash_at v
      | None -> Alcotest.failf "crash_at=%d: pop lost" crash_at);
      if Rstack.to_list s <> [ 1 ] then
        Alcotest.failf "crash_at=%d: bad remainder" crash_at;
      match Rstack.check_invariants s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "crash_at=%d: %s" crash_at m)

(* -- hash map -------------------------------------------------------------- *)
module H = Rhash.Int

let test_hash_sweep () =
  sweep_single ~max_step:350
    ~setup:(fun heap ->
      let h = H.create ~buckets:4 heap ~threads:1 in
      ignore (H.insert h 3);
      h)
    ~run:(fun h -> ignore (H.insert h 7 : bool))
    ~recover_and_check:(fun crash_at h ->
      if not (H.recover h (`Insert 7)) then
        Alcotest.failf "crash_at=%d: recovered insert said false" crash_at;
      if List.sort compare (H.to_list h) <> [ 3; 7 ] then
        Alcotest.failf "crash_at=%d: bad contents" crash_at)

(* -- two contending threads, crash at every (sampled) step ---------------- *)
module L = Rlist.Int

let test_two_thread_sweep () =
  let max_step = 900 in
  let step = ref 1 in
  while !step <= max_step do
    let crash_at = !step in
    step := !step + 3;
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = L.create heap ~threads:2 in
    ignore (L.insert t 10);
    let pending = Array.make 2 None in
    let responses = ref [] in
    let ops =
      [| [ `Insert 5; `Delete 10 ]; [ `Insert 10; `Delete 5 ] |]
    in
    let remaining = Array.map ref ops in
    let body tid (_ : int) =
      let rec go () =
        match !(remaining.(tid)) with
        | [] -> ()
        | op :: rest ->
            pending.(tid) <- Some op;
            let ok = L.apply t op in
            responses := (op, ok) :: !responses;
            pending.(tid) <- None;
            remaining.(tid) := rest;
            go ()
      in
      go ()
    in
    let recoverer tid (_ : int) =
      match pending.(tid) with
      | None -> ()
      | Some op ->
          let ok = L.recover t op in
          responses := (op, ok) :: !responses;
          pending.(tid) <- None;
          (match !(remaining.(tid)) with
          | _ :: rest -> remaining.(tid) := rest
          | [] -> ())
    in
    let rec finish round bodies =
      if round > 20 then Alcotest.fail "did not converge"
      else
        match
          Sim.run ~policy:`Random ~seed:(crash_at + round)
            ~crash_at:(if round = 0 then crash_at else -1)
            bodies
        with
        | Sim.All_done ->
            if Array.exists (fun p -> p <> None) pending then
              finish (round + 1) (Array.init 2 recoverer)
            else if Array.exists (fun r -> !r <> []) remaining then
              finish (round + 1) (Array.init 2 body)
            else ()
        | Sim.Crashed_at _ ->
            Pmem.crash ~rng:(Random.State.make [| crash_at |]) heap;
            finish (round + 1) (Array.init 2 recoverer)
    in
    finish 0 (Array.init 2 body);
    let events =
      List.rev_map
        (fun (op, ok) ->
          {
            Oracle.eop =
              (match op with
              | `Insert k -> Set_intf.Ins k
              | `Delete k -> Set_intf.Del k
              | `Find k -> Set_intf.Fnd k);
            ok;
          })
        !responses
    in
    (match Oracle.check ~initial:[ 10 ] ~final:(L.to_list t) events with
    | Ok () -> ()
    | Error m -> Alcotest.failf "crash_at=%d: oracle: %s" crash_at m);
    match L.check_invariants t with
    | Ok () -> ()
    | Error m -> Alcotest.failf "crash_at=%d: %s" crash_at m
  done

let suite =
  [
    Alcotest.test_case "bst insert, every crash point" `Quick
      test_bst_insert_sweep;
    Alcotest.test_case "bst delete, every crash point" `Quick
      test_bst_delete_sweep;
    Alcotest.test_case "queue dequeue, every crash point" `Quick
      test_queue_sweep;
    Alcotest.test_case "stack pop, every crash point" `Quick test_stack_sweep;
    Alcotest.test_case "hash insert, every crash point" `Quick
      test_hash_sweep;
    Alcotest.test_case "two contending threads, sampled crash points" `Quick
      test_two_thread_sweep;
  ]
