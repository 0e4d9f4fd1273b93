(* Quickstart: a detectably recoverable sorted list on simulated NVMM.

   Run with: dune exec examples/quickstart.exe

   The walk-through: create a list, run a few operations, crash the
   machine in the middle of an insert, and let the thread recover its own
   operation — getting back the exact response the crashed operation
   would have returned. *)

module L = Rlist.Int

let () =
  (* A heap is the region of simulated NVMM reset by a crash. *)
  let heap = Pmem.heap ~name:"quickstart" () in
  let list = L.create heap ~threads:2 in

  (* Plain sequential use (outside the simulator, thread id 0). *)
  assert (L.insert list 10);
  assert (L.insert list 30);
  assert (not (L.insert list 10));
  assert (L.find list 30);
  assert (L.delete list 30);
  Printf.printf "after setup: [%s]\n"
    (String.concat "; " (List.map string_of_int (L.to_list list)));

  (* Now crash an insert mid-flight.  The simulator runs the operation as
     a fiber and injects a system-wide crash at a chosen step; volatile
     state is lost, persisted state survives. *)
  let crash_step = 42 in
  (match
     Sim.run ~policy:`Random ~seed:7 ~crash_at:crash_step
       [| (fun _ -> ignore (L.insert list 20)) |]
   with
  | Sim.All_done -> print_endline "no crash (operation was too fast)"
  | Sim.Crashed_at n -> Printf.printf "crash at simulator step %d!\n" n);
  Pmem.crash heap;

  (* Detectable recovery: the system re-invokes the thread's recovery
     function with the same arguments; it finishes (or re-executes) the
     operation and returns its response. *)
  (match Sim.run [| (fun _ -> assert (L.recover list (`Insert 20))) |] with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> assert false);

  Printf.printf "after recovery: [%s]\n"
    (String.concat "; " (List.map string_of_int (L.to_list list)));
  assert (L.find list 20);
  (match L.check_invariants list with
  | Ok () -> print_endline "invariants hold — recovery is detectable"
  | Error m -> failwith m);

  (* The same API works for the recoverable BST. *)
  let module T = Rbst.Int in
  let tree = T.create heap ~threads:2 in
  List.iter (fun k -> ignore (T.insert tree k)) [ 5; 2; 8 ];
  Printf.printf "bst contents: [%s]\n"
    (String.concat "; " (List.map string_of_int (T.to_list tree)))
