(* The volatile Harris list's own mechanics: marking, physical snipping
   by traversals, and the traversal hook the Capsules baselines build
   on. *)

let fresh () =
  Pmem.reset_pending ();
  let heap = Pmem.heap ~name:"harris-test" () in
  Harris.create heap

let test_mark_then_snip () =
  let l = fresh () in
  assert (Harris.insert l 1);
  assert (Harris.insert l 2);
  assert (Harris.insert l 3);
  Alcotest.(check bool) "delete 2" true (Harris.delete l 2);
  Alcotest.(check (list int)) "snipped" [ 1; 3 ] (Harris.to_list l);
  (* a second delete of the same key fails *)
  Alcotest.(check bool) "gone" false (Harris.delete l 2);
  match Harris.check_invariants l with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_on_visit_hook_sees_marks () =
  let l = fresh () in
  List.iter (fun k -> ignore (Harris.insert l k)) [ 1; 2; 3 ];
  (* verify the hook observes every traversed node and its link *)
  let visited = ref [] in
  let _, curr =
    Harris.search_with
      ~on_visit:(fun nd link -> visited := (nd.Harris.key, link.Harris.marked) :: !visited)
      l 3
  in
  Alcotest.(check int) "found" 3 curr.Harris.key;
  let keys = List.rev_map fst !visited in
  Alcotest.(check bool) "visited the prefix" true
    (List.mem 1 keys && List.mem 2 keys && List.mem 3 keys)

let test_concurrent_harris () =
  for seed = 0 to 9 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let l = Harris.create heap in
    let body tid (_ : int) =
      for i = 0 to 9 do
        assert (Harris.insert l ((tid * 100) + i))
      done;
      for i = 0 to 4 do
        assert (Harris.delete l ((tid * 100) + (2 * i)))
      done
    in
    (match Sim.run ~policy:`Random ~seed (Array.init 4 body) with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    let expected =
      List.concat_map
        (fun t -> List.init 5 (fun i -> (t * 100) + (2 * i) + 1))
        [ 0; 1; 2; 3 ]
      |> List.sort compare
    in
    Alcotest.(check (list int)) "contents" expected (Harris.to_list l)
  done

let suite =
  [
    Alcotest.test_case "mark then snip" `Quick test_mark_then_snip;
    Alcotest.test_case "on_visit hook" `Quick test_on_visit_hook_sees_marks;
    Alcotest.test_case "concurrent inserts/deletes" `Quick
      test_concurrent_harris;
  ]
