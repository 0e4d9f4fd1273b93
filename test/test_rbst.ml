(* Unit and property tests for the detectably recoverable external BST. *)

module T = Rbst.Int

let check_inv t =
  match T.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violation: %s" msg

let fresh () =
  Pmem.reset_pending ();
  let heap = Pmem.heap ~name:"rbst-test" () in
  (heap, T.create heap ~threads:8)

let test_empty () =
  let _, t = fresh () in
  Alcotest.(check (list int)) "empty" [] (T.to_list t);
  Alcotest.(check bool) "find on empty" false (T.find t 5);
  Alcotest.(check bool) "delete on empty" false (T.delete t 5);
  check_inv t

let test_insert_find () =
  let _, t = fresh () in
  Alcotest.(check bool) "insert 5" true (T.insert t 5);
  Alcotest.(check bool) "insert 3" true (T.insert t 3);
  Alcotest.(check bool) "insert 9" true (T.insert t 9);
  Alcotest.(check bool) "insert 7" true (T.insert t 7);
  Alcotest.(check bool) "re-insert 5" false (T.insert t 5);
  Alcotest.(check (list int)) "sorted leaves" [ 3; 5; 7; 9 ] (T.to_list t);
  Alcotest.(check bool) "find 7" true (T.find t 7);
  Alcotest.(check bool) "find 6" false (T.find t 6);
  check_inv t

let test_delete () =
  let _, t = fresh () in
  List.iter (fun k -> ignore (T.insert t k)) [ 8; 3; 10; 1; 6; 14 ];
  Alcotest.(check bool) "delete leaf-ish 1" true (T.delete t 1);
  Alcotest.(check bool) "delete 1 again" false (T.delete t 1);
  Alcotest.(check bool) "delete root key" true (T.delete t 8);
  Alcotest.(check bool) "delete missing" false (T.delete t 99);
  Alcotest.(check (list int)) "remaining" [ 3; 6; 10; 14 ] (T.to_list t);
  check_inv t

let test_drain () =
  let _, t = fresh () in
  let keys = [ 5; 2; 8; 1; 3; 7; 9; 4; 6; 0 ] in
  List.iter (fun k -> ignore (T.insert t k)) keys;
  List.iter
    (fun k -> Alcotest.(check bool) "drain" true (T.delete t k))
    keys;
  Alcotest.(check (list int)) "empty again" [] (T.to_list t);
  Alcotest.(check int) "size" 0 (T.size t);
  check_inv t

module IS = Set.Make (Stdlib.Int)

let gen_op =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> `I k) (int_range 0 25);
        map (fun k -> `D k) (int_range 0 25);
        map (fun k -> `F k) (int_range 0 25);
      ])

let prop_sequential_model =
  QCheck2.Test.make ~name:"rbst agrees with Set model (sequential)" ~count:300
    QCheck2.Gen.(list_size (int_range 0 80) gen_op)
    (fun ops ->
      let _, t = fresh () in
      let model = ref IS.empty in
      List.for_all
        (fun op ->
          match op with
          | `I k ->
              let expected = not (IS.mem k !model) in
              model := IS.add k !model;
              T.insert t k = expected
          | `D k ->
              let expected = IS.mem k !model in
              model := IS.remove k !model;
              T.delete t k = expected
          | `F k -> T.find t k = IS.mem k !model)
        ops
      && T.to_list t = IS.elements !model
      && T.check_invariants t = Ok ())

let test_concurrent_disjoint () =
  for seed = 0 to 14 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = T.create heap ~threads:4 in
    let body tid (_ : int) =
      let base = tid * 100 in
      for i = 0 to 9 do
        assert (T.insert t (base + i))
      done;
      for i = 0 to 4 do
        assert (T.delete t (base + (2 * i)))
      done
    in
    (match Sim.run ~policy:`Random ~seed (Array.init 4 body) with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    let expected =
      List.concat_map
        (fun tid -> List.init 5 (fun i -> (tid * 100) + (2 * i) + 1))
        [ 0; 1; 2; 3 ]
      |> List.sort compare
    in
    Alcotest.(check (list int)) "final contents" expected (T.to_list t);
    check_inv t
  done

let test_concurrent_contended () =
  for seed = 0 to 14 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = T.create heap ~threads:4 in
    let succ_ins = Array.make 8 0 and succ_del = Array.make 8 0 in
    let log = ref [] in
    let body tid (_ : int) =
      let rng = Random.State.make [| seed; tid; 3 |] in
      for _ = 1 to 20 do
        let k = Random.State.int rng 8 in
        (* bind the result before touching [log]: the operation yields to
           other fibers, so the list must be read afterwards *)
        if Random.State.bool rng then begin
          let r = T.insert t k in
          log := (k, true, r) :: !log
        end
        else begin
          let r = T.delete t k in
          log := (k, false, r) :: !log
        end
      done
    in
    (match Sim.run ~policy:`Random ~seed (Array.init 4 body) with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    List.iter
      (fun (k, is_ins, ok) ->
        if ok then
          if is_ins then succ_ins.(k) <- succ_ins.(k) + 1
          else succ_del.(k) <- succ_del.(k) + 1)
      !log;
    for k = 0 to 7 do
      let net = succ_ins.(k) - succ_del.(k) in
      if net < 0 || net > 1 then
        Alcotest.failf "key %d: net successful inserts = %d" k net;
      Alcotest.(check bool)
        (Printf.sprintf "key %d presence" k)
        (net = 1) (T.mem_volatile t k)
    done;
    check_inv t
  done

(* §6's further find optimization: empty AffectSet. *)
let test_find_empty_affect () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let t = T.create ~prefix:"rbst-eaf" ~find_empty_affect:true heap ~threads:4 in
  List.iter (fun k -> ignore (T.insert t k)) [ 4; 1; 9 ];
  Alcotest.(check bool) "find present" true (T.find t 9);
  Alcotest.(check bool) "find absent" false (T.find t 5);
  (* concurrent finds against updates remain per-key consistent *)
  for seed = 0 to 9 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t =
      T.create ~prefix:"rbst-eaf" ~find_empty_affect:true heap ~threads:4
    in
    ignore (T.insert t 3);
    let body tid (_ : int) =
      let rng = Random.State.make [| seed; tid; 44 |] in
      for _ = 1 to 12 do
        let k = Random.State.int rng 6 in
        match Random.State.int rng 3 with
        | 0 -> ignore (T.insert t k : bool)
        | 1 -> ignore (T.delete t k : bool)
        | _ -> ignore (T.find t k : bool)
      done
    in
    (match Sim.run ~policy:`Random ~seed (Array.init 4 body) with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    check_inv t
  done;
  (* a crashed empty-affect find recovers by re-invocation *)
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let t = T.create ~prefix:"rbst-eaf" ~find_empty_affect:true heap ~threads:1 in
  ignore (T.insert t 7);
  (match
     Sim.run ~policy:`Random ~crash_at:40 [| (fun _ -> ignore (T.find t 7)) |]
   with
  | Sim.All_done | Sim.Crashed_at _ -> ());
  Pmem.crash heap;
  let r = ref false in
  (match Sim.run [| (fun _ -> r := T.recover t (`Find 7)) |] with
  | Sim.All_done -> ()
  | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
  Alcotest.(check bool) "recovered find" true !r

let test_helping_completes () =
  for crash_at = 5 to 100 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = T.create heap ~threads:2 in
    ignore (T.insert t 10);
    ignore (T.insert t 20);
    (* suspend a delete mid-flight, then require an insert to finish *)
    (match
       Sim.run ~policy:`Random ~seed:crash_at ~crash_at
         [| (fun _ -> ignore (T.delete t 10)) |]
     with
    | Sim.All_done | Sim.Crashed_at _ -> ());
    (match
       Sim.run ~policy:`Random ~seed:0 [| (fun _ -> ignore (T.insert t 15)) |]
     with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    Alcotest.(check bool) "15 present" true (T.mem_volatile t 15)
  done

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "insert-find" `Quick test_insert_find;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "fill and drain" `Quick test_drain;
    QCheck_alcotest.to_alcotest prop_sequential_model;
    Alcotest.test_case "concurrent disjoint keys" `Quick
      test_concurrent_disjoint;
    Alcotest.test_case "concurrent contended keys" `Quick
      test_concurrent_contended;
    Alcotest.test_case "find with empty AffectSet" `Quick
      test_find_empty_affect;
    Alcotest.test_case "helping completes stalled ops" `Quick
      test_helping_completes;
  ]
