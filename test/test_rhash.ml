(* The composed recoverable hash map: model agreement, concurrency,
   crash campaigns through the common harness, and a non-integer-key
   instantiation of the functor. *)

module H = Rhash.Int
module IS = Set.Make (Stdlib.Int)

let fresh ?(buckets = 8) threads =
  Pmem.reset_pending ();
  let heap = Pmem.heap ~name:"rhash-test" () in
  (heap, H.create ~buckets heap ~threads)

let test_sequential_model () =
  let _, h = fresh 2 in
  let rng = Random.State.make [| 31 |] in
  let model = ref IS.empty in
  for _ = 1 to 500 do
    let k = Random.State.int rng 100 in
    match Random.State.int rng 3 with
    | 0 ->
        let e = not (IS.mem k !model) in
        model := IS.add k !model;
        Alcotest.(check bool) "insert" e (H.insert h k)
    | 1 ->
        let e = IS.mem k !model in
        model := IS.remove k !model;
        Alcotest.(check bool) "delete" e (H.delete h k)
    | _ -> Alcotest.(check bool) "find" (IS.mem k !model) (H.find h k)
  done;
  Alcotest.(check (list int))
    "final" (IS.elements !model)
    (List.sort compare (H.to_list h));
  Alcotest.(check int) "cardinal" (IS.cardinal !model) (H.cardinal h);
  match H.check_invariants h with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_single_bucket_degenerate () =
  (* one bucket = plain recoverable list; all keys collide *)
  let _, h = fresh ~buckets:1 2 in
  for k = 0 to 20 do
    Alcotest.(check bool) "insert" true (H.insert h k)
  done;
  Alcotest.(check int) "cardinal" 21 (H.cardinal h)

let test_concurrent () =
  for seed = 0 to 9 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let h = H.create ~buckets:4 heap ~threads:4 in
    let body tid (_ : int) =
      for i = 0 to 9 do
        assert (H.insert h ((tid * 100) + i))
      done;
      for i = 0 to 4 do
        assert (H.delete h ((tid * 100) + (2 * i)))
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
    Alcotest.(check (list int))
      "contents" expected
      (List.sort compare (H.to_list h))
  done

let test_crash_campaign () =
  let cfg =
    Crashes.
      {
        factory = Set_intf.tracking_hash;
        threads = 4;
        ops_per_thread = 12;
        workload =
          { Workload.(default update_intensive) with key_range = 48; prefill_n = 24 };
        max_crashes = 3;
      }
  in
  match Crashes.run_campaign cfg ~seeds:(List.init 40 Fun.id) with
  | Ok (n, o) ->
      Alcotest.(check int) "all seeds" 40 n;
      Alcotest.(check bool) "crashes happened" true (o.Crashes.crashes > 0)
  | Error r -> Alcotest.failf "seed %d: %s" r.Repro.seed r.Repro.error

(* The functor also works for non-integer keys. *)
module SH = Rhash.Make (struct
  type t = string

  let compare = String.compare
  let to_string s = s
  let hash = Hashtbl.hash
end)

let test_string_keys () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let h = SH.create ~buckets:4 heap ~threads:1 in
  Alcotest.(check bool) "insert" true (SH.insert h "hello");
  Alcotest.(check bool) "insert" true (SH.insert h "world");
  Alcotest.(check bool) "dup" false (SH.insert h "hello");
  Alcotest.(check bool) "find" true (SH.find h "world");
  Alcotest.(check bool) "delete" true (SH.delete h "hello");
  Alcotest.(check bool) "gone" false (SH.find h "hello");
  Alcotest.(check int) "cardinal" 1 (SH.cardinal h)

let suite =
  [
    Alcotest.test_case "sequential model" `Quick test_sequential_model;
    Alcotest.test_case "single bucket degenerate" `Quick
      test_single_bucket_degenerate;
    Alcotest.test_case "concurrent disjoint" `Quick test_concurrent;
    Alcotest.test_case "crash campaign" `Quick test_crash_campaign;
    Alcotest.test_case "string keys" `Quick test_string_keys;
  ]
