(* The Memento composability layer: checkpoint / detectable-CAS unit
   semantics, the derived List-mmt and Comb-mmt structures (sequential
   model equivalence shared with Tracking, concurrency, crash campaigns
   with oracle verification), and the memento-broken negative control
   that the explorer must catch. *)

module ML = Mlist.Int
module MC = Mcomb.Int
module TL = Rlist.Int
module Cp = Memento.Checkpoint
module D = Memento.Dcas

let fresh_ctx () =
  Pmem.reset_pending ();
  let heap = Pmem.heap ~name:"memento-test" () in
  (heap, Memento.make heap ~threads:4)

let fresh_list () =
  Pmem.reset_pending ();
  let heap = Pmem.heap ~name:"mlist-test" () in
  (heap, ML.create heap ~threads:8)

let fresh_comb () =
  Pmem.reset_pending ();
  let heap = Pmem.heap ~name:"mcomb-test" () in
  (heap, MC.create heap ~threads:8)

let check_inv name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s invariant violation: %s" name msg

(* -- primitives ----------------------------------------------------------- *)

let test_checkpoint_single_assignment () =
  let _, ctx = fresh_ctx () in
  let cp = Cp.make ~name:"t.cp" ctx in
  let h = Memento.my_handle ctx in
  let runs = ref 0 in
  let f () = incr runs; 42 in
  Alcotest.(check (option int)) "nothing recorded yet" None
    (Cp.peek cp h ~seq:1);
  Alcotest.(check int) "first run computes" 42 (Cp.run cp h ~seq:1 f);
  Alcotest.(check int) "replay returns the record" 42 (Cp.run cp h ~seq:1 f);
  Alcotest.(check int) "f ran exactly once" 1 !runs;
  Alcotest.(check (option int)) "peek sees the record" (Some 42)
    (Cp.peek cp h ~seq:1);
  Alcotest.(check (option int)) "other invocations see nothing" None
    (Cp.peek cp h ~seq:2)

let test_dcas_detects_own_success () =
  let heap, ctx = fresh_ctx () in
  let h = Memento.my_handle ctx in
  let fld = Pmem.alloc ~name:"t.cell" heap (D.plain 0) in
  let cur = D.read ctx fld in
  Alcotest.(check bool) "swing succeeds" true
    (D.run h ~seq:1 ~slot:0 fld ~expect:cur ~desired:7);
  (* crash before confirm: the tag is still in place.  A traversal
     (here: the owner's own replay read) helps it — records the outcome
     on the winner's board and untags — so the replay can answer from
     the board instead of guessing from the structure's state. *)
  Alcotest.(check (option bool)) "not yet recorded" None
    (D.known h ~seq:1 ~slot:0);
  let after = D.read ctx fld in
  Alcotest.(check int) "value installed" 7 after.D.v;
  Alcotest.(check bool) "read untagged the cell" true (after.D.tg = None);
  Alcotest.(check (option bool)) "outcome on the board" (Some true)
    (D.known h ~seq:1 ~slot:0);
  D.confirm h ~seq:1 ~slot:0 fld (* idempotent after a helper untagged *)

let test_dcas_failure_is_plain () =
  let heap, ctx = fresh_ctx () in
  let h = Memento.my_handle ctx in
  let fld = Pmem.alloc ~name:"t.cell" heap (D.plain 0) in
  let stale = D.plain 0 in
  (* physically distinct box: the CAS must fail *)
  Alcotest.(check bool) "stale expect fails" false
    (D.run h ~seq:1 ~slot:0 fld ~expect:stale ~desired:9);
  Alcotest.(check int) "value untouched" 0 (D.read ctx fld).D.v;
  Alcotest.(check (option bool)) "no outcome recorded" None
    (D.known h ~seq:1 ~slot:0)

let test_recover_rejects_impossible_timestamp () =
  let _, ctx = fresh_ctx () in
  let h = Memento.my_handle ctx in
  let seq = Memento.begin_op h in
  Alcotest.(check int) "replay runs under the crashed timestamp" seq
    (Memento.recover h ~mseq:seq ~run:(fun ~seq -> seq));
  match Memento.recover h ~mseq:(seq + 5) ~run:(fun ~seq -> seq) with
  | (_ : int) -> Alcotest.fail "a timestamp from the future must be rejected"
  | exception Failure msg ->
      Alcotest.(check bool) "error names the invariant" true
        (String.length msg >= 16
        && String.sub msg 0 16 = "Memento.recover:")

(* -- sequential equivalence: both Memento structures, Tracking, model -- *)

module IS = Set.Make (Stdlib.Int)

type op = I of int | D_ of int | F of int

let gen_op =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> I k) (int_range 0 30);
        map (fun k -> D_ k) (int_range 0 30);
        map (fun k -> F k) (int_range 0 30);
      ])

let prop_frameworks_agree =
  QCheck2.Test.make
    ~name:"List-mmt, Comb-mmt and Tracking agree with the Set model" ~count:200
    QCheck2.Gen.(list_size (int_range 0 50) gen_op)
    (fun ops ->
      let _, ml = fresh_list () in
      let _, mc = fresh_comb () in
      Pmem.reset_pending ();
      let heap = Pmem.heap ~name:"rlist-ref" () in
      let tl = TL.create heap ~threads:8 in
      let model = ref IS.empty in
      List.for_all
        (fun op ->
          let expected, mlr, mcr, tlr =
            match op with
            | I k ->
                let e = not (IS.mem k !model) in
                model := IS.add k !model;
                (e, ML.insert ml k, MC.insert mc k, TL.insert tl k)
            | D_ k ->
                let e = IS.mem k !model in
                model := IS.remove k !model;
                (e, ML.delete ml k, MC.delete mc k, TL.delete tl k)
            | F k -> (IS.mem k !model, ML.find ml k, MC.find mc k, TL.find tl k)
          in
          mlr = expected && mcr = expected && tlr = expected)
        ops
      && ML.to_list ml = IS.elements !model
      && MC.to_list mc = IS.elements !model
      && TL.to_list tl = IS.elements !model
      && ML.check_invariants ml = Ok ()
      && MC.check_invariants mc = Ok ())

(* -- concurrency ---------------------------------------------------------- *)

let test_comb_concurrent_disjoint () =
  for seed = 0 to 9 do
    Pmem.reset_pending ();
    let heap = Pmem.heap () in
    let t = MC.create heap ~threads:4 in
    let results = Array.make 4 [] in
    let body tid (_ : int) =
      let base = tid * 100 in
      let r = ref [] in
      for i = 0 to 7 do
        r := MC.insert t (base + i) :: !r
      done;
      for i = 0 to 3 do
        r := MC.delete t (base + (2 * i)) :: !r
      done;
      results.(tid) <- !r
    in
    (match Sim.run ~policy:`Random ~seed (Array.init 4 (fun i -> body i)) with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    for tid = 0 to 3 do
      List.iter
        (fun ok -> Alcotest.(check bool) "all ops succeed" true ok)
        results.(tid)
    done;
    let expected =
      List.concat_map
        (fun tid -> List.init 4 (fun i -> (tid * 100) + (2 * i) + 1))
        [ 0; 1; 2; 3 ]
      |> List.sort compare
    in
    Alcotest.(check (list int)) "final contents" expected (MC.to_list t);
    check_inv "mcomb" (MC.check_invariants t)
  done

(* -- crash campaigns (oracle-verified detectability) ---------------------- *)

let campaign fname ~seeds ~threads ~ops ~max_crashes ~key_range =
  let f = Result.get_ok (Set_intf.by_name fname) in
  let cfg =
    Crashes.
      {
        factory = f;
        threads;
        ops_per_thread = ops;
        workload =
          {
            Workload.(default update_intensive) with
            key_range;
            prefill_n = key_range / 2;
          };
        max_crashes;
      }
  in
  match Crashes.run_campaign cfg ~seeds:(List.init seeds Fun.id) with
  | Ok (n, o) ->
      Alcotest.(check int) "all seeds ran" seeds n;
      Alcotest.(check bool) "some crashes actually happened" true
        (o.Crashes.crashes > 0)
  | Error r ->
      Alcotest.failf "%s: seed %d: %s" fname r.Repro.seed r.Repro.error

let test_mlist_campaign () =
  campaign "memento-list" ~seeds:40 ~threads:4 ~ops:10 ~max_crashes:3
    ~key_range:24

let test_mlist_small_hot () =
  campaign "memento-list" ~seeds:30 ~threads:6 ~ops:8 ~max_crashes:4
    ~key_range:4

let test_mcomb_campaign () =
  campaign "memento-comb" ~seeds:40 ~threads:4 ~ops:10 ~max_crashes:3
    ~key_range:24

(* -- exploration: clean structures survive, the negative control dies -- *)

(* Single-threaded tree: no scheduling choices, so the bounded search is
   exactly crash-point x write-back resolution and exhausts in
   milliseconds — while still reaching the deep crash points (the
   confirm-side detag flush) that a budgeted 2-thread sweep misses. *)
let explore_cfg ~algo ~seed =
  Explore.
    {
      campaign =
        Crashes.
          {
            factory = Result.get_ok (Set_intf.by_name algo);
            threads = 1;
            ops_per_thread = 3;
            workload =
              {
                (Workload.default Workload.update_intensive) with
                key_range = 3;
                prefill_n = 0;
              };
            max_crashes = 1;
          };
      seed;
      preemptions = 0;
      crashes = 1;
      wb_width = 2;
      max_execs = 0;
    }

let test_memento_survives_full_tree () =
  List.iter
    (fun algo ->
      let o = Explore.run (explore_cfg ~algo ~seed:0) in
      Alcotest.(check bool)
        (algo ^ ": tree exhausted")
        true o.Explore.stats.Explore.complete;
      Alcotest.(check int) (algo ^ ": no failures") 0
        o.Explore.stats.Explore.failures;
      Alcotest.(check bool)
        (algo ^ ": wb choices seen")
        true
        (o.Explore.stats.Explore.wb_choices > 0))
    [ "memento-list"; "memento-comb" ]

let test_broken_memento_found_and_replays () =
  (* seed 0 inserts a fresh key: the elided checkpoint pwb leaves the
     committed result volatile while the link's detectable CAS is
     already durable, and the crash point on the confirm-side detag
     flush (resolution `All) makes the effect durable with no evidence —
     the replay answers false for an insert that happened *)
  let o = Explore.run (explore_cfg ~algo:"memento-broken" ~seed:0) in
  Alcotest.(check bool) "found a violation" true
    (o.Explore.stats.Explore.failures > 0);
  let r =
    match o.Explore.failure with
    | Some r -> r
    | None -> Alcotest.fail "no repro emitted"
  in
  Alcotest.(check string) "repro names the algo" "memento-broken"
    r.Repro.config.factory.Set_intf.fname;
  Alcotest.(check bool) "violation blames the oracle" true
    (String.length r.Repro.error >= 7
    && String.sub r.Repro.error 0 7 = "oracle:");
  (* the effect is only durable when the detag write-back survives the
     crash, which `Rng-free exploration expresses as an explicit
     resolution on the crashing round *)
  Alcotest.(check bool) "some round carries an explicit wb" true
    (List.exists (fun rd -> rd.Repro.wb <> `Rng) r.Repro.rounds);
  match Crashes.replay r with
  | Error e -> Alcotest.(check string) "bit-for-bit" r.Repro.error e
  | Ok () -> Alcotest.fail "explorer repro did not reproduce"

let suite =
  [
    Alcotest.test_case "checkpoint is single-assignment per invocation" `Quick
      test_checkpoint_single_assignment;
    Alcotest.test_case "dcas success detectable before confirm" `Quick
      test_dcas_detects_own_success;
    Alcotest.test_case "dcas failure leaves no trace" `Quick
      test_dcas_failure_is_plain;
    Alcotest.test_case "recover rejects impossible timestamps" `Quick
      test_recover_rejects_impossible_timestamp;
    QCheck_alcotest.to_alcotest prop_frameworks_agree;
    Alcotest.test_case "comb concurrent disjoint keys" `Quick
      test_comb_concurrent_disjoint;
    Alcotest.test_case "memento-list crash campaign" `Quick test_mlist_campaign;
    Alcotest.test_case "memento-list hot-key campaign" `Quick
      test_mlist_small_hot;
    Alcotest.test_case "memento-comb crash campaign" `Quick test_mcomb_campaign;
    Alcotest.test_case "clean memento structures survive the full tree" `Quick
      test_memento_survives_full_tree;
    Alcotest.test_case "memento-broken found and replays" `Quick
      test_broken_memento_found_and_replays;
  ]
