(* Engine-level tests of the Tracking machinery (Algorithms 1–2) on a
   minimal hand-built structure: a fixed array of cells, each a "node"
   with an info field and a value field.  This isolates the descriptor
   and phase machine from any particular data structure. *)

type node = {
  id : int;
  line : Pmem.line;
  value : int Pmem.t;
  info : node Desc.state Pmem.t;
}

let node_ops =
  { Tracking.info = (fun n -> n.info); node_line = (fun n -> n.line) }

let sites = Tracking.sites "engine-test"

let mk_node heap id v =
  let line = Pmem.new_line ~name:(Printf.sprintf "cell%d" id) heap in
  {
    id;
    line;
    value = Pmem.on_line line v;
    info = Pmem.on_line line Desc.Clean;
  }

let init_pwb = Pstats.make Pwb "engine-test.init"
let init_sync = Pstats.make Psync "engine-test.init.psync"

let fresh n =
  Pmem.reset_pending ();
  Pstats.set_all_enabled true;
  let heap = Pmem.heap () in
  let nodes = Array.init n (fun i -> mk_node heap i 0) in
  Array.iter (fun nd -> Pmem.pwb init_pwb nd.line) nodes;
  Pmem.psync init_sync;
  (heap, nodes)

(* A "multi-cell increment": CASes each listed cell from its gathered
   value to value+1, atomically under tagging. *)
let incr_desc heap nodes idxs =
  let affect =
    List.map (fun i -> (nodes.(i), Pmem.read nodes.(i).info)) idxs
  in
  let writes =
    List.map
      (fun i ->
        let v = Pmem.read nodes.(i).value in
        Desc.Update { field = nodes.(i).value; old_v = v; new_v = v + 1 })
      idxs
  in
  Desc.make heap ~label:"incr" ~affect ~writes
    ~cleanup:(List.map (fun i -> nodes.(i)) idxs)
    ~response:true ()

let test_help_applies_once () =
  let heap, nodes = fresh 3 in
  let d = incr_desc heap nodes [ 0; 1; 2 ] in
  Tracking.help node_ops sites d;
  Alcotest.(check (option bool)) "result" (Some true) (Desc.result d);
  Array.iter
    (fun nd -> Alcotest.(check int) "incremented" 1 (Pmem.read nd.value))
    nodes;
  (* helping again must not re-apply anything *)
  Tracking.help node_ops sites d;
  Tracking.help node_ops sites d;
  Array.iter
    (fun nd -> Alcotest.(check int) "still 1" 1 (Pmem.read nd.value))
    nodes

let test_help_untags_in_cleanup () =
  let heap, nodes = fresh 2 in
  let d = incr_desc heap nodes [ 0; 1 ] in
  Tracking.help node_ops sites d;
  Array.iter
    (fun nd ->
      match Pmem.read nd.info with
      | Desc.Untagged d' ->
          Alcotest.(check bool) "untagged by d" true (Desc.same d d')
      | Desc.Clean | Desc.Tagged _ -> Alcotest.fail "expected Untagged")
    nodes

let test_blocked_tagging_backtracks () =
  let heap, nodes = fresh 2 in
  (* d1 gathers, then node 1 is changed under it by d2 *)
  let d1 = incr_desc heap nodes [ 0; 1 ] in
  let d2 = incr_desc heap nodes [ 1 ] in
  Tracking.help node_ops sites d2;
  (* d1's expected info for node 1 is stale: tagging must fail and
     backtrack, leaving node 0 untagged-by-d1 and d1 without a result *)
  Tracking.help node_ops sites d1;
  Alcotest.(check (option bool)) "d1 dead" None (Desc.result d1);
  Alcotest.(check int) "node0 unchanged" 0 (Pmem.read nodes.(0).value);
  Alcotest.(check int) "node1 incremented by d2 only" 1
    (Pmem.read nodes.(1).value);
  (match Pmem.read nodes.(0).info with
  | Desc.Untagged d when Desc.same d d1 -> ()
  | Desc.Clean -> () (* tag CAS may not even have landed *)
  | _ -> Alcotest.fail "node0 should be untagged after backtrack");
  (* a dead descriptor can never be resurrected *)
  Tracking.help node_ops sites d1;
  Alcotest.(check (option bool)) "still dead" None (Desc.result d1)

let test_concurrent_helpers_agree () =
  (* many helpers all help the same descriptor concurrently *)
  for seed = 0 to 19 do
    let heap, nodes = fresh 4 in
    let d = incr_desc heap nodes [ 0; 1; 2; 3 ] in
    (match
       Sim.run ~policy:`Random ~seed
         (Array.make 4 (fun (_ : int) -> Tracking.help node_ops sites d))
     with
    | Sim.All_done -> ()
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash");
    Alcotest.(check (option bool)) "result" (Some true) (Desc.result d);
    Array.iter
      (fun nd -> Alcotest.(check int) "exactly once" 1 (Pmem.read nd.value))
      nodes
  done

let test_help_crash_resume_any_phase () =
  (* crash Help at every step; resuming must complete with the effect
     applied exactly once *)
  for crash_at = 1 to 120 do
    let heap, nodes = fresh 3 in
    let d = incr_desc heap nodes [ 0; 1; 2 ] in
    (match
       Sim.run ~policy:`Random ~seed:crash_at ~crash_at
         [| (fun _ -> Tracking.help node_ops sites d) |]
     with
    | Sim.All_done | Sim.Crashed_at _ -> ());
    Pmem.crash ~rng:(Random.State.make [| crash_at |]) heap;
    (* the descriptor survives in NVMM only if it was persisted; here we
       simulate the recovery path helping it again after the crash *)
    match
      Sim.run [| (fun _ -> Tracking.help node_ops sites d) |]
    with
    | exception Pmem.Poisoned _ ->
        () (* descriptor was never persisted: nothing to recover *)
    | Sim.Crashed_at _ -> Alcotest.fail "unexpected crash"
    | Sim.All_done -> (
        match Desc.result d with
        | Some true ->
            Array.iter
              (fun nd ->
                Alcotest.(check int) "exactly once" 1 (Pmem.read nd.value))
              nodes
        | Some false -> Alcotest.fail "wrong response"
        | None ->
            Array.iter
              (fun nd ->
                Alcotest.(check int) "no effect" 0 (Pmem.read nd.value))
              nodes)
  done

let test_exec_read_only_requires_result () =
  let heap, nodes = fresh 1 in
  let handles = Tracking.make_handles heap ~threads:1 in
  let bad_attempt () =
    let d =
      Desc.make heap ~label:"bad"
        ~affect:[ (nodes.(0), Pmem.read nodes.(0).info) ]
        ~response:true ()
    in
    (* result NOT set: the engine must reject this read-only attempt *)
    Tracking.Ready { desc = d; read_only = true }
  in
  match
    Tracking.exec node_ops sites handles.(0) ~kind:`Readonly
      ~attempt:bad_attempt
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_exec_and_recover_roundtrip () =
  let heap, nodes = fresh 2 in
  let handles = Tracking.make_handles heap ~threads:1 in
  let attempt () =
    Tracking.Ready { desc = incr_desc heap nodes [ 0; 1 ]; read_only = false }
  in
  let r = Tracking.exec node_ops sites handles.(0) ~kind:`Update ~attempt in
  Alcotest.(check bool) "executed" true r;
  (* recovery right after completion must return the same response
     without re-applying (CP is still 1, RD points at the descriptor) *)
  let r' =
    Tracking.recover node_ops sites handles.(0) ~reinvoke:(fun () ->
        Alcotest.fail "must not re-invoke")
  in
  Alcotest.(check bool) "recovered same" true r';
  Array.iter
    (fun nd -> Alcotest.(check int) "applied once" 1 (Pmem.read nd.value))
    nodes

let test_recover_fresh_thread_reinvokes () =
  let heap, _ = fresh 1 in
  let handles = Tracking.make_handles heap ~threads:1 in
  let reinvoked = ref false in
  let r =
    Tracking.recover node_ops sites handles.(0) ~reinvoke:(fun () ->
        reinvoked := true;
        false)
  in
  Alcotest.(check bool) "reinvoked" true !reinvoked;
  Alcotest.(check bool) "response passed through" false r

(* Minor words per operation of [f]'s structure on one fiber: the
   paper's read-intensive mix (70% finds, keys [1,500]) over a 250-key
   prefill, seeded as perfbench's [core.op_ns] and [memento.op_ns] time
   it.  Deterministic on a fixed toolchain, so each framework's figure
   is a budget with a 2% margin that only moves down. *)
let check_op_words (f : Set_intf.factory) ~budget =
  let wl = Workload.default Workload.read_intensive in
  let heap = Pmem.heap ~track_for_crash:false ~name:f.Set_intf.fname () in
  let t = f.Set_intf.make heap ~threads:1 in
  let rng = Random.State.make [| 11 |] in
  Workload.prefill rng wl t;
  let ops n =
    ignore
      (Sim.run
         [|
           (fun _ ->
             for _ = 1 to n do
               ignore (Set_intf.apply t (Workload.gen_op rng wl) : bool)
             done);
         |]
        : Sim.outcome);
    Pmem.reset_pending ()
  in
  let n = 4_000 in
  ops n;
  let w0 = Gc.minor_words () in
  ops n;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  Printf.printf "%s: %.2f minor words per op\n%!" f.Set_intf.fname per;
  if per > 1.02 *. budget then
    Alcotest.failf "%s: %.2f minor words per op (budget %.2f)"
      f.Set_intf.fname per budget

let test_op_words () = check_op_words Set_intf.tracking ~budget:118.30

let suite =
  [
    Alcotest.test_case "one op: minor words within budget" `Quick
      test_op_words;
    Alcotest.test_case "help applies updates exactly once" `Quick
      test_help_applies_once;
    Alcotest.test_case "cleanup untags" `Quick test_help_untags_in_cleanup;
    Alcotest.test_case "blocked tagging backtracks and kills" `Quick
      test_blocked_tagging_backtracks;
    Alcotest.test_case "concurrent helpers agree" `Quick
      test_concurrent_helpers_agree;
    Alcotest.test_case "help crash-resumes from any phase" `Quick
      test_help_crash_resume_any_phase;
    Alcotest.test_case "read-only attempt must preset result" `Quick
      test_exec_read_only_requires_result;
    Alcotest.test_case "exec/recover round-trip" `Quick
      test_exec_and_recover_roundtrip;
    Alcotest.test_case "fresh thread recovery re-invokes" `Quick
      test_recover_fresh_thread_reinvokes;
  ]
