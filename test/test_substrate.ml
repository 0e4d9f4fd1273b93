(* Remaining substrate modules: Pstats site registry, Pvar, the cost
   table, and Desc mechanics. *)

let test_pstats_registry () =
  let s1 = Pstats.make Pwb "subst.a" in
  let s2 = Pstats.make Pwb "subst.a" in
  Alcotest.(check bool) "memoized by name" true (s1 == s2);
  Alcotest.(check string) "name" "subst.a" (Pstats.name s1);
  Alcotest.(check bool) "kind" true (Pstats.kind s1 = Pstats.Pwb);
  (match Pstats.make Psync "subst.a" with
  | _ -> Alcotest.fail "kind conflict must be rejected"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "registered" true
    (List.exists (fun s -> Pstats.name s = "subst.a") (Pstats.sites ()))

let test_pstats_masks () =
  let s = Pstats.make Pwb "subst.mask" in
  Pstats.set_all_enabled true;
  Alcotest.(check bool) "enabled by default" true (Pstats.enabled s);
  Pstats.set_enabled s false;
  Alcotest.(check bool) "disabled" false (Pstats.enabled s);
  Pstats.set_kind_enabled Pstats.Pwb true;
  Alcotest.(check bool) "kind re-enable" true (Pstats.enabled s);
  Pstats.set_all_enabled true

let test_pvar_private_lines () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let v = Pvar.make ~name:"subst.pv" heap ~threads:4 0 in
  Alcotest.(check int) "threads" 4 (Pvar.threads v);
  (* each thread's cell is on its own line *)
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> j then
        Alcotest.(check bool) "distinct lines" true
          (Pmem.line_of (Pvar.cell v i) != Pmem.line_of (Pvar.cell v j))
    done
  done;
  (* durably initialized: values survive a crash *)
  Pmem.write (Pvar.cell v 2) 7;
  Pmem.crash heap;
  Alcotest.(check int) "unflushed write lost" 0 (Pmem.read (Pvar.cell v 2));
  Alcotest.(check int) "initial survives" 0 (Pmem.read (Pvar.cell v 0))

let test_pvar_bounds () =
  let heap = Pmem.heap () in
  match Pvar.make heap ~threads:(Pmem.max_threads + 1) 0 with
  | _ -> Alcotest.fail "out-of-range thread count must be rejected"
  | exception Invalid_argument _ -> ()

let test_cost_with_table_restores () =
  let before = (Cost.current ()).Cost.pwb_steal in
  Cost.with_table
    (fun c -> c.Cost.pwb_steal <- 1.)
    (fun () ->
      Alcotest.(check (float 0.001)) "tweaked" 1. (Cost.current ()).Cost.pwb_steal);
  Alcotest.(check (float 0.001)) "restored" before (Cost.current ()).Cost.pwb_steal;
  (* restores even on exception *)
  (try
     Cost.with_table
       (fun c -> c.Cost.cache_hit <- 99.)
       (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true
    ((Cost.current ()).Cost.cache_hit <> 99.)

type dnode = { line : Pmem.line; info : dnode Desc.state Pmem.t }

let test_desc_boxes () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let line = Pmem.new_line heap in
  let nd = { line; info = Pmem.on_line line Desc.Clean } in
  let d = Desc.make heap ~label:"t" ~affect:[ (nd, Desc.Clean) ] ~response:true () in
  (* canonical boxes are stable across calls *)
  Alcotest.(check bool) "tagged stable" true (Desc.tagged d == Desc.tagged d);
  Alcotest.(check bool) "untagged stable" true
    (Desc.untagged d == Desc.untagged d);
  (match Desc.tagged d with
  | Desc.Tagged d' -> Alcotest.(check bool) "self" true (Desc.same d d')
  | _ -> Alcotest.fail "tagged box shape");
  Alcotest.(check bool) "fresh descriptors differ" false
    (Desc.same d
       (Desc.make heap ~label:"t" ~affect:[ (nd, Desc.Clean) ] ~response:true ()));
  Alcotest.(check (option bool)) "result starts unset" None (Desc.result d);
  Desc.set_result d true;
  Alcotest.(check (option bool)) "result set" (Some true) (Desc.result d);
  let p = Desc.payload d in
  Alcotest.(check string) "label kept" "t" p.Desc.label;
  Alcotest.(check bool) "response kept" true p.Desc.response

let test_desc_poisoned_after_crash () =
  Pmem.reset_pending ();
  let heap = Pmem.heap () in
  let line = Pmem.new_line heap in
  let nd = { line; info = Pmem.on_line line Desc.Clean } in
  let d = Desc.make heap ~label:"t" ~affect:[ (nd, Desc.Clean) ] ~response:true () in
  Pmem.crash heap;
  (* never persisted: recovery code touching it must fault loudly *)
  match Desc.payload d with
  | _ -> Alcotest.fail "expected Poisoned"
  | exception Pmem.Poisoned _ -> ()

let test_heap_line_accounting () =
  let heap = Pmem.heap () in
  let before = Pmem.lines_allocated heap in
  let _ = Pmem.new_line heap in
  let _ = Pmem.alloc heap 0 in
  Alcotest.(check int) "two lines" (before + 2) (Pmem.lines_allocated heap)

let suite =
  [
    Alcotest.test_case "pstats registry" `Quick test_pstats_registry;
    Alcotest.test_case "pstats enable masks" `Quick test_pstats_masks;
    Alcotest.test_case "pvar private lines, durable init" `Quick
      test_pvar_private_lines;
    Alcotest.test_case "pvar bounds" `Quick test_pvar_bounds;
    Alcotest.test_case "cost table scoping" `Quick
      test_cost_with_table_restores;
    Alcotest.test_case "descriptor boxes" `Quick test_desc_boxes;
    Alcotest.test_case "unpersisted descriptor poisons" `Quick
      test_desc_poisoned_after_crash;
    Alcotest.test_case "heap line accounting" `Quick
      test_heap_line_accounting;
  ]
