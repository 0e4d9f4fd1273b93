(* Semantics of the simulated NVMM: flush/sync protocol, crash behaviour,
   poisoning, fence ordering, per-location monotonicity. *)

let site_pwb = Pstats.make Pwb "test.pwb"
let site_fence = Pstats.make Pfence "test.pfence"
let site_sync = Pstats.make Psync "test.psync"

let fresh () =
  Pmem.reset_pending ();
  Pstats.set_all_enabled true;
  Pmem.heap ~name:"pmem-test" ()

let test_read_write () =
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  Alcotest.(check int) "initial" 1 (Pmem.read c);
  Pmem.write c 2;
  Alcotest.(check int) "after write" 2 (Pmem.read c);
  Alcotest.(check bool) "cas wrong expected" false (Pmem.cas c 1 3);
  Alcotest.(check bool) "cas right expected" true (Pmem.cas c 2 3);
  Alcotest.(check int) "after cas" 3 (Pmem.read c)

let test_unflushed_lost () =
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  Pmem.pwb_f site_pwb c;
  Pmem.psync site_sync;
  Pmem.write c 2;
  (* no pwb for the 2 *)
  Pmem.crash h;
  Alcotest.(check int) "reverts to persisted" 1 (Pmem.read c)

let test_flushed_survives () =
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  Pmem.write c 2;
  Pmem.pwb_f site_pwb c;
  Pmem.psync site_sync;
  Pmem.crash h;
  Alcotest.(check int) "persisted" 2 (Pmem.read c)

let test_never_flushed_poisons () =
  let h = fresh () in
  let c = Pmem.alloc h 42 in
  Pmem.crash h;
  Alcotest.(check bool) "poisoned" true (Pmem.is_poisoned c);
  (match Pmem.read c with
  | _ -> Alcotest.fail "read of poisoned cell must raise"
  | exception Pmem.Poisoned _ -> ());
  match Pmem.write c 1 with
  | () -> Alcotest.fail "write of poisoned cell must raise"
  | exception Pmem.Poisoned _ -> ()

let test_pwb_without_sync_dropped () =
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  Pmem.pwb_f site_pwb c;
  (* harshest adversary: outstanding write-backs are dropped *)
  Pmem.crash h;
  Alcotest.(check bool) "still unpersisted" true (Pmem.is_poisoned c)

let test_line_granularity () =
  let h = fresh () in
  let line = Pmem.new_line h in
  let a = Pmem.on_line line 1 in
  let b = Pmem.on_line line 10 in
  Pmem.write a 2;
  Pmem.write b 20;
  (* one pwb persists the whole line *)
  Pmem.pwb site_pwb line;
  Pmem.psync site_sync;
  Pmem.crash h;
  Alcotest.(check int) "field a" 2 (Pmem.read a);
  Alcotest.(check int) "field b" 20 (Pmem.read b)

let test_cas_drains_writebacks () =
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  let d = Pmem.alloc h 100 in
  Pmem.pwb_f site_pwb d;
  (* no psync: the CAS plays sfence on Intel (paper §5) *)
  Alcotest.(check bool) "cas ok" true (Pmem.cas c 1 2);
  Pmem.crash h;
  Alcotest.(check int) "d persisted by the cas drain" 100 (Pmem.read d)

let test_cas_drain_ablatable () =
  Cost.with_table
    (fun t -> t.Cost.cas_drains_wb <- false)
    (fun () ->
      let h = fresh () in
      let c = Pmem.alloc h 1 in
      let d = Pmem.alloc h 100 in
      Pmem.pwb_f site_pwb d;
      ignore (Pmem.cas c 1 2 : bool);
      Pmem.crash h;
      Alcotest.(check bool) "d not persisted" true (Pmem.is_poisoned d))

let test_fence_ordering_at_crash () =
  (* Across many adversarial resolutions, a later segment must never
     persist unless every earlier segment fully persisted. *)
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let h = fresh () in
    let a = Pmem.alloc h 0 and b = Pmem.alloc h 0 in
    Pmem.write a 1;
    Pmem.pwb_f site_pwb a;
    Pmem.pfence site_fence;
    Pmem.write b 1;
    Pmem.pwb_f site_pwb b;
    Pmem.crash ~rng h;
    let pa = Pmem.peek_persisted a and pb = Pmem.peek_persisted b in
    if pb = Some 1 && pa <> Some 1 then
      Alcotest.fail "pfence violated: b persisted before a"
  done

let test_per_location_monotonic () =
  (* Once a newer value is durable, no stale write-back may roll it
     back (the coherence property behind the Capsules bug we fixed). *)
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 200 do
    let h = fresh () in
    let a = Pmem.alloc h 0 in
    Pmem.write a 1;
    Pmem.pwb_f site_pwb a;
    Pmem.write a 2;
    Pmem.pwb_f site_pwb a;
    Pmem.psync site_sync;
    (* a=2 durable; an outstanding stale-looking pwb must not undo it *)
    Pmem.pwb_f site_pwb a;
    Pmem.crash ~rng h;
    Alcotest.(check int) "monotone" 2 (Pmem.read a)
  done

let test_system_persist () =
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  Pmem.system_persist c 7;
  Pmem.crash h;
  Alcotest.(check int) "system persist is crash-atomic" 7 (Pmem.read c)

let test_disabled_site_is_noop () =
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  Pstats.set_enabled site_pwb false;
  Pmem.write c 2;
  Pmem.pwb_f site_pwb c;
  Pmem.psync site_sync;
  Pstats.set_enabled site_pwb true;
  Pmem.crash h;
  Alcotest.(check bool) "nothing persisted" true (Pmem.is_poisoned c)

(* [Pstats.elide] is the negative controls' one way to remove a persist
   instruction: it disables a registered site by name and refuses a name
   no site has, instead of leaving the control silently intact. *)
let test_elide () =
  Pstats.set_all_enabled true;
  Pstats.elide (Pstats.name site_pwb);
  Alcotest.(check bool) "site disabled" false (Pstats.enabled site_pwb);
  Alcotest.(check bool) "other sites untouched" true (Pstats.enabled site_sync);
  Pstats.set_enabled site_pwb true;
  Alcotest.check_raises "unknown site"
    (Invalid_argument "Pstats.elide: no site \"no.such.pwb\" is registered")
    (fun () -> Pstats.elide "no.such.pwb");
  Alcotest.(check (option string)) "nothing registered" None
    (Option.map Pstats.name (Pstats.find "no.such.pwb"))

let test_stats_counting () =
  Pstats.reset ();
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  Pmem.pwb_f site_pwb c;
  Pmem.pwb_f site_pwb c;
  Pmem.pfence site_fence;
  Pmem.psync site_sync;
  let t = Pstats.totals () in
  Alcotest.(check int) "pwbs" 2 t.Pstats.pwbs;
  Alcotest.(check int) "pfences" 1 t.Pstats.pfences;
  Alcotest.(check int) "psyncs" 1 t.Pstats.psyncs;
  Alcotest.(check int) "all low (private)" 2 t.Pstats.low

let test_outstanding_accounting () =
  let h = fresh () in
  let c = Pmem.alloc h 1 in
  Pmem.pwb_f site_pwb c;
  Pmem.pwb_f site_pwb c;
  Alcotest.(check int) "two outstanding" 2 (Pmem.outstanding_writebacks 0);
  Pmem.psync site_sync;
  Alcotest.(check int) "drained" 0 (Pmem.outstanding_writebacks 0)

let test_queue_bound_completes_writebacks () =
  (* The write-pending queue bound must make room by *completing* the
     oldest write-back, skipping over bare fences.  The old bound popped
     exactly one entry — often a Fence — so under a pwb;pfence-heavy loop
     the Apply entries piled up without limit. *)
  let h = fresh () in
  let c = Pmem.alloc h 0 in
  let n = 300 in
  for i = 1 to n do
    Pmem.write c i;
    Pmem.pwb_f site_pwb c;
    Pmem.pfence site_fence
  done;
  Alcotest.(check bool)
    (Printf.sprintf "outstanding applies bounded (%d)"
       (Pmem.outstanding_writebacks 0))
    true
    (Pmem.outstanding_writebacks 0 <= 66);
  (* and the completed write-backs really persisted *)
  match Pmem.peek_persisted c with
  | Some v -> Alcotest.(check bool) "persistence progressed" true (v > 0)
  | None -> Alcotest.fail "nothing persisted despite 300 bounded flushes"

let test_heap_crash_isolation () =
  (* The property shard-local recovery builds on: a crash of one heap
     must not perturb another heap's persisted OR pending state. *)
  let _ = fresh () in
  let victim = Pmem.heap ~name:"victim" () in
  let survivor = Pmem.heap ~name:"survivor" () in
  let v = Pmem.alloc victim 1 in
  let s = Pmem.alloc survivor 10 in
  (* survivor: 10 durable, 20 written + flushed but NOT yet synced *)
  Pmem.pwb_f site_pwb s;
  Pmem.psync site_sync;
  Pmem.write s 20;
  Pmem.pwb_f site_pwb s;
  (* victim: 2 written + flushed, unsynced — lost by its crash *)
  Pmem.write v 2;
  Pmem.pwb_f site_pwb v;
  Pmem.crash ~scope:`Heap victim;
  Alcotest.(check bool) "victim unsynced flush dropped" true
    (Pmem.is_poisoned v);
  Alcotest.(check int) "survivor volatile state intact" 20 (Pmem.peek s);
  Alcotest.(check (option int))
    "survivor pending write-back still pending" (Some 10)
    (Pmem.peek_persisted s);
  (* the survivor's outstanding write-back still completes on sync *)
  Pmem.psync site_sync;
  Alcotest.(check (option int))
    "survivor write-back completes after the crash" (Some 20)
    (Pmem.peek_persisted s)

let test_heap_crash_resolution_counts_victim_only () =
  (* [`Prefix k] under [`Heap] scope counts the victim's write-backs:
     interleaved survivor entries must not consume the budget. *)
  let _ = fresh () in
  let victim = Pmem.heap ~name:"victim" () in
  let survivor = Pmem.heap ~name:"survivor" () in
  let a = Pmem.alloc victim 0 and b = Pmem.alloc victim 0 in
  let s = Pmem.alloc survivor 0 in
  Pmem.write a 1;
  Pmem.pwb_f site_pwb a;
  Pmem.write s 1;
  Pmem.pwb_f site_pwb s;
  Pmem.write b 1;
  Pmem.pwb_f site_pwb b;
  Pmem.crash ~resolution:(`Prefix 1) ~scope:`Heap victim;
  Alcotest.(check int) "victim's oldest write-back completed" 1 (Pmem.peek a);
  Alcotest.(check bool) "victim's second write-back dropped" true
    (Pmem.is_poisoned b);
  Alcotest.(check (option int))
    "survivor entry neither completed nor dropped" None
    (Pmem.peek_persisted s);
  Alcotest.(check int) "survivor entry still queued" 1
    (Pmem.outstanding_writebacks 0)

let test_machine_crash_hits_all_queues () =
  (* Contrast case: the default [`Machine] scope resolves every queue,
     so the survivor heap's pending write-back is dropped too (its
     durable state is of course still per-heap: only the victim's
     fields are reset). *)
  let _ = fresh () in
  let victim = Pmem.heap ~name:"victim" () in
  let survivor = Pmem.heap ~name:"survivor" () in
  let v = Pmem.alloc victim 1 in
  let s = Pmem.alloc survivor 10 in
  Pmem.write v 2;
  Pmem.pwb_f site_pwb v;
  Pmem.write s 20;
  Pmem.pwb_f site_pwb s;
  Pmem.crash victim;
  Alcotest.(check bool) "victim poisoned" true (Pmem.is_poisoned v);
  Alcotest.(check int) "no survivor write-backs left" 0
    (Pmem.outstanding_writebacks 0);
  Pmem.psync site_sync;
  Alcotest.(check (option int)) "survivor write-back was dropped" None
    (Pmem.peek_persisted s)

let test_heap_crash_preserves_fence_ordering () =
  (* Victim segments are still fence-delimited under [`Heap] scope, even
     with survivor entries interleaved between the fences. *)
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 200 do
    let _ = fresh () in
    let victim = Pmem.heap ~name:"victim" () in
    let survivor = Pmem.heap ~name:"survivor" () in
    let a = Pmem.alloc victim 0 and b = Pmem.alloc victim 0 in
    let s = Pmem.alloc survivor 0 in
    Pmem.write a 1;
    Pmem.pwb_f site_pwb a;
    Pmem.write s 1;
    Pmem.pwb_f site_pwb s;
    Pmem.pfence site_fence;
    Pmem.write b 1;
    Pmem.pwb_f site_pwb b;
    Pmem.crash ~rng ~scope:`Heap victim;
    let pa = Pmem.peek_persisted a and pb = Pmem.peek_persisted b in
    if pb = Some 1 && pa <> Some 1 then
      Alcotest.fail "pfence violated under `Heap scope: b persisted before a"
  done

let prop_random_crash_consistency =
  QCheck2.Test.make ~name:"crash yields a persisted-prefix state per cell"
    ~count:200
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let h = fresh () in
      let cells = Array.init 8 (fun _ -> Pmem.alloc h 0) in
      let history = Array.make 8 [ 0 ] in
      for step = 1 to 40 do
        let i = Random.State.int rng 8 in
        match Random.State.int rng 3 with
        | 0 ->
            Pmem.write cells.(i) step;
            history.(i) <- step :: history.(i)
        | 1 -> Pmem.pwb_f site_pwb cells.(i)
        | _ -> Pmem.psync site_sync
      done;
      Pmem.crash ~rng h;
      (* each surviving value must be SOME value the cell actually held *)
      Array.for_all2
        (fun c hist ->
          Pmem.is_poisoned c || List.mem (Pmem.peek c) hist)
        cells history)

(* -- crash-resolution goldens ----------------------------------------------

   Three threads' write-back queues, with fences, over two heaps, crashed
   under each resolution in both scopes, then (after one more flush and
   sync by thread 0) crashed again with every write-back dropped.  Each
   run is pinned by the crash reports, every field's volatile value,
   durable value and poison bit, the outstanding write-backs per thread
   and the rng's next draw. *)

type golden_heap = {
  pair : Pmem.line;
  p0 : int Pmem.t;
  p1 : int Pmem.t;
  cells : int Pmem.t array;
  str : string Pmem.t;
  dups : int Pmem.t array;  (* two lines with the same name *)
}

let golden_heap name =
  let h = Pmem.heap ~name () in
  let pair = Pmem.new_line ~name:(name ^ ".pair") h in
  let p0 = Pmem.on_line pair 0 in
  let p1 = Pmem.on_line pair 1 in
  let cells =
    Array.init 4 (fun k -> Pmem.alloc ~name:(Printf.sprintf "%s.cell:%d" name k) h k)
  in
  let str = Pmem.alloc ~name:(name ^ ".str[0]") h "s" in
  let dups = Array.init 2 (fun k -> Pmem.alloc ~name:(name ^ ".dup") h (100 + k)) in
  (h, { pair; p0; p1; cells; str; dups })

let golden_state ha a hb b =
  let buf = Buffer.create 1024 in
  let field name show f =
    Printf.bprintf buf " %s=%s/%s%s" name (show (Pmem.peek f))
      (match Pmem.peek_persisted f with Some v -> show v | None -> "-")
      (if Pmem.is_poisoned f then "!" else "")
  in
  List.iter
    (fun (tag, g) ->
      field (tag ^ "p0") string_of_int g.p0;
      field (tag ^ "p1") string_of_int g.p1;
      Array.iteri (fun k f -> field (Printf.sprintf "%sc%d" tag k) string_of_int f) g.cells;
      field (tag ^ "s") Fun.id g.str;
      Array.iteri (fun k f -> field (Printf.sprintf "%sd%d" tag k) string_of_int f) g.dups)
    [ ("a.", a); ("b.", b) ];
  Printf.bprintf buf " | lines %d %d | queued" (Pmem.lines_allocated ha)
    (Pmem.lines_allocated hb);
  for tid = 0 to 3 do
    Printf.bprintf buf " %d" (Pmem.outstanding_writebacks tid)
  done;
  Buffer.contents buf

(* A bus subscriber that renders each crash's report into [buf], with
   every write-back it resolved as tid:line:site:persisted.  The site is
   that of the pwb the fate pairs with: a thread's write-backs of one
   line meet their fates in issue order. *)
let golden_reports buf =
  let sites = Hashtbl.create 16 and fates = Buffer.create 256 in
  function
  | Pmem.Mem (Pmem.Pwb { tid; site; line; _ }) ->
      (match Hashtbl.find_opt sites (tid, line) with
      | Some q -> Queue.push site q
      | None -> Hashtbl.add sites (tid, line) (Queue.of_seq (Seq.return site)))
  | Pmem.Rings_cleared -> Hashtbl.reset sites
  | Pmem.Writeback { tid; line; fate } ->
      let site = Queue.pop (Hashtbl.find sites (tid, line)) in
      if fate <> Pmem.Drained then
        Printf.bprintf fates " %d:%s:%s:%b" tid line site
          (fate = Pmem.Crash_persisted)
  | Pmem.Crashed r ->
      Printf.bprintf buf "[%s %s %s +%d -%d%s poisoned %d:%s reverted %d:%s]"
        r.cr_heap
        (match r.cr_scope with `Machine -> "machine" | `Heap -> "heap")
        (Repro.wb_to_string r.cr_resolution) r.cr_persisted r.cr_dropped
        (Buffer.contents fates) r.cr_poisoned_total
        (String.concat "," r.cr_poisoned) r.cr_reverted_total
        (String.concat "," r.cr_reverted);
      Buffer.clear fates
  | _ -> ()

let golden_crash ?rng ?resolution scope =
  let _ = fresh () in
  let reports = Buffer.create 1024 in
  let on_event = golden_reports reports in
  Sim.subscribe on_event;
  Fun.protect ~finally:(fun () -> Sim.unsubscribe on_event) @@ fun () ->
  let ha, a = golden_heap "a" and hb, b = golden_heap "b" in
  (* durable values for some fields, so a crash reverts them *)
  Pmem.write a.cells.(0) 10;
  Pmem.pwb_f site_pwb a.cells.(0);
  Pmem.pwb site_pwb b.pair;
  Pmem.pwb_f site_pwb a.dups.(1);
  Pmem.psync site_sync;
  let prog t =
    match t with
    | 0 ->
        Pmem.write a.p0 (t + 20);
        Pmem.pwb site_pwb a.pair;
        Pmem.write b.cells.(0) 30;
        Pmem.pwb_f site_pwb b.cells.(0);
        Pmem.pfence site_fence;
        Pmem.write a.str "t0";
        Pmem.pwb_f site_pwb a.str;
        Pmem.write a.cells.(0) 11;
        Pmem.pwb_f site_pwb a.cells.(0);
        Pmem.pfence site_fence;
        Pmem.write a.dups.(0) 200;
        Pmem.pwb_f site_pwb a.dups.(0);
        Pmem.pwb_f site_pwb b.dups.(1)
    | 1 ->
        Pmem.pfence site_fence;
        Pmem.write a.cells.(1) 41;
        Pmem.pwb_f site_pwb a.cells.(1);
        Pmem.write b.p1 42;
        Pmem.pwb site_pwb b.pair;
        Pmem.pfence site_fence;
        Pmem.pfence site_fence;
        Pmem.write a.p1 43;
        Pmem.pwb site_pwb a.pair;
        Pmem.write a.dups.(1) 44;
        Pmem.pwb_f site_pwb a.dups.(1);
        Pmem.pfence site_fence
    | _ ->
        Pmem.write a.cells.(2) 52;
        Pmem.pwb_f site_pwb a.cells.(2);
        Pmem.write b.cells.(2) 53;
        Pmem.pwb_f site_pwb b.cells.(2);
        Pmem.pwb_f site_pwb a.cells.(2);
        Pmem.write a.cells.(3) 54;
        Pmem.pwb_f site_pwb a.cells.(3)
  in
  ignore (Sim.run ~policy:`Perf (Array.init 3 (fun t _ -> prog t)) : Sim.outcome);
  Pmem.crash ?rng ?resolution ~scope ha;
  let first = golden_state ha a hb b in
  (* a persist does not clear a poison bit; the next reset does *)
  Pmem.pwb_f site_pwb a.cells.(3);
  Pmem.pwb_f site_pwb a.cells.(2);
  Pmem.psync site_sync;
  let persisted = golden_state ha a hb b in
  Pmem.crash ~resolution:`Drop ha;
  let next = match rng with Some r -> Random.State.bits r | None -> -1 in
  Printf.sprintf "%s ||%s ||%s ||%s || next %d" (Buffer.contents reports) first
    persisted (golden_state ha a hb b) next

let test_golden_crash_resolutions () =
  Alcotest.check_raises "`Rng without an rng"
    (Invalid_argument "Pmem.crash: `Rng resolution without ~rng") (fun () ->
      Pmem.crash ~resolution:`Rng (fresh ()));
  let runs =
    List.concat_map
      (fun (sname, scope) ->
        List.map
          (fun (rname, f) -> (sname ^ " " ^ rname, f scope))
          ([
             ("drop", fun scope -> golden_crash ~resolution:`Drop scope);
             ("all", fun scope -> golden_crash ~resolution:`All scope);
             ("prefix 1", fun scope -> golden_crash ~resolution:(`Prefix 1) scope);
             ("prefix 2", fun scope -> golden_crash ~resolution:(`Prefix 2) scope);
             ("no rng", fun scope -> golden_crash scope);
           ]
          @ List.init 5 (fun k ->
                ( Printf.sprintf "rng %d" (k + 1),
                  fun scope ->
                    golden_crash ~rng:(Random.State.make [| k + 1 |]) scope ))))
      [ ("machine", `Machine); ("heap", `Heap) ]
  in
  let got =
    List.map (fun (name, obs) -> name ^ " " ^ Digest.to_hex (Digest.string obs)) runs
  in
  let expected =
    [
      "machine drop abb3c69f0eb3c61e3de78e1b2ec91a48";
      "machine all 9ca96633a010a84bf08f803464d2127b";
      "machine prefix 1 1246af2d0fb71da3b13c615c6534773f";
      "machine prefix 2 27d36eddb99c84429d6d1ca2db3b9f95";
      "machine no rng abb3c69f0eb3c61e3de78e1b2ec91a48";
      "machine rng 1 5225491ff401b5fc928e2cd1db3dce27";
      "machine rng 2 eb51e830f87691310fb24fb9a6bf304a";
      "machine rng 3 b36e2db8d80ddf31823ae7fead5d20e9";
      "machine rng 4 897059e8d5fb04c3870dfa497638bd8d";
      "machine rng 5 009a2976ac2d52386d4adeb66cbbf1b4";
      "heap drop c21adca28b21b08374612bb29cd180bf";
      "heap all cda1b6dfbca53808a1ebc567f0235f47";
      "heap prefix 1 e8b8e978d9759a5e1ad6dfcd4d4bb310";
      "heap prefix 2 76a7e057ec61b4740a739c06828a58ac";
      "heap no rng c21adca28b21b08374612bb29cd180bf";
      "heap rng 1 79f4ad175d71f6f30ce82d7ed879f0e5";
      "heap rng 2 156caea6b963335b184c56c422b3ba78";
      "heap rng 3 ba919e148ec42a1e95cf67ce31649648";
      "heap rng 4 d0641b1ada34315cc050f1d322a5ee3b";
      "heap rng 5 b7e78bdee1210ead89e979fc63171ac3";
    ]
  in
  if got <> expected then
    Alcotest.failf "crash goldens:\n%s\nruns:\n%s" (String.concat "\n" got)
      (String.concat "\n" (List.map (fun (n, o) -> n ^ ": " ^ o) runs))

(* -- allocation bounds ---------------------------------------------------- *)

(* Minor words per iteration of [body] in one fiber, after a warm-up
   run. *)
let words_per_iter ~iters body =
  let run () =
    Pmem.reset_pending ();
    ignore
      (Sim.run [| (fun _ -> for i = 1 to iters do body i done) |] : Sim.outcome)
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let w = (Gc.minor_words () -. before) /. float_of_int iters in
  Pmem.reset_pending ();
  w

let test_instruction_allocation () =
  let h = Pmem.heap ~track_for_crash:false ~name:"alloc-bound" () in
  let c = Pmem.alloc h 0 in
  Pstats.set_all_enabled true;
  List.iter
    (fun (what, body) ->
      let w = words_per_iter ~iters:20_000 body in
      if w >= 1.0 then
        Alcotest.failf "%.2f minor words per %s (bound 1.0)" w what)
    [
      ("read", fun _ -> ignore (Sys.opaque_identity (Pmem.read c) : int));
      ("write", fun i -> Pmem.write c i);
      ("CAS", fun i -> ignore (Pmem.cas c (Pmem.peek c) i : bool));
      ( "write+pwb+psync",
        fun i ->
          Pmem.write c i;
          Pmem.pwb_f site_pwb c;
          Pmem.psync site_sync );
      ( "write+pwb past the queue bound",
        fun i ->
          Pmem.write c i;
          Pmem.pwb_f site_pwb c );
      ("pfence", fun _ -> Pmem.pfence site_fence);
    ]

(* Snapshot/restore: values, durable values and poison flags come back,
   lines allocated after the snapshot drop out of the heap (ids and the
   crash set), and fields added to an old line after it are forgotten. *)
let test_snapshot_restore () =
  let h = fresh () in
  let a = Pmem.alloc ~name:"a" h 1 in
  let b = Pmem.alloc ~name:"b" h 10 in
  Pmem.pwb_f site_pwb a;
  Pmem.psync site_sync;
  Pmem.write a 2;
  let s = Pmem.snapshot h in
  Pmem.write a 3;
  Pmem.pwb_f site_pwb a;
  Pmem.psync site_sync;
  Pmem.crash h;
  Alcotest.(check bool) "b poisoned before restore" true (Pmem.is_poisoned b);
  let extra = Pmem.on_line (Pmem.line_of a) "late" in
  let c = Pmem.alloc ~name:"c" h 100 in
  Pmem.restore s;
  Alcotest.(check int) "volatile value" 2 (Pmem.peek a);
  Alcotest.(check (option int)) "durable value" (Some 1) (Pmem.peek_persisted a);
  Alcotest.(check bool) "poison cleared" false (Pmem.is_poisoned b);
  Alcotest.(check int) "line count" 2 (Pmem.lines_allocated h);
  let d = Pmem.alloc ~name:"d" h 0 in
  Alcotest.(check int) "next id as after the snapshot" 3
    (Pmem.line_id (Pmem.line_of d));
  Pmem.crash h;
  Alcotest.(check int) "reverts to the restored durable value" 1 (Pmem.peek a);
  Alcotest.(check bool) "late field no longer on the line" false
    (Pmem.is_poisoned extra);
  Alcotest.(check bool) "dropped line no longer reset" false (Pmem.is_poisoned c);
  Alcotest.check_raises "untracked heap"
    (Invalid_argument "Pmem.snapshot: heap is not tracked for crash")
    (fun () -> ignore (Pmem.snapshot (Pmem.heap ~track_for_crash:false ()) : Pmem.snapshot))

(* A snapshot carries the machine too: a write-back pending when it was
   taken is pending again after a restore, however the rings changed in
   between, and it completes at a later crash. *)
let test_snapshot_restores_machine () =
  let h = fresh () in
  let p = Pmem.alloc ~name:"p" h 5 in
  Pmem.pwb_f site_pwb p;
  let s = Pmem.snapshot h in
  Pmem.psync site_sync;
  Pmem.crash h;
  Alcotest.(check int) "rings drained" 0 (Pmem.max_outstanding_writebacks ());
  Pmem.restore s;
  Alcotest.(check int) "pending write-back" 1 (Pmem.max_outstanding_writebacks ());
  Alcotest.(check bool) "not yet durable" true (Pmem.peek_persisted p = None);
  Pmem.crash ~resolution:`All h;
  Alcotest.(check bool) "the restored write-back persists" false
    (Pmem.is_poisoned p)

let suite =
  [
    Alcotest.test_case "read-write-cas" `Quick test_read_write;
    Alcotest.test_case "unflushed write lost at crash" `Quick
      test_unflushed_lost;
    Alcotest.test_case "flushed write survives crash" `Quick
      test_flushed_survives;
    Alcotest.test_case "never-flushed cell poisons" `Quick
      test_never_flushed_poisons;
    Alcotest.test_case "pwb without psync may be dropped" `Quick
      test_pwb_without_sync_dropped;
    Alcotest.test_case "pwb persists the whole line" `Quick
      test_line_granularity;
    Alcotest.test_case "CAS drains outstanding write-backs" `Quick
      test_cas_drains_writebacks;
    Alcotest.test_case "CAS drain can be ablated" `Quick
      test_cas_drain_ablatable;
    Alcotest.test_case "pfence ordering respected at crash" `Quick
      test_fence_ordering_at_crash;
    Alcotest.test_case "per-location durability is monotone" `Quick
      test_per_location_monotonic;
    Alcotest.test_case "system_persist crash-atomic" `Quick
      test_system_persist;
    Alcotest.test_case "disabled site is a no-op" `Quick
      test_disabled_site_is_noop;
    Alcotest.test_case "elide disables a named site, rejects unknown names"
      `Quick test_elide;
    Alcotest.test_case "statistics counting" `Quick test_stats_counting;
    Alcotest.test_case "outstanding write-back accounting" `Quick
      test_outstanding_accounting;
    Alcotest.test_case "queue bound completes write-backs" `Quick
      test_queue_bound_completes_writebacks;
    Alcotest.test_case "heap-scoped crash isolates other heaps" `Quick
      test_heap_crash_isolation;
    Alcotest.test_case "heap-scoped prefix counts victim write-backs" `Quick
      test_heap_crash_resolution_counts_victim_only;
    Alcotest.test_case "machine-scoped crash resolves all queues" `Quick
      test_machine_crash_hits_all_queues;
    Alcotest.test_case "heap-scoped crash respects pfence ordering" `Quick
      test_heap_crash_preserves_fence_ordering;
    QCheck_alcotest.to_alcotest prop_random_crash_consistency;
    Alcotest.test_case "golden: crash resolutions" `Quick
      test_golden_crash_resolutions;
    Alcotest.test_case "instruction allocation bounds" `Quick
      test_instruction_allocation;
    Alcotest.test_case "snapshot and restore" `Quick test_snapshot_restore;
    Alcotest.test_case "snapshot restores the machine" `Quick
      test_snapshot_restores_machine;
  ]
