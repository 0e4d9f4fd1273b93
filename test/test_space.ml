(* Persistent-space accounting: the live-payload enumeration must agree
   with the abstract set's contents for every implementation, the sweep's
   classification must conserve lines (live + garbage = allocated), and
   [repro space] campaigns must be byte-identical across replays and
   across -j fan-out. *)

let fresh_algo (f : Set_intf.factory) threads =
  Pmem.reset_pending ();
  let heap = Pmem.heap ~name:f.Set_intf.fname () in
  (heap, f.Set_intf.make heap ~threads)

let payload_keys space =
  List.concat_map
    (fun (_, cls) -> match cls with `Payload ks -> ks | `Meta _ -> [])
    space

let meta_lines space =
  List.filter (fun (_, cls) -> match cls with `Meta _ -> true | _ -> false) space

(* ---- live payload == contents, for every variant ---------------------- *)

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 0 60)
      (pair (int_range 0 2) (int_range 0 20)))

let prop_payload_matches_contents =
  QCheck2.Test.make
    ~name:"space payload keys = contents for every variant" ~count:30 gen_ops
    (fun ops ->
      List.iter
        (fun (f : Set_intf.factory) ->
          let _, algo = fresh_algo f 4 in
          List.iter
            (fun (kind, k) ->
              ignore
                (match kind with
                | 0 -> algo.Set_intf.insert k
                | 1 -> algo.Set_intf.delete k
                | _ -> algo.Set_intf.find k))
            ops;
          let got = List.sort compare (payload_keys (algo.Set_intf.space ()))
          and want = List.sort compare (algo.Set_intf.contents ()) in
          if got <> want then
            QCheck2.Test.fail_reportf "%s: payload [%s] <> contents [%s]"
              f.Set_intf.fname
              (String.concat ";" (List.map string_of_int got))
              (String.concat ";" (List.map string_of_int want)))
        Set_intf.all;
      true)

(* ---- enumeration stays inside the heap's allocation ------------------- *)

let test_enumeration_within_heap () =
  List.iter
    (fun (f : Set_intf.factory) ->
      let heap, algo = fresh_algo f 4 in
      for k = 0 to 15 do
        ignore (algo.Set_intf.insert k)
      done;
      for k = 0 to 7 do
        ignore (algo.Set_intf.delete k)
      done;
      let space = algo.Set_intf.space () in
      (* the live enumeration can never exceed what the heap allocated *)
      let distinct = Hashtbl.create 64 in
      List.iter
        (fun (line, _) -> Hashtbl.replace distinct (Pmem.line_id line) ())
        space;
      let live = Hashtbl.length distinct in
      let total = Pmem.lines_allocated heap in
      if live > total then
        Alcotest.failf "%s: %d live lines > %d allocated" f.Set_intf.fname
          live total)
    Set_intf.all

(* ---- detectable variants carry per-thread metadata -------------------- *)

let test_lower_bound_metadata () =
  List.iter
    (fun (f : Set_intf.factory) ->
      let _, algo = fresh_algo f 4 in
      ignore (algo.Set_intf.insert 1);
      if f.Set_intf.supports_crash then begin
        let m = List.length (meta_lines (algo.Set_intf.space ())) in
        if m < 4 then
          Alcotest.failf "%s: %d metadata lines < 4 threads (arXiv 2002.11378)"
            f.Set_intf.fname m
      end)
    Set_intf.all

(* ---- sweep conservation and campaign determinism ---------------------- *)

let small_cfg =
  Space.
    {
      threads = 3;
      ops_per_thread = 25;
      find_pct = 20;
      key_range = 32;
      prefill = 8;
      max_crashes = 2;
      seed = 7;
    }

let variants = Set_intf.[ tracking; memento_list ]

let test_sweep_conservation () =
  List.iter
    (fun (name, r) ->
      match r with
      | Error m -> Alcotest.failf "%s: run failed: %s" name m
      | Ok (s : Space.sweep) ->
          if
            s.Space.sv_payload_lines + s.Space.sv_meta_lines
            + s.Space.sv_garbage_lines
            <> s.Space.sv_total_lines
          then
            Alcotest.failf "%s: %d payload + %d meta + %d garbage <> %d total"
              name s.Space.sv_payload_lines s.Space.sv_meta_lines
              s.Space.sv_garbage_lines s.Space.sv_total_lines;
          if not s.Space.sv_lb_ok then
            Alcotest.failf "%s: lower-bound check failed" name;
          if s.Space.sv_ops <= 0 then
            Alcotest.failf "%s: no completed ops recorded" name)
    (Space.campaign small_cfg variants)

let test_campaign_byte_identity () =
  let render rs =
    ( Space.render_text small_cfg rs,
      Space.render_json small_cfg rs,
      Space.render_csv rs )
  in
  let t1, j1, c1 = render (Space.campaign ~jobs:1 small_cfg variants) in
  let t1', j1', c1' = render (Space.campaign ~jobs:1 small_cfg variants) in
  let t4, j4, c4 = render (Space.campaign ~jobs:4 small_cfg variants) in
  Alcotest.(check string) "text replay-stable" t1 t1';
  Alcotest.(check string) "json replay-stable" j1 j1';
  Alcotest.(check string) "csv replay-stable" c1 c1';
  Alcotest.(check string) "text -j1 = -j4" t1 t4;
  Alcotest.(check string) "json -j1 = -j4" j1 j4;
  Alcotest.(check string) "csv -j1 = -j4" c1 c4

(* ---- the registry is inert when disabled ------------------------------ *)

let test_disabled_records_nothing () =
  Space.disable ();
  Space.reset ();
  let _, algo = fresh_algo Set_intf.tracking 2 in
  for k = 0 to 9 do
    ignore (algo.Set_intf.insert k)
  done;
  Alcotest.(check int) "no records" 0 (List.length (Space.recs ()))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_payload_matches_contents;
    Alcotest.test_case "enumeration within heap allocation" `Quick
      test_enumeration_within_heap;
    Alcotest.test_case "detectable variants meet metadata lower bound" `Quick
      test_lower_bound_metadata;
    Alcotest.test_case "sweep conserves line classification" `Quick
      test_sweep_conservation;
    Alcotest.test_case "campaign byte-identical across replays and -j" `Quick
      test_campaign_byte_identity;
    Alcotest.test_case "disabled registry records nothing" `Quick
      test_disabled_records_nothing;
  ]
