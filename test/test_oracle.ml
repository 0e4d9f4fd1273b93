(* The per-key set-semantics oracle itself. *)

let ev op ok = { Oracle.eop = op; ok }

let ok_ = Alcotest.(check bool) "accepts" true
let bad = Alcotest.(check bool) "rejects" false

let is_ok = function Ok () -> true | Error _ -> false

let test_accepts_valid () =
  ok_ (is_ok (Oracle.check ~initial:[] ~final:[] []));
  ok_
    (is_ok
       (Oracle.check ~initial:[] ~final:[ 1 ]
          [ ev (Set_intf.Ins 1) true; ev (Set_intf.Fnd 1) true ]));
  ok_
    (is_ok
       (Oracle.check ~initial:[ 1 ] ~final:[]
          [ ev (Set_intf.Del 1) true; ev (Set_intf.Ins 1) true;
            ev (Set_intf.Del 1) true ]));
  (* interleaved alternation from absent *)
  ok_
    (is_ok
       (Oracle.check ~initial:[] ~final:[ 3 ]
          [
            ev (Set_intf.Ins 3) true;
            ev (Set_intf.Del 3) true;
            ev (Set_intf.Ins 3) true;
            ev (Set_intf.Ins 3) false;
            ev (Set_intf.Del 9) false;
          ]))

let test_rejects_lost_insert () =
  bad
    (is_ok
       (Oracle.check ~initial:[] ~final:[] [ ev (Set_intf.Ins 1) true ]))

let test_rejects_phantom_delete () =
  bad
    (is_ok
       (Oracle.check ~initial:[] ~final:[] [ ev (Set_intf.Del 1) true ]))

let test_rejects_double_success () =
  bad
    (is_ok
       (Oracle.check ~initial:[] ~final:[ 1 ]
          [ ev (Set_intf.Ins 1) true; ev (Set_intf.Ins 1) true ]))

let test_rejects_failed_insert_never_present () =
  bad
    (is_ok
       (Oracle.check ~initial:[] ~final:[] [ ev (Set_intf.Ins 1) false ]))

let test_rejects_failed_delete_never_absent () =
  bad
    (is_ok
       (Oracle.check ~initial:[ 1 ] ~final:[ 1 ]
          [ ev (Set_intf.Del 1) false ]))

let test_find_on_quiet_key () =
  bad
    (is_ok
       (Oracle.check ~initial:[ 1 ] ~final:[ 1 ]
          [ ev (Set_intf.Fnd 1) false ]));
  bad
    (is_ok
       (Oracle.check ~initial:[] ~final:[] [ ev (Set_intf.Fnd 1) true ]));
  (* finds on keys with concurrent updates are not constrained *)
  ok_
    (is_ok
       (Oracle.check ~initial:[] ~final:[ 1 ]
          [ ev (Set_intf.Fnd 1) true; ev (Set_intf.Ins 1) true ]))

let test_rejects_final_mismatch () =
  bad
    (is_ok
       (Oracle.check ~initial:[] ~final:[] [ ev (Set_intf.Ins 1) true ]));
  bad (is_ok (Oracle.check ~initial:[] ~final:[ 2 ] []))

(* A brute-force rendering of the per-key rules: each key's counts taken
   by filtering the whole history, the keys visited in ascending order
   and each rule's message written out again, so the oracle's tally and
   its merge of keys are checked against code that has neither. *)
let reference ~initial ~final events =
  let keys =
    List.sort_uniq compare
      (initial @ final
      @ List.map (fun e -> Set_intf.op_key e.Oracle.eop) events)
  in
  let count k p =
    List.length
      (List.filter (fun e -> Set_intf.op_key e.Oracle.eop = k && p e) events)
  in
  let is_ins e = match e.Oracle.eop with Set_intf.Ins _ -> true | _ -> false in
  let is_del e = match e.Oracle.eop with Set_intf.Del _ -> true | _ -> false in
  let is_fnd e = match e.Oracle.eop with Set_intf.Fnd _ -> true | _ -> false in
  List.fold_left
    (fun acc k ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let si = count k (fun e -> is_ins e && e.ok)
          and sd = count k (fun e -> is_del e && e.ok)
          and fi = count k (fun e -> is_ins e && not e.ok)
          and fd = count k (fun e -> is_del e && not e.ok)
          and ft = count k (fun e -> is_fnd e && e.ok)
          and ff = count k (fun e -> is_fnd e && not e.ok) in
          let i0 = List.mem k initial and f0 = List.mem k final in
          let net = si - sd in
          let expected = (if f0 then 1 else 0) - if i0 then 1 else 0 in
          let fail s = Error s in
          if net <> expected then
            fail
              (Printf.sprintf
                 "key %d: net successful inserts %d (si=%d sd=%d) but \
                  presence went %b -> %b"
                 k net si sd i0 f0)
          else if (not i0) && (net < 0 || net > 1) then
            fail
              (Printf.sprintf
                 "key %d: impossible alternation from absent (si=%d sd=%d)" k
                 si sd)
          else if i0 && (net > 0 || net < -1) then
            fail
              (Printf.sprintf
                 "key %d: impossible alternation from present (si=%d sd=%d)"
                 k si sd)
          else if fi > 0 && (not i0) && si = 0 then
            fail
              (Printf.sprintf
                 "key %d: failed insert but the key was never present" k)
          else if fd > 0 && i0 && sd = 0 then
            fail
              (Printf.sprintf
                 "key %d: failed delete but the key was never absent" k)
          else if si = 0 && sd = 0 && i0 && ff > 0 then
            fail
              (Printf.sprintf
                 "key %d: find returned false but key was present throughout"
                 k)
          else if si = 0 && sd = 0 && (not i0) && ft > 0 then
            fail
              (Printf.sprintf
                 "key %d: find returned true but key was absent throughout" k)
          else acc)
    (Ok ()) keys

(* A sequential history on at most 6 keys (negative ones half the time)
   that a set answered correctly, then maybe corrupted: a flipped
   response, a dropped event or a wrong final set.  [initial] and
   [final] come shuffled, with a duplicate now and then, as the oracle
   takes them. *)
let random_history rng =
  let keys = 1 + Random.State.int rng 6 in
  let base = if Random.State.bool rng then 1 else -3 in
  let key () = base + Random.State.int rng keys in
  let present = Array.init keys (fun _ -> Random.State.bool rng) in
  let members () =
    List.filter_map
      (fun i -> if present.(i) then Some (base + i) else None)
      (List.init keys Fun.id)
  in
  let initial = members () in
  let events =
    List.init (Random.State.int rng 12) (fun _ ->
        let k = key () in
        let i = k - base in
        match Random.State.int rng 3 with
        | 0 ->
            let ok = not present.(i) in
            present.(i) <- true;
            ev (Set_intf.Ins k) ok
        | 1 ->
            let ok = present.(i) in
            present.(i) <- false;
            ev (Set_intf.Del k) ok
        | _ -> ev (Set_intf.Fnd k) present.(i))
  in
  let final = members () in
  let events, final =
    match Random.State.int rng 4 with
    | 0 when events <> [] ->
        let i = Random.State.int rng (List.length events) in
        ( List.mapi
            (fun j e ->
              if j = i then { e with Oracle.ok = not e.Oracle.ok } else e)
            events,
          final )
    | 1 when events <> [] ->
        let i = Random.State.int rng (List.length events) in
        (List.filteri (fun j _ -> j <> i) events, final)
    | 2 ->
        let k = key () in
        ( events,
          if List.mem k final then List.filter (( <> ) k) final
          else k :: final )
    | _ -> (events, final)
  in
  let scramble l =
    let l = if l <> [] && Random.State.bool rng then List.hd l :: l else l in
    List.map snd
      (List.sort compare (List.map (fun k -> (Random.State.bits rng, k)) l))
  in
  (scramble initial, scramble final, events)

(* [Oracle.check] and the path [Crashes] takes — a tally grown one
   response at a time and shared by runs that branch off it — give the
   reference's verdict and message on every history. *)
let prop_matches_reference =
  QCheck2.Test.make ~name:"check and the shared tally match a brute force"
    ~count:2000
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x0AC |] in
      let initial, final, events = random_history rng in
      let _, final', events' = random_history rng in
      let expected = reference ~initial ~final events in
      let split = Random.State.int rng (List.length events + 1) in
      let prefix = List.filteri (fun i _ -> i < split) events in
      let rest = List.filteri (fun i _ -> i >= split) events in
      let tally_of t evs =
        List.fold_left (fun t e -> Oracle.add t e.Oracle.eop e.ok) t evs
      in
      let shared = tally_of Oracle.empty_tally prefix in
      (* another run branches off the shared prefix first *)
      let other =
        Oracle.verdict ~initial ~final:final' (tally_of shared events')
      in
      Oracle.check ~initial ~final events = expected
      && Oracle.verdict ~initial ~final (tally_of shared rest) = expected
      && other = reference ~initial ~final:final' (prefix @ events'))

(* The oracle's cost, measured deterministically: minor words per event
   of [Oracle.check], on 10,000 events of a valid history over 64 keys
   (perfbench's [harness.oracle_ns_per_event] history) and on 2,000
   histories of 5 events over 8 keys (an explored execution's).  Budgets
   only move down: a rise of more than 2% fails, a change that lowers
   them commits the new figures.  The budgets are the figures measured
   when the per-key tally became a Patricia tree and the key sets a
   merge of sorted lists (the map-and-set oracle took 41.5 and 38.7). *)
let test_words_per_event () =
  let history rng ~n ~keys =
    let present = Hashtbl.create 64 in
    let events =
      List.init n (fun _ ->
          let k = 1 + Random.State.int rng keys in
          let was = Hashtbl.mem present k in
          match Random.State.int rng 3 with
          | 0 ->
              Hashtbl.replace present k ();
              ev (Set_intf.Ins k) (not was)
          | 1 ->
              Hashtbl.remove present k;
              ev (Set_intf.Del k) was
          | _ -> ev (Set_intf.Fnd k) was)
    in
    (events, List.sort compare (List.of_seq (Hashtbl.to_seq_keys present)))
  in
  let rng = Random.State.make [| 5 |] in
  let large = [ history rng ~n:10_000 ~keys:64 ] in
  let small = List.init 2_000 (fun _ -> history rng ~n:5 ~keys:8) in
  List.iter
    (fun (name, histories, budget) ->
      let n =
        List.fold_left (fun n (evs, _) -> n + List.length evs) 0 histories
      in
      let w0 = Gc.minor_words () in
      List.iter
        (fun (events, final) ->
          match Oracle.check ~initial:[] ~final events with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s" name m)
        histories;
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      Printf.printf "%s: %.1f minor words per event\n%!" name words;
      if words > 1.02 *. budget then
        Alcotest.failf "%s: %.1f minor words per event (budget %.1f)" name
          words budget)
    [
      ("10,000 events on 64 keys", large, 13.6);
      ("5 events on 8 keys", small, 14.0);
    ]

let suite =
  [
    Alcotest.test_case "accepts valid histories" `Quick test_accepts_valid;
    Alcotest.test_case "rejects lost insert" `Quick test_rejects_lost_insert;
    Alcotest.test_case "rejects phantom delete" `Quick
      test_rejects_phantom_delete;
    Alcotest.test_case "rejects double success" `Quick
      test_rejects_double_success;
    Alcotest.test_case "rejects failed insert on never-present key" `Quick
      test_rejects_failed_insert_never_present;
    Alcotest.test_case "rejects failed delete on never-absent key" `Quick
      test_rejects_failed_delete_never_absent;
    Alcotest.test_case "find constraints on quiet keys" `Quick
      test_find_on_quiet_key;
    Alcotest.test_case "rejects final-state mismatch" `Quick
      test_rejects_final_mismatch;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "minor words per event" `Quick test_words_per_event;
  ]
