type event = { eop : Set_intf.op; ok : bool }

module IM = Map.Make (Int)
module IS = Set.Make (Int)

type tally = {
  si : int;  (* successful inserts *)
  sd : int;  (* successful deletes *)
  fi : int;  (* failed inserts *)
  fd : int;  (* failed deletes *)
  finds_true : int;
  finds_false : int;
}

let zero = { si = 0; sd = 0; fi = 0; fd = 0; finds_true = 0; finds_false = 0 }

let tally_of_events events =
  List.fold_left
    (fun m e ->
      let k = Set_intf.op_key e.eop in
      let t = Option.value (IM.find_opt k m) ~default:zero in
      let t =
        match (e.eop, e.ok) with
        | Set_intf.Ins _, true -> { t with si = t.si + 1 }
        | Set_intf.Ins _, false -> { t with fi = t.fi + 1 }
        | Set_intf.Del _, true -> { t with sd = t.sd + 1 }
        | Set_intf.Del _, false -> { t with fd = t.fd + 1 }
        | Set_intf.Fnd _, true -> { t with finds_true = t.finds_true + 1 }
        | Set_intf.Fnd _, false -> { t with finds_false = t.finds_false + 1 }
      in
      IM.add k t m)
    IM.empty events

(* FIFO topic model for queue-backed shards ([Set_intf.Queue_model]).
   Unlike the set oracle this is order-SENSITIVE: it replays the event
   sequence against a model queue.  That is sound for a store shard
   because a single server fiber serializes every operation on the
   backend, so completion order is execution order.  [Ins k] must
   enqueue (always ok), [Del _] must report exactly whether the model
   queue was non-empty and consumes its head, [Fnd k] must report
   membership of the model queue at that point. *)
let check_queue ~initial ~final events =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let q = Queue.create () in
  List.iter (fun k -> Queue.push k q) initial;
  let step acc (i, e) =
    match acc with
    | Error _ as err -> err
    | Ok () -> (
        match (e.eop, e.ok) with
        | Set_intf.Ins k, ok ->
            if not ok then err "event %d: enqueue(%d) reported failure" i k
            else begin
              Queue.push k q;
              Ok ()
            end
        | Set_intf.Del _, ok ->
            if Queue.is_empty q then
              if ok then err "event %d: dequeue succeeded on an empty topic" i
              else Ok ()
            else if not ok then
              err "event %d: dequeue failed with head %d available" i
                (Queue.peek q)
            else begin
              ignore (Queue.pop q : int);
              Ok ()
            end
        | Set_intf.Fnd k, ok ->
            let mem = Queue.fold (fun m v -> m || v = k) false q in
            if mem <> ok then
              err "event %d: find(%d) returned %b but the topic %s it" i k ok
                (if mem then "held" else "did not hold")
            else Ok ())
  in
  let indexed = List.mapi (fun i e -> (i, e)) events in
  match List.fold_left step (Ok ()) indexed with
  | Error _ as e -> e
  | Ok () ->
      let model = List.of_seq (Queue.to_seq q) in
      if model <> final then
        err "final topic %s but the model predicts %s"
          (String.concat "," (List.map string_of_int final))
          (String.concat "," (List.map string_of_int model))
      else Ok ()

let check ~initial ~final events =
  let init = IS.of_list initial in
  let fin = IS.of_list final in
  let tallies = tally_of_events events in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let keys =
    IS.union (IS.union init fin)
      (IM.fold (fun k _ acc -> IS.add k acc) tallies IS.empty)
  in
  IS.fold
    (fun k acc ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
          let t = Option.value (IM.find_opt k tallies) ~default:zero in
          let i0 = IS.mem k init and f0 = IS.mem k fin in
          let net = t.si - t.sd in
          let expected_net = (if f0 then 1 else 0) - if i0 then 1 else 0 in
          if net <> expected_net then
            err
              "key %d: net successful inserts %d (si=%d sd=%d) but presence \
               went %b -> %b"
              k net t.si t.sd i0 f0
          else if (not i0) && (net < 0 || net > 1) then
            err "key %d: impossible alternation from absent (si=%d sd=%d)" k
              t.si t.sd
          else if i0 && (net > 0 || net < -1) then
            err "key %d: impossible alternation from present (si=%d sd=%d)" k
              t.si t.sd
          else if t.fi > 0 && (not i0) && t.si = 0 then
            err "key %d: failed insert but the key was never present" k
          else if t.fd > 0 && i0 && t.sd = 0 then
            err "key %d: failed delete but the key was never absent" k
          else if t.si = 0 && t.sd = 0 && i0 && t.finds_false > 0 then
            err "key %d: find returned false but key was present throughout" k
          else if t.si = 0 && t.sd = 0 && (not i0) && t.finds_true > 0 then
            err "key %d: find returned true but key was absent throughout" k
          else Ok ())
    keys (Ok ())
