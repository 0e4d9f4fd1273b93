type outcome =
  | Pending
  | Got of int * int * int  (* value received, collider tid, collider seq *)
  | Cancelled

type xdesc = {
  line : Pmem.line;
  payload : payload Pmem.t;
  result : outcome Pmem.t;
}

and payload = { role : role; v_mine : int; seq : int; owner : int }

and role = Waiter | Collider of xdesc

type sites = {
  desc_pwb : Pstats.site;
  publish_fence : Pstats.site;
  rd_pwb : Pstats.site;
  cp_pwb : Pstats.site;
  rd_sync : Pstats.site;
  slot_pwb : Pstats.site;
  slot_sync : Pstats.site;
  result_pwb : Pstats.site;
  result_sync : Pstats.site;
}

let sites prefix =
  {
    desc_pwb = Pstats.make Pwb (prefix ^ ".desc.pwb");
    publish_fence = Pstats.make Pfence (prefix ^ ".publish.pfence");
    rd_pwb = Pstats.make Pwb (prefix ^ ".rd.pwb");
    cp_pwb = Pstats.make Pwb (prefix ^ ".cp.pwb");
    rd_sync = Pstats.make Psync (prefix ^ ".rd.psync");
    slot_pwb = Pstats.make Pwb (prefix ^ ".slot.pwb");
    slot_sync = Pstats.make Psync (prefix ^ ".slot.psync");
    result_pwb = Pstats.make Pwb (prefix ^ ".result.pwb");
    result_sync = Pstats.make Psync (prefix ^ ".result.psync");
  }

type t = {
  heap : Pmem.heap;
  slot : xdesc option Pmem.t;
  rd : xdesc option Pmem.t array;
  cp : int Pmem.t array;
  seqs : int array;
  s : sites;
}

let create heap ~threads =
  let s = sites "xchg" in
  let slot = Pmem.alloc ~name:"xchg.slot" heap None in
  Pmem.pwb s.slot_pwb (Pmem.line_of slot);
  Pmem.psync s.slot_sync;
  let rd = Pvar.make ~name:"xchg.RD" heap ~threads None in
  let cp = Pvar.make ~name:"xchg.CP" heap ~threads 0 in
  {
    heap;
    slot;
    rd = Array.init threads (fun i -> Pvar.cell rd i);
    cp = Array.init threads (fun i -> Pvar.cell cp i);
    seqs = Array.make threads 0;
    s;
  }

let tid () = if Sim.in_sim () then Sim.tid () else 0

let new_desc t ~role ~v ~seq ~owner =
  let line = Pmem.new_line ~name:"xchg.desc" t.heap in
  {
    line;
    payload = Pmem.on_line line { role; v_mine = v; seq; owner };
    result = Pmem.on_line line Pending;
  }

(* Publish a fresh descriptor: durable before RD_q points at it, RD_q
   durable before the check-point is raised (the Tracking protocol). *)
let publish t id d =
  Pmem.pwb t.s.desc_pwb d.line;
  Pmem.pfence t.s.publish_fence;
  Pmem.write t.rd.(id) (Some d);
  Pmem.pwb_f t.s.rd_pwb t.rd.(id);
  Pmem.pfence t.s.publish_fence;
  Pmem.write t.cp.(id) 1;
  Pmem.pwb_f t.s.cp_pwb t.cp.(id);
  Pmem.psync t.s.rd_sync

let clear_slot t expected_box =
  ignore (Pmem.cas t.slot expected_box None : bool);
  Pmem.pwb_f t.s.slot_pwb t.slot;
  Pmem.psync t.s.slot_sync

(* Complete a collision whose decisive CAS has landed: persist the
   partner's cell, set our own result, free the slot. *)
let finish_collision t id d ~waiter ~my_seq =
  Pmem.pwb t.s.result_pwb waiter.line;
  let pw = Pmem.read waiter.payload in
  Pmem.write d.result (Got (pw.v_mine, id, my_seq));
  Pmem.pwb t.s.result_pwb d.line;
  Pmem.psync t.s.result_sync;
  (match Pmem.read t.slot with
  | Some w as box when w == waiter -> clear_slot t box
  | Some _ | None -> ());
  Some pw.v_mine

let rec wait_for_partner t id d ~spins =
  match Pmem.read d.result with
  | Got (v, _, _) -> Some v
  | Cancelled -> None
  | Pending ->
      if spins <= 0 then begin
        (* Timeout: cancellation and collision race on the same cell, so
           exactly one of them wins. *)
        if Pmem.cas d.result Pending Cancelled then begin
          Pmem.pwb t.s.result_pwb d.line;
          Pmem.psync t.s.result_sync;
          (match Pmem.read t.slot with
          | Some w as box when w == d -> clear_slot t box
          | Some _ | None -> ());
          None
        end
        else wait_for_partner t id d ~spins:1
      end
      else begin
        Sim.advance 80.;
        Sim.step 0.;
        wait_for_partner t id d ~spins:(spins - 1)
      end

let rec attempt t id v ~spins =
  let slot_box = Pmem.read t.slot in
  match slot_box with
  | None ->
      t.seqs.(id) <- t.seqs.(id) + 1;
      let seq = t.seqs.(id) in
      let d = new_desc t ~role:Waiter ~v ~seq ~owner:id in
      publish t id d;
      if Pmem.cas t.slot slot_box (Some d) then begin
        Pmem.pwb_f t.s.slot_pwb t.slot;
        Pmem.psync t.s.slot_sync;
        wait_for_partner t id d ~spins
      end
      else attempt t id v ~spins
  | Some waiter -> (
      match Pmem.read waiter.result with
      | Pending ->
          t.seqs.(id) <- t.seqs.(id) + 1;
          let seq = t.seqs.(id) in
          let d = new_desc t ~role:(Collider waiter) ~v ~seq ~owner:id in
          publish t id d;
          if Pmem.cas waiter.result Pending (Got (v, id, seq)) then
            finish_collision t id d ~waiter ~my_seq:seq
          else begin
            (* lost the collision race or the waiter cancelled *)
            Sim.advance 40.;
            attempt t id v ~spins
          end
      | Got _ | Cancelled ->
          (* stale waiter: help free the slot, then retry *)
          clear_slot t slot_box;
          attempt t id v ~spins)

let exchange ?(spins = 64) t v =
  let id = tid () in
  Pmem.system_persist t.cp.(id) 0;
  attempt t id v ~spins

let recover ?(spins = 64) t v =
  let id = tid () in
  if Pmem.read t.cp.(id) = 0 then exchange ~spins t v
  else
    match Pmem.read t.rd.(id) with
    | None -> exchange ~spins t v
    | Some d -> (
        let pay = Pmem.read d.payload in
        t.seqs.(id) <- max t.seqs.(id) pay.seq;
        match Pmem.read d.result with
        | Got (v', _, _) -> Some v'
        | Cancelled -> None
        | Pending -> (
            match pay.role with
            | Waiter -> (
                match Pmem.read t.slot with
                | Some w when w == d ->
                    (* still installed: resume waiting *)
                    wait_for_partner t id d ~spins
                | Some _ | None -> exchange ~spins t v)
            | Collider waiter -> (
                match Pmem.read waiter.result with
                | Got (_, ct, cs) when ct = id && cs = pay.seq ->
                    (* my decisive CAS landed before the crash *)
                    finish_collision t id d ~waiter ~my_seq:pay.seq
                | Got _ | Cancelled | Pending -> exchange ~spins t v)))

let slot_is_free t = Pmem.peek t.slot = None
