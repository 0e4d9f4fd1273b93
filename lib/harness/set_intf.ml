type op = Ins of int | Del of int | Fnd of int

let op_key = function Ins k | Del k | Fnd k -> k
let is_update = function Ins _ | Del _ -> true | Fnd _ -> false

let pp_op ppf = function
  | Ins k -> Format.fprintf ppf "insert(%d)" k
  | Del k -> Format.fprintf ppf "delete(%d)" k
  | Fnd k -> Format.fprintf ppf "find(%d)" k

(* The system's durable invocation bookkeeping is framework-shaped:
   Tracking's recovery re-runs the operation itself, while Memento needs
   the invocation timestamp the system captured before the op began.
   [note_begin] produces the framework's own token at the moment the
   system durably notes the pending operation; [recover] consumes it.
   The type is extensible so further frameworks slot in without touching
   the harness. *)
type pending = ..
type pending += Op of op
type pending += Mmt of { mop : op; mseq : int }

let op_only name recover_op = function
  | Op op -> recover_op op
  | _ ->
      invalid_arg
        (name ^ ": foreign pending token (this framework expects its own \
                 note_begin token)")

(* What the structure's operations mean, which decides the oracle a shard
   backend is checked against: [`Set] for per-key membership semantics
   (Oracle.check), [`Queue] for FIFO topic semantics where [Ins k]
   enqueues, [Del _] consumes the head and [Fnd k] scans for membership
   (Oracle.check_queue). *)
type model = Set_model | Queue_model

type t = {
  name : string;
  insert : int -> bool;
  delete : int -> bool;
  find : int -> bool;
  note_begin : op -> pending;
  recover : pending -> bool;
  recover_structure : unit -> unit;
  check : unit -> (unit, string) result;
  contents : unit -> int list;
  space : unit -> (Pmem.line * [ `Payload of int list | `Meta of string ]) list;
  supports_crash : bool;
  save_volatile : unit -> unit -> unit;
}

(* Most structures keep all their state in Pmem fields, which
   [Pmem.snapshot] already covers. *)
let no_volatile () = ignore

let apply t = function Ins k -> t.insert k | Del k -> t.delete k | Fnd k -> t.find k

type factory = {
  fname : string;
  model : model;
  make : Pmem.heap -> threads:int -> t;
}

let tracking =
  {
    fname = "tracking";
    model = Set_model;
    make =
      (fun heap ~threads ->
        let module L = Rlist.Int in
        let l = L.create heap ~threads in
        let conv = function
          | Ins k -> L.Insert k
          | Del k -> L.Delete k
          | Fnd k -> L.Find k
        in
        {
          name = "tracking";
          insert = L.insert l;
          delete = L.delete l;
          find = L.find l;
          note_begin = (fun op -> Op op);
          recover = op_only "tracking" (fun op -> L.recover l (conv op));
          recover_structure = (fun () -> ());
          check = (fun () -> L.check_invariants l);
          contents = (fun () -> L.to_list l);
          space = (fun () -> L.space l);
          supports_crash = true;
          save_volatile = no_volatile;
        });
  }

let tracking_bst =
  {
    fname = "tracking-bst";
    model = Set_model;
    make =
      (fun heap ~threads ->
        let module T = Rbst.Int in
        let t = T.create heap ~threads in
        let conv = function
          | Ins k -> T.Insert k
          | Del k -> T.Delete k
          | Fnd k -> T.Find k
        in
        {
          name = "tracking-bst";
          insert = T.insert t;
          delete = T.delete t;
          find = T.find t;
          note_begin = (fun op -> Op op);
          recover = op_only "tracking-bst" (fun op -> T.recover t (conv op));
          recover_structure = (fun () -> ());
          check = (fun () -> T.check_invariants t);
          contents = (fun () -> T.to_list t);
          space = (fun () -> T.space t);
          supports_crash = true;
          save_volatile = no_volatile;
        });
  }

let tracking_no_ro_opt =
  {
    fname = "tracking-noopt";
    model = Set_model;
    make =
      (fun heap ~threads ->
        let module L = Rlist.Int in
        let l =
          L.create ~prefix:"rlist-noopt" ~read_only_opt:false heap ~threads
        in
        let conv = function
          | Ins k -> L.Insert k
          | Del k -> L.Delete k
          | Fnd k -> L.Find k
        in
        {
          name = "tracking-noopt";
          insert = L.insert l;
          delete = L.delete l;
          find = L.find l;
          note_begin = (fun op -> Op op);
          recover = op_only "tracking-noopt" (fun op -> L.recover l (conv op));
          recover_structure = (fun () -> ());
          check = (fun () -> L.check_invariants l);
          contents = (fun () -> L.to_list l);
          space = (fun () -> L.space l);
          supports_crash = true;
          save_volatile = no_volatile;
        });
  }

(* Negative control for the crash harness: Tracking's list with the
   new-node pwb elided (the site is disabled right after creation, inside
   the campaign's enable-all window).  A freshly allocated node can then
   be linked in but never flushed, so a crash leaves reachable poisoned
   data — campaigns MUST fail on it, which exercises the repro/replay/
   shrink pipeline end to end. *)
let tracking_broken =
  {
    fname = "tracking-broken";
    model = Set_model;
    make =
      (fun heap ~threads ->
        let module L = Rlist.Int in
        let l = L.create ~prefix:"rlist-broken" heap ~threads in
        (match Pstats.find "rlist-broken.new.pwb" with
        | Some s -> Pstats.set_enabled s false
        | None -> ());
        let conv = function
          | Ins k -> L.Insert k
          | Del k -> L.Delete k
          | Fnd k -> L.Find k
        in
        {
          name = "tracking-broken";
          insert = L.insert l;
          delete = L.delete l;
          find = L.find l;
          note_begin = (fun op -> Op op);
          recover = op_only "tracking-broken" (fun op -> L.recover l (conv op));
          recover_structure = (fun () -> ());
          check = (fun () -> L.check_invariants l);
          contents = (fun () -> L.to_list l);
          space = (fun () -> L.space l);
          supports_crash = true;
          save_volatile = no_volatile;
        });
  }

let tracking_hash =
  {
    fname = "tracking-hash";
    model = Set_model;
    make =
      (fun heap ~threads ->
        let module H = Rhash.Int in
        let h = H.create ~buckets:16 heap ~threads in
        let conv = function
          | Ins k -> H.Insert k
          | Del k -> H.Delete k
          | Fnd k -> H.Find k
        in
        {
          name = "tracking-hash";
          insert = H.insert h;
          delete = H.delete h;
          find = H.find h;
          note_begin = (fun op -> Op op);
          recover = op_only "tracking-hash" (fun op -> H.recover h (conv op));
          recover_structure = (fun () -> ());
          check = (fun () -> H.check_invariants h);
          contents = (fun () -> List.sort compare (H.to_list h));
          space = (fun () -> H.space h);
          supports_crash = true;
          save_volatile = no_volatile;
        });
  }

let capsules_factory name variant =
  {
    fname = name;
    model = Set_model;
    make =
      (fun heap ~threads ->
        let c = Capsules.create ~variant heap ~threads in
        let conv = function
          | Ins k -> Capsules.Ins k
          | Del k -> Capsules.Del k
          | Fnd k -> Capsules.Fnd k
        in
        {
          name;
          insert = Capsules.insert c;
          delete = Capsules.delete c;
          find = Capsules.find c;
          note_begin = (fun op -> Op op);
          recover = op_only name (fun op -> Capsules.recover c (conv op));
          recover_structure = (fun () -> ());
          check = (fun () -> Capsules.check_invariants c);
          contents = (fun () -> Capsules.to_list c);
          space = (fun () -> Capsules.space c);
          supports_crash = true;
          save_volatile = (fun () -> Capsules.save_volatile c);
        });
  }

let capsules = capsules_factory "capsules" `General
let capsules_opt = capsules_factory "capsules-opt" `Opt

let romulus =
  {
    fname = "romulus";
    model = Set_model;
    make =
      (fun heap ~threads ->
        let r = Romulus.create heap ~threads in
        let conv = function
          | Ins k -> Romulus.Ins k
          | Del k -> Romulus.Del k
          | Fnd k -> Romulus.Fnd k
        in
        {
          name = "romulus";
          insert = Romulus.insert r;
          delete = Romulus.delete r;
          find = Romulus.find r;
          note_begin = (fun op -> Op op);
          recover = op_only "romulus" (fun op -> Romulus.recover r (conv op));
          recover_structure = (fun () -> Romulus.recover_structure r);
          check = (fun () -> Romulus.check_invariants r);
          contents = (fun () -> Romulus.to_list r);
          space = (fun () -> Romulus.space r);
          supports_crash = true;
          save_volatile = (fun () -> Romulus.save_volatile r);
        });
  }

let redo =
  {
    fname = "redo-opt";
    model = Set_model;
    make =
      (fun heap ~threads ->
        let r = Redo.create heap ~threads in
        let conv = function
          | Ins k -> Redo.Ins k
          | Del k -> Redo.Del k
          | Fnd k -> Redo.Fnd k
        in
        {
          name = "redo-opt";
          insert = Redo.insert r;
          delete = Redo.delete r;
          find = Redo.find r;
          note_begin = (fun op -> Op op);
          recover = op_only "redo-opt" (fun op -> Redo.recover r (conv op));
          recover_structure = (fun () -> Redo.recover_structure r);
          check = (fun () -> Redo.check_invariants r);
          contents = (fun () -> Redo.to_list r);
          space = (fun () -> Redo.space r);
          supports_crash = true;
          save_volatile = (fun () -> Redo.save_volatile r);
        });
  }

let harris_volatile =
  {
    fname = "harris";
    model = Set_model;
    make =
      (fun heap ~threads:_ ->
        let l = Harris.create heap in
        {
          name = "harris";
          insert = Harris.insert l;
          delete = Harris.delete l;
          find = Harris.find l;
          note_begin = (fun op -> Op op);
          recover =
            (fun _ -> invalid_arg "harris: volatile list cannot recover");
          recover_structure = (fun () -> ());
          check = (fun () -> Harris.check_invariants l);
          contents = (fun () -> Harris.to_list l);
          space = (fun () -> Harris.space l);
          supports_crash = false;
          save_volatile = no_volatile;
        });
  }

(* ---- the Memento framework (lib/memento) ------------------------------- *)

(* Memento's pending token is the invocation timestamp captured before
   the operation starts: recovery replays the crashed invocation under
   that timestamp, so its checkpoints and detectable-CAS outcomes
   short-circuit instead of re-executing. *)

let memento_list_factory fname ~prefix ~disable_site =
  {
    fname;
    model = Set_model;
    make =
      (fun heap ~threads ->
        let module L = Mlist.Int in
        let l = L.create ~prefix heap ~threads in
        (match disable_site with
        | None -> ()
        | Some site -> (
            match Pstats.find site with
            | Some s -> Pstats.set_enabled s false
            | None -> ()));
        let conv = function
          | Ins k -> L.Insert k
          | Del k -> L.Delete k
          | Fnd k -> L.Find k
        in
        {
          name = fname;
          insert = L.insert l;
          delete = L.delete l;
          find = L.find l;
          note_begin = (fun op -> Mmt { mop = op; mseq = L.next_invocation l });
          recover =
            (function
            | Mmt { mop; mseq } -> L.recover l ~mseq (conv mop)
            | _ ->
                invalid_arg
                  (fname
                 ^ ": foreign pending token (expects its note_begin \
                    timestamp)"));
          recover_structure = (fun () -> ());
          check = (fun () -> L.check_invariants l);
          contents = (fun () -> L.to_list l);
          space = (fun () -> L.space l);
          supports_crash = true;
          save_volatile = no_volatile;
        });
  }

let memento_list =
  memento_list_factory "memento-list" ~prefix:"mlist" ~disable_site:None

(* Negative control: List-mmt with the checkpoint persist elided.  The
   detectable CAS then confirms (durably untags) a success whose result
   checkpoint never reaches NVM: a crash in that window leaves the
   insert's effect durable with no durable evidence, so the replay
   returns the wrong answer and campaigns MUST flag an oracle
   violation — the Memento mirror of [tracking_broken]. *)
let memento_broken =
  memento_list_factory "memento-broken" ~prefix:"mmt-broken"
    ~disable_site:(Some "mmt-broken.cp.pwb")

let memento_comb =
  {
    fname = "memento-comb";
    model = Set_model;
    make =
      (fun heap ~threads ->
        let module C = Mcomb.Int in
        let c = C.create heap ~threads in
        let conv = function
          | Ins k -> C.Insert k
          | Del k -> C.Delete k
          | Fnd k -> C.Find k
        in
        {
          name = "memento-comb";
          insert = C.insert c;
          delete = C.delete c;
          find = C.find c;
          note_begin = (fun op -> Mmt { mop = op; mseq = C.next_invocation c });
          recover =
            (function
            | Mmt { mop; mseq } -> C.recover c ~mseq (conv mop)
            | _ ->
                invalid_arg
                  "memento-comb: foreign pending token (expects its \
                   note_begin timestamp)");
          recover_structure = (fun () -> ());
          check = (fun () -> C.check_invariants c);
          contents = (fun () -> C.to_list c);
          space = (fun () -> C.space c);
          supports_crash = true;
          save_volatile = no_volatile;
        });
  }

(* ---- queue-backed topic backend (elastic store, part c) ---------------- *)

(* The recoverable Michael–Scott queue serving as a store shard: the
   shard becomes a FIFO topic partition.  [Ins k] publishes (enqueue,
   always succeeds), [Del _] consumes the head ([true] iff the topic was
   non-empty), [Fnd k] is a volatile membership scan.  Checked against
   the order-sensitive {!Oracle.check_queue} model — sound because a
   shard's single server fiber serializes the topic's operations. *)
let tracking_topic =
  {
    fname = "tracking-topic";
    model = Queue_model;
    make =
      (fun heap ~threads ->
        let q : int Rqueue.t = Rqueue.create ~prefix:"rtopic" heap ~threads in
        let conv = function
          | Ins k -> Rqueue.Enqueue k
          | Del _ -> Rqueue.Dequeue
          | Fnd _ -> invalid_arg "tracking-topic: find has no queue pending"
        in
        let run op =
          match op with
          | Fnd k -> List.mem k (Rqueue.to_list q)
          | Ins _ | Del _ -> (
              match Rqueue.apply q (conv op) with
              | Some _ -> true  (* dequeue consumed a value *)
              | None -> (
                  match op with
                  | Ins _ -> true  (* enqueues always succeed *)
                  | _ -> false  (* dequeue of an empty topic *)))
        in
        {
          name = "tracking-topic";
          insert = (fun k -> run (Ins k));
          delete = (fun k -> run (Del k));
          find = (fun k -> run (Fnd k));
          note_begin = (fun op -> Op op);
          recover =
            op_only "tracking-topic" (fun op ->
                match op with
                | Fnd k -> List.mem k (Rqueue.to_list q)
                | Ins k -> (
                    match Rqueue.recover q (Rqueue.Enqueue k) with
                    | _ -> true)
                | Del _ -> Rqueue.recover q Rqueue.Dequeue <> None);
          recover_structure = (fun () -> ());
          check = (fun () -> Rqueue.check_invariants q);
          contents = (fun () -> Rqueue.to_list q);
          space = (fun () -> Rqueue.space q);
          supports_crash = true;
          save_volatile = no_volatile;
        });
  }

let all =
  [
    tracking;
    capsules;
    capsules_opt;
    romulus;
    redo;
    harris_volatile;
    tracking_bst;
    tracking_no_ro_opt;
    tracking_hash;
    tracking_topic;
    tracking_broken;
    memento_list;
    memento_comb;
    memento_broken;
  ]

let names () = List.map (fun f -> f.fname) all

let by_name n =
  match List.find_opt (fun f -> String.equal f.fname n) all with
  | Some f -> Ok f
  | None ->
      Error
        (Printf.sprintf "unknown algorithm %S; valid names: %s" n
           (String.concat ", " (names ())))
