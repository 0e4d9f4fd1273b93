type op = Ins of int | Del of int | Fnd of int

let op_key = function Ins k | Del k | Fnd k -> k
let is_update = function Ins _ | Del _ -> true | Fnd _ -> false

let pp_op ppf = function
  | Ins k -> Format.fprintf ppf "insert(%d)" k
  | Del k -> Format.fprintf ppf "delete(%d)" k
  | Fnd k -> Format.fprintf ppf "find(%d)" k

(* The pending invocation every structure's recovery takes: one closed
   polymorphic variant that the structures and baselines share. *)
let set_op = function
  | Ins k -> `Insert k
  | Del k -> `Delete k
  | Fnd k -> `Find k

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
  save_volatile : unit -> unit -> unit;
}

(* Most structures keep all their state in Pmem fields, which
   [Pmem.snapshot] already covers. *)
let no_volatile () = ignore

let apply t = function Ins k -> t.insert k | Del k -> t.delete k | Fnd k -> t.find k

type factory = {
  fname : string;
  model : model;
  supports_crash : bool;
  make : Pmem.heap -> threads:int -> t;
}

(* ---- the variant table -------------------------------------------------- *)

(* One row of the table; [make] gets the row's name for its instance.
   [elide] names a persist site the row disables once [make] has
   registered it: a negative control, which campaigns must catch
   (Pstats.elide fails loudly on a site that does not exist). *)
let row ?(model = Set_model) ?(supports_crash = true) ?elide fname make =
  let make =
    match elide with
    | None -> make fname
    | Some site ->
        fun heap ~threads ->
          let t = make fname heap ~threads in
          Pstats.elide site;
          t
  in
  { fname; model; supports_crash; make }

(* Tracking and the baselines: the pending token is the operation itself,
   handed back to the structure's recovery. *)
let op_instance name ?(recover_structure = ignore)
    ?(save_volatile = no_volatile) ~insert ~delete ~find ~recover ~check
    ~contents ~space () =
  {
    name;
    insert;
    delete;
    find;
    note_begin = (fun op -> Op op);
    recover =
      (function
      | Op op -> recover (set_op op)
      | _ ->
          invalid_arg
            (name ^ ": foreign pending token (this framework expects its own \
                     note_begin token)"));
    recover_structure;
    check;
    contents;
    space;
    save_volatile;
  }

(* Memento: the pending token is the invocation timestamp captured before
   the operation starts.  Recovery replays the crashed invocation under
   that timestamp, so its checkpoints and detectable-CAS outcomes
   short-circuit instead of re-executing. *)
let mmt_instance name ~next_invocation ~insert ~delete ~find ~recover ~check
    ~contents ~space =
  {
    name;
    insert;
    delete;
    find;
    note_begin = (fun op -> Mmt { mop = op; mseq = next_invocation () });
    recover =
      (function
      | Mmt { mop; mseq } -> recover ~mseq (set_op mop)
      | _ ->
          invalid_arg
            (name ^ ": foreign pending token (expects its note_begin \
                     timestamp)"));
    recover_structure = ignore;
    check;
    contents;
    space;
    save_volatile = no_volatile;
  }

(* Tracking's list (§4): a site prefix, the read-only optimization and an
   optional elided site make a row. *)
let rlist fname ~prefix ~ro_opt ?elide () =
  row ?elide fname (fun name heap ~threads ->
      let module L = Rlist.Int in
      let l = L.create ~prefix ~read_only_opt:ro_opt heap ~threads in
      op_instance name ~insert:(L.insert l) ~delete:(L.delete l)
        ~find:(L.find l) ~recover:(L.recover l)
        ~check:(fun () -> L.check_invariants l)
        ~contents:(fun () -> L.to_list l)
        ~space:(fun () -> L.space l)
        ())

let tracking = rlist "tracking" ~prefix:"rlist" ~ro_opt:true ()

let tracking_no_ro_opt =
  rlist "tracking-noopt" ~prefix:"rlist-noopt" ~ro_opt:false ()

(* A freshly allocated node can be linked in but never flushed, so a
   crash leaves reachable poisoned data. *)
let tracking_broken =
  rlist "tracking-broken" ~prefix:"rlist-broken" ~ro_opt:true
    ~elide:"rlist-broken.new.pwb" ()

let tracking_bst =
  row "tracking-bst" (fun name heap ~threads ->
      let module T = Rbst.Int in
      let t = T.create heap ~threads in
      op_instance name ~insert:(T.insert t) ~delete:(T.delete t)
        ~find:(T.find t) ~recover:(T.recover t)
        ~check:(fun () -> T.check_invariants t)
        ~contents:(fun () -> T.to_list t)
        ~space:(fun () -> T.space t)
        ())

let tracking_hash =
  row "tracking-hash" (fun name heap ~threads ->
      let module H = Rhash.Int in
      let h = H.create ~buckets:16 heap ~threads in
      op_instance name ~insert:(H.insert h) ~delete:(H.delete h)
        ~find:(H.find h) ~recover:(H.recover h)
        ~check:(fun () -> H.check_invariants h)
        ~contents:(fun () -> List.sort compare (H.to_list h))
        ~space:(fun () -> H.space h)
        ())

let capsules_row fname variant =
  row fname (fun name heap ~threads ->
      let c = Capsules.create ~variant heap ~threads in
      op_instance name ~insert:(Capsules.insert c)
        ~delete:(Capsules.delete c) ~find:(Capsules.find c)
        ~recover:(Capsules.recover c)
        ~check:(fun () -> Capsules.check_invariants c)
        ~contents:(fun () -> Capsules.to_list c)
        ~space:(fun () -> Capsules.space c)
        ~save_volatile:(fun () -> Capsules.save_volatile c)
        ())

let capsules = capsules_row "capsules" `General
let capsules_opt = capsules_row "capsules-opt" `Opt

let romulus =
  row "romulus" (fun name heap ~threads ->
      let r = Romulus.create heap ~threads in
      op_instance name ~insert:(Romulus.insert r)
        ~delete:(Romulus.delete r) ~find:(Romulus.find r)
        ~recover:(Romulus.recover r)
        ~recover_structure:(fun () -> Romulus.recover_structure r)
        ~check:(fun () -> Romulus.check_invariants r)
        ~contents:(fun () -> Romulus.to_list r)
        ~space:(fun () -> Romulus.space r)
        ~save_volatile:(fun () -> Romulus.save_volatile r)
        ())

let redo =
  row "redo-opt" (fun name heap ~threads ->
      let r = Redo.create heap ~threads in
      op_instance name ~insert:(Redo.insert r) ~delete:(Redo.delete r)
        ~find:(Redo.find r) ~recover:(Redo.recover r)
        ~recover_structure:(fun () -> Redo.recover_structure r)
        ~check:(fun () -> Redo.check_invariants r)
        ~contents:(fun () -> Redo.to_list r)
        ~space:(fun () -> Redo.space r)
        ~save_volatile:(fun () -> Redo.save_volatile r)
        ())

let harris_volatile =
  row ~supports_crash:false "harris" (fun name heap ~threads:_ ->
      let l = Harris.create heap in
      op_instance name ~insert:(Harris.insert l) ~delete:(Harris.delete l)
        ~find:(Harris.find l)
        ~recover:(fun _ -> invalid_arg "harris: volatile list cannot recover")
        ~check:(fun () -> Harris.check_invariants l)
        ~contents:(fun () -> Harris.to_list l)
        ~space:(fun () -> Harris.space l)
        ())

(* ---- the Memento framework (lib/memento) ------------------------------- *)

(* List-mmt: a site prefix and an optional elided site make a row. *)
let mlist fname ~prefix ?elide () =
  row ?elide fname (fun name heap ~threads ->
      let module L = Mlist.Int in
      let l = L.create ~prefix heap ~threads in
      mmt_instance name
        ~next_invocation:(fun () -> L.next_invocation l)
        ~insert:(L.insert l) ~delete:(L.delete l) ~find:(L.find l)
        ~recover:(L.recover l)
        ~check:(fun () -> L.check_invariants l)
        ~contents:(fun () -> L.to_list l)
        ~space:(fun () -> L.space l))

let memento_list = mlist "memento-list" ~prefix:"mlist" ()

(* The detectable CAS confirms (durably untags) a success whose result
   checkpoint never reaches NVM: a crash in that window leaves the
   insert's effect durable with no durable evidence, so the replay
   returns the wrong answer. *)
let memento_broken =
  mlist "memento-broken" ~prefix:"mmt-broken" ~elide:"mmt-broken.cp.pwb" ()

let memento_comb =
  row "memento-comb" (fun name heap ~threads ->
      let module C = Mcomb.Int in
      let c = C.create heap ~threads in
      mmt_instance name
        ~next_invocation:(fun () -> C.next_invocation c)
        ~insert:(C.insert c) ~delete:(C.delete c) ~find:(C.find c)
        ~recover:(C.recover c)
        ~check:(fun () -> C.check_invariants c)
        ~contents:(fun () -> C.to_list c)
        ~space:(fun () -> C.space c))

(* ---- queue-backed topic backend (elastic store, part c) ---------------- *)

(* The recoverable Michael–Scott queue serving as a store shard: the
   shard becomes a FIFO topic partition.  [Ins k] publishes (enqueue,
   always succeeds), [Del _] consumes the head ([true] iff the topic was
   non-empty), [Fnd k] is a volatile membership scan.  Checked against
   the order-sensitive {!Oracle.check_queue} model — sound because a
   shard's single server fiber serializes the topic's operations. *)
let tracking_topic =
  row ~model:Queue_model "tracking-topic" (fun name heap ~threads ->
      let q : int Rqueue.t = Rqueue.create ~prefix:"rtopic" heap ~threads in
      let conv = function
        | `Insert k -> Rqueue.Enqueue k
        | `Delete _ -> Rqueue.Dequeue
      in
      (* [call] is [Rqueue.apply] for a fresh operation and
         [Rqueue.recover] for a crashed one. *)
      let run call = function
        | `Find k -> List.mem k (Rqueue.to_list q)
        | `Insert _ as op ->
            ignore (call (conv op) : int option);
            true
        | `Delete _ as op -> call (conv op) <> None
      in
      op_instance name
        ~insert:(fun k -> run (Rqueue.apply q) (`Insert k))
        ~delete:(fun k -> run (Rqueue.apply q) (`Delete k))
        ~find:(fun k -> run (Rqueue.apply q) (`Find k))
        ~recover:(run (Rqueue.recover q))
        ~check:(fun () -> Rqueue.check_invariants q)
        ~contents:(fun () -> Rqueue.to_list q)
        ~space:(fun () -> Rqueue.space q)
        ())

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
