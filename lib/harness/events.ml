(* The harness's events on the Sim observer bus: each operation and
   recovery call, campaign round and resolved crash is emitted once, here,
   and every observer (Trace, Metrics, Forensics, Space) subscribes. *)

type Sim.event +=
  | Op_begin of { tid : int; kind : string; key : int; clock : float }
  | Op_end of { tid : int; ok : bool; clock : float }
  | Round of { kind : [ `Work | `Recover ]; n : int }
  | Crash_resolved of { round : int }

let kind_of_op = function
  | Set_intf.Ins _ -> "insert"
  | Set_intf.Del _ -> "delete"
  | Set_intf.Fnd _ -> "find"

(* The running fiber's virtual clock (sim.mli), 0 outside a run. *)
let clock (v : Sim.view) =
  if v.running then v.clocks.(v.tid) +. v.pending.(v.tid) else 0.

let op_begin ~kind ~key =
  let v = Sim.view (Sim.handle ()) in
  if v.subs != [] then
    Sim.publish v (Op_begin { tid = v.tid; kind; key; clock = clock v })

let op_end ~ok =
  let v = Sim.view (Sim.handle ()) in
  if v.subs != [] then
    Sim.publish v (Op_end { tid = v.tid; ok; clock = clock v })

let round ~kind n =
  let v = Sim.view (Sim.handle ()) in
  if v.subs != [] then Sim.publish v (Round { kind; n })

let crash_resolved ~round =
  let v = Sim.view (Sim.handle ()) in
  if v.subs != [] then Sim.publish v (Crash_resolved { round })
