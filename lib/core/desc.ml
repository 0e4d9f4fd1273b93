type update =
  | Update : { field : 'a Pmem.t; old_v : 'a; new_v : 'a } -> update

type 'n state =
  | Clean
  | Tagged of 'n t
  | Untagged of 'n t

and 'n t = {
  dline : Pmem.line;
  payload_f : 'n payload Pmem.t;
  result_f : bool option Pmem.t;
  owner : int;
  mutable tagged_s : 'n state;
  mutable untagged_s : 'n state;
}

and 'n payload = {
  label : string;
  affect : ('n * 'n state) list;
  writes : update list;
  news : 'n list;
  cleanup : 'n list;
  response : bool;
}

let make heap ~label ~affect ?(writes = []) ?(news = []) ?(cleanup = [])
    ~response () =
  let dline = Pmem.new_line ~name:("desc:" ^ label) heap in
  let payload = { label; affect; writes; news; cleanup; response } in
  let d =
    {
      dline;
      payload_f = Pmem.on_line dline payload;
      result_f = Pmem.on_line dline None;
      owner = (if Sim.in_sim () then Sim.tid () else -1);
      tagged_s = Clean;
      untagged_s = Clean;
    }
  in
  d.tagged_s <- Tagged d;
  d.untagged_s <- Untagged d;
  d

let payload d = Pmem.read d.payload_f
let result d = Pmem.read d.result_f
let set_result d r = Pmem.write d.result_f (Some r)
let line d = d.dline
let owner d = d.owner
let tagged d = d.tagged_s
let untagged d = d.untagged_s
let same d1 d2 = d1 == d2
