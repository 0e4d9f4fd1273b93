type 'a t = 'a Pmem.t array

let init_site = Pstats.make Pwb "pvar.init"
let init_sync = Pstats.make Psync "pvar.init.psync"

let make ?(name = "pvar") h ~threads v =
  (match Pmem.validate_threads threads with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pvar.make: " ^ msg));
  let cells =
    Array.init threads (fun i ->
        Pmem.alloc ~name:(Printf.sprintf "%s[%d]" name i) h v)
  in
  (* System-installed state exists durably before any operation starts. *)
  Array.iter (fun c -> Pmem.pwb_f init_site c) cells;
  Pmem.psync init_sync;
  cells

let cell t i = t.(i)
let threads t = Array.length t
