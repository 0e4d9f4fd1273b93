(* Replay files for failing runs: the keyed-line codec both repro kinds
   share (campaign files here, serve files in Store_repro), its shared
   tokens, and the campaign kind: its run configuration, the validator
   every campaign command and this loader check it with, and its file.

   A campaign repro captures everything a campaign run depends on: the
   run's configuration, the campaign seed, and — per simulator round —
   the crash point used and the recorded scheduling decisions.  Feeding
   the rounds back through [Crashes.run_logged ~script] replays the
   failure bit-for-bit; the format is documented in DESIGN.md
   ("Replay-file format"). *)

let ( let* ) = Result.bind

(* ---- the keyed-line codec ---------------------------------------------- *)

type fields = (string * string) list

let pp_fields ~magic ppf fields =
  Format.fprintf ppf "%s@." magic;
  List.iter (fun (k, v) -> Format.fprintf ppf "%s %s@." k v) fields

let save_fields ~magic path fields =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      pp_fields ~magic ppf fields;
      Format.pp_print_flush ppf ())

let read ~what ~magic ~keys path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> Error msg
  | [] -> Error (Printf.sprintf "empty %s file" what)
  | first :: _ when first <> magic ->
      Error (Printf.sprintf "not a %s file (expected %S)" what magic)
  | _ :: lines ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
            match String.trim line with
            | "" -> go acc rest
            | line ->
                let key, value =
                  match String.index_opt line ' ' with
                  | None -> (line, "")
                  | Some i ->
                      ( String.sub line 0 i,
                        String.sub line (i + 1) (String.length line - i - 1) )
                in
                (* a repeated configuration key is corruption, not a
                   harmless override: reject it rather than last-wins *)
                if not (List.mem key keys) then
                  Error (Printf.sprintf "unknown field %S" key)
                else if key <> "round" && List.mem_assoc key acc then
                  Error (Printf.sprintf "duplicate field %S" key)
                else go ((key, value) :: acc) rest)
      in
      go [] lines

let field fields key ~default decode =
  match List.assoc_opt key fields with None -> Ok default | Some v -> decode v

let required fields key decode =
  match List.assoc_opt key fields with
  | None -> Error (Printf.sprintf "missing %s field" key)
  | Some v -> decode v

let int v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad integer %S" v)

let float v =
  match float_of_string_opt v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad number %S" v)

(* ---- shared tokens ----------------------------------------------------- *)

type wb = Pmem.resolution

let wb_to_string = function
  | `Rng -> "rng"
  | `Drop -> "drop"
  | `All -> "all"
  | `Prefix k -> Printf.sprintf "prefix:%d" k

let wb_of_string s =
  let bad = Error (Printf.sprintf "bad write-back resolution %S" s) in
  match s with
  | "rng" -> Ok `Rng
  | "drop" -> Ok `Drop
  | "all" -> Ok `All
  | _ -> (
      match String.split_on_char ':' s with
      | [ "prefix"; k ] -> (
          match int_of_string_opt k with
          | Some k when k >= 1 -> Ok (`Prefix k)
          | _ -> bad)
      | _ -> bad)

let schedule_to_string sched =
  if Array.length sched = 0 then "-"
  else String.concat "," (Array.to_list (Array.map string_of_int sched))

let schedule_of_string = function
  | "-" | "" -> Ok [||]
  | s -> (
      let tids = String.split_on_char ',' s in
      try Ok (Array.of_list (List.map int_of_string tids))
      with Failure _ -> Error (Printf.sprintf "bad schedule %S" s))

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* ---- replay outcomes --------------------------------------------------- *)

type replayed = Passed | Failed of string | Diverged of string

let replay_result = function
  | Passed -> Ok ()
  | Failed e | Diverged e -> Error e

(* ---- campaign runs ----------------------------------------------------- *)

type config = {
  factory : Set_intf.factory;
  threads : int;
  ops_per_thread : int;
  workload : Workload.config;
  max_crashes : int;
}

(* Every rule a campaign's configuration must meet, in one place: the
   campaign commands refuse a config through it before anything runs,
   and [load] refuses a file whose config it rejects. *)
let validate cfg =
  let campaign msg = Error ("campaign: " ^ msg) in
  if cfg.factory.Set_intf.model <> Set_intf.Set_model then
    (* the per-key set oracle judges every campaign run; a FIFO
       backend's is sound only under a store shard's one server *)
    Error
      (Printf.sprintf
         "%s is a FIFO queue backend: campaigns check set semantics; run it \
          as a serve backend"
         cfg.factory.Set_intf.fname)
  else
    match
      Workload.validate_counts ~threads:cfg.threads
        ~ops_per_thread:cfg.ops_per_thread
    with
    | Error msg -> campaign msg
    | Ok () ->
        if cfg.max_crashes < 0 then campaign "max-crashes must be >= 0"
        else if cfg.workload.dist <> Workload.Uniform then
          (* the file has no field for it: the repro would replay uniform
             keys *)
          campaign "dist must be uniform"
        else
          Result.map_error (( ^ ) "campaign: ") (Workload.validate cfg.workload)

(* ---- campaign repros --------------------------------------------------- *)

type round = {
  kind : [ `Work | `Recover ];
  crash_at : int;  (* the crash_at parameter of that Sim.run; -1 = none *)
  schedule : int array;  (* tid picked at each scheduling decision *)
  wb : wb;  (* write-back resolution of the crash ending this round *)
}

type t = { config : config; seed : int; error : string; rounds : round list }

let magic = "tracking-nvm-repro v1"

(* "<work|recover> <crash_at> <schedule>[ <wb>]": a round whose crash
   drew its write-backs from the harness rng carries no wb token (an
   explicit "rng" reads the same). *)
let round_to_string rd =
  Printf.sprintf "%s %d %s%s"
    (match rd.kind with `Work -> "work" | `Recover -> "recover")
    rd.crash_at
    (schedule_to_string rd.schedule)
    (match rd.wb with `Rng -> "" | wb -> " " ^ wb_to_string wb)

let round_of_string line =
  match String.split_on_char ' ' line with
  | kind :: crash_at :: schedule :: (([] | [ _ ]) as wb) ->
      let* kind =
        match kind with
        | "work" -> Ok `Work
        | "recover" -> Ok `Recover
        | k -> Error (Printf.sprintf "bad round kind %S" k)
      in
      let* crash_at =
        Option.to_result (int_of_string_opt crash_at)
          ~none:(Printf.sprintf "bad crash point %S" crash_at)
      in
      let* schedule = schedule_of_string schedule in
      let* wb = match wb with [ w ] -> wb_of_string w | _ -> Ok `Rng in
      Ok { kind; crash_at; schedule; wb }
  | _ -> Error (Printf.sprintf "bad round line %S" line)

let fields { config = c; seed; error; rounds } =
  let w = c.workload in
  [
    ("algo", c.factory.Set_intf.fname);
    ("threads", string_of_int c.threads);
    ("ops-per-thread", string_of_int c.ops_per_thread);
    ("find-pct", string_of_int w.Workload.mix.Workload.find_pct);
    ("key-range", string_of_int w.key_range);
    ("prefill", string_of_int w.prefill_n);
    ("max-crashes", string_of_int c.max_crashes);
    ("seed", string_of_int seed);
    ("error", one_line error);
  ]
  @ List.map (fun rd -> ("round", round_to_string rd)) rounds

let pp ppf r = pp_fields ~magic ppf (fields r)
let save path r = save_fields ~magic path (fields r)

let keys =
  [ "algo"; "threads"; "ops-per-thread"; "find-pct"; "key-range"; "prefill";
    "max-crashes"; "seed"; "error"; "round" ]

let load path =
  let* fs = read ~what:"repro" ~magic ~keys path in
  let* factory =
    required fs "algo" (fun name ->
        Result.map_error
          (Printf.sprintf "repro references %s")
          (Set_intf.by_name name))
  in
  let* threads = required fs "threads" int in
  let* ops_per_thread = required fs "ops-per-thread" int in
  let* find_pct = field fs "find-pct" ~default:0 int in
  let* key_range = required fs "key-range" int in
  let* prefill_n = field fs "prefill" ~default:0 int in
  let* max_crashes = required fs "max-crashes" int in
  let* seed = field fs "seed" ~default:0 int in
  let* error = field fs "error" ~default:"" Result.ok in
  (* Every recorded round dispatches each thread at least once, so its
     schedule is never empty; a round without one would replay on free
     rng decisions, not the recorded ones. *)
  let rec rounds i = function
    | [] -> Ok []
    | ("round", v) :: rest ->
        let* rd = round_of_string v in
        if rd.schedule = [||] then
          Error (Printf.sprintf "repro: round %d has an empty schedule" i)
        else
          let* rds = rounds (i + 1) rest in
          Ok (rd :: rds)
    | _ :: rest -> rounds i rest
  in
  let* rounds = rounds 0 fs in
  let workload =
    { (Workload.default (Workload.mix_of_find_pct find_pct)) with
      key_range; prefill_n }
  in
  let config = { factory; threads; ops_per_thread; workload; max_crashes } in
  (* A config no campaign could run is a vacuous repro: replaying it
     "passes" while reproducing nothing, so a corrupt or truncated file
     fails here, loudly.  A campaign that may not crash at all is a
     legitimate run but no crash repro. *)
  let* () = validate config in
  if max_crashes < 1 then Error "repro: max-crashes must be >= 1"
  else Ok { config; seed; error; rounds }
