(* A durable membership service built on the recoverable BST.

   Run with: dune exec examples/persistent_kv.exe

   Eight simulated clients hammer a shared recoverable BST; the machine
   crashes repeatedly; after each crash every client recovers its pending
   request and the service resumes — no request is lost, no response is
   wrong.  At the end, the service's durable contents are checked against
   a model reconstructed purely from the responses. *)

module T = Rbst.Int

let clients = 8
let requests_per_client = 30
let key_space = 64

let () =
  let heap = Pmem.heap ~name:"kv-service" () in
  let tree = T.create heap ~threads:clients in
  let rng = Random.State.make [| 2022 |] in

  (* per-client scripts, and the system's durable request bookkeeping *)
  let scripts =
    Array.init clients (fun c ->
        let crng = Random.State.make [| c; 5 |] in
        ref
          (List.init requests_per_client (fun _ ->
               let k = Random.State.int crng key_space in
               match Random.State.int crng 3 with
               | 0 -> `Insert k
               | 1 -> `Delete k
               | _ -> `Find k)))
  in
  let pending = Array.make clients None in
  let responses = ref [] in

  let serve c (_ : int) =
    let rec go () =
      match !(scripts.(c)) with
      | [] -> ()
      | req :: rest ->
          pending.(c) <- Some req;
          let resp = T.apply tree req in
          responses := (req, resp) :: !responses;
          pending.(c) <- None;
          scripts.(c) := rest;
          go ()
    in
    go ()
  in
  let recover c (_ : int) =
    match pending.(c) with
    | None -> ()
    | Some req ->
        let resp = T.recover tree req in
        responses := (req, resp) :: !responses;
        pending.(c) <- None;
        (match !(scripts.(c)) with
        | _ :: rest -> scripts.(c) := rest
        | [] -> ())
  in

  let crashes = ref 0 in
  let rec run round bodies =
    match
      Sim.run ~policy:`Random ~seed:round
        ~crash_at:(if !crashes < 5 then 2_000 + Random.State.int rng 12_000 else -1)
        bodies
    with
    | Sim.All_done ->
        if Array.exists (fun p -> p <> None) pending then
          run (round + 1) (Array.init clients recover)
        else if Array.exists (fun s -> !s <> []) scripts then
          run (round + 1) (Array.init clients serve)
        else ()
    | Sim.Crashed_at step ->
        incr crashes;
        Printf.printf "power failure #%d at step %d — recovering %d pending \
                       requests\n"
          !crashes step
          (Array.fold_left
             (fun n p -> if p = None then n else n + 1)
             0 pending);
        Pmem.crash ~rng heap;
        run (round + 1) (Array.init clients recover)
  in
  run 0 (Array.init clients serve);

  (* Validate: reconstruct per-key membership from responses alone. *)
  let si = Hashtbl.create 64 and sd = Hashtbl.create 64 in
  let bump h k = Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)) in
  List.iter
    (fun (req, resp) ->
      match (req, resp) with
      | `Insert k, true -> bump si k
      | `Delete k, true -> bump sd k
      | _ -> ())
    !responses;
  let contents = T.to_list tree in
  let ok = ref true in
  for k = 0 to key_space - 1 do
    let net =
      Option.value ~default:0 (Hashtbl.find_opt si k)
      - Option.value ~default:0 (Hashtbl.find_opt sd k)
    in
    let present = List.mem k contents in
    if net < 0 || net > 1 || present <> (net = 1) then begin
      ok := false;
      Printf.printf "INCONSISTENT key %d: net=%d present=%b\n" k net present
    end
  done;
  Printf.printf
    "served %d requests across %d crashes; final size %d; consistent: %b\n"
    (List.length !responses) !crashes (List.length contents) !ok;
  match T.check_invariants tree with
  | Ok () -> print_endline "tree invariants hold"
  | Error m -> failwith m
