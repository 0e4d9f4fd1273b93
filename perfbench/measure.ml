(* Host-side measurement helpers: the clock, process age, peak memory,
   order statistics, and the environment a result was measured in. *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> None

(* VmHWM of /proc/self/status: the process's peak resident set. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> failwith "peak RSS needs /proc/self/status"
  | Some status ->
      let line =
        List.find
          (fun l -> String.starts_with ~prefix:"VmHWM:" l)
          (String.split_on_char '\n' status)
      in
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* ---- order statistics ---------------------------------------------------- *)

type summary = { median : float; p25 : float; p75 : float; n : int }

let sorted xs = List.sort Float.compare xs |> Array.of_list

(* Cut point [i] of [n] quantiles of the sorted [a] by the "exclusive"
   method of Python's statistics.quantiles, the method the spread checks
   use, so a summary printed here matches one recomputed there. *)
let quantile a ~n i =
  let ld = Array.length a in
  if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n

let median xs =
  if xs = [] then invalid_arg "median of no samples";
  quantile (sorted xs) ~n:2 1

let summarize xs =
  let a = sorted xs in
  if Array.length a = 0 then invalid_arg "summary of no samples";
  {
    median = quantile a ~n:2 1;
    p25 = quantile a ~n:4 1;
    p75 = quantile a ~n:4 3;
    n = Array.length a;
  }

(* ---- environment --------------------------------------------------------- *)

(* HEAD of the checkout when it is a git work tree, read from .git
   directly: running git would search parent directories too. *)
let git_head () =
  let resolve ref_ =
    match read_file (Filename.concat ".git" ref_) with
    | Some h -> Some (String.trim h)
    | None -> (
        match read_file ".git/packed-refs" with
        | None -> None
        | Some packed ->
            List.find_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ hash; r ] when r = ref_ -> Some hash
                | _ -> None)
              (String.split_on_char '\n' packed))
  in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; ref_ ] -> Option.value (resolve ref_) ~default:"unknown"
      | _ -> head)

let nproc () = Domain.recommended_domain_count ()

(* ---- output -------------------------------------------------------------- *)

(* A float with every digit, as JSON accepts it. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "non-finite metric value"
