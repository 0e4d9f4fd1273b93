(* JSON for the harness: the one string escaper every hand-written
   emitter uses, and a minimal recursive-descent reader for re-reading
   emitted files (Perfetto validation, BENCHMARK.json). *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ---- reader ------------------------------------------------------------ *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then advance ()
    else raise (Bad (Printf.sprintf "expected '%c' at offset %d" c !pos))
  in
  let lit w v =
    let k = String.length w in
    if !pos + k <= n && String.sub s !pos k = w then begin
      pos := !pos + k;
      v
    end
    else raise (Bad (Printf.sprintf "bad literal at offset %d" !pos))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      match s.[!pos] with
      | '"' ->
          advance ();
          Buffer.contents b
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then raise (Bad "truncated \\u escape");
              let h = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ h) with
              | None -> raise (Bad "bad \\u escape")
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ ->
                  (* non-ASCII: keep escaped, enough for validation *)
                  Buffer.add_string b ("\\u" ^ h))
          | _ -> raise (Bad (Printf.sprintf "bad escape at offset %d" !pos)));
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    if peek () = '-' then advance ();
    while
      match peek () with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> raise (Bad (Printf.sprintf "bad number at offset %d" start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | '-' | '0' .. '9' -> num ()
    | c -> raise (Bad (Printf.sprintf "unexpected '%c' at offset %d" c !pos))
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then begin
      advance ();
      Arr []
    end
    else
      let rec items acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            items (v :: acc)
        | ']' ->
            advance ();
            Arr (List.rev (v :: acc))
        | _ -> raise (Bad (Printf.sprintf "expected ',' or ']' at %d" !pos))
      in
      items []
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then begin
      advance ();
      Obj []
    end
    else
      let rec fields acc =
        skip_ws ();
        let k = str () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            fields ((k, v) :: acc)
        | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
        | _ -> raise (Bad (Printf.sprintf "expected ',' or '}' at %d" !pos))
      in
      fields []
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Bad m -> Error m

(* ---- field accessors --------------------------------------------------- *)

let field k fields = List.assoc_opt k fields
let fnum k fields = match field k fields with Some (Num f) -> Some f | _ -> None
let fstr k fields = match field k fields with Some (Str s) -> Some s | _ -> None

let fbool k fields =
  match field k fields with Some (Bool b) -> Some b | _ -> None

let fint k fields = Option.map int_of_float (fnum k fields)
