(* Checks EXPERIMENTS.md against the output of [ucsim experiments].

   Usage: experiments_doc EXPERIMENTS.md OUTPUT

   OUTPUT is a sequence of blocks, each a "== ID: title ==" line, the
   table, and a blank line. For each block, the first fenced block
   under the document's "## ID — " heading must hold the same lines.
   Every mismatch is reported with the document's line number, and the
   exit status is 1 if there was any. *)

let lines path =
  String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)

(* "== ID: title ==" -> Some ID *)
let block_id line =
  if String.starts_with ~prefix:"== " line then
    Option.map (fun i -> String.sub line 3 (i - 3)) (String.index_opt line ':')
  else None

(* The output's blocks, in order: (id, table lines), without the blank
   lines that separate them. *)
let rec blocks = function
  | [] -> []
  | line :: rest -> (
    match block_id line with
    | None -> blocks rest
    | Some id ->
      let rec table acc = function
        | l :: rest when block_id l = None -> table (l :: acc) rest
        | rest -> (acc, rest)
      in
      let rec strip = function "" :: l -> strip l | l -> l in
      let rev_table, rest = table [] rest in
      (id, List.rev (strip rev_table)) :: blocks rest)

(* The first fenced block of the "## ID — " section: the document line
   number of its first line, and its lines. *)
let documented doc id =
  let heading = "## " ^ id ^ " — " in
  let no_table = Error (Printf.sprintf "no fenced table under \"%s\"" heading) in
  let rec section i = function
    | [] -> Error (Printf.sprintf "no \"%s\" section" heading)
    | l :: rest when String.starts_with ~prefix:heading l -> fence (i + 1) rest
    | _ :: rest -> section (i + 1) rest
  and fence i = function
    | [] -> no_table
    | l :: _ when String.starts_with ~prefix:"## " l -> no_table
    | l :: rest when String.starts_with ~prefix:"```" l -> body (i + 1) [] rest
    | _ :: rest -> fence (i + 1) rest
  and body first acc = function
    | [] -> no_table
    | "```" :: _ -> Ok (first, List.rev acc)
    | l :: rest -> body first (l :: acc) rest
  in
  section 1 doc

(* The first line where [doc] and [out] part: its index and both sides. *)
let rec first_difference k doc out =
  match (doc, out) with
  | [], [] -> None
  | d :: ds, o :: os when d = o -> first_difference (k + 1) ds os
  | d :: _, o :: _ -> Some (k, d, o)
  | d :: _, [] -> Some (k, d, "(end of table)")
  | [], o :: _ -> Some (k, "(end of table)", o)

let () =
  let doc = lines Sys.argv.(1) and output = blocks (lines Sys.argv.(2)) in
  let name = Filename.basename Sys.argv.(1) in
  if output = [] then begin
    prerr_endline "experiments_doc: the program printed no experiment";
    exit 1
  end;
  let failures =
    List.filter
      (fun (id, table) ->
        match documented doc id with
        | Error what ->
          Printf.eprintf "%s: %s\n" name what;
          true
        | Ok (first, lines) -> (
          match first_difference 0 lines table with
          | None -> false
          | Some (k, d, o) ->
            Printf.eprintf
              "%s:%d: the %s table differs from `ucsim experiments %s`\n\
              \  documented: %s\n\
              \  printed:    %s\n"
              name (first + k) id id d o;
            true))
      output
  in
  if failures <> [] then begin
    Printf.eprintf
      "%d of %d tables in %s differ from the program's output; regenerate them \
       with `ucsim experiments ID`\n"
      (List.length failures) (List.length output) name;
    exit 1
  end
