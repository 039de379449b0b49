(* Shape guard: no top-level binding of the modules given on the
   command line (every [lib/dist/*.ml], through dune deps) runs over
   150 lines, so the supervisor cannot grow back into one closure.  A
   [let … and …] group counts per binding; every other structure item
   (a type, a module) counts whole. *)

let limit = 150

(* (name, first line, lines) of every top-level binding of [path]. *)
let bindings path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  let span (loc : Location.t) =
    (loc.loc_start.pos_lnum, loc.loc_end.pos_lnum - loc.loc_start.pos_lnum + 1)
  in
  Parse.implementation lexbuf
  |> List.concat_map (fun (item : Parsetree.structure_item) ->
         match item.pstr_desc with
         | Pstr_value (_, vbs) ->
             List.map
               (fun (vb : Parsetree.value_binding) ->
                 let name =
                   match vb.pvb_pat.ppat_desc with
                   | Ppat_var v -> v.txt
                   | _ -> "_"
                 in
                 let first, n = span vb.pvb_loc in
                 (name, first, n))
               vbs
         | _ ->
             let first, n = span item.pstr_loc in
             [ ("(item)", first, n) ])

let test_no_long_binding files () =
  Alcotest.(check bool) "lib/dist sources given" true (files <> []);
  let over =
    List.concat_map
      (fun path ->
        List.filter_map
          (fun (name, first, n) ->
            if n > limit then
              Some (Printf.sprintf "%s:%d %s (%d lines)" path first name n)
            else None)
          (bindings path))
      files
  in
  Alcotest.(check (list string))
    (Printf.sprintf "top-level bindings over %d lines" limit)
    [] over

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "shape"
    [
      ( "lib/dist",
        [
          Alcotest.test_case "no top-level binding over 150 lines" `Quick
            (test_no_long_binding files);
        ] );
    ]
