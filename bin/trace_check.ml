(* Validate a Chrome trace-event JSON file (the `apnad trace --chrome`
   output): the document must be a non-empty JSON array whose every
   element is an object carrying a string "name", a string "ph" and a
   numeric "ts", and at least one element must be a stage (a "ph":"X"
   complete event) with a numeric "dur" >= 0. Used by `make check` and
   CI; exits non-zero with a diagnostic on the first violation. *)

module Json = Apna_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace_check: " ^ s); exit 1) fmt

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
        prerr_endline "usage: trace_check FILE.json";
        exit 2
  in
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error e -> fail "%s" e
  in
  match Json.parse text with
  | Error e -> fail "%s does not parse as JSON: %s" path e
  | Ok (Json.List []) -> fail "%s is an empty trace" path
  | Ok (Json.List entries) ->
      let stages = ref 0 in
      List.iteri
        (fun i entry ->
          let field name =
            match Json.member name entry with
            | Some v -> v
            | None -> fail "entry %d lacks %S" i name
          in
          (match field "name" with
          | Json.Str _ -> ()
          | _ -> fail "entry %d: \"name\" is not a string" i);
          (match field "ph" with
          | Json.Str "X" -> (
              match Json.number (field "dur") with
              | Some dur when dur >= 0.0 -> incr stages
              | _ -> fail "entry %d: \"dur\" is not a number >= 0" i)
          | Json.Str _ -> ()
          | _ -> fail "entry %d: \"ph\" is not a string" i);
          match Json.number (field "ts") with
          | Some _ -> ()
          | None -> fail "entry %d: \"ts\" is not a number" i)
        entries;
      if !stages = 0 then fail "%s has no \"ph\":\"X\" stage entries" path;
      Printf.printf "trace_check: %s OK (%d entries, %d stages)\n" path
        (List.length entries) !stages
  | Ok _ -> fail "%s: top level is not a JSON array" path
