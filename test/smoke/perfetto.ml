module Json = Cinm_serve_lib.Json

let shape_error e =
  let num k = Json.float_field e k <> None in
  let missing = List.filter (fun k -> not (num k)) in
  let need keys =
    match missing keys with
    | [] -> None
    | ks -> Some ("missing numeric " ^ String.concat ", " ks)
  in
  match Json.string_field e "ph" with
  | Some "X" -> (
    match need [ "pid"; "tid"; "ts"; "dur" ] with
    | None when Json.string_field e "name" = None -> Some "span without a name"
    | r -> r)
  | Some "i" -> (
    match need [ "pid"; "tid"; "ts" ] with
    | None when Json.string_field e "s" <> Some "t" -> Some "instant without thread scope"
    | r -> r)
  | Some "M" -> need [ "pid"; "tid" ]
  | Some ph -> Some (Printf.sprintf "unexpected phase %S" ph)
  | None -> Some "no phase"

let events text =
  match Json.parse text with
  | exception Json.Parse_error e -> Error ("not JSON: " ^ Json.error_to_string e)
  | doc -> (
    match Json.member "traceEvents" doc with
    | Some (Json.List []) -> Error "empty traceEvents"
    | Some (Json.List evs) -> (
      match List.find_map (fun e -> Option.map (fun m -> (e, m)) (shape_error e)) evs with
      | None -> Ok evs
      | Some (e, msg) -> Error (Printf.sprintf "%s: %s" msg (Json.to_string e)))
    | _ -> Error "no traceEvents array")

let spans = List.filter (fun e -> Json.string_field e "ph" = Some "X")
