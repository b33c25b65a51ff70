module Json = Cinm_serve_lib.Json

let load path = Json.parse (In_channel.with_open_bin path In_channel.input_all)

let experiments doc =
  match Json.member "experiments" doc with
  | Some (Json.List es) ->
    List.map (fun e -> (Option.value (Json.string_field e "name") ~default:"", e)) es
  | _ -> []

(* wall_s is host time and jobs the runner's core count: neither is
   simulated, so neither is pinned *)
let without keys = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
  | j -> j

let diff ~pin run =
  let header doc = without [ "jobs"; "experiments" ] doc in
  let differs what a b =
    Printf.sprintf "%s differs from the pin:\n  run: %s\n  pin: %s" what (Json.to_string a)
      (Json.to_string b)
  in
  let header_diff =
    if header run = header pin then [] else [ differs "the header" (header run) (header pin) ]
  in
  let pinned = experiments pin in
  match experiments run with
  | [] -> header_diff @ [ "the run has no experiments" ]
  | exps ->
    header_diff
    @ List.filter_map
        (fun (name, e) ->
          match List.assoc_opt name pinned with
          | None -> Some (Printf.sprintf "experiment %s is not in the pin" name)
          | Some p ->
            let e = without [ "wall_s" ] e and p = without [ "wall_s" ] p in
            if e = p then None else Some (differs ("experiment " ^ name) e p))
        exps
