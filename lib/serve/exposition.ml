(* Client side of the daemon's Prometheus listener: a free-port helper,
   a minimal HTTP GET, and a validator for the text exposition subset the
   daemon emits. *)

(* Ask the kernel for a free localhost port; the daemon binds it moments
   later (the tiny race is acceptable for a test harness). *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> 0)

(* index of the first occurrence of [needle] in [hay], if any *)
let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
          path
      in
      let b = Bytes.of_string req in
      let n = Bytes.length b in
      let off = ref 0 in
      while !off < n do
        let w = Unix.write fd b !off (n - !off) in
        if w <= 0 then failwith "http_get: write failed";
        off := !off + w
      done;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec slurp () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          slurp ()
      in
      slurp ();
      let raw = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> ( try int_of_string code with Failure _ -> 0)
        | _ -> 0
      in
      let body =
        match find_sub raw "\r\n\r\n" with
        | Some i -> String.sub raw (i + 4) (String.length raw - i - 4)
        | None -> ""
      in
      (status, body))

(* ----- the text-format checker ----- *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let valid_name s =
  s <> "" && (not (s.[0] >= '0' && s.[0] <= '9')) && String.for_all is_name_char s

(* "name{labels} value" or "name value" -> (name-with-labels, value) *)
let parse_sample line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some sp -> (
    let name = String.sub line 0 sp in
    let value = String.sub line (sp + 1) (String.length line - sp - 1) in
    match float_of_string_opt value with
    | None -> None
    | Some v ->
      let bare =
        match String.index_opt name '{' with
        | Some br ->
          if name.[String.length name - 1] = '}' then String.sub name 0 br else ""
        | None -> name
      in
      if valid_name bare then Some (name, v) else None)

type report = {
  families : (string * string) list;
  series : int;
  problems : string list;
}

let check body =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let types = ref [] in
  (* (name-with-labels, value), emission order *)
  let samples = ref [] in
  List.iter
    (fun line ->
      if line = "" || String.starts_with ~prefix:"# HELP " line then ()
      else if String.starts_with ~prefix:"# TYPE " line then (
        match String.split_on_char ' ' (String.sub line 7 (String.length line - 7)) with
        | [ name; ty ]
          when valid_name name && List.mem ty [ "counter"; "gauge"; "histogram" ] ->
          if List.mem_assoc name !types then err "duplicate TYPE for %s" name
          else types := (name, ty) :: !types
        | _ -> err "malformed TYPE line: %s" line)
      else if line.[0] = '#' then err "unknown comment: %s" line
      else
        match parse_sample line with
        | Some s -> samples := s :: !samples
        | None -> err "malformed sample line: %s" line)
    (String.split_on_char '\n' body);
  let samples = List.rev !samples in
  let families = List.rev !types in
  List.iter
    (fun (fam, ty) ->
      if ty = "histogram" then begin
        let buckets =
          List.filter (fun (n, _) -> String.starts_with ~prefix:(fam ^ "_bucket{") n) samples
        in
        match List.rev buckets with
        | [] -> err "histogram %s has no _bucket series" fam
        | (last, inf_count) :: _ ->
          if find_sub last "le=\"+Inf\"" = None then
            err "histogram %s: last bucket is not le=\"+Inf\"" fam;
          (match List.assoc_opt (fam ^ "_count") samples with
          | Some c when c = inf_count -> ()
          | Some c -> err "histogram %s: +Inf bucket %g <> _count %g" fam inf_count c
          | None -> err "histogram %s has no _count" fam);
          if not (List.mem_assoc (fam ^ "_sum") samples) then
            err "histogram %s has no _sum" fam;
          ignore
            (List.fold_left
               (fun prev (_, v) ->
                 if v < prev then err "histogram %s: bucket counts decrease" fam;
                 v)
               0.0 buckets)
      end)
    families;
  { families; series = List.length samples; problems = List.rev !problems }

let scrape ~port =
  match http_get ~port "/metrics" with
  | exception e -> Error [ "GET /metrics: " ^ Printexc.to_string e ]
  | 200, body ->
    let r = check body in
    if r.problems = [] then Ok r else Error r.problems
  | status, _ -> Error [ Printf.sprintf "GET /metrics: HTTP %d" status ]
