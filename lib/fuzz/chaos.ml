module Server = Cinm_serve_lib.Server
module Client = Cinm_serve_lib.Client
module Json = Cinm_serve_lib.Json

type report = {
  sent : int;
  disconnects : int;
  ok : int;
  errors : int;
  counters_total : int;
  clean_drain : bool;
  violations : string list;
}

let known_codes =
  List.map Cinm_serve_lib.Protocol.code_name Cinm_serve_lib.Protocol.all_codes

let benchmarks = [| "va"; "red"; "mm"; "mv" |]
let max_line = 4096

(* Deterministic request line for (seed, i); [None] id = no echo check. *)
let request_line ~seed i : string * string option =
  let rng = Rng.make ((seed * 1_000_003) + i) in
  let id = Printf.sprintf "c%d-%d" seed i in
  let bench () = Rng.pick rng benchmarks in
  match Rng.int rng 16 with
  | 0 | 1 | 2 | 3 | 4 | 5 ->
    (Json.to_string (Client.make_request ~id ~benchmark:(bench ()) "run"), Some id)
  | 6 ->
    ( Json.to_string
        (Client.make_request ~id ~benchmark:(bench ()) ~strict:true "run"),
      Some id )
  | 7 ->
    (Json.to_string (Client.make_request ~id ~benchmark:(bench ()) "compile"), Some id)
  | 8 -> (Json.to_string (Client.make_request ~id "health"), Some id)
  | 9 -> ("{\"op\": run, oops", None) (* malformed JSON *)
  | 10 -> (String.make (max_line + 904) 'x', None) (* oversized line *)
  | 11 ->
    ( Json.to_string (Client.make_request ~id ~benchmark:(bench ()) ~max_steps:5 "run"),
      Some id ) (* watchdog bait *)
  | 12 ->
    ( Json.to_string
        (Client.make_request ~id ~benchmark:(bench ()) ~deadline_s:1e-6 "run"),
      Some id ) (* already past its deadline at admission *)
  | 13 ->
    (Json.to_string (Client.make_request ~id ~benchmark:"no-such-kernel" "run"), Some id)
  | 14 ->
    ( Json.to_string
        (Client.make_request ~id ~benchmark:(bench ())
           ~faults:(Printf.sprintf "dpu_fail=0.3,dpu_transient=0.2,seed=%d" i)
           "run"),
      Some id ) (* fault storm: must still answer ok or a structured error *)
  | _ ->
    ( Json.to_string
        (Client.make_request ~id ~benchmark:(bench ()) ~interp:"compiled" "run"),
      Some id )

type tally = {
  mutable ok : int;
  mutable errors : int;
  mutable violations : string list;
}

let violate t fmt =
  Printf.ksprintf (fun s -> t.violations <- s :: t.violations) fmt

let check_response t ~sent_id line =
  match Json.parse line with
  | exception Json.Parse_error _ -> violate t "unparsable response: %s" line
  | j -> (
    (match (sent_id, Json.string_field j "id") with
    | Some want, Some got when want <> got ->
      violate t "id echo mismatch: sent %s, got %s" want got
    | Some want, None -> violate t "response dropped id %s" want
    | _ -> ());
    match Json.bool_field j "ok" with
    | Some true -> t.ok <- t.ok + 1
    | Some false -> (
      let code =
        match Json.member "error" j with
        | Some e -> Json.string_field e "code"
        | None -> None
      in
      match code with
      | Some c when List.mem c known_codes -> t.errors <- t.errors + 1
      | Some c -> violate t "unknown error code %S" c
      | None -> violate t "error response without code: %s" line)
    | None -> violate t "response without ok field: %s" line)

let client_worker ~seed ~socket ~first ~count t =
  let c = Client.connect ~attempts:40 socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      for i = first to first + count - 1 do
        let line, sent_id = request_line ~seed i in
        match Client.request_raw c line with
        | resp -> check_response t ~sent_id resp
        | exception Client.Server_gone msg ->
          violate t "server gone on request %d: %s" i msg
      done)

(* A complete request line whose connection dies before the response is
   read: the server must process (and count) the request and absorb the
   failed write. *)
let disconnecting_send ~socket line =
  let c = Client.connect ~attempts:40 socket in
  (try
     match Client.request_raw c line with
     | _ -> () (* response won the race; also fine *)
     | exception Client.Server_gone _ -> ()
   with _ -> ());
  Client.close c

let disconnect_line ~seed i =
  let id = Printf.sprintf "disc%d-%d" seed i in
  if i mod 2 = 0 then Json.to_string (Client.make_request ~id "health")
  else Json.to_string (Client.make_request ~id ~benchmark:"va" "run")

(* Disconnects that really do abandon the response: write the line raw,
   then close immediately. *)
let raw_disconnect ~socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    let payload = Bytes.of_string (line ^ "\n") in
    ignore (Unix.write fd payload 0 (Bytes.length payload));
    Unix.close fd
  | exception Unix.Unix_error _ -> Unix.close fd

let scrape_counters_total ~socket =
  match
    let c = Client.connect socket in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> Client.request c (Client.make_request "metrics"))
  with
  | exception _ -> -1
  | mresp -> (
    match Json.member "counters" mresp with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (name, v) ->
          if String.starts_with ~prefix:"cinm_serve_responses_total{" name then
            acc + Option.value (Json.get_int v) ~default:0
          else acc)
        0 fields
    | _ -> -1)

let run ?socket ?(requests = 400) ?(clients = 8) ?(seed = 0) () =
  let external_daemon = socket <> None in
  let sock =
    match socket with
    | Some s -> s
    | None -> Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "cinm-chaos-%d.sock" (Unix.getpid ()))
  in
  let daemon =
    if external_daemon then None
    else begin
      (try Unix.unlink sock with Unix.Unix_error _ -> ());
      let opts =
        {
          (Server.default_opts ~socket_path:sock ()) with
          Server.jobs = 2;
          max_inflight = 64;
          max_request_bytes = max_line;
          drain_grace_s = 30.0;
        }
      in
      let srv = Server.create opts in
      Some (Thread.create Server.run srv)
    end
  in
  let per = max 1 (requests / clients) in
  let tallies = Array.init clients (fun _ -> { ok = 0; errors = 0; violations = [] }) in
  let threads =
    List.init clients (fun k ->
        Thread.create
          (fun () ->
            client_worker ~seed ~socket:sock ~first:(k * per) ~count:per
              tallies.(k))
          ())
  in
  (* mid-stream disconnects ride alongside the normal clients *)
  let disconnects = max 4 (requests / 40) in
  let disc_thread =
    Thread.create
      (fun () ->
        for i = 0 to disconnects - 1 do
          let line = disconnect_line ~seed i in
          if i mod 2 = 0 then raw_disconnect ~socket:sock line
          else disconnecting_send ~socket:sock line
        done)
      ()
  in
  List.iter Thread.join threads;
  Thread.join disc_thread;
  let sent = (clients * per) + disconnects in
  let counters_total = if external_daemon then -1 else scrape_counters_total ~socket:sock in
  let clean_drain =
    if external_daemon then true
    else
      match daemon with
      | None -> true
      | Some thread -> (
        match
          let c = Client.connect sock in
          let resp = Client.request c (Client.make_request "shutdown") in
          Client.close c;
          Thread.join thread;
          resp
        with
        | resp -> Json.bool_field resp "ok" = Some true
        | exception _ -> false)
  in
  let ok = Array.fold_left (fun a x -> a + x.ok) 0 tallies in
  let errors = Array.fold_left (fun a x -> a + x.errors) 0 tallies in
  let violations =
    ref (Array.fold_left (fun a x -> x.violations @ a) [] tallies)
  in
  let answered = clients * per in
  if ok + errors <> answered then
    violations :=
      Printf.sprintf "responses read (%d ok + %d err) != requests answered (%d)"
        ok errors answered
      :: !violations;
  if errors = 0 then
    violations := "hostile mix produced no structured errors" :: !violations;
  if ok = 0 then violations := "no request succeeded at all" :: !violations;
  (* counters commit before the response write, so the sum covers every
     processed request; disconnected lines may legally lose the race
     between EOF teardown and the read of an already-buffered line *)
  if (not external_daemon)
     && not (counters_total >= answered && counters_total <= sent)
  then
    violations :=
      Printf.sprintf "responses_total=%d outside [%d, %d]" counters_total
        answered sent
      :: !violations;
  if not clean_drain then violations := "shutdown drain was not clean" :: !violations;
  { sent; disconnects; ok; errors; counters_total; clean_drain; violations = !violations }
