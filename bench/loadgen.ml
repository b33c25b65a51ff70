(* loadgen: a latency sweep for the cinm_serve daemon.

   It starts an in-process daemon, drives it with well-formed
   run/compile/health requests at several concurrency levels, and reports
   p50/p95/p99 latency and request throughput per level (--json writes the
   pinned BENCH_pr8.json). After the sweep it scrapes the daemon's own
   telemetry — the "metrics" protocol op and the Prometheus text
   exposition over HTTP — validates the exposition format, and
   cross-checks the server-side latency histogram against the
   client-observed percentiles: the populations are identical (all
   admitted requests, warm-up included), so the server quantiles must
   bracket the client ones within the histogram's ~4.4% bucket resolution
   plus transport overhead. Both views are pinned in the JSON output.
   Hostile traffic is the chaos harness's job (cinm_fuzz --chaos).

   The daemon runs in-process on a background thread (the event loop
   blocks in select, workers are pool domains) and clients are plain
   blocking threads — the harness measures the service, not the harness. *)

module Server = Cinm_serve_lib.Server
module Client = Cinm_serve_lib.Client
module Json = Cinm_serve_lib.Json
module Exposition = Cinm_serve_lib.Exposition

let known_codes =
  List.map Cinm_serve_lib.Protocol.code_name Cinm_serve_lib.Protocol.all_codes

(* ----- request mix ----- *)

let benchmarks = [| "va"; "red"; "mm"; "mv"; "sel"; "hst-l" |]

(* Every 11th request is a health ping (inline op, no latency contract);
   the rest are heavy (admitted) ops. The server's request histogram
   only sees admitted ops, so the client must pool exactly these. *)
let is_health i = i mod 11 = 10

(* Deterministic, well-formed per-index request line. *)
let request_line i =
  let bench = benchmarks.(i mod Array.length benchmarks) in
  let id = Printf.sprintf "r%d" i in
  if is_health i then Json.to_string (Client.make_request ~id "health")
  else if i mod 13 = 12 then
    Json.to_string (Client.make_request ~id ~benchmark:bench "compile")
  else Json.to_string (Client.make_request ~id ~benchmark:bench "run")

(* ----- one client worker ----- *)

type outcome = {
  mutable n_ok : int;
  mutable n_error : int;
  mutable n_bad : int;  (* responses violating the protocol contract *)
  mutable latencies : float list;  (* seconds, admitted well-formed ops only *)
}

let new_outcome () =
  { n_ok = 0; n_error = 0; n_bad = 0; latencies = [] }

let check_response out line =
  match Json.parse line with
  | exception Json.Parse_error _ -> out.n_bad <- out.n_bad + 1
  | j -> (
    match Json.bool_field j "ok" with
    | Some true -> out.n_ok <- out.n_ok + 1
    | Some false -> (
      let code =
        match Json.member "error" j with
        | Some err -> Json.string_field err "code"
        | None -> None
      in
      match code with
      | Some c when List.mem c known_codes -> out.n_error <- out.n_error + 1
      | _ -> out.n_bad <- out.n_bad + 1)
    | None -> out.n_bad <- out.n_bad + 1)

let client_worker ~socket ~first ~count out =
  let c = Client.connect ~attempts:40 socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      for i = first to first + count - 1 do
        let line = request_line i in
        let t0 = Unix.gettimeofday () in
        match Client.request_raw c line with
        | resp ->
          let dt = Unix.gettimeofday () -. t0 in
          check_response out resp;
          (* health pings are inline (the server's request histogram
             never sees them); measure the admitted rest *)
          if not (is_health i) then out.latencies <- dt :: out.latencies
        | exception Client.Server_gone _ -> out.n_bad <- out.n_bad + 1
      done)

(* ----- percentiles ----- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* ----- daemon lifecycle ----- *)

let start_daemon ~socket ~jobs ~max_inflight ~metrics_port =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let opts =
    {
      (Server.default_opts ~socket_path:socket ()) with
      Server.jobs;
      max_inflight;
      drain_grace_s = 30.0;
      metrics_port;
    }
  in
  let srv = Server.create opts in
  (srv, Thread.create Server.run srv)

let stop_daemon ~socket thread =
  let c = Client.connect socket in
  let resp = Client.request c (Client.make_request "shutdown") in
  Client.close c;
  Thread.join thread;
  Json.bool_field resp "ok" = Some true

(* Scrape the "metrics" op; returns the parsed response. *)
let scrape_metrics ~socket =
  let c = Client.connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.request c (Client.make_request "metrics"))

(* Server-side view of one histogram from the metrics op, in ms. *)
type hist_view = {
  hv_count : int;
  hv_p50_ms : float;
  hv_p95_ms : float;
  hv_p99_ms : float;
  hv_max_ms : float;
}

let hist_view mresp name =
  match Json.member "histograms" mresp with
  | None -> None
  | Some hs -> (
    match Json.member name hs with
    | None -> None
    | Some h ->
      let f k = Option.value (Json.float_field h k) ~default:0.0 in
      Some
        {
          hv_count = Option.value (Json.int_field h "count") ~default:0;
          hv_p50_ms = 1e3 *. f "p50";
          hv_p95_ms = 1e3 *. f "p95";
          hv_p99_ms = 1e3 *. f "p99";
          hv_max_ms = 1e3 *. f "max";
        })

(* ----- modes ----- *)

let run_level ~socket ~concurrency ~requests =
  let per = requests / concurrency in
  let outs = Array.init concurrency (fun _ -> new_outcome ()) in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init concurrency (fun k ->
        Thread.create
          (fun () ->
            client_worker ~socket ~first:(k * per) ~count:per outs.(k))
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let total = new_outcome () in
  Array.iter
    (fun o ->
      total.n_ok <- total.n_ok + o.n_ok;
      total.n_error <- total.n_error + o.n_error;
      total.n_bad <- total.n_bad + o.n_bad;
      total.latencies <- o.latencies @ total.latencies)
    outs;
  (total, wall, concurrency * per)

(* Cross-validate the server's latency histogram against the pooled
   client-observed latencies. Both cover the identical population (every
   admitted request, warm-up included; the server clock starts at
   admission, the client clock at write — both include queue wait), so:
   - the server quantile is an upper bound of a bucket that contains the
     true value, at most ~4.6% above it (16 sub-buckets/octave), and the
     client adds only localhost transport on top: server_p <= client_p *
     1.06 + 1 ms;
   - conversely the client latency exceeds the server's span by
     transport + event-loop parse only: client_p <= server_p * 1.25 +
     5 ms (the server quantile already over-reports by its bucket). *)
let cross_check ~client_count (lat : float array) (sv : hist_view) =
  let ms p = percentile lat p *. 1e3 in
  let pass = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        pass := false;
        Printf.printf "CROSS-CHECK FAIL: %s\n%!" s)
      fmt
  in
  if sv.hv_count <> client_count then
    fail "server saw %d requests, clients measured %d" sv.hv_count
      client_count;
  List.iter
    (fun (name, p, server_ms) ->
      let client_ms = ms p in
      Printf.printf
        "  %-4s  client %8.2f ms   server %8.2f ms (histogram)\n%!" name
        client_ms server_ms;
      if server_ms > (client_ms *. 1.06) +. 1.0 then
        fail "server %s %.2f ms above client %.2f ms + tolerance" name
          server_ms client_ms;
      if client_ms > (server_ms *. 1.25) +. 5.0 then
        fail "client %s %.2f ms above server %.2f ms + tolerance" name
          client_ms server_ms)
    [
      ("p50", 0.50, sv.hv_p50_ms);
      ("p95", 0.95, sv.hv_p95_ms);
      ("p99", 0.99, sv.hv_p99_ms);
    ];
  !pass

let sweep ~socket ~jobs ~levels ~requests ~json_out =
  let metrics_port = Exposition.free_port () in
  let _srv, thread =
    start_daemon ~socket ~jobs ~metrics_port
      ~max_inflight:(16 * List.length levels * 8)
  in
  (* warm: first connection compiles the hot benchmarks once; these are
     admitted requests, so they count in both latency populations *)
  let warm_lat = ref [] in
  let c = Client.connect ~attempts:40 socket in
  Array.iter
    (fun b ->
      let t0 = Unix.gettimeofday () in
      ignore (Client.request c (Client.make_request ~benchmark:b "run"));
      warm_lat := (Unix.gettimeofday () -. t0) :: !warm_lat)
    benchmarks;
  Client.close c;
  let rows =
    List.map
      (fun concurrency ->
        let total, wall, sent =
          run_level ~socket ~concurrency ~requests
        in
        let lat = Array.of_list (List.sort compare total.latencies) in
        let ms p = percentile lat p *. 1e3 in
        Printf.printf
          "c=%-3d  %6d req  %8.1f req/s  p50 %6.2f ms  p95 %6.2f ms  p99 %6.2f ms%s\n%!"
          concurrency sent
          (float_of_int sent /. wall)
          (ms 0.50) (ms 0.95) (ms 0.99)
          (if total.n_bad > 0 then Printf.sprintf "  [%d BAD]" total.n_bad else "");
        (concurrency, sent, wall, ms 0.50, ms 0.95, ms 0.99, total))
      levels
  in
  (* pooled client population = warm-up + every level's admitted ops *)
  let pooled =
    List.fold_left
      (fun acc (_, _, _, _, _, _, t) -> t.latencies @ acc)
      !warm_lat rows
  in
  let lat = Array.of_list (List.sort compare pooled) in
  let cms p = percentile lat p *. 1e3 in
  (* scrape the daemon's own telemetry before shutting it down *)
  let mresp = scrape_metrics ~socket in
  let server_req = hist_view mresp "cinm_serve_request_seconds" in
  let server_queue = hist_view mresp "cinm_serve_queue_wait_seconds" in
  let expo = Exposition.scrape ~port:metrics_port in
  let expo_ok, families, series =
    match expo with
    | Ok r -> (true, List.length r.Exposition.families, r.Exposition.series)
    | Error problems ->
      Printf.printf "exposition INVALID: %s\n%!" (String.concat "; " problems);
      (false, 0, 0)
  in
  Printf.printf "exposition: %d families, %d series\n%!" families series;
  let crossed =
    match server_req with
    | None ->
      Printf.printf
        "CROSS-CHECK FAIL: no cinm_serve_request_seconds histogram\n%!";
      false
    | Some sv ->
      Printf.printf "cross-check over %d pooled requests:\n%!"
        (Array.length lat);
      cross_check ~client_count:(Array.length lat) lat sv
  in
  let ok = stop_daemon ~socket thread in
  if not ok then prerr_endline "loadgen: shutdown response was not ok";
  (match json_out with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 2048 in
    Buffer.add_string buf "{\n  \"schema\": \"cinm-loadgen-2\",\n  \"levels\": [\n";
    List.iteri
      (fun i (c, sent, wall, p50, p95, p99, total) ->
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"concurrency\": %d, \"requests\": %d, \"req_per_s\": %.1f, \
              \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, \
              \"errors\": %d}%s\n"
             c sent
             (float_of_int sent /. wall)
             p50 p95 p99 total.n_error
             (if i = List.length rows - 1 then "" else ","));
        ignore total)
      rows;
    Buffer.add_string buf "  ],\n";
    Buffer.add_string buf
      (Printf.sprintf
         "  \"client\": {\"count\": %d, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
          \"p99_ms\": %.3f, \"max_ms\": %.3f},\n"
         (Array.length lat) (cms 0.50) (cms 0.95) (cms 0.99)
         (if Array.length lat = 0 then 0.0
          else 1e3 *. lat.(Array.length lat - 1)));
    (match (server_req, server_queue) with
    | Some sv, q ->
      Buffer.add_string buf
        (Printf.sprintf
           "  \"server\": {\"count\": %d, \"p50_ms\": %.3f, \"p95_ms\": \
            %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f, \"queue_p95_ms\": \
            %.3f},\n"
           sv.hv_count sv.hv_p50_ms sv.hv_p95_ms sv.hv_p99_ms sv.hv_max_ms
           (match q with Some q -> q.hv_p95_ms | None -> 0.0))
    | None, _ -> Buffer.add_string buf "  \"server\": null,\n");
    Buffer.add_string buf
      (Printf.sprintf
         "  \"exposition\": {\"valid\": %b, \"families\": %d, \"series\": \
          %d},\n"
         expo_ok families series);
    Buffer.add_string buf
      (Printf.sprintf "  \"cross_check\": %b\n}\n" crossed);
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote %s\n%!" path);
  let bad = List.fold_left (fun a (_, _, _, _, _, _, t) -> a + t.n_bad) 0 rows in
  if bad > 0 || (not crossed) || not expo_ok then 1 else 0

(* ----- argv ----- *)

let () =
  let json_out = ref "" in
  let requests = ref 0 in
  let jobs = ref 4 in
  let socket = ref "" in
  let spec =
    [
      ("--json", Arg.Set_string json_out, "FILE write the latency sweep as JSON");
      ("--requests", Arg.Set_int requests, "N per-level requests (default 480)");
      ("--jobs", Arg.Set_int jobs, "N daemon worker domains (default 4)");
      ("--socket", Arg.Set_string socket, "PATH socket path (default: a fresh one in TMPDIR)");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen [--json FILE] [--requests N] [--jobs N]";
  let socket =
    if !socket <> "" then !socket
    else
      Filename.concat
        (try Sys.getenv "TMPDIR" with Not_found -> "/tmp")
        (Printf.sprintf "cinm-loadgen-%d.sock" (Unix.getpid ()))
  in
  exit
    (sweep ~socket ~jobs:!jobs ~levels:[ 1; 4; 8 ]
       ~requests:(if !requests > 0 then !requests else 480)
       ~json_out:(if !json_out = "" then None else Some !json_out))
