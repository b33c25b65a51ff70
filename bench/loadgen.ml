(* loadgen: a load generator + torture harness for the cinm_serve daemon.

   Two modes:

   - the default latency sweep starts an in-process daemon, drives it
     with well-formed run/compile/health requests at several concurrency
     levels, and reports p50/p95/p99 latency and request throughput per
     level (--json writes the pinned BENCH_pr8.json). After the sweep it
     scrapes the daemon's own telemetry — the "metrics" protocol op and
     the Prometheus text exposition over HTTP — validates the exposition
     format, and cross-checks the server-side latency histogram against
     the client-observed percentiles: the populations are identical (all
     admitted requests, warm-up included), so the server quantiles must
     bracket the client ones within the histogram's ~4.4% bucket
     resolution plus transport overhead. Both views are pinned in the
     JSON output.

   - --smoke is the robustness torture test: a fixed mixed stream of
     good, malformed, oversized, over-budget, deadline-doomed and
     fault-injected requests (>= 1000 by default). It asserts that every
     request gets exactly one well-formed JSON response (ok or a
     structured error with a known code), that the daemon never dies
     mid-stream, that the by-code outcome counters in the exposition sum
     to exactly the number of responses, and that shutdown is clean;
     exit status reports the verdict, so CI can run it directly.

   The daemon runs in-process on a background thread (the event loop
   blocks in select, workers are pool domains) and clients are plain
   blocking threads — the harness measures the service, not the harness. *)

module Server = Cinm_serve_lib.Server
module Client = Cinm_serve_lib.Client
module Json = Cinm_serve_lib.Json
module Config = Cinm_support.Config

let known_codes =
  List.map Cinm_serve_lib.Protocol.code_name Cinm_serve_lib.Protocol.all_codes

(* ----- request mix ----- *)

let benchmarks = [| "va"; "red"; "mm"; "mv"; "sel"; "hst-l" |]

(* Every 11th request is a health ping (inline op, no latency contract);
   the rest are heavy (admitted) ops. The server's request histogram
   only sees admitted ops, so the client must pool exactly these. *)
let is_health i = i mod 11 = 10

(* Deterministic per-index request line. In sweep mode every request is
   well-formed; in torture mode every 5th request is hostile (malformed
   JSON, oversized line, watchdog bait, micro-deadline, unknown
   benchmark) and every 7th runs under an injected fault plan. *)
let request_line ~torture i =
  let bench = benchmarks.(i mod Array.length benchmarks) in
  let id = Printf.sprintf "r%d" i in
  if torture && i mod 5 = 3 then
    match i mod 25 with
    | 3 -> "{\"op\": run, oops"
    | 8 -> String.make 5000 'x'
    | 13 ->
      Json.to_string
        (Client.make_request ~id ~benchmark:bench ~max_steps:7 "run")
    | 18 ->
      Json.to_string
        (Client.make_request ~id ~benchmark:bench ~deadline_s:1e-6 "run")
    | _ -> Json.to_string (Client.make_request ~id ~benchmark:"no-such" "run")
  else if torture && i mod 7 = 0 then
    Json.to_string
      (Client.make_request ~id ~benchmark:bench ~faults:"dpu_fail=0.05" "run")
  else if is_health i then Json.to_string (Client.make_request ~id "health")
  else if i mod 13 = 12 then
    Json.to_string (Client.make_request ~id ~benchmark:bench "compile")
  else Json.to_string (Client.make_request ~id ~benchmark:bench "run")

(* ----- one client worker ----- *)

type outcome = {
  mutable n_ok : int;
  mutable n_error : int;
  mutable n_degraded : int;
  mutable n_bad : int;  (* responses violating the protocol contract *)
  mutable latencies : float list;  (* seconds, admitted well-formed ops only *)
}

let new_outcome () =
  { n_ok = 0; n_error = 0; n_degraded = 0; n_bad = 0; latencies = [] }

let check_response out line =
  match Json.parse line with
  | exception Json.Parse_error _ -> out.n_bad <- out.n_bad + 1
  | j -> (
    match Json.bool_field j "ok" with
    | Some true ->
      out.n_ok <- out.n_ok + 1;
      if Json.bool_field j "degraded" = Some true then
        out.n_degraded <- out.n_degraded + 1
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

let client_worker ~torture ~socket ~first ~count out =
  let c = Client.connect ~attempts:40 socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      for i = first to first + count - 1 do
        let line = request_line ~torture i in
        let t0 = Unix.gettimeofday () in
        match Client.request_raw c line with
        | resp ->
          let dt = Unix.gettimeofday () -. t0 in
          check_response out resp;
          (* hostile requests have no latency contract, and health pings
             are inline (the server's request histogram never sees them);
             measure the admitted well-formed rest *)
          if
            (not (torture && (i mod 5 = 3 || i mod 7 = 0)))
            && not (is_health i)
          then out.latencies <- dt :: out.latencies
        | exception Client.Server_gone _ -> out.n_bad <- out.n_bad + 1
      done)

(* ----- percentiles ----- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* ----- telemetry scraping ----- *)

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

(* Minimal blocking HTTP GET against the daemon's exposition listener;
   returns (status code, body). *)
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

(* ----- Prometheus text-format checker -----

   A deliberately small validator for the subset the daemon emits:
   - every line is blank, "# HELP ...", "# TYPE <name> <type>", or a
     sample "<name>[{labels}] <float>";
   - metric names are [a-zA-Z_:][a-zA-Z0-9_:]*;
   - for every family typed "histogram": its _bucket series appear with
     non-decreasing cumulative counts, end in le="+Inf", and the +Inf
     count equals the _count sample; _sum exists. *)

module Promcheck = struct
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'

  let valid_name s =
    s <> ""
    && (not (s.[0] >= '0' && s.[0] <= '9'))
    && String.for_all is_name_char s

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
            if name.[String.length name - 1] = '}' then
              String.sub name 0 br
            else ""
          | None -> name
        in
        if valid_name bare then Some (name, bare, v) else None)

  type result = {
    families : int;
    series : int;
    problems : string list;  (* empty = valid *)
  }

  let check body =
    let problems = ref [] in
    let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    let types = ref [] in
    (* (name-with-labels, bare family, value), emission order *)
    let samples = ref [] in
    List.iter
      (fun line ->
        if line = "" then ()
        else if String.starts_with ~prefix:"# HELP " line then ()
        else if String.starts_with ~prefix:"# TYPE " line then (
          match
            String.split_on_char ' '
              (String.sub line 7 (String.length line - 7))
          with
          | [ name; ty ]
            when valid_name name
                 && List.mem ty [ "counter"; "gauge"; "histogram" ] ->
            if List.mem_assoc name !types then
              err "duplicate TYPE for %s" name
            else types := (name, ty) :: !types
          | _ -> err "malformed TYPE line: %s" line)
        else if line.[0] = '#' then err "unknown comment: %s" line
        else
          match parse_sample line with
          | Some s -> samples := s :: !samples
          | None -> err "malformed sample line: %s" line)
      (String.split_on_char '\n' body);
    let samples = List.rev !samples in
    let value_of full =
      List.find_map
        (fun (n, _, v) -> if n = full then Some v else None)
        samples
    in
    List.iter
      (fun (fam, ty) ->
        if ty = "histogram" then begin
          let buckets =
            List.filter
              (fun (n, _, _) ->
                String.starts_with ~prefix:(fam ^ "_bucket{") n)
              samples
          in
          (match List.rev buckets with
          | [] -> err "histogram %s has no _bucket series" fam
          | (last, _, inf_count) :: _ ->
            let contains hay needle =
              let nh = String.length hay and nn = String.length needle in
              let rec go i =
                i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
              in
              nn = 0 || go 0
            in
            if not (contains last "le=\"+Inf\"") then
              err "histogram %s: last bucket is not le=\"+Inf\"" fam;
            (match value_of (fam ^ "_count") with
            | Some c when c = inf_count -> ()
            | Some c ->
              err "histogram %s: +Inf bucket %g <> _count %g" fam inf_count c
            | None -> err "histogram %s has no _count" fam);
            if value_of (fam ^ "_sum") = None then
              err "histogram %s has no _sum" fam;
            ignore
              (List.fold_left
                 (fun prev (_, _, v) ->
                   if v < prev then
                     err "histogram %s: bucket counts decrease" fam;
                   v)
                 0.0 buckets))
        end)
      !types;
    {
      families = List.length !types;
      series = List.length samples;
      problems = List.rev !problems;
    }
end

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

let run_level ~torture ~socket ~concurrency ~requests =
  let per = requests / concurrency in
  let outs = Array.init concurrency (fun _ -> new_outcome ()) in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init concurrency (fun k ->
        Thread.create
          (fun () ->
            client_worker ~torture ~socket ~first:(k * per) ~count:per outs.(k))
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let total = new_outcome () in
  Array.iter
    (fun o ->
      total.n_ok <- total.n_ok + o.n_ok;
      total.n_error <- total.n_error + o.n_error;
      total.n_degraded <- total.n_degraded + o.n_degraded;
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
  let metrics_port = free_port () in
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
          run_level ~torture:false ~socket ~concurrency ~requests
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
  let expo_status, expo_body =
    try http_get ~port:metrics_port "/metrics"
    with e -> (0, Printexc.to_string e)
  in
  let expo = Promcheck.check expo_body in
  let expo_ok = expo_status = 200 && expo.Promcheck.problems = [] in
  Printf.printf "exposition: HTTP %d, %d families, %d series%s\n%!"
    expo_status expo.Promcheck.families expo.Promcheck.series
    (if expo_ok then ""
     else
       Printf.sprintf "  INVALID: %s"
         (String.concat "; " expo.Promcheck.problems));
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
         expo_ok expo.Promcheck.families expo.Promcheck.series);
    Buffer.add_string buf
      (Printf.sprintf "  \"cross_check\": %b\n}\n" crossed);
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote %s\n%!" path);
  let bad = List.fold_left (fun a (_, _, _, _, _, _, t) -> a + t.n_bad) 0 rows in
  if bad > 0 || (not crossed) || not expo_ok then 1 else 0

let smoke ~socket ~jobs ~requests ~concurrency =
  Printf.printf
    "loadgen --smoke: %d mixed requests at concurrency %d (faults + \
     watchdog + deadlines + malformed + oversized)\n%!"
    requests concurrency;
  let metrics_port = free_port () in
  let _srv, thread =
    start_daemon ~socket ~jobs ~max_inflight:256 ~metrics_port
  in
  let total, wall, sent = run_level ~torture:true ~socket ~concurrency ~requests in
  (* the outcome counters must already account for every response the
     clients read (counters commit before the response write), and the
     exposition must be well-formed under load *)
  let mresp = scrape_metrics ~socket in
  let by_code_total =
    match Json.member "counters" mresp with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (name, v) ->
          if
            String.starts_with ~prefix:"cinm_serve_responses_total{" name
          then acc + Option.value (Json.get_int v) ~default:0
          else acc)
        0 fields
    | _ -> -1
  in
  let expo_status, expo_body =
    try http_get ~port:metrics_port "/metrics"
    with e -> (0, Printexc.to_string e)
  in
  let expo = Promcheck.check expo_body in
  let expo_ok = expo_status = 200 && expo.Promcheck.problems = [] in
  let clean = stop_daemon ~socket thread in
  Printf.printf
    "served %d requests in %.2f s: %d ok (%d degraded), %d structured \
     errors, %d protocol violations; shutdown %s\n%!"
    sent wall total.n_ok total.n_degraded total.n_error total.n_bad
    (if clean then "clean" else "DIRTY");
  Printf.printf
    "telemetry: responses_total=%d (sent %d), exposition HTTP %d with %d \
     families%s\n%!"
    by_code_total sent expo_status expo.Promcheck.families
    (if expo_ok then ""
     else
       Printf.sprintf "  INVALID: %s"
         (String.concat "; " expo.Promcheck.problems));
  let pass =
    total.n_bad = 0 && clean
    && total.n_ok + total.n_error = sent
    && total.n_error > 0 (* the hostile mix must actually exercise errors *)
    && total.n_ok > 0
    && by_code_total = sent
    && expo_ok
  in
  Printf.printf "SMOKE %s\n%!" (if pass then "PASS" else "FAIL");
  if pass then 0 else 1

(* ----- argv ----- *)

let () =
  let smoke_mode = ref false in
  let json_out = ref "" in
  let requests = ref 0 in
  let jobs = ref 4 in
  let concurrency = ref 8 in
  let socket = ref "" in
  let spec =
    [
      ("--smoke", Arg.Set smoke_mode, " torture mode: mixed hostile stream, exit 0 iff clean");
      ("--json", Arg.Set_string json_out, "FILE write the latency sweep as JSON");
      ("--requests", Arg.Set_int requests, "N per-level requests (default: 480 sweep / 1200 smoke)");
      ("--jobs", Arg.Set_int jobs, "N daemon worker domains (default 4)");
      ("--concurrency", Arg.Set_int concurrency, "N smoke-mode client threads (default 8)");
      ("--socket", Arg.Set_string socket, "PATH socket path (default: a fresh one in TMPDIR)");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen [--smoke] [--json FILE] [--requests N] [--jobs N]";
  let socket =
    if !socket <> "" then !socket
    else
      Filename.concat
        (try Sys.getenv "TMPDIR" with Not_found -> "/tmp")
        (Printf.sprintf "cinm-loadgen-%d.sock" (Unix.getpid ()))
  in
  let code =
    if !smoke_mode then
      smoke ~socket ~jobs:!jobs
        ~requests:(if !requests > 0 then !requests else 1200)
        ~concurrency:!concurrency
    else
      sweep ~socket ~jobs:!jobs
        ~levels:[ 1; 4; 8 ]
        ~requests:(if !requests > 0 then !requests else 480)
        ~json_out:(if !json_out = "" then None else Some !json_out)
  in
  exit code
