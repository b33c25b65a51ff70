(* Tests for the serve stack: the JSON codec, the protocol decoder, the
   pipeline cache, pool task submission/shutdown, and the daemon itself
   end-to-end over a real Unix socket (in-process server thread, client
   threads). *)

module Json = Cinm_serve_lib.Json
module Protocol = Cinm_serve_lib.Protocol
module Cache = Cinm_serve_lib.Cache
module Catalog = Cinm_serve_lib.Catalog
module Server = Cinm_serve_lib.Server
module Client = Cinm_serve_lib.Client
module Pool = Cinm_support.Pool
module Config = Cinm_support.Config

(* ----- json ----- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2,3]";
      "{\"a\":1,\"b\":[true,null,\"x\"],\"c\":{\"d\":-2.5}}";
      "\"\\\"quoted\\\" and \\\\ and \\n\"";
      "-17";
    ]
  in
  List.iter
    (fun src ->
      let j = Json.parse src in
      let printed = Json.to_string j in
      Alcotest.(check string)
        (Printf.sprintf "fixpoint of %s" src)
        printed
        (Json.to_string (Json.parse printed)))
    cases

let test_json_values () =
  let j = Json.parse "{\"s\":\"hi\",\"i\":42,\"f\":2.5,\"b\":true,\"n\":null}" in
  Alcotest.(check (option string)) "string" (Some "hi") (Json.string_field j "s");
  Alcotest.(check (option int)) "int" (Some 42) (Json.int_field j "i");
  Alcotest.(check (option bool)) "bool" (Some true) (Json.bool_field j "b");
  Alcotest.(check (option (float 0.0))) "float" (Some 2.5) (Json.float_field j "f");
  (* ints coerce to float, nothing else does *)
  Alcotest.(check (option (float 0.0))) "int as float" (Some 42.0)
    (Json.float_field j "i");
  Alcotest.(check (option string)) "absent" None (Json.string_field j "zz");
  Alcotest.(check (option string)) "null is absent" None (Json.string_field j "n")

let test_json_errors () =
  let expect_error src pred name =
    match Json.parse src with
    | _ -> Alcotest.fail (name ^ ": expected a parse error")
    | exception Json.Parse_error e ->
      if not (pred e) then
        Alcotest.fail
          (Printf.sprintf "%s: got %s at %d:%d" name e.Json.message e.Json.line
             e.Json.col)
  in
  expect_error "{\"a\": nope}" (fun e -> e.Json.line = 1 && e.Json.col = 7)
    "bad literal position";
  expect_error "{\"a\": 1,}" (fun _ -> true) "trailing comma";
  expect_error "[1, 2" (fun _ -> true) "unterminated list";
  expect_error "\"abc" (fun _ -> true) "unterminated string";
  expect_error "{} trailing" (fun _ -> true) "trailing garbage";
  expect_error "{\n \"a\": @\n}" (fun e -> e.Json.line = 2) "line tracking";
  (* the caret context points at the offending column, parser-style *)
  expect_error "{\"x\": !}"
    (fun e -> e.Json.context <> "" && String.contains e.Json.context '^')
    "caret context"

(* ----- protocol ----- *)

let decode_exn line =
  match Protocol.decode (Json.parse line) with
  | Ok r -> r
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let test_protocol_decode () =
  let r = decode_exn "{\"op\":\"health\"}" in
  Alcotest.(check string) "op" "health" (Protocol.op_name r.Protocol.op);
  let r =
    decode_exn
      "{\"op\":\"run\",\"benchmark\":\"va\",\"id\":\"x\",\"max_steps\":9,\
       \"strict\":true,\"deadline_s\":1.5,\"repeats\":3}"
  in
  Alcotest.(check (option string)) "id" (Some "x") r.Protocol.id;
  Alcotest.(check string) "bench" "va" r.Protocol.benchmark;
  Alcotest.(check string) "default backend" "upmem" r.Protocol.backend;
  Alcotest.(check (option int)) "max_steps" (Some 9) r.Protocol.max_steps;
  Alcotest.(check (option bool)) "strict" (Some true) r.Protocol.strict;
  Alcotest.(check int) "repeats" 3 r.Protocol.repeats;
  Alcotest.(check bool) "fallback default" true r.Protocol.fallback

let test_protocol_reject () =
  let expect_err line name =
    match Protocol.decode (Json.parse line) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": expected a decode error")
  in
  expect_err "{}" "missing op";
  expect_err "{\"op\":1}" "mistyped op";
  expect_err "{\"op\":\"fly\"}" "unknown op";
  expect_err "{\"op\":\"run\"}" "run without benchmark";
  expect_err "{\"op\":\"run\",\"benchmark\":\"va\",\"backend\":\"gpu\"}"
    "unknown backend";
  expect_err "{\"op\":\"run\",\"benchmark\":\"va\",\"interp\":\"jit\"}"
    "unknown interp";
  expect_err "{\"op\":\"run\",\"benchmark\":\"va\",\"max_steps\":-1}"
    "negative max_steps";
  expect_err "{\"op\":\"run\",\"benchmark\":\"va\",\"deadline_s\":0}"
    "zero deadline";
  expect_err "{\"op\":\"bench\",\"benchmark\":\"va\",\"repeats\":0}"
    "zero repeats";
  expect_err "{\"op\":\"run\",\"benchmark\":\"va\",\"strict\":\"yes\"}"
    "mistyped strict"

(* ----- pipeline cache ----- *)

let test_cache_fifo () =
  let bench =
    match Catalog.find "va" with Some b -> b | None -> Alcotest.fail "no va"
  in
  let compiled =
    Cinm_core.Driver.compile_func Cinm_core.Backend.Host_xeon
      (bench.Cinm_benchmarks.Benchmark.build ())
  in
  let key n = { Cache.benchmark = n; backend = "host"; strict = false } in
  let c = Cache.create ~capacity:2 () in
  Cache.add c (key "a") compiled;
  Cache.add c (key "b") compiled;
  Alcotest.(check bool) "a cached" true (Cache.find c (key "a") <> None);
  Cache.add c (key "c") compiled;
  (* FIFO: "a" was oldest *)
  Alcotest.(check bool) "a evicted" true (Cache.find c (key "a") = None);
  Alcotest.(check bool) "b kept" true (Cache.find c (key "b") <> None);
  Alcotest.(check bool) "c kept" true (Cache.find c (key "c") <> None);
  let s = Cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "entries" 2 s.Cache.entries;
  (* a degraded artifact must never be cached *)
  let degraded =
    {
      compiled with
      Cinm_core.Driver.fallback =
        Some { Cinm_ir.Pass.pass = "p"; op = None; message = "forced" };
    }
  in
  Cache.add c (key "d") degraded;
  Alcotest.(check bool) "degraded not cached" true (Cache.find c (key "d") = None)

(* ----- pool tasks ----- *)

let test_pool_tasks () =
  let p = Pool.create ~jobs:2 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "accepted" true
      (Pool.submit p (fun () -> Atomic.incr hits))
  done;
  (* a raising task is contained, not fatal to its worker *)
  Alcotest.(check bool) "raising task accepted" true
    (Pool.submit p (fun () -> failwith "contained"));
  (* shutdown is the drain barrier: every accepted task ran *)
  Pool.shutdown p;
  Alcotest.(check int) "all tasks ran" 50 (Atomic.get hits);
  Alcotest.(check int) "nothing pending" 0 (Pool.pending p);
  Alcotest.(check bool) "rejected after shutdown" false
    (Pool.submit p (fun () -> Atomic.incr hits));
  (* idempotent *)
  Pool.shutdown p;
  Alcotest.(check int) "no stragglers" 50 (Atomic.get hits);
  (* a parallel-for still works (sequentially) after shutdown *)
  let sum = Atomic.make 0 in
  Pool.run p 10 (fun i -> ignore (Atomic.fetch_and_add sum i));
  Alcotest.(check int) "post-shutdown run" 45 (Atomic.get sum)

(* The pool's gauges count the worker domains it really spawned. Every
   domain that runs tasks is a worker and the submitter is not one, so
   [--jobs 2] has two workers; a pool that only ran loops has [jobs - 1]
   (the loop's caller is the last domain) and grows on its first task. *)
let test_pool_stats () =
  let p = Pool.create ~jobs:2 () in
  Alcotest.(check int) "no workers before the first task" 0 (Pool.stats p).Pool.st_workers;
  let m = Mutex.create () and go = Condition.create () and release = ref false in
  let started = Atomic.make false in
  ignore
    (Pool.submit p (fun () ->
         Atomic.set started true;
         Mutex.lock m;
         while not !release do
           Condition.wait go m
         done;
         Mutex.unlock m));
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let s = Pool.stats p in
  Alcotest.(check int) "jobs 2 spawns two workers" 2 s.Pool.st_workers;
  Alcotest.(check int) "the task is executing" 1 s.Pool.st_active;
  Mutex.lock m;
  release := true;
  Condition.broadcast go;
  Mutex.unlock m;
  Pool.shutdown p;
  let p4 = Pool.create ~jobs:4 () in
  ignore (Pool.submit p4 ignore);
  Alcotest.(check int) "jobs 4 spawns four workers" 4 (Pool.stats p4).Pool.st_workers;
  Pool.shutdown p4;
  let p3 = Pool.create ~jobs:3 () in
  Pool.run p3 8 ignore;
  Alcotest.(check int) "a loop spawns jobs - 1 workers" 2 (Pool.stats p3).Pool.st_workers;
  ignore (Pool.submit p3 ignore);
  Alcotest.(check int) "the first task grows the pool to jobs" 3
    (Pool.stats p3).Pool.st_workers;
  Pool.shutdown p3

(* A [jobs:2] pool runs two submitted tasks at once: both reach a
   barrier that opens only when two tasks are executing. With one worker
   the second task would wait in the queue and the barrier would never
   open, so the wait is bounded and the failure names the counts. *)
let test_pool_runs_jobs_tasks () =
  let p = Pool.create ~jobs:2 () in
  let m = Mutex.create () and go = Condition.create () in
  let arrived = ref 0 and release = ref false in
  let task () =
    Mutex.lock m;
    incr arrived;
    Condition.broadcast go;
    while not !release do
      Condition.wait go m
    done;
    Mutex.unlock m
  in
  ignore (Pool.submit p task);
  ignore (Pool.submit p task);
  let deadline = Unix.gettimeofday () +. 10.0 in
  let both () = Mutex.protect m (fun () -> !arrived = 2) in
  while (not (both ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  let s = Pool.stats p in
  Mutex.protect m (fun () ->
      release := true;
      Condition.broadcast go);
  Pool.shutdown p;
  Alcotest.(check int) "both tasks reached the barrier" 2 !arrived;
  Alcotest.(check int) "two tasks executing" 2 s.Pool.st_active;
  Alcotest.(check int) "none queued" 0 s.Pool.st_queued

(* ----- the daemon, end to end ----- *)

let fresh_socket () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cinm-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let with_daemon ?(jobs = 2) ?(opts_f = fun o -> o) f =
  let socket = fresh_socket () in
  let opts = opts_f (Server.default_opts ~socket_path:socket ()) in
  let opts = { opts with Server.socket_path = socket; jobs } in
  let srv = Server.create opts in
  let thread = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      (match Client.connect ~attempts:5 socket with
      | c ->
        (try ignore (Client.request c (Client.make_request "shutdown"))
         with Client.Server_gone _ -> ());
        Client.close c
      | exception _ -> ());
      Thread.join thread)
    (fun () -> f socket)

let code_of resp =
  match Json.member "error" resp with
  | Some err -> Json.string_field err "code"
  | None -> None

(* The stats op; its served and errors counts must be views of by_code. *)
let check_stats c =
  let st = Client.request c (Client.make_request "stats") in
  let field k = Option.value (Json.int_field st k) ~default:(-1) in
  let by_code =
    match Json.member "by_code" st with
    | Some (Json.Obj codes) -> codes
    | _ -> Alcotest.fail "stats without by_code"
  in
  let total = List.fold_left (fun acc (_, n) -> acc + Option.value (Json.get_int n) ~default:0) 0 by_code in
  let ok = Option.value (Option.bind (List.assoc_opt "ok" by_code) Json.get_int) ~default:0 in
  Alcotest.(check int) "served = sum of by_code" total (field "served");
  Alcotest.(check int) "errors = served - ok" (total - ok) (field "errors");
  st

let test_daemon_basics () =
  with_daemon (fun socket ->
      let c = Client.connect ~attempts:40 socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let h = Client.request c (Client.make_request "health") in
          Alcotest.(check (option bool)) "health ok" (Some true)
            (Json.bool_field h "ok");
          Alcotest.(check (option string)) "status" (Some "ok")
            (Json.string_field h "status");
          Alcotest.(check bool) "health lists the catalog" true
            (match Json.member "benchmarks" h with
            | Some (Json.List bs) -> List.mem (Json.String "va") bs
            | _ -> false);
          (* run: first compile misses the pipeline cache, second hits *)
          let r1 =
            Client.request c (Client.make_request ~benchmark:"sel" "run")
          in
          Alcotest.(check (option bool)) "run ok" (Some true)
            (Json.bool_field r1 "ok");
          Alcotest.(check (option string)) "cold" (Some "miss")
            (Json.string_field r1 "cache");
          Alcotest.(check (option bool)) "not degraded" (Some false)
            (Json.bool_field r1 "degraded");
          let r2 =
            Client.request c (Client.make_request ~benchmark:"sel" "run")
          in
          Alcotest.(check (option string)) "warm" (Some "hit")
            (Json.string_field r2 "cache");
          (* per-request interpreter backends coexist *)
          let rt =
            Client.request c
              (Client.make_request ~benchmark:"sel" ~interp:"tree" "run")
          in
          Alcotest.(check (option bool)) "tree ok" (Some true)
            (Json.bool_field rt "ok");
          (* identical modelled time whichever interpreter executed it *)
          Alcotest.(check (option (float 0.0))) "same simulated time"
            (Json.float_field r1 "sim_total_s")
            (Json.float_field rt "sim_total_s");
          (* compile op and strict compile *)
          let co =
            Client.request c
              (Client.make_request ~benchmark:"mm" ~strict:true "compile")
          in
          Alcotest.(check (option bool)) "strict compile ok" (Some true)
            (Json.bool_field co "ok");
          Alcotest.(check bool) "ops counted" true
            (match Json.int_field co "ops" with Some n -> n > 0 | None -> false);
          (* stats reflect the traffic *)
          let st = check_stats c in
          Alcotest.(check bool) "served some" true
            (match Json.int_field st "served" with
            | Some n -> n >= 5
            | None -> false);
          (* the daemon's own memory, not its client's *)
          match Json.member "heap" st with
          | None -> Alcotest.fail "stats without heap"
          | Some h ->
            let field k = Option.value (Json.int_field h k) ~default:(-1) in
            Alcotest.(check bool) "heap words counted" true (field "heap_words" > 0);
            Alcotest.(check bool) "top heap covers the heap" true
              (field "top_heap_words" >= field "heap_words");
            Alcotest.(check bool) "minor collections counted" true
              (field "minor_collections" > 0);
            Alcotest.(check bool) "major collections counted" true
              (field "major_collections" >= 0);
            Alcotest.(check bool) "peak RSS where the kernel reports it" true
              (Sys.file_exists "/proc/self/status" = (field "peak_rss_kb" > 0))))

let test_daemon_errors () =
  with_daemon
    ~opts_f:(fun o -> { o with Server.max_request_bytes = 4096 })
    (fun socket ->
      let c = Client.connect ~attempts:40 socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let expect_code line code name =
            let resp = Json.parse (Client.request_raw c line) in
            Alcotest.(check (option bool)) (name ^ " not ok") (Some false)
              (Json.bool_field resp "ok");
            Alcotest.(check (option string)) (name ^ " code") (Some code)
              (code_of resp)
          in
          expect_code "{\"op\": nope}" "parse_error" "malformed";
          (* parse errors carry line/col context *)
          let resp = Json.parse (Client.request_raw c "{\"op\": nope}") in
          (match Json.member "error" resp with
          | Some err ->
            Alcotest.(check (option int)) "line" (Some 1)
              (Json.int_field err "line");
            Alcotest.(check bool) "col" true (Json.int_field err "col" <> None)
          | None -> Alcotest.fail "no error object");
          expect_code "{\"op\":\"fly\"}" "bad_request" "unknown op";
          expect_code "{\"op\":\"run\",\"benchmark\":\"zzz\"}"
            "unknown_benchmark" "unknown benchmark";
          expect_code
            "{\"op\":\"run\",\"benchmark\":\"va\",\"faults\":\"bogus=1\"}"
            "bad_request" "bad fault spec";
          (* oversized line: structured shed + stream resync, not a close *)
          expect_code (String.make 9000 'x') "oversized" "oversized";
          let h = Client.request c (Client.make_request "health") in
          Alcotest.(check (option bool)) "alive after oversized" (Some true)
            (Json.bool_field h "ok");
          (* watchdog: per-request step budget *)
          expect_code
            "{\"op\":\"run\",\"benchmark\":\"va\",\"max_steps\":5}" "watchdog"
            "watchdog";
          (* deadline: already expired at admission *)
          expect_code
            "{\"op\":\"run\",\"benchmark\":\"va\",\"deadline_s\":1e-9}"
            "deadline_exceeded" "deadline";
          (* the daemon is still healthy after all of the failures *)
          let r = Client.request c (Client.make_request ~benchmark:"va" "run") in
          Alcotest.(check (option bool)) "still serving" (Some true)
            (Json.bool_field r "ok");
          let st = check_stats c in
          Alcotest.(check (option int)) "every failure counted" (Some 8)
            (Json.int_field st "errors")))

let test_daemon_degraded_and_reproducer () =
  let repro_dir = Filename.temp_file "cinm-serve-repro" "" in
  Unix.unlink repro_dir;
  Unix.mkdir repro_dir 0o755;
  with_daemon
    ~opts_f:(fun o ->
      {
        o with
        Server.base_config =
          {
            (Config.default ()) with
            Config.reproducer_dir = Some repro_dir;
          };
      })
    (fun socket ->
      let c = Client.connect ~attempts:40 socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* injected DPU faults: the request survives, marked degraded *)
          let r =
            Client.request c
              (Client.make_request ~benchmark:"va" ~faults:"dpu_fail=0.2" "run")
          in
          Alcotest.(check (option bool)) "faulted run ok" (Some true)
            (Json.bool_field r "ok");
          Alcotest.(check (option bool)) "degraded" (Some true)
            (Json.bool_field r "degraded");
          Alcotest.(check bool) "dpus failed" true
            (match Json.int_field r "failed_dpus" with
            | Some n -> n > 0
            | None -> false);
          (* identical fault plan => bit-identical modelled time *)
          let r2 =
            Client.request c
              (Client.make_request ~benchmark:"va" ~faults:"dpu_fail=0.2" "run")
          in
          Alcotest.(check (option (float 0.0))) "deterministic faults"
            (Json.float_field r "sim_total_s")
            (Json.float_field r2 "sim_total_s");
          (* an over-budget pass is a pass failure with a crash reproducer
             attached (fallback would re-lower under the same budget, so
             ask for none) *)
          let pf =
            Client.request c
              (Client.make_request ~benchmark:"mm" ~pass_budget_s:1e-9
                 ~fallback:false "run")
          in
          Alcotest.(check (option bool)) "over budget fails" (Some false)
            (Json.bool_field pf "ok");
          Alcotest.(check (option string)) "pass_failed" (Some "pass_failed")
            (code_of pf);
          (match Json.member "error" pf with
          | Some err -> (
            match Json.string_field err "reproducer" with
            | Some path ->
              Alcotest.(check bool) "reproducer exists" true (Sys.file_exists path)
            | None -> Alcotest.fail "no reproducer path in error detail")
          | None -> Alcotest.fail "no error object")))

(* The base config carries the process fault plan: a request that names
   no plan inherits it, and ["faults": ""] asks for a fault-free run. *)
let test_daemon_base_faults () =
  let module Fault = Cinm_support.Fault in
  let saved = Fault.default () in
  Fault.set_default (Result.to_option (Fault.parse "dpu_fail=0.2"));
  Fun.protect ~finally:(fun () -> Fault.set_default saved) @@ fun () ->
  with_daemon (fun socket ->
      let c = Client.connect ~attempts:40 socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let run faults = Client.request c (Client.make_request ~benchmark:"va" ?faults "run") in
          let failed r = Option.value ~default:0 (Json.int_field r "failed_dpus") in
          let inherited = run None in
          Alcotest.(check (option bool)) "inherited ok" (Some true) (Json.bool_field inherited "ok");
          Alcotest.(check (option bool)) "inherited degraded" (Some true)
            (Json.bool_field inherited "degraded");
          Alcotest.(check bool) "inherited dpus failed" true (failed inherited > 0);
          let clean = run (Some "") in
          Alcotest.(check (option bool)) "fault-free ok" (Some true) (Json.bool_field clean "ok");
          Alcotest.(check (option bool)) "fault-free not degraded" (Some false)
            (Json.bool_field clean "degraded");
          Alcotest.(check int) "fault-free dpus" 0 (failed clean)))

(* Concurrent clients with *different* per-request configs: watchdogged
   requests trip, unbounded ones succeed — configs never bleed across
   requests sharing the pool. *)
let test_daemon_concurrent_configs () =
  with_daemon (fun socket ->
      let n_threads = 6 and per = 5 in
      let failures = Array.make n_threads "" in
      let threads =
        List.init n_threads (fun k ->
            Thread.create
              (fun () ->
                try
                  let c = Client.connect ~attempts:40 socket in
                  Fun.protect
                    ~finally:(fun () -> Client.close c)
                    (fun () ->
                      for _ = 1 to per do
                        if k mod 2 = 0 then begin
                          let r =
                            Client.request c
                              (Client.make_request ~benchmark:"va" "run")
                          in
                          if Json.bool_field r "ok" <> Some true then
                            failures.(k) <- "expected ok, got " ^ Json.to_string r
                        end
                        else begin
                          let r =
                            Client.request c
                              (Client.make_request ~benchmark:"va" ~max_steps:5
                                 "run")
                          in
                          if code_of r <> Some "watchdog" then
                            failures.(k) <-
                              "expected watchdog, got " ^ Json.to_string r
                        end
                      done)
                with e -> failures.(k) <- Printexc.to_string e)
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun k msg -> if msg <> "" then Alcotest.fail
              (Printf.sprintf "thread %d: %s" k msg))
        failures)

(* Concurrent runs of one cached (benchmark, backend) pair share the
   pipeline cache, the code cache and the tensor arena. On --jobs 2 and
   --jobs 4, 2 x jobs clients send the same checked run on the compiled
   interpreter at once: every reply must pass the host-reference check
   and equal the sequential reply field for field (simulated times,
   report counters, tracks), apart from the per-request id and the cache
   state. *)
let test_daemon_concurrent_oracle () =
  let comparable r =
    match r with
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> not (List.mem k [ "req_id"; "id"; "cache" ])) fields))
    | j -> Json.to_string j
  in
  List.iter
    (fun jobs ->
      with_daemon ~jobs (fun socket ->
          List.iter
            (fun (benchmark, backend) ->
              let req =
                Client.make_request ~benchmark ~backend ~interp:"compiled" ~check:true "run"
              in
              let c = Client.connect ~attempts:40 socket in
              let sequential =
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    ignore (Client.request c req);
                    Client.request c req)
              in
              let pair = Printf.sprintf "%s@%s, jobs %d" benchmark backend jobs in
              Alcotest.(check (option bool)) (pair ^ ": sequential ok") (Some true)
                (Json.bool_field sequential "ok");
              let expect = comparable sequential in
              let clients = 2 * jobs and per = 3 in
              let replies = Array.make clients [] in
              let threads =
                List.init clients (fun k ->
                    Thread.create
                      (fun () ->
                        let c = Client.connect ~attempts:40 socket in
                        Fun.protect
                          ~finally:(fun () -> Client.close c)
                          (fun () ->
                            replies.(k) <- List.init per (fun _ -> Client.request c req)))
                      ())
              in
              List.iter Thread.join threads;
              Array.iter
                (List.iter (fun r ->
                     Alcotest.(check string) (pair ^ ": concurrent reply") expect (comparable r)))
                replies)
            [ ("va", "upmem"); ("bfs", "cim"); ("mv", "cim"); ("2mm", "hetero") ]))
    [ 2; 4 ]

let test_daemon_admission_and_shutdown () =
  with_daemon
    ~opts_f:(fun o -> { o with Server.max_inflight = 1 })
    (fun socket ->
      (* saturate the single slot from one connection, then probe from
         another: with one in-flight slot and a slow request occupying
         it, the probe must be shed as overloaded *)
      let slow = Client.connect ~attempts:40 socket in
      let probe = Client.connect ~attempts:40 socket in
      Fun.protect
        ~finally:(fun () ->
          Client.close slow;
          Client.close probe)
        (fun () ->
          (* occupy the slot: send without reading the response *)
          let bench_req =
            Json.to_string
              (Client.make_request ~benchmark:"mm" ~repeats:8 "bench")
          in
          let t = Thread.create (fun () -> Client.request_raw slow bench_req) () in
          Unix.sleepf 0.2;
          let shed = ref false in
          (* the slot may free between probes; insist at least one probe
             lands while it is taken *)
          for _ = 1 to 20 do
            if not !shed then begin
              let r =
                Client.request probe (Client.make_request ~benchmark:"va" "run")
              in
              if code_of r = Some "overloaded" then shed := true
            end
          done;
          Alcotest.(check bool) "load was shed" true !shed;
          Thread.join t));
  (* after with_daemon: shutdown completed and unlinked the socket *)
  ()

let test_daemon_shutdown_rejects () =
  let socket = fresh_socket () in
  let opts = Server.default_opts ~socket_path:socket () in
  let srv = Server.create { opts with Server.jobs = 2 } in
  let thread = Thread.create Server.run srv in
  let c = Client.connect ~attempts:40 socket in
  let r = Client.request c (Client.make_request "shutdown") in
  Alcotest.(check (option string)) "draining" (Some "draining")
    (Json.string_field r "status");
  Client.close c;
  Thread.join thread;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

(* ----- telemetry: metrics op, req_id correlation, trace capture ----- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_daemon_metrics_endpoint () =
  (* the registry is process-global: start this daemon's counts from zero *)
  Cinm_support.Trace.Metrics.reset ();
  with_daemon (fun socket ->
      let c = Client.connect ~attempts:40 socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (Client.request c (Client.make_request ~benchmark:"sel" "run"));
          ignore (Client.request c (Client.make_request ~benchmark:"sel" "run"));
          let m = Client.request c (Client.make_request "metrics") in
          Alcotest.(check (option bool)) "metrics ok" (Some true)
            (Json.bool_field m "ok");
          let hist =
            match Json.member "histograms" m with
            | Some hs -> Json.member "cinm_serve_request_seconds" hs
            | None -> None
          in
          (match hist with
          | None -> Alcotest.fail "no cinm_serve_request_seconds histogram"
          | Some h ->
            Alcotest.(check (option int)) "latency histogram counted both runs" (Some 2)
              (Json.int_field h "count");
            Alcotest.(check bool) "p95 covers p50" true
              (match (Json.float_field h "p50", Json.float_field h "p95") with
              | Some p50, Some p95 -> p95 >= p50 && p50 > 0.0
              | _ -> false));
          (match Json.member "counters" m with
          | Some (Json.Obj fields) ->
            Alcotest.(check bool) "ok responses counted" true
              (match List.assoc_opt "cinm_serve_responses_total{code=\"ok\"}" fields with
              | Some (Json.Int n) -> n >= 2
              | _ -> false);
            Alcotest.(check bool) "pipeline cache hit counted" true
              (match
                 List.assoc_opt "cinm_serve_pipeline_cache_hits_total" fields
               with
              | Some (Json.Int n) -> n >= 1
              | _ -> false)
          | _ -> Alcotest.fail "no counters object");
          (match Json.member "gauges" m with
          | Some (Json.Obj fields) ->
            Alcotest.(check bool) "uptime gauge present" true
              (List.mem_assoc "cinm_serve_uptime_seconds" fields);
            (* the daemon runs --jobs 2: two worker domains *)
            Alcotest.(check bool) "pool workers gauge counts spawned workers" true
              (match List.assoc_opt "cinm_serve_pool_workers" fields with
              | Some (Json.Float w) -> w = 2.0
              | Some (Json.Int w) -> w = 2
              | _ -> false)
          | _ -> Alcotest.fail "no gauges object")))

let test_daemon_req_id () =
  with_daemon (fun socket ->
      let c = Client.connect ~attempts:40 socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let rid resp = Json.string_field resp "req_id" in
          let r1 = Client.request c (Client.make_request ~benchmark:"va" "run") in
          let r2 = Client.request c (Client.make_request "health") in
          (* error responses carry the id too, even protocol errors *)
          let r3 =
            Client.request c (Client.make_request ~benchmark:"no-such" "run")
          in
          let r4 = Json.parse (Client.request_raw c "{\"op\": nope") in
          let ids = List.map rid [ r1; r2; r3; r4 ] in
          List.iteri
            (fun i id ->
              Alcotest.(check bool)
                (Printf.sprintf "response %d has a req_id" i)
                true
                (match id with Some s -> s <> "" | None -> false))
            ids;
          let distinct = List.sort_uniq compare ids in
          Alcotest.(check int) "req_ids are unique per request" 4
            (List.length distinct)))

let test_daemon_trace_isolation () =
  with_daemon (fun socket ->
      (* two clients concurrently tracing different benchmarks: each
         capture must contain its own serve span and never the other's,
         even though both run on the same worker pool *)
      let traces = Array.make 2 "" in
      let worker idx bench =
        Thread.create
          (fun () ->
            let c = Client.connect ~attempts:40 socket in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                for _ = 1 to 3 do
                  let r =
                    Client.request c
                      (Client.make_request ~benchmark:bench ~trace:true "run")
                  in
                  Alcotest.(check (option bool))
                    (bench ^ " traced run ok")
                    (Some true) (Json.bool_field r "ok");
                  match Json.string_field r "trace" with
                  | Some t -> traces.(idx) <- t
                  | None -> Alcotest.fail (bench ^ ": no trace in response")
                done))
          ()
      in
      let t1 = worker 0 "va" and t2 = worker 1 "hst-l" in
      Thread.join t1;
      Thread.join t2;
      Alcotest.(check bool) "va trace has its serve span" true
        (contains traces.(0) "run:va");
      Alcotest.(check bool) "va trace is isolated" false
        (contains traces.(0) "run:hst-l");
      Alcotest.(check bool) "hst-l trace has its serve span" true
        (contains traces.(1) "run:hst-l");
      Alcotest.(check bool) "hst-l trace is isolated" false
        (contains traces.(1) "run:va");
      (* untraced requests must not pay for (or carry) a capture *)
      let c = Client.connect ~attempts:40 socket in
      let r = Client.request c (Client.make_request ~benchmark:"va" "run") in
      Client.close c;
      Alcotest.(check bool) "no trace field without trace:true" true
        (Json.member "trace" r = None))

let test_daemon_trace_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cinm-traces-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  with_daemon
    ~opts_f:(fun o -> { o with Server.trace_dir = Some dir })
    (fun socket ->
      let c = Client.connect ~attempts:40 socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let r =
            Client.request c
              (Client.make_request ~benchmark:"sel" ~trace:true "run")
          in
          Alcotest.(check bool) "trace not inlined with --trace-dir" true
            (Json.member "trace" r = None);
          match Json.string_field r "trace_path" with
          | None -> Alcotest.fail "no trace_path in response"
          | Some path ->
            Alcotest.(check bool) "trace file exists" true
              (Sys.file_exists path);
            let ic = open_in path in
            let len = in_channel_length ic in
            let body = really_input_string ic len in
            close_in ic;
            (* a parseable trace document naming this benchmark *)
            ignore (Json.parse body);
            Alcotest.(check bool) "trace file has the serve span" true
              (contains body "run:sel");
            Sys.remove path))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_values;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "decode" `Quick test_protocol_decode;
          Alcotest.test_case "reject" `Quick test_protocol_reject;
        ] );
      ("cache", [ Alcotest.test_case "fifo" `Quick test_cache_fifo ]);
      ( "pool",
        [ Alcotest.test_case "tasks" `Quick test_pool_tasks;
          Alcotest.test_case "stats count spawned workers" `Quick test_pool_stats;
          Alcotest.test_case "jobs 2 runs two tasks at once" `Quick
            test_pool_runs_jobs_tasks;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "basics" `Quick test_daemon_basics;
          Alcotest.test_case "errors" `Quick test_daemon_errors;
          Alcotest.test_case "degraded+reproducer" `Quick
            test_daemon_degraded_and_reproducer;
          Alcotest.test_case "base fault plan" `Quick test_daemon_base_faults;
          Alcotest.test_case "concurrent configs" `Quick
            test_daemon_concurrent_configs;
          Alcotest.test_case "concurrent runs match sequential" `Quick
            test_daemon_concurrent_oracle;
          Alcotest.test_case "admission+shutdown" `Quick
            test_daemon_admission_and_shutdown;
          Alcotest.test_case "shutdown rejects" `Quick
            test_daemon_shutdown_rejects;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics endpoint" `Quick
            test_daemon_metrics_endpoint;
          Alcotest.test_case "req_id correlation" `Quick test_daemon_req_id;
          Alcotest.test_case "trace isolation" `Quick
            test_daemon_trace_isolation;
          Alcotest.test_case "trace dir" `Quick test_daemon_trace_dir;
        ] );
    ]
