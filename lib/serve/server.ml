(* cinm_serve: a persistent compile-and-run daemon over a Unix socket.

   Architecture (see DESIGN.md, "The serve daemon"):

   - One event-loop thread owns the listening socket and every
     connection's read side: select(2), accept, newline-split, parse,
     decode. Cheap ops (health, stats, metrics, shutdown, every protocol
     error) are answered inline from the loop.
   - Heavy ops (compile / run / bench) are admitted against a bounded
     in-flight budget and submitted to the shared domain pool as tasks;
     the worker executes the request under a per-request Config snapshot
     and writes the response itself. Each connection carries a write
     mutex, so responses from the loop and from workers never interleave
     bytes; responses to concurrently admitted requests may come back in
     any order — clients match them by ["id"].
   - Admission control: when admitted (queued + executing) requests reach
     [max_inflight], new work is refused immediately with an [overloaded]
     error (load shedding — the client sees structured backpressure, the
     daemon never builds an unbounded queue).
   - Crash isolation: a worker converts *every* failure of its request —
     pass failure (with crash-reproducer path attached), watchdog trip,
     deadline, malformed program, any exception — into a structured error
     response. The daemon itself dies only on shutdown.
   - Degraded service: device faults (per-request "faults" plans) and
     CPU fallback mark the response ["degraded": true] instead of failing
     it; fault-injected requests still verify against the host reference.
   - Telemetry: every request line is minted a correlation id at accept
     time ([req_id]); it is threaded through the request's Config
     snapshot into pass spans, crash reproducers and log lines
     ({!Log.with_context}), and echoed in the response. Latency, queue
     wait and phase times land in the {!Trace.Metrics} histograms;
     outcomes are counted by error code. The registry is exposed as the
     "metrics" op (JSON), and — when [metrics_port] is set — as
     Prometheus text over GET /metrics on a localhost TCP listener
     multiplexed onto the same select loop. "trace": true captures the
     request's spans in isolation ({!Trace.with_capture}) and attaches
     the Perfetto JSON inline, or writes it under [trace_dir].
   - Graceful shutdown: the "shutdown" op (or SIGTERM/SIGINT) stops
     accepting connections, refuses new work with [shutting_down], lets
     in-flight requests finish ([drain_grace_s] seconds, then their
     cancel flags are set so the interpreter aborts them at the next
     watchdog point), and finally drains the pool. *)

module Config = Cinm_support.Config
module Fault = Cinm_support.Fault
module Pool = Cinm_support.Pool
module Trace = Cinm_support.Trace
module Log = Cinm_support.Log
module Pass = Cinm_ir.Pass
module Interp = Cinm_interp.Interp
module Compile = Cinm_interp.Compile
module Tensor = Cinm_interp.Tensor
module Driver = Cinm_core.Driver
module Backend = Cinm_core.Backend
module Report = Cinm_core.Report
module Benchmark = Cinm_benchmarks.Benchmark
module P = Protocol
module M = Trace.Metrics

type opts = {
  socket_path : string;
  jobs : int;  (** domain-pool size (0 = the default pool's size) *)
  max_inflight : int;  (** admitted (queued + executing) request cap *)
  max_request_bytes : int;  (** per-line cap; larger lines are shed *)
  default_deadline_s : float;  (** applied when a request names none; 0 = none *)
  cache_capacity : int;  (** pipeline-cache entries *)
  drain_grace_s : float;  (** shutdown: seconds before cancelling in-flight *)
  metrics_port : int;  (** localhost Prometheus exposition port; 0 = off *)
  trace_dir : string option;
      (** write per-request traces here instead of inlining them *)
  slow_request_s : float;  (** warn about slower requests; 0 = off *)
  base_config : Config.t;  (** per-request configs start from this *)
}

let default_opts ?(socket_path = "cinm-serve.sock") () =
  {
    socket_path;
    jobs = 0;
    max_inflight = 64;
    max_request_bytes = 65536;
    default_deadline_s = 0.0;
    cache_capacity = 256;
    drain_grace_s = 10.0;
    metrics_port = 0;
    trace_dir = None;
    slow_request_s = 0.0;
    base_config = Config.default ();
  }

(* ----- connection state (owned by the event loop; write side shared
   with workers under [wmutex]) ----- *)

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  rbuf : Buffer.t;  (** partial line *)
  mutable skipping : bool;  (** oversized line: discard until newline *)
  mutable peer_open : bool;  (** false after EOF/write error *)
  mutable refs : int;  (** outstanding worker tasks for this connection *)
}

(* Outcome counts beyond [by_code], which alone counts responses by code
   (served, ok and errors are derived from it). *)
type counters = {
  mutable degraded : int;
  mutable rejected : int;  (** overloaded + shutting_down + oversized *)
}

(* Typed metric handles, interned once at [create] so the per-request hot
   path is lock-free shard writes (see Trace.Metrics). *)
type handles = {
  hm_request : M.histogram;  (** admission -> response write, incl. queue *)
  hm_queue : M.histogram;  (** admission -> start of execution *)
  hm_compile : M.histogram;
  hm_execute : M.histogram;
  hc_pc_hits : M.counter;  (** pipeline-cache hits *)
  hc_pc_misses : M.counter;
}

type t = {
  opts : opts;
  pool : Pool.t;
  cache : Cache.t;
  listen_fd : Unix.file_descr;
  metrics_fd : Unix.file_descr option;  (** Prometheus TCP listener *)
  mutable mconns : (Unix.file_descr * Buffer.t) list;
      (** in-progress HTTP scrapes (event-loop private) *)
  mutex : Mutex.t;  (** guards conns / inflight / counters / in-flight table *)
  mutable conns : conn list;
  mutable inflight : int;
  mutable draining : bool;
  counters : counters;
  by_code : (string, int) Hashtbl.t;  (** responses by outcome code *)
  live : (int, bool Atomic.t) Hashtbl.t;  (** seq -> cancel flag, for drain *)
  mutable seq : int;
  start_time : float;
  rid_prefix : string;  (** correlation-id prefix, unique per daemon *)
  rid_ctr : int Atomic.t;
  m : handles;
  shutdown_flag : bool Atomic.t;  (** set by signals / the shutdown op *)
}

let fresh_req_id srv =
  Printf.sprintf "%s-%d" srv.rid_prefix (1 + Atomic.fetch_and_add srv.rid_ctr 1)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ----- response writing ----- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then raise Exit;
    off := !off + w
  done

(* The outcome code of a response: "ok", or the structured error code. *)
let response_code (resp : Json.t) =
  if Json.bool_field resp "ok" = Some true then "ok"
  else
    match Json.member "error" resp with
    | Some e -> Option.value (Json.string_field e "code") ~default:"internal"
    | None -> "internal"

let send srv conn (resp : Json.t) =
  let line = Json.to_string resp ^ "\n" in
  (* account before writing: once the client has read this response, a
     follow-up "stats" (or "metrics") request must already see it counted *)
  let code = response_code resp in
  let is_degraded = Json.bool_field resp "degraded" = Some true in
  Mutex.lock srv.mutex;
  if is_degraded then srv.counters.degraded <- srv.counters.degraded + 1;
  Hashtbl.replace srv.by_code code
    (1 + Option.value (Hashtbl.find_opt srv.by_code code) ~default:0);
  Mutex.unlock srv.mutex;
  if M.enabled () then begin
    M.incr
      ("cinm_serve_responses_total{code=\"" ^ M.prom_escape_label code ^ "\"}");
    if is_degraded then M.incr "cinm_serve_responses_degraded_total"
  end;
  Mutex.lock conn.wmutex;
  (try if conn.peer_open then write_all conn.fd line
   with Exit | Unix.Unix_error _ -> conn.peer_open <- false);
  Mutex.unlock conn.wmutex

let send_error srv conn ?id ?req_id ?op ?detail ~code message =
  (match code with
  | P.Overloaded | P.Shutting_down | P.Oversized ->
    Mutex.lock srv.mutex;
    srv.counters.rejected <- srv.counters.rejected + 1;
    Mutex.unlock srv.mutex
  | _ -> ());
  send srv conn (P.error_response ?id ?req_id ?op ?detail ~code message)

(* ----- per-request configuration ----- *)

(* Build the request's Config snapshot from the server's base config and
   the request's overrides. The fault spec is parsed here (bad specs are
   a bad_request, not a crash); the deadline is absolute from admission
   time, so queueing counts against it. The correlation id rides in the
   snapshot so pass spans, reproducers and responses all carry it. *)
let request_config srv (req : P.request) ~req_id : (Config.t, string) result =
  let base = srv.opts.base_config in
  let faults =
    match req.P.faults with
    | None -> Ok base.Config.faults
    | Some "" -> Ok None
    | Some spec -> (
      match Fault.parse spec with
      | Ok plan -> Ok (Some plan)
      | Error msg -> Error (Printf.sprintf "field \"faults\": %s" msg))
  in
  match faults with
  | Error _ as e -> e
  | Ok faults ->
    let deadline_s =
      match req.P.deadline_s with
      | Some d -> d
      | None -> srv.opts.default_deadline_s
    in
    Ok
      {
        Config.strict = Option.value req.P.strict ~default:base.Config.strict;
        pass_budget_s =
          (match req.P.pass_budget_s with
          | Some b -> Some b
          | None -> base.Config.pass_budget_s);
        reproducer_dir = base.Config.reproducer_dir;
        max_steps = Option.value req.P.max_steps ~default:base.Config.max_steps;
        interp = Option.value req.P.interp ~default:base.Config.interp;
        faults;
        deadline =
          (if deadline_s > 0.0 then Unix.gettimeofday () +. deadline_s else 0.0);
        cancel = Atomic.make false;
        req_id;
      }

(* ----- request execution (worker side) ----- *)

(* Per-request phase breakdown, filled as the request executes; feeds the
   phase histograms and the slow-request log line. [-1] = phase did not
   run. *)
type phases = {
  mutable ph_compile_s : float;
  mutable ph_execute_s : float;
  mutable ph_cache : string;  (** "" | "hit" | "miss" *)
}

(* The serve backends: deliberately small device configs so a request is
   tens of milliseconds, not seconds — the daemon optimizes for request
   throughput, and speedup ratios are not its product. *)
let backend_of_name = function
  | "host" -> Backend.Host_xeon
  | "cim" -> Backend.Cim (Backend.default_cim ())
  | "hetero" ->
    (* partitioned across all devices on the multi-stream executor; the
       same small DPU grid as the upmem backend keeps requests fast *)
    Backend.default_hetero ~dimms:1 ~dpus_per_dimm:4 ()
  | _ -> Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ())

let degraded_of_report (compiled : Driver.compiled) (report : Report.t) =
  compiled.Driver.fallback <> None
  || Report.counter report "retries" > 0
  || Report.counter report "failed_dpus" > 0

let report_fields (r : Report.t) =
  let module Sched = Cinm_support.Schedule in
  [
    ("backend", Json.String r.Report.backend);
    ("sim_total_s", Json.Float r.Report.total_s);
    ("sim_device_s", Json.Float r.Report.device_s);
    ("retries", Json.Int (Report.counter r "retries"));
    ("failed_dpus", Json.Int (Report.counter r "failed_dpus"));
  ]
  @
  (* per-machine simulated-time tracks — only the multi-stream (hetero)
     executor fills these, so single-device responses are unchanged *)
  match r.Report.tracks with
  | [] -> []
  | tracks ->
    [
      ( "tracks",
        Json.List
          (List.map
             (fun (t : Sched.track) ->
               Json.Obj
                 [
                   ("machine", Json.String t.Sched.tr_machine);
                   ("compute_s", Json.Float t.Sched.tr_compute_s);
                   ("dma_s", Json.Float t.Sched.tr_dma_s);
                   ("idle_s", Json.Float t.Sched.tr_idle_s);
                 ])
             tracks) );
    ]

(* Compile via the cross-request pipeline cache; returns the artifact and
   "hit"/"miss". Degraded (fallback) artifacts are not cached. *)
let compile_cached srv (req : P.request) config (bench : Benchmark.t) =
  let key =
    {
      Cache.benchmark = req.P.benchmark;
      backend = req.P.backend;
      strict = config.Config.strict;
    }
  in
  match Cache.find srv.cache key with
  | Some compiled ->
    M.add srv.m.hc_pc_hits 1;
    (compiled, "hit")
  | None ->
    M.add srv.m.hc_pc_misses 1;
    let compiled =
      Driver.compile_func ~fallback:req.P.fallback ~config
        (backend_of_name req.P.backend)
        (bench.Benchmark.build ())
    in
    Cache.add srv.cache key compiled;
    (compiled, "miss")

let run_once (req : P.request) config (bench : Benchmark.t)
    (compiled : Driver.compiled) =
  let results, report = Driver.run ~config compiled (bench.Benchmark.inputs ()) in
  if req.P.check && compiled.Driver.fallback = None then
    if not (Benchmark.results_match bench results) then
      failwith (req.P.benchmark ^ ": device results differ from the host reference");
  report

let execute_request srv (req : P.request) config ~(phases : phases) : Json.t =
  let req_id = config.Config.req_id in
  match Catalog.find req.P.benchmark with
  | None ->
    P.error_response ?id:req.P.id ~req_id ~op:req.P.op ~code:P.Unknown_benchmark
      (Printf.sprintf "unknown benchmark %S (see \"health\" for the catalog)"
         req.P.benchmark)
  | Some bench -> (
    Config.check config;
    let tc0 = Unix.gettimeofday () in
    let compiled, cache_state = compile_cached srv req config bench in
    phases.ph_compile_s <- Unix.gettimeofday () -. tc0;
    phases.ph_cache <- cache_state;
    let base =
      [
        ("benchmark", Json.String req.P.benchmark);
        ("cache", Json.String cache_state);
        ("degraded", Json.Bool (compiled.Driver.fallback <> None));
      ]
      @
      (* the partitioner's device plan, recorded as a function attribute
         by the hetero pipeline ("cpu=2 upmem=1 ... est_speedup=1.9x") *)
      match compiled.Driver.modul.Cinm_ir.Func.funcs with
      | f :: _ -> (
        match List.assoc_opt "partition" f.Cinm_ir.Func.fattrs with
        | Some (Cinm_ir.Attr.Str s) -> [ ("partition", Json.String s) ]
        | _ -> [])
      | [] -> []
    in
    let fallback_fields =
      match compiled.Driver.fallback with
      | Some diag ->
        [ ("fallback", Json.String (Pass.diag_to_string diag)) ]
      | None -> []
    in
    match req.P.op with
    | P.Compile ->
      P.ok_response ?id:req.P.id ~req_id ~op:req.P.op
        (base @ fallback_fields
        @ [ ("ops", Json.Int (Pass.count_ops compiled.Driver.modul)) ])
    | P.Run ->
      let te0 = Unix.gettimeofday () in
      let report = run_once req config bench compiled in
      phases.ph_execute_s <- Unix.gettimeofday () -. te0;
      let degraded = degraded_of_report compiled report in
      P.ok_response ?id:req.P.id ~req_id ~op:req.P.op
        (List.remove_assoc "degraded" base
        @ [ ("degraded", Json.Bool degraded) ]
        @ fallback_fields @ report_fields report)
    | P.Bench ->
      let sim_s = ref 0.0 and wall = ref [] in
      let te0 = Unix.gettimeofday () in
      for _ = 1 to req.P.repeats do
        Config.check config;
        let t0 = Unix.gettimeofday () in
        let report = run_once req config bench compiled in
        wall := (Unix.gettimeofday () -. t0) :: !wall;
        sim_s := !sim_s +. report.Report.total_s
      done;
      phases.ph_execute_s <- Unix.gettimeofday () -. te0;
      let wall = List.rev !wall in
      P.ok_response ?id:req.P.id ~req_id ~op:req.P.op
        (base @ fallback_fields
        @ [
            ("runs", Json.Int req.P.repeats);
            ("sim_s", Json.Float !sim_s);
            ("wall_s", Json.List (List.map (fun w -> Json.Float w) wall));
          ])
    | P.Health | P.Stats | P.Metrics | P.Shutdown ->
      assert false (* handled inline *))

(* Convert any failure of a request into its structured error response.
   This function must not raise: it is the daemon's crash-isolation
   boundary.

   Classification caveat: an exception raised *inside* a DPU launch
   reaches us wrapped as [Usim.Machine.Dpu_failed] (resp. the CIM
   equivalent) with the original exception stringified into its message —
   the simulators stringify per-DPU outcomes to pick the lowest failing
   DPU deterministically. So watchdog / deadline / cancellation trips are
   recognized by message substring, not only by exception constructor.
   Injected device faults never take this path (they are absorbed by the
   retry/remap pre-pass), so a "watchdog:" or "deadline exceeded" match
   is unambiguous. *)
let execute_request_safe srv (req : P.request) config ~phases : Json.t =
  let req_id = config.Config.req_id in
  match execute_request srv req config ~phases with
  | resp -> resp
  | exception Config.Cancelled msg ->
    let code =
      if Atomic.get config.Config.cancel then P.Cancelled else P.Deadline_exceeded
    in
    P.error_response ?id:req.P.id ~req_id ~op:req.P.op ~code msg
  | exception Pass.Pass_failed diag ->
    (* reproducers are domain-local; this worker's last one is ours *)
    let detail =
      match Pass.last_reproducer () with
      | Some r when r.Pass.diag = diag ->
        [ ("reproducer", Json.String r.Pass.path) ]
      | _ -> []
    in
    P.error_response ?id:req.P.id ~req_id ~op:req.P.op ~detail
      ~code:P.Pass_failed (Pass.diag_to_string diag)
  | exception e ->
    let msg =
      match e with Interp.Interp_error m -> m | e -> Printexc.to_string e
    in
    let code =
      if contains msg "watchdog:" then P.Watchdog
      else if contains msg "deadline exceeded" then P.Deadline_exceeded
      else if contains msg "request cancelled" then P.Cancelled
      else P.Internal
    in
    P.error_response ?id:req.P.id ~req_id ~op:req.P.op ~code msg

(* ----- inline ops ----- *)

let health_response srv (req : P.request) ~req_id =
  Mutex.lock srv.mutex;
  let inflight = srv.inflight and draining = srv.draining in
  Mutex.unlock srv.mutex;
  P.ok_response ?id:req.P.id ~req_id ~op:req.P.op
    [
      ("status", Json.String (if draining then "draining" else "ok"));
      ("inflight", Json.Int inflight);
      ("capacity", Json.Int srv.opts.max_inflight);
      ("benchmarks", Json.List (List.map (fun n -> Json.String n) (Catalog.names ())));
    ]

let stats_response srv (req : P.request) ~req_id =
  Mutex.lock srv.mutex;
  let degraded = srv.counters.degraded and rejected = srv.counters.rejected in
  let inflight = srv.inflight in
  let by_code = List.sort compare (List.of_seq (Hashtbl.to_seq srv.by_code)) in
  Mutex.unlock srv.mutex;
  let served = List.fold_left (fun acc (_, n) -> acc + n) 0 by_code in
  let ok = Option.value (List.assoc_opt "ok" by_code) ~default:0 in
  let errors = served - ok in
  let by_code = List.map (fun (code, n) -> (code, Json.Int n)) by_code in
  let pc = Cache.stats srv.cache in
  let cc = Compile.cache_stats () in
  let ar = Tensor.Arena.stats () in
  P.ok_response ?id:req.P.id ~req_id ~op:req.P.op
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. srv.start_time));
      ("served", Json.Int served);
      ("ok", Json.Int ok);
      ("errors", Json.Int errors);
      ("degraded", Json.Int degraded);
      ("rejected", Json.Int rejected);
      ("inflight", Json.Int inflight);
      ("by_code", Json.Obj by_code);
      ( "pipeline_cache",
        Json.Obj
          [
            ("hits", Json.Int pc.Cache.hits);
            ("misses", Json.Int pc.Cache.misses);
            ("evictions", Json.Int pc.Cache.evictions);
            ("entries", Json.Int pc.Cache.entries);
          ] );
      ( "code_cache",
        Json.Obj
          [
            ("hits", Json.Int cc.Compile.hits);
            ("misses", Json.Int cc.Compile.misses);
            ("evictions", Json.Int cc.Compile.evictions);
            ("entries", Json.Int cc.Compile.entries);
          ] );
      ( "arena",
        Json.Obj
          [
            ("keys", Json.Int ar.Tensor.Arena.keys);
            ("pooled", Json.Int ar.Tensor.Arena.pooled);
            ("largest_pool", Json.Int ar.Tensor.Arena.largest_pool);
          ] );
    ]

(* The telemetry registry as structured JSON: counters and gauges by
   name, histograms with count/sum/min/max and bucket-resolution
   percentiles. Non-finite gauge samples are dropped (JSON has no NaN). *)
let metrics_response srv (req : P.request) ~req_id =
  let counters =
    List.map (fun (n, _, v) -> (n, Json.Int v)) (M.counters ())
  in
  let gauges =
    List.filter_map
      (fun (n, _, v) ->
        if Float.is_finite v then Some (n, Json.Float v) else None)
      (M.gauges ())
  in
  let hists =
    List.map
      (fun (s : M.hist_snapshot) ->
        ( s.M.hname,
          Json.Obj
            [
              ("count", Json.Int s.M.count);
              ("sum", Json.Float s.M.sum);
              ("min", Json.Float (if s.M.count = 0 then 0.0 else s.M.minv));
              ("max", Json.Float (if s.M.count = 0 then 0.0 else s.M.maxv));
              ("p50", Json.Float (M.quantile s 0.5));
              ("p95", Json.Float (M.quantile s 0.95));
              ("p99", Json.Float (M.quantile s 0.99));
            ] ))
      (M.histograms ())
  in
  P.ok_response ?id:req.P.id ~req_id ~op:req.P.op
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. srv.start_time));
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj hists);
    ]

(* ----- admission (event-loop side) ----- *)

let finish_request srv conn seq =
  Mutex.lock srv.mutex;
  srv.inflight <- srv.inflight - 1;
  Hashtbl.remove srv.live seq;
  conn.refs <- conn.refs - 1;
  Mutex.unlock srv.mutex

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let admit srv conn (req : P.request) ~req_id =
  match request_config srv req ~req_id with
  | Error msg ->
    send_error srv conn ?id:req.P.id ~req_id ~op:req.P.op ~code:P.Bad_request msg
  | Ok config ->
    Mutex.lock srv.mutex;
    if srv.draining then begin
      Mutex.unlock srv.mutex;
      send_error srv conn ?id:req.P.id ~req_id ~op:req.P.op ~code:P.Shutting_down
        "daemon is shutting down"
    end
    else if srv.inflight >= srv.opts.max_inflight then begin
      Mutex.unlock srv.mutex;
      send_error srv conn ?id:req.P.id ~req_id ~op:req.P.op ~code:P.Overloaded
        (Printf.sprintf "%d requests in flight (capacity %d); retry later"
           srv.inflight srv.opts.max_inflight)
    end
    else begin
      srv.inflight <- srv.inflight + 1;
      srv.seq <- srv.seq + 1;
      let seq = srv.seq in
      Hashtbl.replace srv.live seq config.Config.cancel;
      conn.refs <- conn.refs + 1;
      Mutex.unlock srv.mutex;
      let t_admit = Unix.gettimeofday () in
      let task () =
        let t_start = Unix.gettimeofday () in
        M.record srv.m.hm_queue (t_start -. t_admit);
        Fun.protect
          ~finally:(fun () -> finish_request srv conn seq)
          (fun () ->
            Log.with_context req_id (fun () ->
                let phases =
                  { ph_compile_s = -1.0; ph_execute_s = -1.0; ph_cache = "" }
                in
                let run_exec () =
                  let t0 = if Trace.enabled () then Trace.now_host () else 0.0 in
                  let resp = execute_request_safe srv req config ~phases in
                  if Trace.enabled () then
                    Trace.complete ~cat:"serve" ~clock:Trace.Host
                      ~pid:Trace.host_pid ~track:"serve" ~ts:t0
                      ~dur:(Trace.now_host () -. t0)
                      ~args:
                        [
                          ("benchmark", Trace.Str req.P.benchmark);
                          ("req_id", Trace.Str req_id);
                          ( "ok",
                            Trace.Str
                              (if Json.bool_field resp "ok" = Some true then
                                 "true"
                               else "false") );
                        ]
                      (P.op_name req.P.op ^ ":" ^ req.P.benchmark);
                  resp
                in
                (* "trace": true captures exactly this request's spans —
                   the serve span above is emitted inside the capture *)
                let resp, trace_fields =
                  if req.P.trace then (
                    let resp, cap = Trace.with_capture run_exec in
                    let tj = Trace.capture_to_json cap in
                    match srv.opts.trace_dir with
                    | Some dir -> (
                      let path =
                        Filename.concat dir (req_id ^ ".trace.json")
                      in
                      match write_file path tj with
                      | () -> (resp, [ ("trace_path", Json.String path) ])
                      | exception Sys_error msg ->
                        (resp, [ ("trace_error", Json.String msg) ]))
                    | None -> (resp, [ ("trace", Json.String tj) ]))
                  else (run_exec (), [])
                in
                let resp =
                  match resp with
                  | Json.Obj fields -> Json.Obj (fields @ trace_fields)
                  | j -> j
                in
                (* histograms commit before the response is written, like
                   the counters in [send] *)
                let e2e = Unix.gettimeofday () -. t_admit in
                M.record srv.m.hm_request e2e;
                if phases.ph_compile_s >= 0.0 then
                  M.record srv.m.hm_compile phases.ph_compile_s;
                if phases.ph_execute_s >= 0.0 then
                  M.record srv.m.hm_execute phases.ph_execute_s;
                if
                  srv.opts.slow_request_s > 0.0
                  && e2e >= srv.opts.slow_request_s
                then
                  Log.warn
                    "serve: slow request: op=%s benchmark=%s backend=%s \
                     code=%s total_ms=%.1f queue_ms=%.1f compile_ms=%.1f \
                     execute_ms=%.1f cache=%s"
                    (P.op_name req.P.op) req.P.benchmark req.P.backend
                    (response_code resp) (1e3 *. e2e)
                    (1e3 *. (t_start -. t_admit))
                    (1e3 *. Float.max 0.0 phases.ph_compile_s)
                    (1e3 *. Float.max 0.0 phases.ph_execute_s)
                    (if phases.ph_cache = "" then "-" else phases.ph_cache);
                send srv conn resp))
      in
      if not (Pool.submit srv.pool task) then begin
        finish_request srv conn seq;
        send_error srv conn ?id:req.P.id ~req_id ~op:req.P.op
          ~code:P.Shutting_down "daemon is shutting down"
      end
    end

(* One complete request line from a connection. Never raises; never
   closes the connection — every outcome is a response. Each line gets a
   fresh correlation id, echoed in the response and carried by every log
   line / span / reproducer the request produces. *)
let handle_line srv conn line =
  if String.length line > srv.opts.max_request_bytes then
    send_error srv conn ~req_id:(fresh_req_id srv) ~code:P.Oversized
      (Printf.sprintf "request of %d bytes exceeds the %d-byte limit"
         (String.length line) srv.opts.max_request_bytes)
  else if String.trim line = "" then () (* blank lines are keep-alive noise *)
  else
    let req_id = fresh_req_id srv in
    match Json.parse line with
    | exception Json.Parse_error e ->
      send_error srv conn ~req_id ~detail:(P.parse_error_detail e)
        ~code:P.Parse_error_code e.Json.message
    | j -> (
      match P.decode j with
      | Error msg ->
        let id = Json.string_field j "id" in
        send_error srv conn ?id ~req_id ~code:P.Bad_request msg
      | Ok req -> (
        match req.P.op with
        | P.Health -> send srv conn (health_response srv req ~req_id)
        | P.Stats -> send srv conn (stats_response srv req ~req_id)
        | P.Metrics -> send srv conn (metrics_response srv req ~req_id)
        | P.Shutdown ->
          send srv conn
            (P.ok_response ?id:req.P.id ~req_id ~op:req.P.op
               [ ("status", Json.String "draining") ]);
          Atomic.set srv.shutdown_flag true
        | P.Compile | P.Run | P.Bench -> admit srv conn req ~req_id))

(* ----- Prometheus exposition (HTTP, multiplexed onto the select loop) -----

   A deliberately minimal HTTP/1.1 server: GET /metrics returns the text
   exposition, everything else 404/405, every response closes the
   connection. Requests are read until the blank line (or an 8 KiB cap);
   the response write is blocking, which is fine for localhost scrapers
   (the body fits the socket buffer). *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let http_reply data =
  let line_end =
    match (String.index_opt data '\r', String.index_opt data '\n') with
    | Some r, Some n -> min r n
    | Some r, None -> r
    | None, Some n -> n
    | None, None -> String.length data
  in
  match String.split_on_char ' ' (String.sub data 0 line_end) with
  | "GET" :: path :: _
    when path = "/metrics" || String.starts_with ~prefix:"/metrics?" path ->
    http_response ~status:"200 OK"
      ~content_type:"text/plain; version=0.0.4; charset=utf-8"
      (M.to_prometheus ())
  | "GET" :: _ ->
    http_response ~status:"404 Not Found"
      ~content_type:"text/plain; charset=utf-8" "not found; try /metrics\n"
  | _ ->
    http_response ~status:"405 Method Not Allowed"
      ~content_type:"text/plain; charset=utf-8" "only GET is supported\n"

let close_metrics_conn srv fd reply =
  (match reply with
  | Some body -> ( try write_all fd body with Exit | Unix.Unix_error _ -> ())
  | None -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  srv.mconns <- List.filter (fun (f, _) -> f <> fd) srv.mconns

let read_metrics_conn srv fd buf scratch =
  match Unix.read fd scratch 0 (Bytes.length scratch) with
  | 0 -> close_metrics_conn srv fd None
  | n ->
    Buffer.add_subbytes buf scratch 0 n;
    let data = Buffer.contents buf in
    if contains data "\r\n\r\n" || contains data "\n\n" then
      close_metrics_conn srv fd (Some (http_reply data))
    else if Buffer.length buf > 8192 then close_metrics_conn srv fd None
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
  | exception Unix.Unix_error _ -> close_metrics_conn srv fd None

(* ----- the event loop ----- *)

(* Split complete lines off a connection's read buffer, handling each;
   the remainder stays buffered. Oversized partial lines flip the
   connection into skip-until-newline mode so the stream resyncs instead
   of closing or buffering without bound. *)
let drain_buffer srv conn =
  let data = Buffer.contents conn.rbuf in
  Buffer.clear conn.rbuf;
  let n = String.length data in
  let pos = ref 0 in
  (try
     while !pos < n do
       match String.index_from_opt data !pos '\n' with
       | Some nl ->
         let line = String.sub data !pos (nl - !pos) in
         if conn.skipping then conn.skipping <- false
         else handle_line srv conn line;
         pos := nl + 1
       | None ->
         let rest = n - !pos in
         if conn.skipping then () (* drop bytes until a newline shows up *)
         else if rest > srv.opts.max_request_bytes then begin
           (* unbounded line: shed it now, resync at the next newline *)
           send_error srv conn ~req_id:(fresh_req_id srv) ~code:P.Oversized
             (Printf.sprintf
                "request exceeds the %d-byte limit; discarding until newline"
                srv.opts.max_request_bytes);
           conn.skipping <- true
         end
         else Buffer.add_substring conn.rbuf data !pos rest;
         pos := n
     done
   with e ->
     (* handle_line is not supposed to raise; contain it so the event
        loop survives even if it does *)
     Log.warn "serve: request handler raised: %s" (Printexc.to_string e))

let read_chunk srv conn scratch =
  match Unix.read conn.fd scratch 0 (Bytes.length scratch) with
  | 0 -> conn.peer_open <- false
  | n ->
    Buffer.add_subbytes conn.rbuf scratch 0 n;
    drain_buffer srv conn
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    conn.peer_open <- false
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()

(* Callback gauges for everything the daemon can cheaply sample: pool
   pressure, cache occupancy, arena occupancy, uptime. Sampled at
   snapshot time, outside the registry lock, so taking [srv.mutex] or
   the pool's lock here is safe. Re-registration replaces, so a daemon
   restarted in-process re-points the gauges at the live server. *)
let register_server_gauges srv =
  M.register_gauge ~help:"Admitted (queued + executing) requests"
    "cinm_serve_inflight" (fun () ->
      Mutex.lock srv.mutex;
      let n = srv.inflight in
      Mutex.unlock srv.mutex;
      float_of_int n);
  M.register_gauge ~help:"Tasks waiting in the domain-pool queue"
    "cinm_serve_queue_depth" (fun () ->
      float_of_int (Pool.stats srv.pool).Pool.st_queued);
  M.register_gauge ~help:"Pool tasks currently executing"
    "cinm_serve_pool_active" (fun () ->
      float_of_int (Pool.stats srv.pool).Pool.st_active);
  M.register_gauge ~help:"Domain-pool worker domains spawned" "cinm_serve_pool_workers"
    (fun () -> float_of_int (Pool.stats srv.pool).Pool.st_workers);
  M.register_gauge ~help:"Executing pool tasks over workers (0..1)"
    "cinm_serve_pool_utilization" (fun () ->
      let s = Pool.stats srv.pool in
      if s.Pool.st_workers = 0 then 0.0
      else float_of_int s.Pool.st_active /. float_of_int s.Pool.st_workers);
  M.register_gauge ~help:"Pipeline-cache entries"
    "cinm_serve_pipeline_cache_entries" (fun () ->
      float_of_int (Cache.stats srv.cache).Cache.entries);
  M.register_gauge ~help:"Compiled-region cache entries"
    "cinm_code_cache_entries" (fun () ->
      float_of_int (Compile.cache_stats ()).Compile.entries);
  M.register_gauge ~help:"Compiled-region cache hits (cumulative)"
    "cinm_code_cache_hits" (fun () ->
      float_of_int (Compile.cache_stats ()).Compile.hits);
  M.register_gauge ~help:"Compiled-region cache misses (cumulative)"
    "cinm_code_cache_misses" (fun () ->
      float_of_int (Compile.cache_stats ()).Compile.misses);
  M.register_gauge ~help:"Tensors parked in the launch arena"
    "cinm_arena_pooled" (fun () ->
      float_of_int (Tensor.Arena.stats ()).Tensor.Arena.pooled);
  M.register_gauge ~help:"Daemon uptime in seconds" "cinm_serve_uptime_seconds"
    (fun () -> Unix.gettimeofday () -. srv.start_time)

let create (opts : opts) : t =
  (match Unix.lstat opts.socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink opts.socket_path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX opts.socket_path);
  Unix.listen listen_fd 64;
  let metrics_fd =
    if opts.metrics_port <= 0 then None
    else begin
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, opts.metrics_port));
        Unix.listen fd 16
      with
      | () ->
        Log.info "serve: metrics exposition on http://127.0.0.1:%d/metrics"
          opts.metrics_port;
        Some fd
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Log.warn "serve: cannot bind metrics port %d: %s (exposition disabled)"
          opts.metrics_port (Unix.error_message err);
        None
    end
  in
  (* With dedicated workers ([jobs > 0]) the daemon optimizes for request
     throughput: each request runs single-threaded as a task on one of
     the pool's worker domains. A [jobs]-sized pool spawns
     [max 1 (jobs - 1)] workers (the calling domain, which runs the
     accept loop, never takes tasks), so that many requests execute at
     once: one for [--jobs 1] and [--jobs 2]. The *default* pool is
     shrunk to one, so a request's device loops (the simulators
     parallel-for DPU lanes over the default pool) run inline instead of
     contending — concurrent requests beat one request's DPU loop going
     wide. With [jobs = 0] the daemon shares the default pool and keeps
     the one-shot CLI behavior (a single request's launches go
     parallel). *)
  let pool =
    if opts.jobs > 0 then begin
      Pool.set_default_jobs 1;
      Pool.create ~jobs:opts.jobs ()
    end
    else Pool.default ()
  in
  (* telemetry is always collected by the daemon — the hot path is
     lock-free shard writes, and the "metrics" op / exposition must
     answer regardless of the global trace flag *)
  M.enable ();
  let m =
    {
      hm_request =
        M.histogram
          ~help:
            "End-to-end request latency from admission to response write \
             (includes queue wait)"
          "cinm_serve_request_seconds";
      hm_queue =
        M.histogram
          ~help:"Time between admission and the start of execution on a worker"
          "cinm_serve_queue_wait_seconds";
      hm_compile =
        M.histogram
          ~help:
            "Per-request pipeline compile time (pipeline-cache hits are near \
             zero)"
          "cinm_serve_compile_seconds";
      hm_execute =
        M.histogram ~help:"Per-request device execution time (all repeats)"
          "cinm_serve_execute_seconds";
      hc_pc_hits =
        M.counter ~help:"Pipeline-cache hits"
          "cinm_serve_pipeline_cache_hits_total";
      hc_pc_misses =
        M.counter ~help:"Pipeline-cache misses"
          "cinm_serve_pipeline_cache_misses_total";
    }
  in
  let srv =
    {
      opts;
      pool;
      cache = Cache.create ~capacity:opts.cache_capacity ();
      listen_fd;
      metrics_fd;
      mconns = [];
      mutex = Mutex.create ();
      conns = [];
      inflight = 0;
      draining = false;
      counters = { degraded = 0; rejected = 0 };
      by_code = Hashtbl.create 16;
      live = Hashtbl.create 64;
      seq = 0;
      start_time = Unix.gettimeofday ();
      rid_prefix =
        Printf.sprintf "%06x"
          (Hashtbl.hash
             (opts.socket_path, Unix.getpid (), Unix.gettimeofday ())
          land 0xffffff);
      rid_ctr = Atomic.make 0;
      m;
      shutdown_flag = Atomic.make false;
    }
  in
  register_server_gauges srv;
  srv

let install_signal_handlers srv =
  (* a dead client mid-write must be a failed send, not a dead daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let request_shutdown _ = Atomic.set srv.shutdown_flag true in
  try
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_shutdown);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_shutdown)
  with Invalid_argument _ -> ()

let shutdown srv =
  Mutex.lock srv.mutex;
  srv.draining <- true;
  Mutex.unlock srv.mutex;
  (* in-flight requests get [drain_grace_s] to finish; after that their
     cancel flags are set and the interpreter aborts them at the next
     watchdog point (they still answer, as [cancelled] errors) *)
  let deadline = Unix.gettimeofday () +. srv.opts.drain_grace_s in
  let cancelled = ref false in
  let rec wait () =
    Mutex.lock srv.mutex;
    let n = srv.inflight in
    if n > 0 && (not !cancelled) && Unix.gettimeofday () > deadline then begin
      Hashtbl.iter (fun _ flag -> Atomic.set flag true) srv.live;
      cancelled := true;
      Log.warn "serve: drain grace expired; cancelled %d in-flight request(s)" n
    end;
    Mutex.unlock srv.mutex;
    if n > 0 then begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  Pool.shutdown srv.pool;
  Mutex.lock srv.mutex;
  let conns = srv.conns in
  srv.conns <- [];
  Mutex.unlock srv.mutex;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  List.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    srv.mconns;
  srv.mconns <- [];
  (match srv.metrics_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink srv.opts.socket_path with Unix.Unix_error _ -> ()

(* Serve until shutdown is requested (the "shutdown" op, SIGTERM or
   SIGINT), then drain and clean up. *)
let run srv =
  install_signal_handlers srv;
  let scratch = Bytes.create 65536 in
  while not (Atomic.get srv.shutdown_flag) do
    let conn_fds = List.map (fun c -> c.fd) srv.conns in
    let mconn_fds = List.map fst srv.mconns in
    let extra =
      match srv.metrics_fd with Some fd -> [ fd ] | None -> []
    in
    (match
       Unix.select ((srv.listen_fd :: extra) @ conn_fds @ mconn_fds) [] [] 0.1
     with
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = srv.listen_fd then begin
            match Unix.accept srv.listen_fd with
            | cfd, _ ->
              let conn =
                {
                  fd = cfd;
                  wmutex = Mutex.create ();
                  rbuf = Buffer.create 1024;
                  skipping = false;
                  peer_open = true;
                  refs = 0;
                }
              in
              Mutex.lock srv.mutex;
              srv.conns <- conn :: srv.conns;
              Mutex.unlock srv.mutex
            | exception Unix.Unix_error _ -> ()
          end
          else if srv.metrics_fd = Some fd then begin
            match Unix.accept fd with
            | cfd, _ -> srv.mconns <- (cfd, Buffer.create 256) :: srv.mconns
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.assoc_opt fd srv.mconns with
            | Some buf -> read_metrics_conn srv fd buf scratch
            | None -> (
              match List.find_opt (fun c -> c.fd = fd) srv.conns with
              | Some conn -> read_chunk srv conn scratch
              | None -> ()))
        readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ());
    (* reap closed connections whose workers have all finished *)
    Mutex.lock srv.mutex;
    let dead, alive =
      List.partition (fun c -> (not c.peer_open) && c.refs = 0) srv.conns
    in
    srv.conns <- alive;
    Mutex.unlock srv.mutex;
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) dead
  done;
  shutdown srv

let serve opts =
  let srv = create opts in
  run srv
