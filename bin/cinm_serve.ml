(* cinm_serve: run the compile-and-run daemon on a Unix-domain socket.

   Example:
     cinm_serve --socket /tmp/cinm.sock --jobs 4 --max-inflight 32 \
       --deadline-s 5 --warm

   Talk to it with newline-delimited JSON:
     {"op":"health"}
     {"op":"run","benchmark":"mm","backend":"upmem","id":"r1"}
     {"op":"shutdown"}

   Environment variables (CINM_STRICT, CINM_MAX_STEPS, CINM_INTERP,
   CINM_PASS_BUDGET_S, CINM_REPRODUCER_DIR, CINM_FAULTS) seed the base
   config exactly as they seed the one-shot CLI; per-request fields
   override it, and "faults": "" asks for a fault-free run. *)

open Cmdliner
module Config = Cinm_support.Config

let () = Cinm_dialects.Registry.ensure_all ()

let serve socket jobs max_inflight max_request_bytes deadline_s cache_capacity
    drain_grace_s metrics_port trace_dir slow_request_s strict interp max_steps
    pass_budget_s reproducer_dir warm trace_out =
  (match interp with
  | "" | "tree" | "compiled" -> ()
  | s ->
    Printf.eprintf "unknown interpreter backend %S (tree|compiled)\n" s;
    exit 1);
  if trace_out <> "" then begin
    Cinm_support.Trace.enable ();
    at_exit (fun () -> Cinm_support.Trace.write trace_out)
  end;
  (* base config: process env defaults, overridden by CLI flags; every
     request snapshots from this *)
  let base = Config.default () in
  let base =
    {
      base with
      Config.strict = strict || base.Config.strict;
      interp = (if interp <> "" then interp else base.Config.interp);
      max_steps = (if max_steps > 0 then max_steps else base.Config.max_steps);
      pass_budget_s =
        (if pass_budget_s > 0.0 then Some pass_budget_s
         else base.Config.pass_budget_s);
      reproducer_dir =
        (if reproducer_dir <> "" then Some reproducer_dir
         else base.Config.reproducer_dir);
    }
  in
  if warm then Cinm_serve_lib.Catalog.warm_references ();
  let opts =
    {
      Cinm_serve_lib.Server.socket_path = socket;
      jobs;
      max_inflight;
      max_request_bytes;
      default_deadline_s = deadline_s;
      cache_capacity;
      drain_grace_s;
      metrics_port;
      trace_dir = (if trace_dir = "" then None else Some trace_dir);
      slow_request_s;
      base_config = base;
    }
  in
  Printf.printf "cinm_serve: listening on %s (jobs=%d, max-inflight=%d)\n%!"
    socket
    (if jobs > 0 then jobs else Cinm_support.Pool.default_jobs ())
    max_inflight;
  Cinm_serve_lib.Server.serve opts;
  Printf.printf "cinm_serve: shut down cleanly\n%!";
  0

let cmd =
  let doc = "serve CINM compile-and-run requests over a Unix socket" in
  Cmd.v
    (Cmd.info "cinm_serve" ~doc)
    Term.(
      const serve
      $ Arg.(
          value
          & opt string "cinm-serve.sock"
          & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
      $ Arg.(
          value & opt int 0
          & info [ "jobs" ] ~docv:"N"
              ~doc:
                "Worker domains: up to N requests execute at once, one per \
                 worker, while the calling domain only accepts and admits \
                 them (0 = the default pool, sized by CINM_JOBS or the \
                 machine).")
      $ Arg.(
          value & opt int 64
          & info [ "max-inflight" ] ~docv:"N"
              ~doc:
                "Admission-control cap on queued + executing requests; \
                 beyond it requests are shed with an `overloaded' error.")
      $ Arg.(
          value & opt int 65536
          & info [ "max-request-bytes" ] ~docv:"N"
              ~doc:
                "Largest accepted request line; longer lines get an \
                 `oversized' error and the stream resyncs at the next \
                 newline.")
      $ Arg.(
          value & opt float 0.0
          & info [ "deadline-s" ] ~docv:"SECONDS"
              ~doc:
                "Default per-request deadline (0 = none); requests may \
                 override with their own deadline_s.")
      $ Arg.(
          value & opt int 256
          & info [ "cache-capacity" ] ~docv:"N"
              ~doc:"Pipeline-cache entries (compiled modules).")
      $ Arg.(
          value & opt float 10.0
          & info [ "drain-grace-s" ] ~docv:"SECONDS"
              ~doc:
                "On shutdown, how long in-flight requests may run before \
                 being cooperatively cancelled.")
      $ Arg.(
          value & opt int 0
          & info [ "metrics-port" ] ~docv:"PORT"
              ~doc:
                "Serve Prometheus text exposition on \
                 http://127.0.0.1:PORT/metrics (0 = off; the `metrics' \
                 protocol op works either way).")
      $ Arg.(
          value & opt string ""
          & info [ "trace-dir" ] ~docv:"DIR"
              ~doc:
                "Write per-request traces (requests with \"trace\": true) \
                 to DIR/<req_id>.trace.json instead of inlining the JSON \
                 in the response.")
      $ Arg.(
          value & opt float 0.0
          & info [ "slow-request-s" ] ~docv:"SECONDS"
              ~doc:
                "Warn (with the request's phase breakdown) about requests \
                 slower than this, admission to response (0 = off).")
      $ Arg.(
          value & flag
          & info [ "strict" ]
              ~doc:"Strict pass checking by default (also CINM_STRICT=1).")
      $ Arg.(
          value & opt string ""
          & info [ "interp" ] ~docv:"tree|compiled"
              ~doc:"Default interpreter backend (also CINM_INTERP).")
      $ Arg.(
          value & opt int 0
          & info [ "max-steps" ] ~docv:"N"
              ~doc:
                "Default interpreter watchdog step budget (also \
                 CINM_MAX_STEPS; 0 = unlimited).")
      $ Arg.(
          value & opt float 0.0
          & info [ "pass-budget-s" ] ~docv:"SECONDS"
              ~doc:
                "Default per-pass wall-clock budget (also \
                 CINM_PASS_BUDGET_S; 0 = none).")
      $ Arg.(
          value & opt string ""
          & info [ "reproducer-dir" ] ~docv:"DIR"
              ~doc:
                "Where pass failures write crash reproducers (also \
                 CINM_REPRODUCER_DIR).")
      $ Arg.(
          value & flag
          & info [ "warm" ]
              ~doc:
                "Precompute every benchmark's host reference before \
                 accepting connections.")
      $ Arg.(
          value & opt string ""
          & info [ "trace" ] ~docv:"FILE"
              ~doc:
                "Write a Chrome trace-event JSON with per-request serve \
                 spans at exit."))

let () = exit (Cmd.eval' cmd)
