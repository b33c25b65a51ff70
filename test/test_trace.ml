(* Tests for the unified tracing & metrics layer (Cinm_support.Trace /
   Log): Perfetto-shaped JSON export, bit-identical simulated-time tracks
   across job counts, per-pattern rewrite hit counting, the trace as a
   bit-exact view of simulator stats (reports unperturbed by tracing),
   failing-pass spans, and the leveled logger. *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
open Cinm_core
module Trace = Cinm_support.Trace
module Log = Cinm_support.Log
module Fault = Cinm_support.Fault
module Pool = Cinm_support.Pool
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module T = Types
module Json = Cinm_serve_lib.Json
module Perfetto = Cinm_check.Perfetto

let () = Registry.ensure_all ()

(* Every test leaves the global tracer the way it found it: off, empty. *)
let with_tracing f =
  Trace.clear ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ();
      Trace.Metrics.disable ();
      Trace.Metrics.reset ())
    f

(* ----- fixtures ----- *)

let tensor shape = T.Tensor (shape, T.I32)
let iota shape = Tensor.init shape (fun i -> (i mod 23) - 11)

let build_mm m k n () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| m; k |]; tensor [| k; n |] ]
      ~result_tys:[ tensor [| m; n |] ]
  in
  let b = Builder.for_func f in
  Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
  f

let force_cnm =
  Target_select.pass
    ~policy:{ Target_select.default_policy with forced_target = Some "cnm" }
    ()

let lower_to_upmem f =
  let m = Func.create_module () in
  Func.add_func m f;
  Pass.run_pipeline
    [ Tosa_to_linalg.pass; Linalg_to_cinm.pass; force_cnm;
      Cinm_to_cnm.pass
        ~options:
          { Cinm_to_cnm.dpus = 8; tasklets = 4; optimize = false;
            max_rows_per_launch = 8 }
        ();
      Cnm_to_upmem.pass () ]
    m;
  List.hd m.Func.funcs

let mm_args () = [ Rtval.Tensor (iota [| 32; 8 |]); Rtval.Tensor (iota [| 8; 6 |]) ]

(* ----- JSON export shape ----- *)

let test_json_shape () =
  with_tracing @@ fun () ->
  let _ =
    Driver.compile_and_run
      (Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:8 ~tasklets:4 ()))
      (build_mm 32 8 6 ()) (mm_args ())
  in
  let events =
    match Perfetto.events (Trace.to_json_string ()) with
    | Ok evs -> evs
    | Error e -> Alcotest.fail e
  in
  let spans = Perfetto.spans events in
  let name e = Option.value (Json.string_field e "name") ~default:"" in
  Alcotest.(check bool) "has complete spans" true (spans <> []);
  (* one span per pipeline pass: the upmem pipeline has 8 passes *)
  Alcotest.(check int) "one span per pipeline pass" 8
    (List.length (List.filter (fun e -> String.starts_with ~prefix:"pass:" (name e)) spans));
  (* one lane span per simulated DPU *)
  Alcotest.(check int) "per-DPU lane tracks" 8
    (List.length
       (List.sort_uniq compare
          (List.filter_map
             (fun e -> if Json.string_field e "cat" = Some "lane" then Json.int_field e "tid" else None)
             spans)));
  let process_names =
    List.filter_map
      (fun e ->
        if name e = "process_name" then Option.bind (Json.member "args" e) (fun a -> Json.string_field a "name")
        else None)
      events
  in
  Alcotest.(check bool) "host process registered" true
    (List.mem "host (wall clock)" process_names);
  Alcotest.(check bool) "device process registered" true
    (List.exists (String.starts_with ~prefix:"upmem") process_names)

(* ----- simulated-time track is bit-identical across --jobs ----- *)

let test_device_track_determinism () =
  let faults = Fault.make ~seed:7 { Fault.no_rates with Fault.dpu_transient = 0.08 } in
  let run ~jobs =
    Trace.clear ();
    Trace.enable ();
    Pool.set_default_jobs jobs;
    let machine =
      Usim.Machine.create ~faults:(Some faults) (Usim.Config.default ~dimms:1 ())
    in
    let f = lower_to_upmem (build_mm 32 8 6 ()) in
    let _ = Interp.run_func ~hooks:[ Usim.Machine.hook machine ] f (mm_args ()) in
    Pool.set_default_jobs 1;
    let evs =
      List.map
        (fun (e : Trace.event) ->
          (* pids are allocated per machine instance; everything else on
             the device track must match bit for bit *)
          (e.Trace.ev_name, e.Trace.cat, e.Trace.ph, e.Trace.track,
           e.Trace.ts, e.Trace.dur))
        (Trace.device_events ())
    in
    Trace.disable ();
    Trace.clear ();
    evs
  in
  let e1 = run ~jobs:1 in
  let e4 = run ~jobs:4 in
  Alcotest.(check bool) "device events non-empty" true (e1 <> []);
  Alcotest.(check bool) "device track has fault instants" true
    (List.exists (fun (_, cat, ph, _, _, _) -> cat = "fault" && ph = 'i') e1);
  Alcotest.(check bool) "device track identical for jobs 1 vs 4" true (e1 = e4)

(* ----- per-pattern rewrite hit counts ----- *)

let test_pattern_hits () =
  with_tracing @@ fun () ->
  Trace.Metrics.enable ();
  let f = Func.create ~name:"t" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  (* hand-counted op mix: 3 nops, 2 others, 1 survivor *)
  for _ = 1 to 3 do
    Builder.insert b (Ir.create_op "test.nop")
  done;
  for _ = 1 to 2 do
    Builder.insert b (Ir.create_op "test.other")
  done;
  Builder.insert b (Ir.create_op "test.keep");
  Func_d.return b [];
  let m = Func.create_module () in
  Func.add_func m f;
  let erase name : Rewrite.pattern =
   fun _ctx op -> if op.Ir.name = name then Some Rewrite.Erase else None
  in
  let pass = Pass.of_patterns ~name:"test-erase" [ erase "test.nop"; erase "test.other" ] in
  (* the synthetic test.* ops are unregistered, so keep strict mode (which
     forces verification even with ~verify:false) out of this run *)
  let config =
    { (Cinm_support.Config.default ()) with Cinm_support.Config.strict = false }
  in
  (match Pass.run_one_result ~verify:false ~config pass m with
  | Ok () -> ()
  | Error d -> Alcotest.failf "pass failed: %s" (Pass.diag_to_string d));
  Alcotest.(check int) "pattern0 hits" 3
    (Trace.Metrics.get "rewrite.test-erase.pattern0");
  Alcotest.(check int) "pattern1 hits" 2
    (Trace.Metrics.get "rewrite.test-erase.pattern1");
  (* the pass span carries the same counts and the op delta *)
  let span =
    List.find
      (fun (e : Trace.event) -> e.Trace.ev_name = "pass:test-erase")
      (Trace.events ())
  in
  Alcotest.(check bool) "span pattern0_hits arg" true
    (List.mem ("pattern0_hits", Trace.Int 3) span.Trace.args);
  Alcotest.(check bool) "span pattern1_hits arg" true
    (List.mem ("pattern1_hits", Trace.Int 2) span.Trace.args);
  Alcotest.(check bool) "span ops_delta arg" true
    (List.mem ("ops_delta", Trace.Int (-5)) span.Trace.args)

(* ----- the trace is a view of the stats ----- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Reports read the simulators' stats; the device-clock trace must be a
   view of the same numbers. Per backend: the traced report equals the
   untraced one, and on a traced machine set running the same module,
   each machine's spans folded per category reproduce its stats buckets
   bit for bit (every bucket increment emits one span, in order). *)
let check_trace_view backend build args =
  Trace.disable ();
  Trace.clear ();
  let compiled () = Driver.compile_func backend (build ()) in
  let _, off = Driver.run (compiled ()) (args ()) in
  with_tracing @@ fun () ->
  let c = compiled () in
  let _, on = Driver.run c (args ()) in
  Alcotest.(check bool) "traced report = untraced report" true (off = on);
  let ms = Machine_set.create ~faults:None backend in
  let f = List.hd c.Driver.modul.Func.funcs in
  (match backend with
  | Backend.Hetero _ ->
    ignore
      (Stream_exec.run ~modul:c.Driver.modul ~host_cost:(fun _ -> 0.0) ~machines:ms f
         (args ()))
  | _ ->
    ignore (Compile.run_func ~hooks:(Machine_set.hooks ms) ~modul:c.Driver.modul f (args ())));
  let check ~pid buckets =
    Alcotest.(check bool) "machine traced" true (pid > 0);
    List.iter
      (fun (cat, v) ->
        Alcotest.(check bool)
          (Printf.sprintf "fold of %S spans = stats bucket %h" cat v)
          true
          (bits_equal (Trace.device_total ~pid cat) v))
      buckets
  in
  Option.iter
    (fun (m : Usim.Machine.t) ->
      let s = m.Usim.Machine.stats in
      check ~pid:m.Usim.Machine.trace_pid
        [
          ("cpu->dpu", s.Usim.Stats.host_to_device_s);
          ("kernel", s.Usim.Stats.kernel_s);
          ("dpu->cpu", s.Usim.Stats.device_to_host_s);
        ])
    ms.Machine_set.upmem;
  Option.iter
    (fun (m : Msim.Machine.t) ->
      let s = m.Msim.Machine.stats in
      check ~pid:m.Msim.Machine.trace_pid
        [
          ("program", s.Msim.Stats.time.program_s);
          ("mvm", s.Msim.Stats.time.compute_s);
          ("io", s.Msim.Stats.time.io_s);
        ])
    ms.Machine_set.memristor

let test_report_unperturbed () =
  check_trace_view
    (Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:8 ~tasklets:4 ()))
    (build_mm 32 8 6) mm_args

let test_cim_report_unperturbed () =
  check_trace_view
    (Backend.Cim (Backend.default_cim ~min_writes:true ~parallel:true ()))
    (build_mm 32 8 6) mm_args

let test_hetero_report_unperturbed () =
  let b = Cinm_benchmarks.Hetero_kernels.mix () in
  check_trace_view
    (Backend.default_hetero ~ranks:4 ~dimms:2 ~dpus_per_dimm:8 ())
    b.Cinm_benchmarks.Benchmark.build b.Cinm_benchmarks.Benchmark.inputs

(* ----- a failing pass still gets its span, with the diag attached ----- *)

let test_failing_pass_span () =
  with_tracing @@ fun () ->
  let pass =
    Pass.create ~name:"exploding" (fun _ -> invalid_arg "deliberate failure")
  in
  let m = Func.create_module () in
  (match Pass.run_one_result ~verify:false pass m with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected the pass to fail");
  match
    List.find_opt
      (fun (e : Trace.event) -> e.Trace.ev_name = "pass:exploding")
      (Trace.events ())
  with
  | None -> Alcotest.fail "no span for the failing pass"
  | Some span ->
    Alcotest.(check bool) "span carries the error" true
      (List.exists
         (function
           | "error", Trace.Str msg ->
             (* the diag mentions the pass and the message *)
             let has sub =
               let n = String.length sub in
               let rec go i =
                 i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
               in
               go 0
             in
             has "exploding" && has "deliberate failure"
           | _ -> false)
         span.Trace.args);
    Alcotest.(check bool) "wall time recorded" true (span.Trace.dur >= 0.0)

(* ----- tracing off is a no-op ----- *)

let test_disabled_noop () =
  Trace.disable ();
  Trace.clear ();
  Trace.complete ~clock:Trace.Host ~pid:Trace.host_pid ~track:"x" ~ts:0.0
    ~dur:1.0 "ignored";
  Trace.instant ~clock:Trace.Host ~pid:Trace.host_pid ~track:"x" ~ts:0.0 "ignored";
  Trace.Metrics.incr "ignored";
  Alcotest.(check int) "no events collected" 0 (List.length (Trace.events ()));
  Alcotest.(check int) "no metrics collected" 0 (Trace.Metrics.get "ignored")

(* ----- leveled logger ----- *)

let test_log_levels () =
  let seen = ref [] in
  Log.set_sink (Some (fun level msg -> seen := (level, msg) :: !seen));
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink None;
      Log.set_level Log.Warn)
  @@ fun () ->
  Log.set_level Log.Warn;
  Log.debug "d%d" 1;
  Log.info "i%d" 2;
  Log.warn "w%d" 3;
  Alcotest.(check int) "only warn passes at level warn" 1 (List.length !seen);
  Alcotest.(check bool) "warn text" true (List.mem (Log.Warn, "w3") !seen);
  Log.set_level Log.Debug;
  Log.debug "d%d" 4;
  Log.info "i%d" 5;
  Alcotest.(check int) "debug level passes everything" 3 (List.length !seen);
  Alcotest.(check bool) "debug text" true (List.mem (Log.Debug, "d4") !seen);
  Alcotest.(check bool) "info text" true (List.mem (Log.Info, "i5") !seen)

(* ----- metrics dump is stable ----- *)

let test_metrics_dump () =
  Trace.Metrics.reset ();
  Trace.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.Metrics.disable ();
      Trace.Metrics.reset ())
  @@ fun () ->
  Trace.Metrics.incr "b.count";
  Trace.Metrics.incr ~by:4 "b.count";
  Trace.Metrics.incr "a.count";
  Trace.Metrics.observe "a.hist" 2.0;
  Trace.Metrics.observe "a.hist" 4.0;
  Alcotest.(check string) "stable sorted dump"
    "counter a.count 1\ncounter b.count 5\nhistogram a.hist n=2 sum=6 min=2 max=4\n"
    (Trace.Metrics.dump ())

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "json export is Perfetto-shaped" `Quick test_json_shape;
          Alcotest.test_case "device track identical across jobs" `Quick
            test_device_track_determinism;
          Alcotest.test_case "per-pattern rewrite hits" `Quick test_pattern_hits;
          Alcotest.test_case "upmem report unperturbed by tracing" `Quick
            test_report_unperturbed;
          Alcotest.test_case "cim report unperturbed by tracing" `Quick
            test_cim_report_unperturbed;
          Alcotest.test_case "hetero report unperturbed by tracing" `Quick
            test_hetero_report_unperturbed;
          Alcotest.test_case "failing pass still gets a span" `Quick
            test_failing_pass_span;
          Alcotest.test_case "disabled tracing is a no-op" `Quick test_disabled_noop;
        ] );
      ( "log",
        [ Alcotest.test_case "leveled logger thresholds" `Quick test_log_levels ] );
      ( "metrics",
        [ Alcotest.test_case "stable text dump" `Quick test_metrics_dump ] );
    ]
