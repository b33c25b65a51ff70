(* cinm-run: compile one of the built-in benchmarks for a backend, execute
   it on the corresponding simulator, check the result against the host
   reference, and print the report.

   Example:
     cinm_run --benchmark mm --backend upmem --dimms 4 --optimize
     cinm_run --benchmark conv --backend cim --min-writes --parallel
     cinm_run --list
*)

open Cinm_core
open Cinm_benchmarks
open Cmdliner

let () = Cinm_dialects.Registry.ensure_all ()

let benchmarks () : (string * Benchmark.t) list =
  let ml = Suites.ml_suite () in
  let prim = Suites.prim_suite () in
  List.map (fun (b : Benchmark.t) -> (b.Benchmark.name, b)) (ml @ prim)

let run list_benchmarks bench_name backend_name dimms dpus_per_dimm tasklets optimize
    min_writes parallel show_ir trace_out interp strict max_steps =
  (match interp with
  | "" | "tree" | "compiled" -> ()
  | s ->
    Printf.eprintf "unknown interpreter backend %S (tree|compiled)\n" s;
    exit 1);
  Cinm_support.Config.update_default (fun c ->
      {
        c with
        strict = strict || c.strict;
        max_steps = (if max_steps > 0 then max_steps else c.max_steps);
        interp = (if interp <> "" then interp else c.interp);
      });
  if list_benchmarks then begin
    List.iter
      (fun (name, (b : Benchmark.t)) ->
        Printf.printf "%-10s %-20s %s\n" name b.Benchmark.category b.Benchmark.description)
      (benchmarks ());
    0
  end
  else begin
    match List.assoc_opt bench_name (benchmarks ()) with
    | None ->
      Printf.eprintf "unknown benchmark %S (use --list)\n" bench_name;
      1
    | Some bench ->
      let backend =
        match backend_name with
        | "cpu" -> Backend.Host_xeon
        | "arm" -> Backend.Host_arm
        | "upmem" ->
          Backend.Upmem
            (Backend.default_upmem ~dimms ~dpus_per_dimm ~tasklets ~optimize ())
        | "cim" -> Backend.Cim (Backend.default_cim ~min_writes ~parallel ())
        | other ->
          Printf.eprintf "unknown backend %S (cpu|arm|upmem|cim)\n" other;
          exit 1
      in
      if trace_out <> "" then Cinm_support.Trace.enable ();
      let compiled = Driver.compile_func backend (bench.Benchmark.build ()) in
      if show_ir then
        print_endline
          (Cinm_ir.Printer.module_to_string compiled.Driver.modul);
      let results, report = Driver.run compiled (bench.Benchmark.inputs ()) in
      if trace_out <> "" then Cinm_support.Trace.write trace_out;
      let ok = Benchmark.results_match bench results in
      Printf.printf "%s\n" (Report.to_string report);
      Printf.printf "result check vs host reference: %s\n" (if ok then "OK" else "MISMATCH");
      if ok then 0 else 1
  end

let cmd =
  let doc = "compile and simulate a CINM benchmark" in
  Cmd.v (Cmd.info "cinm_run" ~doc)
    Term.(
      const run
      $ Arg.(value & flag & info [ "list" ] ~doc:"List benchmarks.")
      $ Arg.(value & opt string "mm" & info [ "benchmark"; "b" ] ~docv:"NAME")
      $ Arg.(value & opt string "upmem" & info [ "backend" ] ~docv:"cpu|arm|upmem|cim")
      $ Arg.(value & opt int 1 & info [ "dimms" ] ~docv:"N")
      $ Arg.(value & opt int 8 & info [ "dpus-per-dimm" ] ~docv:"N")
      $ Arg.(value & opt int 16 & info [ "tasklets" ] ~docv:"N")
      $ Arg.(value & flag & info [ "optimize" ] ~doc:"cinm-opt (WRAM-aware) codegen.")
      $ Arg.(value & flag & info [ "min-writes" ] ~doc:"CIM loop interchange.")
      $ Arg.(value & flag & info [ "parallel" ] ~doc:"CIM tile-parallel unrolling.")
      $ Arg.(value & flag & info [ "show-ir" ] ~doc:"Print the lowered IR.")
      $ Arg.(value & opt string "" & info [ "trace" ] ~docv:"FILE"
               ~doc:"Write a Chrome trace-event JSON (compile passes + \
                     simulated device timeline); open in ui.perfetto.dev.")
      $ Arg.(value & opt string "" & info [ "interp" ] ~docv:"tree|compiled"
               ~doc:"Interpreter backend: tree-walking reference or \
                     closure-compiling executor (default: CINM_INTERP or \
                     tree).")
      $ Arg.(value & flag & info [ "strict" ]
               ~doc:"Strict checking: verify the module and assert the \
                     print->parse->print fixpoint after every pass (also \
                     CINM_STRICT=1).")
      $ Arg.(value & opt int 0 & info [ "max-steps" ] ~docv:"N"
               ~doc:"Interpreter watchdog: abort any execution after N \
                     launched ops (also CINM_MAX_STEPS; 0 = unlimited)."))

let () = exit (Cmd.eval' cmd)
