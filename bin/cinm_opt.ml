(* cinm-opt: the mlir-opt equivalent of this repository. Reads textual IR,
   applies a named pass pipeline, prints the result.

   Example:
     cinm_opt --passes linalg-to-cinm,cinm-target-select input.mlir
     echo '...' | cinm_opt --passes tosa-to-linalg -
     cinm_opt --passes ... --trace trace.json --pass-stats input.mlir
     cinm_opt --verify-each --reproducer-dir repro/ --passes ... input.mlir
     cinm_opt --run-reproducer repro/<pass>-1.reproducer.mlir
*)

open Cinm_ir
open Cinm_transforms
open Cmdliner
module Trace = Cinm_support.Trace

let () = Cinm_dialects.Registry.ensure_all ()

let read_input = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_text path In_channel.input_all

let resolve_pipeline spec =
  match Pass_registry.resolve_spec spec with
  | Ok passes -> passes
  | Error name ->
    Printf.eprintf "unknown pass %S (use --list-passes)\n" name;
    exit 1

let run_pipeline_and_print m passes finish =
  match Pass.run_pipeline_result passes m with
  | Ok () ->
    print_endline (Printer.module_to_string m);
    finish 0
  | Error diag ->
    Printf.eprintf "%s\n" (Pass.diag_to_string diag);
    (match Pass.last_reproducer () with
    | Some r -> Printf.eprintf "reproducer written to %s\n" r.Pass.path
    | None -> ());
    finish 1

let run passes_arg verify_only verify_each reproducer_dir run_reproducer
    list_passes trace_out pass_stats print_ir_after_change print_ir_after_all
    input =
  if list_passes then begin
    List.iter (fun (name, _) -> print_endline name) (Pass_registry.all ());
    0
  end
  else begin
    if trace_out <> "" then Trace.enable ();
    if pass_stats then Trace.Metrics.enable ();
    if verify_each then
      Cinm_support.Config.update_default (fun c -> { c with strict = true });
    if reproducer_dir <> "" then
      Cinm_support.Config.update_default (fun c ->
          { c with reproducer_dir = Some reproducer_dir });
    if print_ir_after_all then Pass.set_ir_dump Pass.Dump_after_all
    else if print_ir_after_change then Pass.set_ir_dump Pass.Dump_after_change;
    let finish code =
      if trace_out <> "" then Trace.write trace_out;
      if pass_stats then prerr_string (Trace.Metrics.dump ());
      code
    in
    if run_reproducer <> "" then begin
      (* replay mode: the pipeline comes from the reproducer's own header *)
      let text = read_input run_reproducer in
      match Pass.reproducer_pipeline_of_text text with
      | None ->
        Printf.eprintf
          "%s: no '// cinm-opt --passes ...' reproducer header found\n"
          run_reproducer;
        1
      | Some names -> (
        let passes =
          match Pass_registry.resolve names with
          | Ok passes -> passes
          | Error name ->
            Printf.eprintf "reproducer names unknown pass %S\n" name;
            exit 1
        in
        match Parser.parse_module_text text with
        | exception Parser.Parse_error e ->
          Printf.eprintf "parse error: %s\n" (Parser.error_to_string e);
          1
        | m -> run_pipeline_and_print m passes finish)
    end
    else begin
      let text = read_input input in
      match Parser.parse_module_text text with
      | exception Parser.Parse_error e ->
        Printf.eprintf "parse error: %s\n" (Parser.error_to_string e);
        1
      | m -> (
        match Verifier.verify_module m with
        | (_ :: _) as errs ->
          List.iter
            (fun e -> Printf.eprintf "error: %s\n" (Verifier.error_to_string e))
            errs;
          1
        | [] ->
          if verify_only then begin
            print_endline "module verified";
            0
          end
          else
            run_pipeline_and_print m (resolve_pipeline passes_arg) finish)
    end
  end

let passes_arg =
  Arg.(value & opt string "" & info [ "passes"; "p" ] ~docv:"P1,P2,..."
         ~doc:"Comma-separated pass pipeline to apply.")

let verify_only =
  Arg.(value & flag & info [ "verify" ] ~doc:"Only verify the input module.")

let verify_each =
  Arg.(value & flag & info [ "verify-each" ]
         ~doc:"Strict checking: after every pass, verify the module and \
               assert the print->parse->print round-trip is a fixpoint \
               (also enabled by CINM_STRICT=1).")

let reproducer_dir =
  Arg.(value & opt string "" & info [ "reproducer-dir" ] ~docv:"DIR"
         ~doc:"On a pass failure, write a standalone .reproducer.mlir \
               (pre-failure IR plus a replay header) into $(docv) (also \
               settable via CINM_REPRODUCER_DIR).")

let run_reproducer =
  Arg.(value & opt string "" & info [ "run-reproducer" ] ~docv:"FILE"
         ~doc:"Replay a crash reproducer: parse the '// cinm-opt --passes \
               ...' header of $(docv) and re-run that pipeline on the IR \
               it contains.")

let list_passes =
  Arg.(value & flag & info [ "list-passes" ] ~doc:"List available passes and exit.")

let trace_out =
  Arg.(value & opt string "" & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON of the pass pipeline \
               (one span per pass, with op-count deltas and per-pattern \
               rewrite hits); open in ui.perfetto.dev.")

let pass_stats =
  Arg.(value & flag & info [ "pass-stats" ]
         ~doc:"Print pass/rewrite metrics (runs, wall time, pattern hit \
               counts) to stderr after the pipeline.")

let print_ir_after_change =
  Arg.(value & flag & info [ "print-ir-after-change" ]
         ~doc:"Dump the IR to stderr after every pass that changed it.")

let print_ir_after_all =
  Arg.(value & flag & info [ "print-ir-after-all" ]
         ~doc:"Dump the IR to stderr after every pass.")

let input =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Input IR file ('-' for stdin).")

let cmd =
  let doc = "apply CINM compiler passes to textual IR" in
  Cmd.v (Cmd.info "cinm_opt" ~doc)
    Term.(const run $ passes_arg $ verify_only $ verify_each $ reproducer_dir
          $ run_reproducer $ list_passes $ trace_out $ pass_stats
          $ print_ir_after_change $ print_ir_after_all $ input)

let () = exit (Cmd.eval' cmd)
