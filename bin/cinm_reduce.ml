(* cinm-reduce: the mlir-reduce equivalent. Takes a crash reproducer (or
   any module) and delta-debugs it down to the smallest IR that is still
   "interesting":

     - pipeline mode (default): the pass pipeline — from the file's
       '// cinm-opt --passes ...' reproducer header, or --passes — still
       fails with the same diagnostic class (pass + op);
     - --exec mode: the two interpreter backends (tree walker vs closure
       compiler) disagree on the module's output;
     - --exec-backend B: a device backend (arm | upmem | cim | hetero)
       disagrees with the CPU reference on the module's output;
     - --exec-faults: the upmem backend under a deterministic fault plan
       disagrees with its fault-free run (fault-masking bug).

   Example:
     cinm_reduce repro/cinm-to-cnm-1.reproducer.mlir -o small.mlir
     cinm_reduce --passes debug-fail-on-gemm big.mlir
     cinm_reduce --exec miscompile.mlir
     cinm_reduce --exec-backend hetero miscompile.mlir
     cinm_reduce --exec-faults --fault-seed 54 masking-bug.mlir
*)

open Cinm_ir
open Cinm_transforms
open Cinm_interp
open Cmdliner
module Reduce = Cinm_reduce_lib.Reduce

let () = Cinm_dialects.Registry.ensure_all ()

let read_input = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_text path In_channel.input_all

let diag_class (d : Pass.diag) =
  d.Pass.pass ^ ":" ^ Option.value d.Pass.op ~default:"-"

(* Pipeline outcome on a scratch clone: None = pipeline succeeds. *)
let pipeline_outcome passes m =
  let c = Func.clone_module m in
  match Pass.run_pipeline_result passes c with
  | Ok () -> None
  | Error d -> Some (diag_class d)

(* ----- --exec mode: backend-differential interestingness ----- *)

let synth_arg (ty : Types.t) : Rtval.t option =
  match ty with
  | Types.Index | Types.Scalar _ -> Some (Rtval.Int 1)
  | Types.Tensor (shape, dt) -> Some (Rtval.Tensor (Tensor.zeros shape dt))
  | Types.MemRef (shape, dt) -> Some (Rtval.Memref (Tensor.zeros shape dt))
  | _ -> None

(* Run the module's first function under one backend; any failure is part
   of the observable outcome. The step budget keeps reduced candidates
   that loop forever from hanging the reducer. *)
let exec_outcome backend m : string =
  match m.Func.funcs with
  | [] -> "<empty module>"
  | f :: _ -> (
    let args = List.map synth_arg f.Func.arg_tys in
    if List.exists Option.is_none args then "<unsynthesizable arguments>"
    else begin
      let config =
        {
          (Cinm_support.Config.default ()) with
          interp = Compile.backend_name backend;
          max_steps = 20_000_000;
        }
      in
      match Compile.run_in_module ~config m f.Func.fname (List.map Option.get args) with
      | results, _ -> String.concat "; " (List.map Rtval.to_string results)
      | exception e -> "raised: " ^ Printexc.to_string e
    end)

let backends_disagree m = exec_outcome Compile.Tree m <> exec_outcome Compile.Compiled m

(* --exec-backend: the oracle's device-vs-reference differential, through
   the full driver (lowering pipeline + simulator), not just the two host
   interpreters. Arguments are the oracle's seeded generator values so a
   fuzz reproducer reduces under the same inputs that found it. *)
module Oracle = Cinm_fuzz_lib.Oracle

let device_disagrees ~backend ~seed m =
  Oracle.exec_outcome ~backend:Cinm_core.Backend.Host_xeon ~seed m
  <> Oracle.exec_outcome ~backend ~seed m

(* --exec-faults: fault-plan-vs-fault-free differential on the upmem
   backend; interesting = the fault-tolerance machinery fails to mask the
   plan (different values, or only one side failing). *)
let faults_disagree ~seed m =
  match Oracle.backend_of_name "upmem" with
  | Error _ -> false
  | Ok upmem ->
    Oracle.exec_outcome ~backend:upmem ~seed m
    <> Oracle.exec_outcome ~backend:upmem
         ~faults:(Some (Oracle.fault_plan seed)) ~seed m

(* ----- entry point ----- *)

let run input passes_arg exec_mode exec_backend exec_faults fault_seed out
    max_rounds =
  let text = read_input input in
  let header_pipeline = Pass.reproducer_pipeline_of_text text in
  let m =
    match Parser.parse_module_text text with
    | exception Parser.Parse_error e ->
      Printf.eprintf "parse error: %s\n" (Parser.error_to_string e);
      exit 1
    | m -> m
  in
  (* predicate runs must not litter the reproducer dir with their own
     failures *)
  Cinm_support.Config.update_default (fun c -> { c with reproducer_dir = None });
  let exec_differential =
    if exec_faults then
      Some ("fault-plan vs fault-free", fun c -> faults_disagree ~seed:fault_seed c)
    else
      match exec_backend with
      | "" -> if exec_mode then Some ("tree vs compiled", backends_disagree) else None
      | name -> (
        match Oracle.backend_of_name name with
        | Error e ->
          Printf.eprintf "%s\n" e;
          exit 1
        | Ok backend ->
          Some
            ( name ^ " vs reference",
              fun c -> device_disagrees ~backend ~seed:fault_seed c ))
  in
  let interesting, pipeline_names =
    match exec_differential with
    | Some (_, disagree) ->
      ((fun c -> Verifier.verify_module c = [] && disagree c), [])
    | None ->
      begin
      let names =
        if passes_arg <> "" then
          String.split_on_char ',' passes_arg |> List.filter (fun s -> s <> "")
        else
          match header_pipeline with
          | Some names -> names
          | None ->
            Printf.eprintf
              "%s has no '// cinm-opt --passes ...' reproducer header; pass \
               --passes or --exec\n"
              input;
            exit 1
      in
      let passes =
        match Pass_registry.resolve names with
        | Ok passes -> passes
        | Error name ->
          Printf.eprintf "unknown pass %S (use cinm_opt --list-passes)\n" name;
          exit 1
      in
      match pipeline_outcome passes m with
      | None ->
        Printf.eprintf
          "input is not interesting: pipeline %s succeeds on it\n"
          (String.concat "," names);
        exit 1
      | Some cls ->
        Printf.eprintf "reducing while preserving failure class %S\n%!" cls;
        ( (fun c ->
            Verifier.verify_module c = []
            && pipeline_outcome passes c = Some cls),
          names )
    end
  in
  (match exec_differential with
  | Some (label, _) when not (interesting m) ->
    Printf.eprintf
      "input is not interesting: %s agree on its output\n" label;
    exit 1
  | Some (label, _) ->
    Printf.eprintf "reducing while preserving a %s mismatch\n%!" label
  | None -> ());
  let reduced, stats = Reduce.reduce ~max_rounds ~interesting m in
  let body =
    let s = Printer.module_to_string reduced in
    if s <> "" && s.[String.length s - 1] <> '\n' then s ^ "\n" else s
  in
  let out_text =
    match pipeline_names with
    | [] -> body
    | names ->
      (* keep the reduced artifact replayable with --run-reproducer *)
      Printf.sprintf "// cinm-opt --passes %s\n%s" (String.concat "," names) body
  in
  (match out with
  | "" -> print_string out_text
  | path -> Out_channel.with_open_text path (fun oc -> output_string oc out_text));
  Printf.eprintf "reduce: ops %d -> %d (%.0f%% reduction) in %d rounds, %d/%d candidates accepted\n"
    stats.Reduce.ops_before stats.Reduce.ops_after
    (100.
    *. float_of_int (stats.Reduce.ops_before - stats.Reduce.ops_after)
    /. float_of_int (max 1 stats.Reduce.ops_before))
    stats.Reduce.rounds stats.Reduce.accepted stats.Reduce.candidates;
  0

let input =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE"
         ~doc:"Input reproducer or module ('-' for stdin).")

let passes_arg =
  Arg.(value & opt string "" & info [ "passes"; "p" ] ~docv:"P1,P2,..."
         ~doc:"Pipeline defining the failure (defaults to the input's \
               reproducer header).")

let exec_mode =
  Arg.(value & flag & info [ "exec" ]
         ~doc:"Interestingness = the tree and compiled interpreter \
               backends disagree on the module's output (with synthesized \
               zero/one inputs), instead of a failing pipeline.")

let exec_backend =
  Arg.(value & opt string "" & info [ "exec-backend" ] ~docv:"B"
         ~doc:"Interestingness = device backend $(docv) (arm | upmem | \
               cim | hetero) disagrees with the CPU reference, through \
               the full lowering pipeline and simulator.")

let exec_faults =
  Arg.(value & flag & info [ "exec-faults" ]
         ~doc:"Interestingness = the upmem backend under the \
               deterministic fault plan (see --fault-seed) disagrees \
               with its fault-free run.")

let fault_seed =
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N"
         ~doc:"Seed for --exec-faults' fault plan and for the generated \
               arguments of the execution differentials (use the \
               'fuzz-seed' recorded in a fuzz reproducer header).")

let out =
  Arg.(value & opt string "" & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the reduced IR to $(docv) (default: stdout).")

let max_rounds =
  Arg.(value & opt int 16 & info [ "max-rounds" ] ~docv:"N"
         ~doc:"Bound on the outer reduction fixpoint loop.")

let cmd =
  let doc = "delta-debug CINM IR down to a minimal still-failing module" in
  Cmd.v (Cmd.info "cinm_reduce" ~doc)
    Term.(const run $ input $ passes_arg $ exec_mode $ exec_backend
          $ exec_faults $ fault_seed $ out $ max_rounds)

let () = exit (Cmd.eval' cmd)
