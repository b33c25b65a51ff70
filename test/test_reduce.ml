(* Tests for the robustness tool-chain: crash reproducers written by the
   pass manager, replay from the reproducer header, the per-pass wall-time
   budget, strict-mode gating, and the cinm-reduce delta-debugger. *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
module Reduce = Cinm_reduce_lib.Reduce
module T = Types
module Config = Cinm_support.Config

(* A copy of the process default with [f] applied, for one explicit run. *)
let config f = f (Config.default ())

(* Predicate runs go through the process default: keep them from writing
   reproducers when CINM_REPRODUCER_DIR is set. *)
let no_reproducers () = Config.update_default (fun c -> { c with Config.reproducer_dir = None })

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)

(* A deliberately bloated module (>= 50 ops): one cinm.gemm — the op
   debug-fail-on-gemm trips on — buried in a pile of irrelevant index
   arithmetic and a second pure-noise function. *)
let build_bloated_module () =
  let m = Func.create_module () in
  let f =
    Func.create ~name:"victim"
      ~arg_tys:[ tensor [| 16; 8 |]; tensor [| 8; 12 |] ]
      ~result_tys:[ tensor [| 16; 12 |] ]
  in
  let b = Builder.for_func f in
  let acc = ref (Arith.const_index b 0) in
  for i = 1 to 24 do
    let c = Arith.const_index b i in
    acc := Arith.addi b !acc c
  done;
  let out = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
  Func_d.return b [ out ];
  Func.add_func m f;
  let g = Func.create ~name:"noise" ~arg_tys:[ T.Index ] ~result_tys:[ T.Index ] in
  let b = Builder.for_func g in
  let acc = ref (Func.param g 0) in
  for _ = 1 to 10 do
    acc := Arith.addi b !acc !acc
  done;
  Func_d.return b [ !acc ];
  Func.add_func m g;
  m

let failing_pipeline () = [ Pass_registry.debug_fail_on_gemm ]

let diag_class (d : Pass.diag) =
  d.Pass.pass ^ ":" ^ Option.value d.Pass.op ~default:"-"

let pipeline_diag m =
  match Pass.run_pipeline_result (failing_pipeline ()) (Func.clone_module m) with
  | Ok () -> None
  | Error d -> Some d

(* ----- crash reproducers ----- *)

let test_reproducer_written_and_replays () =
  let m = build_bloated_module () in
  let config = config (fun c -> { c with Config.reproducer_dir = Some "repro_out" }) in
  let diag =
    match Pass.run_pipeline_result ~config (failing_pipeline ()) m with
    | Ok () -> Alcotest.fail "seeded pipeline unexpectedly succeeded"
    | Error d -> d
  in
  Alcotest.(check string) "failing pass" "debug-fail-on-gemm" diag.Pass.pass;
  let repro =
    match Pass.last_reproducer () with
    | Some r -> r
    | None -> Alcotest.fail "no reproducer recorded"
  in
  Alcotest.(check bool) "file exists" true (Sys.file_exists repro.Pass.path);
  Alcotest.(check (list string))
    "recorded pipeline" [ "debug-fail-on-gemm" ] repro.Pass.pipeline;
  (* replay exactly as cinm_opt --run-reproducer does: header names the
     pipeline, the body re-parses, and the failure reproduces verbatim *)
  let text = In_channel.with_open_text repro.Pass.path In_channel.input_all in
  let names =
    match Pass.reproducer_pipeline_of_text text with
    | Some names -> names
    | None -> Alcotest.fail "reproducer has no pipeline header"
  in
  let passes =
    match Pass_registry.resolve names with
    | Ok passes -> passes
    | Error name -> Alcotest.failf "reproducer names unknown pass %S" name
  in
  let m' = Parser.parse_module_text text in
  (match Pass.run_pipeline_result passes m' with
  | Ok () -> Alcotest.fail "replay did not reproduce the failure"
  | Error d ->
    Alcotest.(check string) "same diagnostic" (Pass.diag_to_string diag)
      (Pass.diag_to_string d))

let test_reproducer_not_written_when_disabled () =
  let config = config (fun c -> { c with Config.reproducer_dir = None }) in
  let before = Pass.last_reproducer () in
  let m = build_bloated_module () in
  (match Pass.run_pipeline_result ~config (failing_pipeline ()) m with
  | Ok () -> Alcotest.fail "seeded pipeline unexpectedly succeeded"
  | Error _ -> ());
  let same =
    match (before, Pass.last_reproducer ()) with
    | None, None -> true
    | Some a, Some b -> a.Pass.path = b.Pass.path
    | _ -> false
  in
  Alcotest.(check bool) "no new reproducer" true same

(* ----- per-pass wall-time budget ----- *)

let test_pass_budget_exceeded () =
  let config = config (fun c -> { c with Config.pass_budget_s = Some 0.0 }) in
  let m = build_bloated_module () in
  let nop = Pass.create ~name:"nop" (fun _ -> ()) in
  match Pass.run_one_result ~config nop m with
  | Ok () -> Alcotest.fail "expected a budget failure"
  | Error d ->
    Alcotest.(check string) "failing pass" "nop" d.Pass.pass;
    Alcotest.(check bool) "names the budget" true
      (let s = d.Pass.message in
       let rec mem i =
         i + 16 <= String.length s
         && (String.sub s i 16 = "wall-time budget" || mem (i + 1))
       in
       mem 0)

(* ----- strict mode gating ----- *)

let test_strict_forces_verification () =
  (* an invalid module slips through ~verify:false normally, but not under
     CINM_STRICT *)
  let broken () =
    let m = Func.create_module () in
    let f = Func.create ~name:"bad" ~arg_tys:[] ~result_tys:[] in
    let b = Builder.for_func f in
    Builder.build0 b "bogus.op";
    Func_d.return b [];
    Func.add_func m f;
    m
  in
  let nop = Pass.create ~name:"nop" (fun _ -> ()) in
  let strict s = config (fun c -> { c with Config.strict = s }) in
  (match Pass.run_one_result ~verify:false ~config:(strict false) nop (broken ()) with
  | Ok () -> ()
  | Error d ->
    Alcotest.failf "unexpected failure with strict off: %s" (Pass.diag_to_string d));
  match Pass.run_one_result ~verify:false ~config:(strict true) nop (broken ()) with
  | Ok () -> Alcotest.fail "strict mode did not verify"
  | Error _ -> ()

(* ----- cinm-reduce ----- *)

let test_reduce_shrinks_preserving_failure () =
  no_reproducers ();
  let m = build_bloated_module () in
  let ops_before = Pass.count_ops m in
  Alcotest.(check bool) "module is >= 50 ops" true (ops_before >= 50);
  let cls =
    match pipeline_diag m with
    | Some d -> diag_class d
    | None -> Alcotest.fail "seeded module is not failing"
  in
  let interesting c =
    Verifier.verify_module c = []
    && (match pipeline_diag c with Some d -> diag_class d = cls | None -> false)
  in
  let reduced, stats = Reduce.reduce ~interesting m in
  Alcotest.(check int) "stats.ops_before" ops_before stats.Reduce.ops_before;
  Alcotest.(check int) "stats.ops_after" (Pass.count_ops reduced) stats.Reduce.ops_after;
  (* the acceptance bar: at least an 80% reduction *)
  Alcotest.(check bool)
    (Printf.sprintf "shrank >= 80%% (%d -> %d)" stats.Reduce.ops_before
       stats.Reduce.ops_after)
    true
    (stats.Reduce.ops_after * 5 <= stats.Reduce.ops_before);
  (* ... while still failing the same way *)
  (match pipeline_diag reduced with
  | Some d -> Alcotest.(check string) "failure class preserved" cls (diag_class d)
  | None -> Alcotest.fail "reduced module no longer fails");
  Alcotest.(check int) "reduced module verifies" 0
    (List.length (Verifier.verify_module reduced));
  (* and the reduced artifact still round-trips through the printer *)
  let text = Printer.module_to_string reduced in
  Alcotest.(check string) "reduced IR is printable/parsable" text
    (Printer.module_to_string (Parser.parse_module_text text))

let test_reduce_collapses_live_chains () =
  (* the fuzz generator's checksum idiom: a gemm whose digest is folded
     through a long accumulator chain into the returned value. Every link
     is live, so only the operand-forwarding move can shorten the path —
     constant replacement would sever the gemm from the return. *)
  no_reproducers ();
  let m = Func.create_module () in
  let f =
    Func.create ~name:"chain" ~arg_tys:[ tensor [| 2; 2 |]; tensor [| 2; 2 |] ]
      ~result_tys:[ T.Scalar T.I32 ]
  in
  let b = Builder.for_func f in
  let g = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
  let acc = ref (Cinm_d.reduce b ~op:"add" g) in
  for i = 1 to 40 do
    acc := Arith.addi b !acc (Arith.constant b ~ty:(T.Scalar T.I32) i)
  done;
  Func_d.return b [ !acc ];
  Func.add_func m f;
  let ops_before = Pass.count_ops m in
  (* interesting = a cinm.gemm still feeds the module (textually), the
     same shape as the fuzzer's injected-bug shrink predicate *)
  let interesting c =
    Verifier.verify_module c = []
    && (let t = Printer.module_to_string c in
        let n = String.length t in
        let rec mem i =
          i + 9 <= n && (String.sub t i 9 = "cinm.gemm" || mem (i + 1))
        in
        mem 0)
  in
  let reduced, stats = Reduce.reduce ~interesting m in
  Alcotest.(check bool)
    (Printf.sprintf "chain collapsed >= 80%% (%d -> %d)" ops_before
       stats.Reduce.ops_after)
    true
    (stats.Reduce.ops_after * 5 <= ops_before);
  Alcotest.(check bool) "gemm survives" true (interesting reduced)

(* ----- cinm_reduce execution-differential modes (CLI) ----- *)

(* locate the reducer binary relative to this test binary, so the test
   works under both `dune runtest` (cwd test/) and `dune exec` (cwd root) *)
let reduce_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "cinm_reduce.exe"))

let run_reduce_cli args input_text =
  let dir = Filename.temp_file "cinm-reduce-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let in_path = Filename.concat dir "in.mlir" in
  Out_channel.with_open_text in_path (fun oc -> output_string oc input_text);
  let err_path = Filename.concat dir "err.txt" in
  let cmd =
    Printf.sprintf "%s %s %s > /dev/null 2> %s"
      (Filename.quote reduce_exe) args (Filename.quote in_path)
      (Filename.quote err_path)
  in
  let rc = Sys.command cmd in
  let err = In_channel.with_open_text err_path In_channel.input_all in
  (rc, err)

let healthy_module_text =
  {|module {
  func.func @main(%arg0: tensor<4x4xi32>, %arg1: tensor<4x4xi32>) -> (i32) {
    %0 = "cinm.gemm"(%arg0, %arg1) : (tensor<4x4xi32>, tensor<4x4xi32>) -> (tensor<4x4xi32>)
    %1 = "cinm.reduce"(%0) {op = "add"} : (tensor<4x4xi32>) -> (i32)
    "func.return"(%1) : (i32) -> ()
  }
}
|}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  go 0

let test_exec_backend_agreement_is_not_interesting () =
  (* a healthy module: the device backends agree with the reference, so
     each differential mode must refuse to reduce — proving it really ran
     the two executions and compared them *)
  List.iter
    (fun args ->
      let rc, err = run_reduce_cli args healthy_module_text in
      Alcotest.(check int) (args ^ ": exits 1") 1 rc;
      Alcotest.(check bool)
        (args ^ ": reports agreement, got: " ^ err)
        true
        (contains err "input is not interesting"))
    [ "--exec-backend upmem"; "--exec-backend hetero"; "--exec-faults" ]

let test_exec_backend_rejects_unknown () =
  let rc, err = run_reduce_cli "--exec-backend warp-drive" healthy_module_text in
  Alcotest.(check int) "exits 1" 1 rc;
  Alcotest.(check bool) ("names the backend, got: " ^ err) true
    (contains err "unknown backend")

let test_reduce_keeps_interesting_input_intact () =
  (* reduction of an already-minimal module is the identity *)
  no_reproducers ();
  let m = Func.create_module () in
  let f =
    Func.create ~name:"tiny" ~arg_tys:[ tensor [| 2; 2 |]; tensor [| 2; 2 |] ]
      ~result_tys:[ tensor [| 2; 2 |] ]
  in
  let b = Builder.for_func f in
  let out = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
  Func_d.return b [ out ];
  Func.add_func m f;
  let cls =
    match pipeline_diag m with
    | Some d -> diag_class d
    | None -> Alcotest.fail "tiny module is not failing"
  in
  let interesting c =
    Verifier.verify_module c = []
    && (match pipeline_diag c with Some d -> diag_class d = cls | None -> false)
  in
  let reduced, stats = Reduce.reduce ~interesting m in
  Alcotest.(check int) "cannot drop the gemm or the return" 2 stats.Reduce.ops_after;
  match pipeline_diag reduced with
  | Some d -> Alcotest.(check string) "failure class preserved" cls (diag_class d)
  | None -> Alcotest.fail "reduced module no longer fails"

let () =
  Alcotest.run "reduce"
    [
      ( "reproducers",
        [
          Alcotest.test_case "written and replays" `Quick test_reproducer_written_and_replays;
          Alcotest.test_case "disabled by default" `Quick
            test_reproducer_not_written_when_disabled;
        ] );
      ( "pass budget",
        [ Alcotest.test_case "over budget fails" `Quick test_pass_budget_exceeded ] );
      ( "strict mode",
        [ Alcotest.test_case "forces verification" `Quick test_strict_forces_verification ] );
      ( "reducer",
        [
          Alcotest.test_case "shrinks >= 80%" `Quick test_reduce_shrinks_preserving_failure;
          Alcotest.test_case "collapses live accumulator chains" `Quick
            test_reduce_collapses_live_chains;
          Alcotest.test_case "minimal input is a fixpoint" `Quick
            test_reduce_keeps_interesting_input_intact;
        ] );
      ( "exec differentials",
        [
          Alcotest.test_case "agreement is not interesting" `Quick
            test_exec_backend_agreement_is_not_interesting;
          Alcotest.test_case "unknown backend rejected" `Quick
            test_exec_backend_rejects_unknown;
        ] );
    ]
