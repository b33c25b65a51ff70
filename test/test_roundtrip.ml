(* Round-trip property test: print -> parse -> print must be a fixpoint
   for every textual fixture and for every benchmark-built module at every
   stage of every backend pipeline. Catches printer/parser drift the
   moment a dialect grows an attribute or type the other side mishandles
   (the same property CINM_STRICT=1 asserts after each pass in
   production). *)

open Cinm_ir
open Cinm_core
open Cinm_benchmarks

let () = Cinm_dialects.Registry.ensure_all ()

let check_fixpoint ctx text =
  let m =
    match Parser.parse_module_text text with
    | m -> m
    | exception Parser.Parse_error e ->
      Alcotest.failf "%s: printed IR failed to re-parse: %s" ctx
        (Parser.error_to_string e)
  in
  Alcotest.(check string) (ctx ^ ": print->parse->print fixpoint") text
    (Printer.module_to_string m)

let check_module_fixpoint ctx m = check_fixpoint ctx (Printer.module_to_string m)

(* ----- textual fixtures ----- *)

let test_fixture_fixpoints () =
  (* resolve next to the test binary so both `dune runtest` (cwd test/)
     and `dune exec` (cwd root) find the fixture copies *)
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "fixtures" in
  let fixtures =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mlir")
    |> List.sort compare
  in
  Alcotest.(check bool) "found fixtures" true (fixtures <> []);
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      let text = In_channel.with_open_text path In_channel.input_all in
      (* the first print normalizes fixture whitespace/comments; from
         there on the text must be stable *)
      check_module_fixpoint file (Parser.parse_module_text text))
    fixtures

(* ----- pinned special values (fuzzer-found printer/parser gaps) ----- *)

(* Build a module exercising every float special the fuzzer injects and
   both signed extremes of the narrow int widths; the text must be a
   print->parse->print fixpoint AND the reparsed constants must be
   bit-identical (NaN payloads and -0.0 signs survive, compare-based
   equality would lie about both). *)
let test_special_float_attrs () =
  let m = Func.create_module () in
  let f = Func.create ~name:"specials" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let specials = [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0;
                   1.5e-300; -3.25 ] in
  List.iter (fun v -> ignore (Cinm_dialects.Arith.constant_f b v)) specials;
  Cinm_dialects.Func_d.return b [];
  Func.add_func m f;
  check_module_fixpoint "float specials" m;
  let m2 = Parser.parse_module_text (Printer.module_to_string m) in
  let consts fn =
    let acc = ref [] in
    Func.walk
      (fun op ->
        if op.Ir.name = "arith.constant" then
          acc := Ir.float_attr op "value" :: !acc)
      fn;
    List.rev !acc
  in
  List.iter2
    (fun orig reparsed ->
      Alcotest.(check int64)
        (Printf.sprintf "float %h bit-identical after round-trip" orig)
        (Int64.bits_of_float orig)
        (Int64.bits_of_float reparsed))
    specials
    (consts (List.hd m2.Func.funcs))

let test_narrow_int_attrs () =
  let m = Func.create_module () in
  let f = Func.create ~name:"narrow" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let cases =
    [ (Types.I8, -128); (Types.I8, 127); (Types.I8, -1);
      (Types.I16, -32768); (Types.I16, 32767) ]
  in
  List.iter
    (fun (dt, v) ->
      ignore (Cinm_dialects.Arith.constant b ~ty:(Types.Scalar dt) v))
    cases;
  Cinm_dialects.Func_d.return b [];
  Func.add_func m f;
  check_module_fixpoint "i8/i16 boundary constants" m;
  let m2 = Parser.parse_module_text (Printer.module_to_string m) in
  let acc = ref [] in
  Func.walk
    (fun op ->
      if op.Ir.name = "arith.constant" then acc := Ir.int_attr op "value" :: !acc)
    (List.hd m2.Func.funcs);
  List.iter2
    (fun (_, v) got ->
      Alcotest.(check int)
        (Printf.sprintf "boundary %d preserved" v)
        v got)
    cases (List.rev !acc)

(* ----- benchmark modules through every pipeline stage ----- *)

let backends =
  [
    ("cpu", Backend.Host_xeon);
    ("upmem", Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ()));
    ("upmem-opt",
     Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ~optimize:true ()));
    ("cim", Backend.Cim (Backend.default_cim ()));
  ]

let stage_fixpoints bench_name backend_name backend (build : unit -> Func.t) =
  let m = Func.create_module () in
  Func.add_func m (build ());
  let ctx stage = Printf.sprintf "%s/%s %s" bench_name backend_name stage in
  check_module_fixpoint (ctx "initial") m;
  (* run the pipeline a pass at a time, asserting the fixpoint after each
     stage; a pass failure is a legitimate unsupported-lowering case (the
     driver falls back to the CPU for those), not a round-trip bug *)
  ignore
    (List.for_all
       (fun (p : Pass.t) ->
         match Pass.run_one_result p m with
         | Ok () ->
           check_module_fixpoint (ctx ("after " ^ p.Pass.pass_name)) m;
           true
         | Error _ -> false)
       (Driver.pipeline backend))

let bench_tests () =
  let benches = Suites.ml_suite () @ Suites.prim_suite () in
  List.concat_map
    (fun (b : Benchmark.t) ->
      List.map
        (fun (backend_name, backend) ->
          Alcotest.test_case
            (Printf.sprintf "%s on %s" b.Benchmark.name backend_name)
            `Quick
            (fun () ->
              stage_fixpoints b.Benchmark.name backend_name backend
                b.Benchmark.build))
        backends)
    benches

(* ----- strict mode end to end ----- *)

let test_strict_pipeline () =
  (* CINM_STRICT's own round-trip assertion must hold over a full device
     lowering: run the whole upmem pipeline in strict mode *)
  let m = Func.create_module () in
  let f =
    let tensor shape = Types.Tensor (shape, Types.I32) in
    let f =
      Func.create ~name:"mm" ~arg_tys:[ tensor [| 8; 8 |]; tensor [| 8; 8 |] ]
        ~result_tys:[ tensor [| 8; 8 |] ]
    in
    let b = Builder.for_func f in
    let out = Cinm_dialects.Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
    Cinm_dialects.Func_d.return b [ out ];
    f
  in
  Func.add_func m f;
  let config = { (Cinm_support.Config.default ()) with Cinm_support.Config.strict = true } in
  let backend =
    Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ())
  in
  match Pass.run_pipeline_result ~config (Driver.pipeline backend) m with
  | Ok () -> ()
  | Error d -> Alcotest.failf "strict pipeline failed: %s" (Pass.diag_to_string d)

let () =
  Alcotest.run "roundtrip"
    [
      ("fixtures", [ Alcotest.test_case "fixpoint" `Quick test_fixture_fixpoints ]);
      ( "special values",
        [
          Alcotest.test_case "nan/inf/-0.0 float attrs" `Quick
            test_special_float_attrs;
          Alcotest.test_case "i8/i16 boundary attrs" `Quick
            test_narrow_int_attrs;
        ] );
      ("pipeline stages", bench_tests ());
      ("strict mode", [ Alcotest.test_case "full upmem pipeline" `Quick test_strict_pipeline ]);
    ]
