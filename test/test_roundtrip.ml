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

(* resolve next to the test binary so both `dune runtest` (cwd test/) and
   `dune exec` (cwd root) find the fixture copies *)
let fixtures_dir = Filename.concat (Filename.dirname Sys.executable_name) "fixtures"

(* checked byte for byte below; it prints a function type, which the
   parser does not read *)
let golden_fixture = "printer_golden.mlir"

let test_fixture_fixpoints () =
  let dir = fixtures_dir in
  let fixtures =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mlir" && f <> golden_fixture)
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

(* ----- byte-exact printer golden ----- *)

(* A module touching every printer path: two functions, function
   attributes, a multi-result op, an op with two regions (one empty), a
   multi-block region with block arguments, regions nested three deep,
   every attribute kind and every type constructor. The ops are
   unregistered on purpose: only the text matters here. *)
let golden_module () =
  let i32 = Types.Scalar Types.I32
  and f32 = Types.Scalar Types.F32
  and wg = Types.Workgroup [| 2; 4 |]
  and buf = Types.Buffer { shape = [| 16; 8 |]; dtype = Types.I16; level = 1 }
  and scalar_buf = Types.Buffer { shape = [||]; dtype = Types.F64; level = 0 } in
  let m = Func.create_module () in
  let f =
    Func.create ~name:"first"
      ~arg_tys:[ i32; Types.Tensor ([| 2; 3 |], Types.F32); Types.Index ]
      ~result_tys:[ i32; Types.MemRef ([| 4 |], Types.I8) ]
  in
  f.Func.fattrs <- [ ("target", Attr.Str "upmem"); ("dpus", Attr.Int 4) ];
  let b = Builder.for_func f in
  let x = Func.param f 0 and idx = Func.param f 2 in
  Builder.build0 b "test.attrs"
    ~attrs:
      [
        ("unit", Attr.Unit);
        ("yes", Attr.Bool true);
        ("no", Attr.Bool false);
        ("int", Attr.Int (-7));
        ("max", Attr.Int max_int);
        ("min", Attr.Int min_int);
        ("nan", Attr.Float Float.nan);
        ("inf", Attr.Float Float.infinity);
        ("ninf", Attr.Float Float.neg_infinity);
        ("nzero", Attr.Float (-0.0));
        ("whole", Attr.Float 3.0);
        ("tiny", Attr.Float 1.5e-300);
        ("str", Attr.Str "tab\there \"quoted\" back\\slash\nnew\001");
        ("empty", Attr.Ints [||]);
        ("ints", Attr.Ints [| -1; 0; 42 |]);
        ("floats", Attr.Floats [| 0.1; -0.0; Float.infinity |]);
        ("strs", Attr.Strs [ "a"; ""; "b c" ]);
        ("ty", Attr.Ty (Types.Tensor ([||], Types.I1)));
        ("fn", Attr.Ty (Types.Func ([ i32; Types.Index ], [ f32 ])));
        ("list", Attr.List [ Attr.Int 1; Attr.Str "s"; Attr.Ty wg; Attr.List [] ]);
      ];
  let multi =
    Builder.build b "test.multi" ~operands:[ x; idx ]
      ~result_tys:[ wg; buf; scalar_buf; Types.Token; Types.Cim_id ]
  in
  (* two regions: a one-block region whose body nests three deep, and an
     empty region *)
  let deep =
    Builder.build_region ~arg_tys:[ Types.Index ] (fun b1 args1 ->
        let r =
          Builder.build1 b1 "test.level2" ~result_tys:[ i32 ]
            ~regions:
              [
                Builder.build_region ~arg_tys:[ i32 ] (fun b2 args2 ->
                    let inner =
                      Builder.build1 b2 "test.level3" ~operands:[ args2.(0); x ]
                        ~result_tys:[ i32 ]
                        ~regions:
                          [
                            Builder.build_region (fun b3 _ ->
                                let v =
                                  Builder.build1 b3 "test.leaf"
                                    ~operands:[ args1.(0); idx ]
                                    ~result_tys:[ Types.Index ]
                                in
                                Builder.build0 b3 "test.yield" ~operands:[ v ]);
                          ]
                    in
                    Builder.build0 b2 "test.yield" ~operands:[ inner ]);
              ]
        in
        Builder.build0 b1 "test.yield" ~operands:[ r ])
  in
  let two =
    Builder.build1 b "test.two_regions" ~operands:[ Ir.result multi 0 ]
      ~result_tys:[ i32 ] ~attrs:[ ("k", Attr.Int 2) ]
      ~regions:[ deep; Ir.create_region () ]
  in
  (* a multi-block region whose blocks take arguments *)
  let cfg = Ir.create_region () in
  let bb0 = Ir.create_block ~arg_tys:[ i32; f32 ] () in
  let bb1 = Ir.create_block ~arg_tys:[ Types.MemRef ([| 4 |], Types.I8) ] () in
  let bb2 = Ir.create_block () in
  List.iter (Ir.add_block cfg) [ bb0; bb1; bb2 ];
  let b0 = Builder.at_end_of bb0 in
  let s = Builder.build1 b0 "test.add" ~operands:[ bb0.Ir.args.(0); two ] ~result_tys:[ i32 ] in
  Builder.build0 b0 "test.br" ~operands:[ s ] ~attrs:[ ("dest", Attr.Int 1) ];
  Builder.build0 (Builder.at_end_of bb1) "test.br" ~operands:[ bb1.Ir.args.(0) ];
  Builder.build0 (Builder.at_end_of bb2) "test.ret";
  let outs =
    Builder.build b "test.cfg" ~operands:[ two ]
      ~result_tys:[ i32; Types.MemRef ([| 4 |], Types.I8) ]
      ~regions:[ cfg ]
  in
  Builder.build0 b "func.return" ~operands:[ Ir.result outs 0; Ir.result outs 1 ];
  Func.add_func m f;
  let g = Func.create ~name:"second" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func g in
  let c = Builder.build1 b "arith.constant" ~result_tys:[ f32 ] ~attrs:[ ("value", Attr.Float 0.5) ] in
  Builder.build0 b "test.use" ~operands:[ c; c ];
  Builder.build0 b "func.return";
  Func.add_func m g;
  m

(* The printer's output is pinned, not only its fixpoint: a consistent
   format change (both sides drifting together) fails here. *)
let test_printer_golden () =
  let path = Filename.concat fixtures_dir golden_fixture in
  let expected = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "printed module = printer_golden.mlir" expected
    (Printer.module_to_string (golden_module ()))

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
      ( "fixtures",
        [
          Alcotest.test_case "fixpoint" `Quick test_fixture_fixpoints;
          Alcotest.test_case "printer golden" `Quick test_printer_golden;
        ] );
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
