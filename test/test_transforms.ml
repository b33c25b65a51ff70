(* Differential tests for the lowering pipeline: every lowering must
   preserve the semantics of the host-level program. *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
module T = Types

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)

let check_tensor msg expected actual =
  if not (Tensor.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

(* Build a single-op function, run the given passes, execute both the
   original and the transformed function and compare. *)
let module_of f =
  let m = Func.create_module () in
  Func.add_func m f;
  m

let run_with_cnm_ref f args =
  let st = Cnm_ref.create_state () in
  let results, _ = Interp.run_func ~hooks:[ Cnm_ref.hook st ] f args in
  results

let force_target target =
  Target_select.pass
    ~policy:{ Target_select.default_policy with forced_target = Some target }
    ()

let small_opts =
  { Cinm_to_cnm.dpus = 4; tasklets = 4; optimize = false; max_rows_per_launch = 4 }

let lower_to_cnm ?(opts = small_opts) f =
  let m = module_of f in
  Pass.run_pipeline
    [ Torch_to_tosa.pass; Tosa_to_linalg.pass; Linalg_to_cinm.pass; force_target "cnm";
      Cinm_to_cnm.pass ~options:opts () ]
    m;
  List.hd m.Func.funcs

let differential ?(opts = small_opts) build args =
  let f_host = build () in
  let expected, _ = Interp.run_func f_host args in
  let f_dev = lower_to_cnm ~opts (build ()) in
  let actual = run_with_cnm_ref f_dev args in
  (expected, actual, f_dev)

let iota shape = Tensor.init shape (fun i -> (i mod 23) - 11)

(* ----- linalg -> cinm ----- *)

let test_linalg_to_cinm_matmul () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| 4; 4 |]; tensor [| 4; 4 |] ]
      ~result_tys:[ tensor [| 4; 4 |] ]
  in
  let b = Builder.for_func f in
  Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
  let m = module_of f in
  Pass.run_pipeline [ Linalg_to_cinm.pass ] m;
  let names = ref [] in
  Func.walk (fun op -> names := op.Ir.name :: !names) (List.hd m.Func.funcs);
  Alcotest.(check bool) "has cinm.gemm" true (List.mem "cinm.gemm" !names);
  Alcotest.(check bool) "no linalg.matmul" false (List.mem "linalg.matmul" !names)

let test_conv_rewrite_preserves_semantics () =
  let build () =
    let f =
      Func.create ~name:"conv" ~arg_tys:[ tensor [| 8; 8 |]; tensor [| 3; 3 |] ]
        ~result_tys:[ tensor [| 6; 6 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.conv_2d b (Func.param f 0) (Func.param f 1) ];
    f
  in
  let img = iota [| 8; 8 |] and k = iota [| 3; 3 |] in
  let f_host = build () in
  let expected, _ = Interp.run_func f_host [ Rtval.Tensor img; Rtval.Tensor k ] in
  (* rewrite conv -> im2col + gemm and run on the host interpreter *)
  let f2 = build () in
  let m = module_of f2 in
  Pass.run_pipeline [ Linalg_to_cinm.pass ] m;
  let actual, _ = Interp.run_func (List.hd m.Func.funcs) [ Rtval.Tensor img; Rtval.Tensor k ] in
  check_tensor "conv == im2col+gemm"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_einsum_rewrite_contrs1 () =
  (* contrs1: C_ab = A_acd B_dbc *)
  let build () =
    let f =
      Func.create ~name:"contrs1" ~arg_tys:[ tensor [| 3; 4; 5 |]; tensor [| 5; 2; 4 |] ]
        ~result_tys:[ tensor [| 3; 2 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.einsum b ~spec:"acd,dbc->ab" (Func.param f 0) (Func.param f 1) ];
    f
  in
  let a = iota [| 3; 4; 5 |] and bt = iota [| 5; 2; 4 |] in
  let f_host = build () in
  let expected, _ = Interp.run_func f_host [ Rtval.Tensor a; Rtval.Tensor bt ] in
  let f2 = build () in
  let m = module_of f2 in
  Pass.run_pipeline [ Linalg_to_cinm.pass ] m;
  let has_gemm = ref false in
  Func.walk (fun op -> if op.Ir.name = "cinm.gemm" then has_gemm := true) (List.hd m.Func.funcs);
  Alcotest.(check bool) "einsum became gemm" true !has_gemm;
  let actual, _ = Interp.run_func (List.hd m.Func.funcs) [ Rtval.Tensor a; Rtval.Tensor bt ] in
  check_tensor "contrs1"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_einsum_rewrite_contrl () =
  (* contrl: C_abcd = A_aebf B_dfce (two reductions e, f) *)
  let build () =
    let f =
      Func.create ~name:"contrl"
        ~arg_tys:[ tensor [| 2; 3; 2; 4 |]; tensor [| 3; 4; 2; 3 |] ]
        ~result_tys:[ tensor [| 2; 2; 2; 3 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b
      [ Linalg_d.einsum b ~spec:"aebf,dfce->abcd" (Func.param f 0) (Func.param f 1) ];
    f
  in
  let a = iota [| 2; 3; 2; 4 |] and bt = iota [| 3; 4; 2; 3 |] in
  let expected, _ = Interp.run_func (build ()) [ Rtval.Tensor a; Rtval.Tensor bt ] in
  let m = module_of (build ()) in
  Pass.run_pipeline [ Linalg_to_cinm.pass ] m;
  let actual, _ = Interp.run_func (List.hd m.Func.funcs) [ Rtval.Tensor a; Rtval.Tensor bt ] in
  check_tensor "contrl"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_torch_frontend () =
  (* torch.aten.linear + relu through torch-to-tosa + tosa-to-linalg *)
  let build () =
    let f =
      Func.create ~name:"torch_mlp"
        ~arg_tys:[ tensor [| 4; 8 |]; tensor [| 6; 8 |]; tensor [| 6 |] ]
        ~result_tys:[ tensor [| 4; 6 |] ]
    in
    let b = Builder.for_func f in
    let l = Torch_d.linear b (Func.param f 0) (Func.param f 1) (Func.param f 2) in
    Func_d.return b [ Torch_d.relu b l ];
    f
  in
  let args =
    [
      Rtval.Tensor (iota [| 4; 8 |]);
      Rtval.Tensor (iota [| 6; 8 |]);
      Rtval.Tensor (iota [| 6 |]);
    ]
  in
  (* reference: interp directly executes... torch ops have no interp
     semantics, so the reference is the lowered-but-host form *)
  let m = module_of (build ()) in
  Pass.run_pipeline [ Torch_to_tosa.pass; Tosa_to_linalg.pass ] m;
  let lowered = List.hd m.Func.funcs in
  let no_torch = ref true in
  Func.walk (fun op -> if Ir.dialect_of op = "torch" then no_torch := false) lowered;
  Alcotest.(check bool) "no torch ops left" true !no_torch;
  let expected, _ = Interp.run_func lowered args in
  (* and the same program through the full cnm pipeline *)
  let f_dev = lower_to_cnm (build ()) in
  let actual = run_with_cnm_ref f_dev args in
  check_tensor "torch mlp on cnm"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_cinm_to_scf_host_lowering () =
  (* gemm + elementwise + reduce lowered to scf loops must match direct
     cinm interpretation *)
  let build () =
    let f =
      Func.create ~name:"host" ~arg_tys:[ tensor [| 6; 4 |]; tensor [| 4; 5 |] ]
        ~result_tys:[ T.Scalar T.I32 ]
    in
    let b = Builder.for_func f in
    let mm = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
    let sq = Cinm_d.mul b mm mm in
    Func_d.return b [ Cinm_d.reduce b ~op:"add" sq ];
    f
  in
  let args = [ Rtval.Tensor (iota [| 6; 4 |]); Rtval.Tensor (iota [| 4; 5 |]) ] in
  let expected, _ = Interp.run_func (build ()) args in
  let m = module_of (build ()) in
  Pass.run_pipeline [ Cinm_to_scf.pass ] m;
  let f = List.hd m.Func.funcs in
  let no_cinm = ref true in
  Func.walk
    (fun op -> if Ir.dialect_of op = "cinm" && op.Ir.name <> "cinm.expand" then no_cinm := false)
    f;
  Alcotest.(check bool) "no cinm compute ops left" true !no_cinm;
  let actual, _ = Interp.run_func f args in
  Alcotest.(check int) "scf lowering matches"
    (Rtval.as_int (List.hd expected))
    (Rtval.as_int (List.hd actual))

(* ----- target selection ----- *)

let test_target_select_greedy () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| 64; 64 |]; tensor [| 64; 64 |] ]
      ~result_tys:[ tensor [| 64; 64 |] ]
  in
  let b = Builder.for_func f in
  let big = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
  let r = Cinm_d.reduce b ~op:"add" big in
  let t = Builder.build1 b "tensor.splat" ~operands:[ r ] ~result_tys:[ tensor [| 4 |] ] in
  Func_d.return b [ t ];
  Target_select.run_on_func Target_select.default_policy f;
  let targets = Hashtbl.create 4 in
  Func.walk
    (fun op ->
      match Ir.attr op "target" with
      | Some (Attr.Str t) -> Hashtbl.replace targets op.Ir.name t
      | _ -> ())
    f;
  Alcotest.(check (option string)) "gemm -> cim" (Some "cim") (Hashtbl.find_opt targets "cinm.gemm");
  Alcotest.(check (option string)) "reduce -> cnm (Table 1: no cim reduce)" (Some "cnm")
    (Hashtbl.find_opt targets "cinm.reduce")

(* ----- cinm -> cnm differential tests ----- *)

let test_cnm_gemm () =
  let build () =
    let f =
      Func.create ~name:"mm" ~arg_tys:[ tensor [| 32; 8 |]; tensor [| 8; 6 |] ]
        ~result_tys:[ tensor [| 32; 6 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
    f
  in
  let a = iota [| 32; 8 |] and bt = iota [| 8; 6 |] in
  let expected, actual, f_dev = differential build [ Rtval.Tensor a; Rtval.Tensor bt ] in
  let has_launch = ref false in
  Func.walk (fun op -> if op.Ir.name = "cnm.launch" then has_launch := true) f_dev;
  Alcotest.(check bool) "uses cnm.launch" true !has_launch;
  check_tensor "gemm on cnm"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_cnm_gemm_with_padding () =
  (* M = 30 does not divide the 16-PU chunk: exercises the pad path *)
  let build () =
    let f =
      Func.create ~name:"mm" ~arg_tys:[ tensor [| 30; 8 |]; tensor [| 8; 5 |] ]
        ~result_tys:[ tensor [| 30; 5 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
    f
  in
  let a = iota [| 30; 8 |] and bt = iota [| 8; 5 |] in
  let expected, actual, _ = differential build [ Rtval.Tensor a; Rtval.Tensor bt ] in
  check_tensor "gemm with padding"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_cnm_gemm_multi_chunk () =
  (* max_rows_per_launch 1 with 16 PUs -> several scf.for chunks *)
  let opts =
    { Cinm_to_cnm.dpus = 4; tasklets = 4; optimize = false; max_rows_per_launch = 1 }
  in
  let build () =
    let f =
      Func.create ~name:"mm" ~arg_tys:[ tensor [| 64; 4 |]; tensor [| 4; 3 |] ]
        ~result_tys:[ tensor [| 64; 3 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
    f
  in
  let a = iota [| 64; 4 |] and bt = iota [| 4; 3 |] in
  let expected, actual, _ = differential ~opts build [ Rtval.Tensor a; Rtval.Tensor bt ] in
  check_tensor "gemm multi-chunk"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_cnm_gemm_optimized_matches () =
  let opts = { small_opts with Cinm_to_cnm.optimize = true } in
  let build () =
    let f =
      Func.create ~name:"mm" ~arg_tys:[ tensor [| 16; 8 |]; tensor [| 8; 8 |] ]
        ~result_tys:[ tensor [| 16; 8 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
    f
  in
  let a = iota [| 16; 8 |] and bt = iota [| 8; 8 |] in
  let expected, actual, _ = differential ~opts build [ Rtval.Tensor a; Rtval.Tensor bt ] in
  check_tensor "interchanged kernel computes the same"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_cnm_gemv () =
  let build () =
    let f =
      Func.create ~name:"mv" ~arg_tys:[ tensor [| 32; 8 |]; tensor [| 8 |] ]
        ~result_tys:[ tensor [| 32 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.matvec b (Func.param f 0) (Func.param f 1) ];
    f
  in
  let a = iota [| 32; 8 |] and x = iota [| 8 |] in
  let expected, actual, _ = differential build [ Rtval.Tensor a; Rtval.Tensor x ] in
  check_tensor "gemv on cnm"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_cnm_elementwise () =
  List.iter
    (fun opname ->
      let build () =
        let f =
          Func.create ~name:opname ~arg_tys:[ tensor [| 37 |]; tensor [| 37 |] ]
            ~result_tys:[ tensor [| 37 |] ]
        in
        let b = Builder.for_func f in
        Func_d.return b
          [
            Builder.build1 b ("linalg." ^ opname)
              ~operands:[ Func.param f 0; Func.param f 1 ]
              ~result_tys:[ tensor [| 37 |] ];
          ];
        f
      in
      let a = iota [| 37 |] in
      let bt = Tensor.init [| 37 |] (fun i -> (i mod 7) + 1) in
      let expected, actual, _ = differential build [ Rtval.Tensor a; Rtval.Tensor bt ] in
      check_tensor (opname ^ " on cnm")
        (Rtval.as_tensor (List.hd expected))
        (Rtval.as_tensor (List.hd actual)))
    [ "add"; "sub"; "mul"; "div"; "min"; "max" ]

let test_cnm_reduce () =
  let build () =
    let f = Func.create ~name:"red" ~arg_tys:[ tensor [| 64 |] ] ~result_tys:[ T.Scalar T.I32 ] in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.reduce b ~op:"add" (Func.param f 0) ];
    f
  in
  let a = iota [| 64 |] in
  let expected, actual, _ = differential build [ Rtval.Tensor a ] in
  Alcotest.(check int) "reduce on cnm"
    (Rtval.as_int (List.hd expected))
    (Rtval.as_int (List.hd actual))

let cinm_only build =
 fun () ->
  let f = build () in
  f

let test_cnm_histogram () =
  let build () =
    let f =
      Func.create ~name:"hst" ~arg_tys:[ tensor [| 64 |] ] ~result_tys:[ tensor [| 8 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Cinm_d.histogram b (Func.param f 0) ~bins:8 ];
    f
  in
  let a = Tensor.init [| 64 |] (fun i -> i * 5 mod 8) in
  let expected, actual, _ = differential (cinm_only build) [ Rtval.Tensor a ] in
  check_tensor "histogram on cnm"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_cnm_scan () =
  let build () =
    let f =
      Func.create ~name:"scan" ~arg_tys:[ tensor [| 64 |] ] ~result_tys:[ tensor [| 64 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Cinm_d.scan b ~op:"add" (Func.param f 0) ];
    f
  in
  let a = iota [| 64 |] in
  let expected, actual, _ = differential (cinm_only build) [ Rtval.Tensor a ] in
  check_tensor "scan on cnm"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

let test_cnm_simsearch () =
  let build () =
    let f =
      Func.create ~name:"ts" ~arg_tys:[ tensor [| 71 |]; tensor [| 8 |] ]
        ~result_tys:[ tensor [| 2 |]; tensor [| 2 |] ]
    in
    let b = Builder.for_func f in
    let v, i = Cinm_d.sim_search b ~metric:"l2" ~k:2 (Func.param f 0) (Func.param f 1) in
    Func_d.return b [ v; i ];
    f
  in
  (* windows = 71 - 8 + 1 = 64 = 16 PUs x 4 *)
  let db = Tensor.init [| 71 |] (fun i -> i * 7 mod 41) in
  let q = Tensor.init [| 8 |] (fun i -> (i * 7 mod 41) + 1) in
  let expected, actual, _ = differential (cinm_only build) [ Rtval.Tensor db; Rtval.Tensor q ] in
  (match (expected, actual) with
  | [ ev; _ei ], [ av; ai ] ->
    check_tensor "simsearch values" (Rtval.as_tensor ev) (Rtval.as_tensor av);
    (* indices may tie-break differently; check scores at returned indices *)
    let scores_at idx_t =
      Array.init 2 (fun j ->
          let w = Tensor.get_int (Rtval.as_tensor idx_t) j in
          let acc = ref 0 in
          for jj = 0 to 7 do
            let d = Tensor.get_int db (w + jj) - Tensor.get_int q jj in
            acc := !acc - (d * d)
          done;
          !acc)
    in
    let av_arr = Tensor.to_int_array (Rtval.as_tensor av) in
    Alcotest.(check (array int)) "indices consistent with values" av_arr (scores_at ai)
  | _ -> Alcotest.fail "wrong arity")

let test_cnm_topk () =
  let build () =
    let f =
      Func.create ~name:"topk" ~arg_tys:[ tensor [| 64 |] ]
        ~result_tys:[ tensor [| 3 |]; tensor [| 3 |] ]
    in
    let b = Builder.for_func f in
    let v, i = Cinm_d.topk b (Func.param f 0) ~k:3 in
    Func_d.return b [ v; i ];
    f
  in
  (* distinct values so indices are deterministic *)
  let a = Tensor.init [| 64 |] (fun i -> (i * 37) mod 64) in
  let expected, actual, _ = differential (cinm_only build) [ Rtval.Tensor a ] in
  (match (expected, actual) with
  | [ ev; ei ], [ av; ai ] ->
    check_tensor "topk values" (Rtval.as_tensor ev) (Rtval.as_tensor av);
    check_tensor "topk indices" (Rtval.as_tensor ei) (Rtval.as_tensor ai)
  | _ -> Alcotest.fail "arity")

let test_cnm_not () =
  let build () =
    let f = Func.create ~name:"not" ~arg_tys:[ tensor [| 32 |] ] ~result_tys:[ tensor [| 32 |] ] in
    let b = Builder.for_func f in
    Func_d.return b [ Cinm_d.not_ b (Func.param f 0) ];
    f
  in
  let a = iota [| 32 |] in
  let expected, actual, _ = differential (cinm_only build) [ Rtval.Tensor a ] in
  check_tensor "not on cnm"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd actual))

(* qcheck: gemm on cnm == host for random shapes *)
let prop_cnm_gemm =
  QCheck.Test.make ~name:"cnm gemm == host gemm (random shapes)" ~count:15
    QCheck.(triple (1 -- 24) (1 -- 8) (1 -- 8))
    (fun (m, k, n) ->
      let build () =
        let f =
          Func.create ~name:"mm" ~arg_tys:[ tensor [| m; k |]; tensor [| k; n |] ]
            ~result_tys:[ tensor [| m; n |] ]
        in
        let b = Builder.for_func f in
        Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
        f
      in
      let a = iota [| m; k |] and bt = iota [| k; n |] in
      let expected, actual, _ = differential build [ Rtval.Tensor a; Rtval.Tensor bt ] in
      Tensor.equal (Rtval.as_tensor (List.hd expected)) (Rtval.as_tensor (List.hd actual)))

let () =
  Alcotest.run "transforms"
    [
      ( "linalg-to-cinm",
        [
          Alcotest.test_case "matmul -> gemm" `Quick test_linalg_to_cinm_matmul;
          Alcotest.test_case "conv rewrite" `Quick test_conv_rewrite_preserves_semantics;
          Alcotest.test_case "einsum contrs1" `Quick test_einsum_rewrite_contrs1;
          Alcotest.test_case "einsum contrl" `Quick test_einsum_rewrite_contrl;
          Alcotest.test_case "torch front-end" `Quick test_torch_frontend;
          Alcotest.test_case "cinm-to-scf host lowering" `Quick test_cinm_to_scf_host_lowering;
        ] );
      ( "target-select",
        [
          Alcotest.test_case "greedy policy" `Quick test_target_select_greedy;
        ] );
      ( "cinm-to-cnm",
        [
          Alcotest.test_case "gemm" `Quick test_cnm_gemm;
          Alcotest.test_case "gemm padding" `Quick test_cnm_gemm_with_padding;
          Alcotest.test_case "gemm multi-chunk" `Quick test_cnm_gemm_multi_chunk;
          Alcotest.test_case "gemm interchanged" `Quick test_cnm_gemm_optimized_matches;
          Alcotest.test_case "gemv" `Quick test_cnm_gemv;
          Alcotest.test_case "elementwise" `Quick test_cnm_elementwise;
          Alcotest.test_case "reduce" `Quick test_cnm_reduce;
          Alcotest.test_case "histogram" `Quick test_cnm_histogram;
          Alcotest.test_case "scan" `Quick test_cnm_scan;
          Alcotest.test_case "simsearch" `Quick test_cnm_simsearch;
          Alcotest.test_case "topk" `Quick test_cnm_topk;
          Alcotest.test_case "not" `Quick test_cnm_not;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_cnm_gemm ]);
    ]
