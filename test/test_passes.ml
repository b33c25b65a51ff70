(* Unit tests for the individual optimization passes: loop unrolling, LICM,
   DCE, canonicalization (fold + CSE), elementwise fusion, and the
   tosa-to-linalg decomposition — each checked both structurally and for
   semantic preservation against the interpreter. *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
module T = Types

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)
let i32 = T.Scalar T.I32

let module_of f =
  let m = Func.create_module () in
  Func.add_func m f;
  m

let count_ops name f =
  let n = ref 0 in
  Func.walk (fun op -> if op.Ir.name = name then incr n) f;
  !n

let run1 f args =
  match Interp.run_func f args with
  | [ v ], _ -> v
  | _ -> Alcotest.fail "expected one result"

(* ----- loop unrolling ----- *)

(* sum of iv*coeff over [0, trip), built with an unroll annotation *)
let build_sum_loop ~trip ~unroll () =
  let f = Func.create ~name:"sum" ~arg_tys:[ i32 ] ~result_tys:[ i32 ] in
  let b = Builder.for_func f in
  let lb = Arith.const_index b 0 in
  let ub = Arith.const_index b trip in
  let step = Arith.const_index b 1 in
  let results =
    Scf_d.for_ b ~lb ~ub ~step ~init:[ Func.param f 0 ] (fun bb iv iters ->
        let iv32 = Arith.index_cast bb iv ~to_ty:i32 in
        [ Arith.addi bb iters.(0) (Arith.muli bb iv32 iv32) ])
  in
  (match results with
  | [ r ] -> (
    match r.Ir.def with
    | Ir.Op_result (op, _) -> Ir.set_attr op "unroll" (Attr.Int unroll)
    | _ -> ())
  | _ -> assert false);
  Func_d.return b results;
  f

let test_unroll_divisible () =
  let f = build_sum_loop ~trip:12 ~unroll:4 () in
  let expected = run1 f [ Rtval.Int 100 ] in
  let f2 = build_sum_loop ~trip:12 ~unroll:4 () in
  let m = module_of f2 in
  Pass.run_pipeline [ Loop_unroll.pass ] m;
  let f2 = List.hd m.Func.funcs in
  (* the unrolled loop body has 4x the multiplies *)
  let fors = count_ops "scf.for" f2 in
  Alcotest.(check int) "still one loop" 1 fors;
  Alcotest.(check int) "4 multiplies in the body" 4 (count_ops "arith.muli" f2);
  Alcotest.(check int) "same value"
    (Rtval.as_int expected)
    (Rtval.as_int (run1 f2 [ Rtval.Int 100 ]))

let test_unroll_indivisible_is_noop () =
  let f = build_sum_loop ~trip:10 ~unroll:4 () in
  let m = module_of f in
  Pass.run_pipeline [ Loop_unroll.pass ] m;
  Alcotest.(check int) "one multiply (untouched)" 1
    (count_ops "arith.muli" (List.hd m.Func.funcs))

let prop_unroll_preserves_sum =
  QCheck.Test.make ~name:"unroll preserves loop semantics" ~count:40
    QCheck.(pair (1 -- 6) (1 -- 8))
    (fun (u, blocks) ->
      let trip = u * blocks in
      let f1 = build_sum_loop ~trip ~unroll:u () in
      let expected = Rtval.as_int (run1 f1 [ Rtval.Int 7 ]) in
      let f2 = build_sum_loop ~trip ~unroll:u () in
      let m = module_of f2 in
      Pass.run_pipeline [ Loop_unroll.pass ] m;
      Rtval.as_int (run1 (List.hd m.Func.funcs) [ Rtval.Int 7 ]) = expected)

(* ----- LICM ----- *)

let build_licm_loop () =
  (* for i: acc += (x*x) + i  — x*x is invariant *)
  let f = Func.create ~name:"licm" ~arg_tys:[ i32 ] ~result_tys:[ i32 ] in
  let b = Builder.for_func f in
  let lb = Arith.const_index b 0 in
  let ub = Arith.const_index b 8 in
  let step = Arith.const_index b 1 in
  let zero = Arith.constant b 0 in
  let results =
    Scf_d.for_ b ~lb ~ub ~step ~init:[ zero ] (fun bb iv iters ->
        let sq = Arith.muli bb (Func.param f 0) (Func.param f 0) in
        let iv32 = Arith.index_cast bb iv ~to_ty:i32 in
        [ Arith.addi bb iters.(0) (Arith.addi bb sq iv32) ])
  in
  Func_d.return b results;
  f

let ops_inside_loops f =
  let inside = ref 0 in
  Func.walk
    (fun op ->
      if op.Ir.name = "scf.for" then
        Ir.walk_region (fun o -> if o.Ir.name = "arith.muli" then incr inside) (Ir.region op 0))
    f;
  !inside

let test_licm_hoists_invariant_mul () =
  let f = build_licm_loop () in
  let expected = Rtval.as_int (run1 f [ Rtval.Int 5 ]) in
  let f2 = build_licm_loop () in
  let m = module_of f2 in
  Pass.run_pipeline [ Licm.pass ] m;
  let f2 = List.hd m.Func.funcs in
  Alcotest.(check int) "mul hoisted out of the loop" 0 (ops_inside_loops f2);
  Alcotest.(check int) "semantics preserved" expected
    (Rtval.as_int (run1 f2 [ Rtval.Int 5 ]))

let test_licm_keeps_variant_ops () =
  (* acc += i*i is NOT invariant *)
  let f = build_sum_loop ~trip:8 ~unroll:1 () in
  let m = module_of f in
  Pass.run_pipeline [ Licm.pass ] m;
  Alcotest.(check int) "variant mul stays inside" 1 (ops_inside_loops (List.hd m.Func.funcs))

let test_licm_hoists_store_tile () =
  (* mirror of the min-writes structure: store_tile with loop-invariant
     weights inside a streaming loop *)
  let f = Func.create ~name:"st" ~arg_tys:[ tensor [| 4; 4 |] ] ~result_tys:[] in
  let b = Builder.for_func f in
  let id = Memristor_d.alloc b ~rows:4 ~cols:4 ~tiles:1 in
  let lb = Arith.const_index b 0 in
  let ub = Arith.const_index b 8 in
  let step = Arith.const_index b 1 in
  Scf_d.for0 b ~lb ~ub ~step (fun bb _iv ->
      Memristor_d.store_tile bb id ~tile:0 (Func.param f 0));
  Memristor_d.release b id;
  Func_d.return b [];
  let m = module_of f in
  Pass.run_pipeline [ Licm.pass ] m;
  let f = List.hd m.Func.funcs in
  let inside = ref 0 in
  Func.walk
    (fun op ->
      if op.Ir.name = "scf.for" then
        Ir.walk_region
          (fun o -> if o.Ir.name = "memristor.store_tile" then incr inside)
          (Ir.region op 0))
    f;
  Alcotest.(check int) "store_tile hoisted" 0 !inside;
  Alcotest.(check int) "store_tile still present" 1 (count_ops "memristor.store_tile" f)

let test_licm_does_not_hoist_conflicting_stores () =
  (* two stores to the same tile in one loop: hoisting either would change
     which weights are live, so both must stay *)
  let f =
    Func.create ~name:"st2" ~arg_tys:[ tensor [| 4; 4 |]; tensor [| 4; 4 |] ]
      ~result_tys:[]
  in
  let b = Builder.for_func f in
  let id = Memristor_d.alloc b ~rows:4 ~cols:4 ~tiles:1 in
  let lb = Arith.const_index b 0 in
  let ub = Arith.const_index b 4 in
  let step = Arith.const_index b 1 in
  Scf_d.for0 b ~lb ~ub ~step (fun bb _iv ->
      Memristor_d.store_tile bb id ~tile:0 (Func.param f 0);
      Memristor_d.store_tile bb id ~tile:0 (Func.param f 1));
  Memristor_d.release b id;
  Func_d.return b [];
  let m = module_of f in
  Pass.run_pipeline [ Licm.pass ] m;
  let f = List.hd m.Func.funcs in
  let inside = ref 0 in
  Func.walk
    (fun op ->
      if op.Ir.name = "scf.for" then
        Ir.walk_region
          (fun o -> if o.Ir.name = "memristor.store_tile" then incr inside)
          (Ir.region op 0))
    f;
  Alcotest.(check int) "both stores stay inside" 2 !inside

(* ----- DCE ----- *)

let test_dce_removes_dead_chain () =
  let f = Func.create ~name:"dead" ~arg_tys:[ i32 ] ~result_tys:[ i32 ] in
  let b = Builder.for_func f in
  let dead1 = Arith.muli b (Func.param f 0) (Func.param f 0) in
  let _dead2 = Arith.addi b dead1 dead1 in
  Func_d.return b [ Func.param f 0 ];
  let m = module_of f in
  Pass.run_pipeline [ Dce.pass ] m;
  let f = List.hd m.Func.funcs in
  Alcotest.(check int) "muli removed" 0 (count_ops "arith.muli" f);
  Alcotest.(check int) "addi removed" 0 (count_ops "arith.addi" f)

let test_dce_keeps_side_effects () =
  let f = Func.create ~name:"fx" ~arg_tys:[] ~result_tys:[ i32 ] in
  let b = Builder.for_func f in
  let mem = Memref_d.alloc b [| 4 |] T.I32 in
  let c0 = Arith.const_index b 0 in
  let v = Arith.constant b 7 in
  Memref_d.store b v mem [ c0 ];
  Func_d.return b [ Memref_d.load b mem [ c0 ] ];
  let m = module_of f in
  Pass.run_pipeline [ Dce.pass ] m;
  let f = List.hd m.Func.funcs in
  Alcotest.(check int) "store kept" 1 (count_ops "memref.store" f);
  Alcotest.(check int) "still computes 7" 7 (Rtval.as_int (run1 f []))

(* ----- canonicalize ----- *)

let test_fold_constants () =
  let f = Func.create ~name:"fold" ~arg_tys:[] ~result_tys:[ i32 ] in
  let b = Builder.for_func f in
  let c3 = Arith.constant b 3 in
  let c4 = Arith.constant b 4 in
  let sum = Arith.addi b c3 c4 in
  let prod = Arith.muli b sum sum in
  Func_d.return b [ prod ];
  let m = module_of f in
  Pass.run_pipeline [ Canonicalize.pass; Canonicalize.pass ] m;
  let f = List.hd m.Func.funcs in
  Alcotest.(check int) "all arith folded" 0 (count_ops "arith.addi" f + count_ops "arith.muli" f);
  Alcotest.(check int) "result 49" 49 (Rtval.as_int (run1 f []))

let test_cse_dedups () =
  let f = Func.create ~name:"cse" ~arg_tys:[ i32 ] ~result_tys:[ i32 ] in
  let b = Builder.for_func f in
  let a1 = Arith.muli b (Func.param f 0) (Func.param f 0) in
  let a2 = Arith.muli b (Func.param f 0) (Func.param f 0) in
  Func_d.return b [ Arith.addi b a1 a2 ];
  let m = module_of f in
  Pass.run_pipeline [ Canonicalize.pass ] m;
  let f = List.hd m.Func.funcs in
  Alcotest.(check int) "one multiply after CSE" 1 (count_ops "arith.muli" f);
  Alcotest.(check int) "semantics" 32 (Rtval.as_int (run1 f [ Rtval.Int 4 ]))

let test_cse_respects_types () =
  (* constant 0 : index and 0 : i32 must not merge *)
  let f = Func.create ~name:"ty" ~arg_tys:[] ~result_tys:[ i32 ] in
  let b = Builder.for_func f in
  let ci = Arith.const_index b 0 in
  let c32 = Arith.constant b 0 in
  let mem = Memref_d.alloc b [| 1 |] T.I32 in
  Memref_d.store b c32 mem [ ci ];
  Func_d.return b [ Memref_d.load b mem [ ci ] ];
  let m = module_of f in
  Pass.run_pipeline [ Canonicalize.pass ] m;
  Alcotest.(check int) "both constants kept" 2
    (count_ops "arith.constant" (List.hd m.Func.funcs))

(* Float constants are keyed by bit pattern: 1.0000001 and 1.0000002
   print alike under %g but must not merge, and neither may 0.0 and -0.0
   (which [compare] equates). *)
let test_cse_float_bits () =
  let f64 = T.Scalar T.F64 in
  let build () =
    let f = Func.create ~name:"fl" ~arg_tys:[ f64 ] ~result_tys:[ f64 ] in
    let b = Builder.for_func f in
    let x = Arith.constant_f b ~ty:f64 1.0000001 in
    let y = Arith.constant_f b ~ty:f64 1.0000002 in
    Func_d.return b [ Arith.addf b (Arith.subf b x y) (Func.param f 0) ];
    f
  in
  let bits f =
    match run1 f [ Rtval.Float 0. ] with
    | Rtval.Float x -> Int64.bits_of_float x
    | _ -> Alcotest.fail "expected a float"
  in
  let expected = bits (build ()) in
  let m = module_of (build ()) in
  Pass.run_pipeline [ Canonicalize.pass ] m;
  Alcotest.(check int64) "bit-identical result" expected (bits (List.hd m.Func.funcs));
  let f = Func.create ~name:"zeros" ~arg_tys:[] ~result_tys:[ f64; f64 ] in
  let b = Builder.for_func f in
  Func_d.return b [ Arith.constant_f b ~ty:f64 0.0; Arith.constant_f b ~ty:f64 (-0.0) ];
  let m = module_of f in
  Pass.run_pipeline [ Canonicalize.pass ] m;
  Alcotest.(check int) "0.0 and -0.0 kept apart" 2
    (count_ops "arith.constant" (List.hd m.Func.funcs))

(* Canonicalize is linear: each replacement goes through the rewrite
   driver's env instead of a walk over the whole function. The work is
   counted, not timed: every op a walk visits allocates (the walk's
   closures), so a pass that walked the function per fold or CSE hit
   would allocate quadratically. A function of 4n fold-and-CSE steps may
   allocate at most 1.25x per op what one of n steps does. *)
let test_canonicalize_scales_linearly () =
  let build n =
    let f = Func.create ~name:"wide" ~arg_tys:[ i32 ] ~result_tys:[ i32 ] in
    let b = Builder.for_func f in
    let acc = ref (Func.param f 0) in
    for i = 1 to n do
      (* an add of two constants (folds) and one sum computed twice (CSE) *)
      let c = Arith.addi b (Arith.constant b i) (Arith.constant b 1) in
      let s = Arith.addi b !acc c in
      acc := Arith.addi b s (Arith.addi b !acc c)
    done;
    Func_d.return b [ !acc ];
    module_of f
  in
  let per_op n =
    let m = build n in
    let ops = Pass.count_ops m in
    let before = Gc.minor_words () in
    Canonicalize.run_on_func (List.hd m.Func.funcs);
    (Gc.minor_words () -. before) /. float ops
  in
  let n = 400 in
  let small = per_op n and large = per_op (4 * n) in
  if large > 1.25 *. small then
    Alcotest.failf "minor words per op grew %.2fx from %d to %d steps (%.1f -> %.1f)"
      (large /. small) n (4 * n) small large

let prop_canonicalize_preserves_semantics =
  (* random scalar DAGs mixing constants and the argument: fold + CSE + DCE
     must not change the computed value *)
  QCheck.Test.make ~name:"canonicalize preserves random DAG semantics" ~count:60
    QCheck.(pair (list_of_size (Gen.int_range 1 12) (0 -- 5)) (list_of_size (Gen.int_range 1 12) (-9 -- 9)))
    (fun (ops, consts) ->
      let names = [| "addi"; "subi"; "muli"; "minsi"; "maxsi"; "xori" |] in
      let build () =
        let f = Func.create ~name:"dag" ~arg_tys:[ i32 ] ~result_tys:[ i32 ] in
        let b = Builder.for_func f in
        (* pool of values to draw operands from *)
        let pool = ref [ Func.param f 0 ] in
        List.iter (fun c -> pool := Arith.constant b c :: !pool) consts;
        List.iteri
          (fun i op_idx ->
            let nth k = List.nth !pool (k mod List.length !pool) in
            let v =
              Builder.build1 b
                ("arith." ^ names.(op_idx))
                ~operands:[ nth i; nth (i + op_idx + 1) ]
                ~result_tys:[ i32 ]
            in
            pool := v :: !pool)
          ops;
        Func_d.return b [ List.hd !pool ];
        f
      in
      let expected = Rtval.as_int (run1 (build ()) [ Rtval.Int 13 ]) in
      let m = module_of (build ()) in
      Pass.run_pipeline [ Canonicalize.pass; Canonicalize.pass ] m;
      Rtval.as_int (run1 (List.hd m.Func.funcs) [ Rtval.Int 13 ]) = expected)

(* ----- elementwise fusion ----- *)

let build_chain () =
  (* max(min(t - x, 1), 0): the sel predicate *)
  let f = Func.create ~name:"chain" ~arg_tys:[ tensor [| 16 |] ] ~result_tys:[ tensor [| 16 |] ] in
  let b = Builder.for_func f in
  let splat v = Builder.build1 b "tensor.splat" ~operands:[ Arith.constant b v ] ~result_tys:[ tensor [| 16 |] ] in
  let diff =
    Builder.build1 b "cinm.sub" ~operands:[ splat 5; Func.param f 0 ] ~result_tys:[ tensor [| 16 |] ]
  in
  let capped = Builder.build1 b "cinm.min" ~operands:[ diff; splat 1 ] ~result_tys:[ tensor [| 16 |] ] in
  let flags = Builder.build1 b "cinm.max" ~operands:[ capped; splat 0 ] ~result_tys:[ tensor [| 16 |] ] in
  Func_d.return b [ flags ];
  f

let test_fusion_builds_ew_expr () =
  let f = build_chain () in
  let input = Tensor.init [| 16 |] (fun i -> i - 8) in
  let expected = run1 f [ Rtval.Tensor input ] in
  let f2 = build_chain () in
  let m = module_of f2 in
  Pass.run_pipeline [ Ew_fusion.pass ] m;
  let f2 = List.hd m.Func.funcs in
  Alcotest.(check int) "one fused op" 1 (count_ops "cinm.ew_expr" f2);
  Alcotest.(check int) "chain ops gone" 0
    (count_ops "cinm.sub" f2 + count_ops "cinm.min" f2 + count_ops "cinm.max" f2);
  let actual = run1 f2 [ Rtval.Tensor input ] in
  Alcotest.(check bool) "same flags" true
    (Tensor.equal (Rtval.as_tensor expected) (Rtval.as_tensor actual))

let test_fusion_keeps_multi_use_values () =
  (* y = a + b; return y * y at tensor level: y has two uses, must not be
     folded into the mul chain twice *)
  let f =
    Func.create ~name:"mu" ~arg_tys:[ tensor [| 8 |]; tensor [| 8 |] ]
      ~result_tys:[ tensor [| 8 |] ]
  in
  let b = Builder.for_func f in
  let y = Builder.build1 b "cinm.add" ~operands:[ Func.param f 0; Func.param f 1 ] ~result_tys:[ tensor [| 8 |] ] in
  let sq = Builder.build1 b "cinm.mul" ~operands:[ y; y ] ~result_tys:[ tensor [| 8 |] ] in
  Func_d.return b [ sq ];
  let a = Tensor.init [| 8 |] (fun i -> i) in
  let bt = Tensor.init [| 8 |] (fun i -> 2 * i) in
  let expected = run1 f [ Rtval.Tensor a; Rtval.Tensor bt ] in
  let m = module_of f in
  Pass.run_pipeline [ Ew_fusion.pass ] m;
  let f = List.hd m.Func.funcs in
  let actual = run1 f [ Rtval.Tensor a; Rtval.Tensor bt ] in
  Alcotest.(check bool) "same result" true
    (Tensor.equal (Rtval.as_tensor expected) (Rtval.as_tensor actual))

let prop_fusion_preserves_chain_semantics =
  QCheck.Test.make ~name:"fusion preserves random chain semantics" ~count:40
    QCheck.(pair (list_of_size (Gen.int_range 1 5) (0 -- 4)) (list_of_size (Gen.return 8) (-20 -- 20)))
    (fun (ops, data) ->
      let names = [| "add"; "sub"; "mul"; "min"; "max" |] in
      let build () =
        let f = Func.create ~name:"c" ~arg_tys:[ tensor [| 8 |] ] ~result_tys:[ tensor [| 8 |] ] in
        let b = Builder.for_func f in
        let splat v =
          Builder.build1 b "tensor.splat" ~operands:[ Arith.constant b v ]
            ~result_tys:[ tensor [| 8 |] ]
        in
        let acc = ref (Func.param f 0) in
        List.iteri
          (fun i op_idx ->
            acc :=
              Builder.build1 b ("cinm." ^ names.(op_idx))
                ~operands:[ !acc; splat (i + 1) ]
                ~result_tys:[ tensor [| 8 |] ])
          ops;
        Func_d.return b [ !acc ];
        f
      in
      let input = Tensor.of_int_array [| 8 |] (Array.of_list data) in
      let expected = run1 (build ()) [ Rtval.Tensor input ] in
      let m = module_of (build ()) in
      Pass.run_pipeline [ Ew_fusion.pass ] m;
      let actual = run1 (List.hd m.Func.funcs) [ Rtval.Tensor input ] in
      Tensor.equal (Rtval.as_tensor expected) (Rtval.as_tensor actual))

(* ----- tosa decomposition ----- *)

let test_tosa_fc_decomposition () =
  let f =
    Func.create ~name:"fc"
      ~arg_tys:[ tensor [| 2; 3 |]; tensor [| 4; 3 |]; tensor [| 4 |] ]
      ~result_tys:[ tensor [| 2; 4 |] ]
  in
  let b = Builder.for_func f in
  Func_d.return b [ Tosa_d.fully_connected b (Func.param f 0) (Func.param f 1) (Func.param f 2) ];
  let inputs =
    [
      Rtval.Tensor (Tensor.init [| 2; 3 |] (fun i -> i));
      Rtval.Tensor (Tensor.init [| 4; 3 |] (fun i -> i - 5));
      Rtval.Tensor (Tensor.init [| 4 |] (fun i -> 10 * i));
    ]
  in
  let expected = run1 f inputs in
  let m = module_of f in
  Pass.run_pipeline [ Tosa_to_linalg.pass ] m;
  let f = List.hd m.Func.funcs in
  Alcotest.(check int) "no tosa.fully_connected" 0 (count_ops "tosa.fully_connected" f);
  Alcotest.(check int) "has transpose" 1 (count_ops "linalg.transpose" f);
  Alcotest.(check int) "has matmul" 1 (count_ops "linalg.matmul" f);
  let actual = run1 f inputs in
  Alcotest.(check bool) "same result" true
    (Tensor.equal (Rtval.as_tensor expected) (Rtval.as_tensor actual))

(* ----- reference cost models ----- *)

(* a large gemm should prefer an accelerator over the host *)
let test_cost_models_prefer_accelerator () =
  let f = Func.create ~name:"g" ~arg_tys:[ tensor [| 256; 256 |]; tensor [| 256; 256 |] ] ~result_tys:[ tensor [| 256; 256 |] ] in
  let b = Builder.for_func f in
  let g = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
  Func_d.return b [ g ];
  let gemm_op = match g.Ir.def with Ir.Op_result (op, _) -> op | _ -> assert false in
  let host = Option.get (Cost_model.host gemm_op) in
  List.iter
    (fun (device, model) ->
      match model gemm_op with
      | Some t ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (%.3e s) beats host (%.3e s)" device t host)
          true (t < host)
      | None -> Alcotest.failf "%s: no estimate for a gemm" device)
    [ ("cim", Cost_model.cim ~rows:64 ~cols:64); ("cnm", Cost_model.cnm ~dpus:2048) ]

(* ----- cinm-to-cnm workgroup shapes ----- *)

(* The upmem-prim geometry of bench/e2e: 4 DIMMs x 8 DPUs, 16 tasklets. *)
let prim_opts =
  { Cinm_to_cnm.dpus = 32; tasklets = 16; optimize = true; max_rows_per_launch = 64 }

let force_cnm =
  Target_select.pass
    ~policy:{ Target_select.default_policy with forced_target = Some "cnm" }
    ()

(* The UPMEM pipeline up to and including cinm-to-cnm. *)
let lower_to_cnm opts f =
  let m = module_of f in
  Pass.run_pipeline
    [ Torch_to_tosa.pass; Tosa_to_linalg.pass; Linalg_to_cinm.pass; force_cnm; Ew_fusion.pass;
      Cinm_to_cnm.pass ~options:opts () ]
    m;
  List.hd m.Func.funcs

let workgroup_shapes f =
  let shapes = ref [] in
  Func.walk
    (fun op ->
      if op.Ir.name = "cnm.workgroup" then
        match (Ir.result op 0).Ir.ty with
        | T.Workgroup shape -> shapes := Array.to_list shape :: !shapes
        | _ -> Alcotest.fail "cnm.workgroup without a workgroup type")
    f;
  List.rev !shapes

let pad_rows f =
  let rows = ref [] in
  Func.walk
    (fun op ->
      if op.Ir.name = "tensor.pad" then
        match Ir.attr op "high" with
        | Some (Attr.Ints high) -> rows := high.(0) :: !rows
        | _ -> Alcotest.fail "tensor.pad without high")
    f;
  List.rev !rows

let build_mm m k n () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| m; k |]; tensor [| k; n |] ]
      ~result_tys:[ tensor [| m; n |] ]
  in
  let b = Builder.for_func f in
  Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
  f

let build_add n () =
  let f = Func.create ~name:"add" ~arg_tys:[ tensor [| n |]; tensor [| n |] ] ~result_tys:[ tensor [| n |] ] in
  let b = Builder.for_func f in
  Func_d.return b [ Cinm_d.add b (Func.param f 0) (Func.param f 1) ];
  f

let iota shape = Tensor.init shape (fun i -> (i mod 23) - 11)

(* the lowered function, run on the cnm reference executor, equals the
   host interpreter on the unlowered one *)
let check_lowered_runs build f args =
  let expected = run1 (build ()) args in
  let st = Cnm_ref.create_state () in
  match Interp.run_func ~hooks:[ Cnm_ref.hook st ] f args with
  | [ actual ], _ ->
    Alcotest.(check bool) "cnm result == host result" true
      (Tensor.equal (Rtval.as_tensor expected) (Rtval.as_tensor actual))
  | _ -> Alcotest.fail "expected one result"

let test_gemm_fills_its_rows () =
  (* 128 rows at one row per lane fill 8 DPUs x 16 tasklets exactly *)
  let f = lower_to_cnm prim_opts (build_mm 128 16 8 ()) in
  Alcotest.(check (list (list int))) "workgroup 8x16" [ [ 8; 16 ] ] (workgroup_shapes f);
  Alcotest.(check (list int)) "no tensor.pad" [] (pad_rows f)

let test_gemm_pads_within_one_dpu () =
  (* 100 rows take 7 DPUs (112 lanes) and pad 12 < 16 * 1 rows *)
  let build = build_mm 100 8 4 in
  let f = lower_to_cnm prim_opts (build ()) in
  Alcotest.(check (list (list int))) "workgroup 7x16" [ [ 7; 16 ] ] (workgroup_shapes f);
  Alcotest.(check (list int)) "pads 12 rows" [ 12 ] (pad_rows f);
  check_lowered_runs build f [ Rtval.Tensor (iota [| 100; 8 |]); Rtval.Tensor (iota [| 8; 4 |]) ]

let test_elementwise_takes_ceil_dpus () =
  (* n < dpus * tasklets: one element per lane on ceil(n / 16) DPUs *)
  List.iter
    (fun n ->
      let build = build_add n in
      let f = lower_to_cnm prim_opts (build ()) in
      let dpus = (n + 15) / 16 in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "n = %d: workgroup %dx16" n dpus)
        [ [ dpus; 16 ] ] (workgroup_shapes f);
      Alcotest.(check (list int))
        (Printf.sprintf "n = %d: pads %d rows per operand" n ((dpus * 16) - n))
        (if dpus * 16 = n then [] else [ (dpus * 16) - n; (dpus * 16) - n ])
        (pad_rows f);
      check_lowered_runs build f [ Rtval.Tensor (iota [| n |]); Rtval.Tensor (iota [| n |]) ])
    [ 1; 16; 100; 511 ]

let test_big_gemm_keeps_full_grid () =
  (* 32 x 16 x 64 = 32768 rows fit one launch; 40000 rows take the full
     grid twice, in an scf.for over row chunks *)
  let f = lower_to_cnm prim_opts (build_mm 40000 2 2 ()) in
  Alcotest.(check (list (list int))) "full 32x16 grid" [ [ 32; 16 ] ] (workgroup_shapes f);
  let launches_in_loops = ref 0 in
  Func.walk
    (fun op ->
      if op.Ir.name = "scf.for" then
        Ir.walk_op (fun o -> if o.Ir.name = "cnm.launch" then incr launches_in_loops) op)
    f;
  Alcotest.(check int) "the launch runs in the chunk loop" 1 !launches_in_loops;
  Alcotest.(check (list int)) "pads 40000 up to 2 chunks of 32768" [ (2 * 32768) - 40000 ] (pad_rows f)

(* The shape invariant over every PrIM and ML kernel, at the upmem-prim
   geometry and the Fig. 11 geometries (4/8/16 DIMMs of 8 DPUs): a block
   scatter covers its source exactly with D x tasklets lanes of q rows,
   D <= dpus, and the rows it pads are fewer than one DPU's worth
   (tasklets * q). *)
let test_no_launch_pads_a_dpu () =
  let benches =
    Cinm_benchmarks.Suites.prim_suite () @ Cinm_benchmarks.Suites.ml_suite ()
  in
  let def_op (v : Ir.value) =
    match v.Ir.def with Ir.Op_result (op, _) -> Some op | Ir.Block_arg _ -> None
  in
  let padded_by (v : Ir.value) =
    let pad_of v =
      match def_op v with
      | Some op when op.Ir.name = "tensor.pad" -> (
        match Ir.attr op "high" with Some (Attr.Ints h) -> h.(0) | _ -> 0)
      | _ -> 0
    in
    match def_op v with
    | Some op when op.Ir.name = "tensor.extract_slice" -> pad_of (Ir.operand op 0)
    | _ -> pad_of v
  in
  let checked = ref 0 and partial = ref 0 in
  List.iter
    (fun dpus ->
      let opts = { prim_opts with Cinm_to_cnm.dpus } in
      List.iter
        (fun (bench : Cinm_benchmarks.Benchmark.t) ->
          let f = lower_to_cnm opts (bench.Cinm_benchmarks.Benchmark.build ()) in
          Func.walk
            (fun op ->
              if op.Ir.name = "cnm.scatter" && Ir.attr op "map" = Some (Attr.Str "block") then begin
                let src = Ir.operand op 0 in
                let rows = (Option.get (T.shape_of src.Ir.ty)).(0) in
                let q =
                  match (Ir.operand op 1).Ir.ty with
                  | T.Buffer { shape; _ } -> shape.(0)
                  | _ -> Alcotest.fail "scatter into a non-buffer"
                in
                match (Ir.operand op 2).Ir.ty with
                | T.Workgroup [| d; t |] ->
                  let what = Printf.sprintf "%s at %d DPUs (%dx%d, %d rows per lane)" bench.name dpus d t q in
                  Alcotest.(check int) (what ^ ": tasklets") 16 t;
                  Alcotest.(check bool) (what ^ ": DPUs within the bound") true (d >= 1 && d <= dpus);
                  Alcotest.(check int) (what ^ ": lanes cover the source") rows (d * t * q);
                  let pad = padded_by src in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: pads %d < %d rows" what pad (t * q))
                    true (pad < t * q);
                  incr checked;
                  if d < dpus then incr partial
                | _ -> Alcotest.fail "scatter over a non-2D workgroup"
              end)
            f)
        benches)
    [ 32; 64; 128 ];
  Alcotest.(check bool) (Printf.sprintf "%d block scatters checked" !checked) true (!checked > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d of them on fewer DPUs than the bound" !partial)
    true (!partial > 0)

let () =
  Alcotest.run ~and_exit:false "passes"
    [
      ( "loop-unroll",
        [
          Alcotest.test_case "divisible trip" `Quick test_unroll_divisible;
          Alcotest.test_case "indivisible is noop" `Quick test_unroll_indivisible_is_noop;
          QCheck_alcotest.to_alcotest prop_unroll_preserves_sum;
        ] );
      ( "licm",
        [
          Alcotest.test_case "hoists invariant mul" `Quick test_licm_hoists_invariant_mul;
          Alcotest.test_case "keeps variant ops" `Quick test_licm_keeps_variant_ops;
          Alcotest.test_case "hoists store_tile" `Quick test_licm_hoists_store_tile;
          Alcotest.test_case "keeps conflicting stores" `Quick
            test_licm_does_not_hoist_conflicting_stores;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead chain" `Quick test_dce_removes_dead_chain;
          Alcotest.test_case "keeps side effects" `Quick test_dce_keeps_side_effects;
        ] );
      ( "canonicalize",
        [
          Alcotest.test_case "folds constants" `Quick test_fold_constants;
          Alcotest.test_case "cse dedups" `Quick test_cse_dedups;
          Alcotest.test_case "cse respects types" `Quick test_cse_respects_types;
          Alcotest.test_case "cse keys floats by bits" `Quick test_cse_float_bits;
          Alcotest.test_case "scales linearly" `Quick test_canonicalize_scales_linearly;
          QCheck_alcotest.to_alcotest prop_canonicalize_preserves_semantics;
        ] );
      ( "ew-fusion",
        [
          Alcotest.test_case "builds ew_expr" `Quick test_fusion_builds_ew_expr;
          Alcotest.test_case "keeps multi-use values" `Quick test_fusion_keeps_multi_use_values;
          QCheck_alcotest.to_alcotest prop_fusion_preserves_chain_semantics;
        ] );
      ( "front-end",
        [ Alcotest.test_case "tosa fc decomposition" `Quick test_tosa_fc_decomposition ] );
      ( "cost-model",
        [ Alcotest.test_case "gemm prefers an accelerator" `Quick test_cost_models_prefer_accelerator ] );
      ( "workgroups",
        [
          Alcotest.test_case "mm M=128 fills 8x16 unpadded" `Quick test_gemm_fills_its_rows;
          Alcotest.test_case "mm M=100 pads within one DPU" `Quick test_gemm_pads_within_one_dpu;
          Alcotest.test_case "elementwise takes ceil(n/tasklets) DPUs" `Quick
            test_elementwise_takes_ceil_dpus;
          Alcotest.test_case "big gemm keeps the full grid" `Quick test_big_gemm_keeps_full_grid;
          Alcotest.test_case "no launch pads a DPU of rows" `Quick test_no_launch_pads_a_dpu;
        ] );
    ]

(* appended: workgroup-transform analysis (paper Fig. 8) *)
let () =
  let open Workgroup_analysis in
  let test_fig8_formula () =
    (* tree (i,j,k) must reproduce the paper's closed form exactly *)
    let m, p, n, o = (8, 5, 3, 4) in
    let expr = paper_example ~m ~p ~n ~o in
    Alcotest.(check int) "paper (i,j,k) footprint"
      (paper_ijk_footprint ~m ~p ~n ~o)
      (footprint expr [ 'i'; 'j'; 'k' ]);
    (* the (j,k) tree shares A at the root; never worse than the paper's
       per-PU accounting for the same axes *)
    Alcotest.(check bool) "jk tree <= paper jk form" true
      (footprint expr [ 'j'; 'k' ] <= paper_jk_footprint ~m ~p ~n ~o)
  in
  let test_fig8_large_m_prefers_jk () =
    (* the paper's conclusion: for large M, parallelizing over (j,k) beats
       (i,j,k) *)
    let expr = paper_example ~m:1000 ~p:8 ~n:4 ~o:4 in
    Alcotest.(check bool) "jk cheaper than ijk for large M" true
      (footprint expr [ 'j'; 'k' ] < footprint expr [ 'i'; 'j'; 'k' ]);
    (* the chosen workgroup is never worse than either of the paper's two
       candidate layouts *)
    let _, best_fp, _ = best expr in
    Alcotest.(check bool) "best <= both paper forms" true
      (best_fp <= paper_ijk_footprint ~m:1000 ~p:8 ~n:4 ~o:4
      && best_fp <= paper_jk_footprint ~m:1000 ~p:8 ~n:4 ~o:4)
  in
  let test_fig8_rank_sorted () =
    let expr = paper_example ~m:16 ~p:4 ~n:4 ~o:4 in
    let ranked = rank expr in
    let footprints = List.map (fun (_, f, _) -> f) ranked in
    Alcotest.(check bool) "ranked ascending" true
      (List.sort compare footprints = footprints)
  in
  Alcotest.run "workgroup-analysis"
    [
      ( "fig8",
        [
          Alcotest.test_case "paper formula" `Quick test_fig8_formula;
          Alcotest.test_case "large M prefers jk" `Quick test_fig8_large_m_prefers_jk;
          Alcotest.test_case "rank sorted" `Quick test_fig8_rank_sorted;
        ] );
    ]
