(* Differential tests for the closure-compiling executor: every scenario —
   fig10-style CIM matmuls, fig11-style UPMEM kernels, fault injection,
   hand-built scf control flow, runtime errors, and the bench --json
   output — must be bit-identical between CINM_INTERP=tree and
   CINM_INTERP=compiled, at --jobs 1 and --jobs 4. *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
module T = Types
module Usim = Cinm_upmem_sim
module Pool = Cinm_support.Pool
module Fault = Cinm_support.Fault
module Driver = Cinm_core.Driver
module Backend = Cinm_core.Backend
module Report = Cinm_core.Report
module Config = Cinm_support.Config

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)
let iota shape = Tensor.init shape (fun i -> (i mod 23) - 11)

let with_backend backend f =
  let prev = Compile.backend () in
  Compile.set_backend backend;
  Fun.protect ~finally:(fun () -> Compile.set_backend prev) f

(* Run the same scenario under both backends and hand both outcomes to
   [check]. The scenario must build its IR fresh on every call (pipelines
   mutate funcs in place). *)
let differential run check =
  let tree = with_backend Compile.Tree run in
  let compiled = with_backend Compile.Compiled run in
  check tree compiled

let check_tensors msg a b =
  List.iter2
    (fun x y ->
      if not (Tensor.equal x y) then
        Alcotest.failf "%s: tensors differ: %s vs %s" msg (Tensor.to_string x)
          (Tensor.to_string y))
    a b

(* ----- UPMEM lowering (fig11-style kernels) ----- *)

let force_cnm =
  Target_select.pass
    ~policy:{ Target_select.default_policy with forced_target = Some "cnm" }
    ()

let lower_to_upmem ~cnm_opts f =
  let m = Func.create_module () in
  Func.add_func m f;
  Pass.run_pipeline
    [ Tosa_to_linalg.pass; Linalg_to_cinm.pass; force_cnm;
      Cinm_to_cnm.pass ~options:cnm_opts (); Cnm_to_upmem.pass () ]
    m;
  List.hd m.Func.funcs

let build_mm m k n () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| m; k |]; tensor [| k; n |] ]
      ~result_tys:[ tensor [| m; n |] ]
  in
  let b = Builder.for_func f in
  Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
  f

let run_upmem ?(jobs = 1) ?(faults = None) ~cnm_opts builder args =
  Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs 1)
    (fun () ->
      let machine = Usim.Machine.create ~faults (Usim.Config.default ~dimms:1 ()) in
      let f = lower_to_upmem ~cnm_opts (builder ()) in
      let results, profile =
        Compile.run_func ~hooks:[ Usim.Machine.hook machine ] f args
      in
      (List.map Rtval.as_tensor results, machine.Usim.Machine.stats, profile))

let check_upmem_equal (r1, s1, p1) (r2, s2, p2) =
  check_tensors "tree vs compiled" r1 r2;
  Alcotest.(check bool)
    (Printf.sprintf "stats identical:\n%s\nvs\n%s" (Usim.Stats.to_string s1)
       (Usim.Stats.to_string s2))
    true (Usim.Stats.equal s1 s2);
  Alcotest.(check bool) "host profiles identical" true (Profile.equal p1 p2)

let gemm_opts =
  { Cinm_to_cnm.dpus = 8; tasklets = 4; optimize = false; max_rows_per_launch = 8 }

let test_upmem_gemm () =
  let a = iota [| 32; 8 |] and b = iota [| 8; 6 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor b ] in
  List.iter
    (fun jobs ->
      differential
        (fun () -> run_upmem ~jobs ~cnm_opts:gemm_opts (build_mm 32 8 6) args)
        check_upmem_equal)
    [ 1; 4 ]

let test_upmem_gemm_wram_opt () =
  (* the WRAM-optimized GEMM stages operands in per-tasklet
     upmem.wram_alloc buffers and moves them with mram_read/mram_write
     DMA, so both backends' WRAM allocation and DMA paths run *)
  let a = iota [| 32; 16 |] and b = iota [| 16; 8 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor b ] in
  let opts =
    { Cinm_to_cnm.dpus = 4; tasklets = 4; optimize = true; max_rows_per_launch = 8 }
  in
  List.iter
    (fun jobs ->
      differential
        (fun () -> run_upmem ~jobs ~cnm_opts:opts (build_mm 32 16 8) args)
        check_upmem_equal)
    [ 1; 4 ]

(* ----- fault scenarios ----- *)

let plan rates = Fault.make ~seed:42 rates

let test_faults_differential () =
  let a = iota [| 32; 8 |] and b = iota [| 8; 6 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor b ] in
  List.iter
    (fun rates ->
      List.iter
        (fun jobs ->
          differential
            (fun () ->
              run_upmem ~jobs ~faults:(Some (plan rates)) ~cnm_opts:gemm_opts
                (build_mm 32 8 6) args)
            check_upmem_equal)
        [ 1; 4 ])
    [
      { Fault.no_rates with Fault.dpu_transient = 0.3 };
      { Fault.no_rates with Fault.dpu_fail = 0.3 };
    ]

(* ----- CIM (fig10-style) through the driver ----- *)

let test_cim_differential () =
  let run () =
    let backend = Backend.Cim (Backend.default_cim ~min_writes:true ~parallel:false ()) in
    let results, report =
      Driver.compile_and_run backend
        (build_mm 128 128 128 ())
        [ Rtval.Tensor (iota [| 128; 128 |]); Rtval.Tensor (iota [| 128; 128 |]) ]
    in
    (List.map Rtval.as_tensor results, report)
  in
  differential run (fun (r1, rep1) (r2, rep2) ->
      check_tensors "cim tree vs compiled" r1 r2;
      Alcotest.(check string)
        "cim reports identical" (Report.to_string rep1) (Report.to_string rep2))

(* ----- float min/max: NaN and signed zero ----- *)

(* cinm.min/max and the min/max reductions over f32 with NaN and +-0
   operands: the host kernels (tree and compiled), the UPMEM lowering and
   cinm-to-scf (both arith.minf/maxf) must agree bit for bit. *)
let test_float_min_max_engines () =
  let f32 = T.Tensor ([| 4 |], T.F32) in
  let build () =
    let f =
      Func.create ~name:"minmax" ~arg_tys:[ f32; f32 ]
        ~result_tys:[ f32; f32; T.Scalar T.F32; T.Scalar T.F32 ]
    in
    let b = Builder.for_func f in
    let x = Func.param f 0 and y = Func.param f 1 in
    Func_d.return b
      [ Cinm_d.min_ b x y; Cinm_d.max_ b x y;
        Cinm_d.reduce b ~op:"min" x; Cinm_d.reduce b ~op:"max" y ];
    f
  in
  let args () =
    [ Rtval.Tensor (Tensor.of_float_array ~dtype:T.F32 [| 4 |] [| Float.nan; 1.0; 0.0; -0.0 |]);
      Rtval.Tensor (Tensor.of_float_array ~dtype:T.F32 [| 4 |] [| 1.0; Float.nan; -0.0; 0.0 |]) ]
  in
  let bits rs =
    List.concat_map
      (function
        | Rtval.Tensor t -> List.init (Tensor.num_elements t) (fun i -> Tensor.get_float t i)
        | v -> [ Rtval.as_float v ])
      rs
    |> List.map (fun v -> Printf.sprintf "%Lx" (Int64.bits_of_float v))
  in
  let on_driver backend () =
    bits (fst (Driver.compile_and_run ~fallback:false backend (build ()) (args ())))
  in
  let host = on_driver Backend.Host_xeon in
  let tree = with_backend Compile.Tree host and compiled = with_backend Compile.Compiled host in
  let upmem =
    on_driver (Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:2 ())) ()
  in
  let scf =
    let m = Func.create_module () in
    Func.add_func m (build ());
    Pass.run_pipeline [ Cinm_to_scf.pass ] m;
    bits (fst (Interp.run_func (List.hd m.Func.funcs) (args ())))
  in
  let show = String.concat " " in
  List.iter
    (fun (name, got) -> Alcotest.(check string) name (show scf) (show got))
    [ ("host tree", tree); ("host compiled", compiled); ("upmem", upmem) ]

(* ----- the PrIM and ML suites on UPMEM ----- *)

module Suites = Cinm_benchmarks.Suites
module Benchmark = Cinm_benchmarks.Benchmark

let suite_upmem = Backend.default_upmem ~dimms:1 ~dpus_per_dimm:8 ~tasklets:4 ~optimize:true ()
let suite_kernels () = Suites.prim_suite () @ Suites.ml_suite ()

let lower_kernel (bench : Benchmark.t) =
  (Driver.compile_func ~fallback:false (Backend.Upmem suite_upmem) (bench.Benchmark.build ()))
    .Driver.modul

let rtval_equal a b =
  match (a, b) with
  | (Rtval.Tensor x | Rtval.Memref x), (Rtval.Tensor y | Rtval.Memref y) -> Tensor.equal x y
  | _ -> a = b

(* One kernel on a fresh machine: its results, the machine's stats and
   the host and DPU-lane profiles summed, or the failure. *)
let run_kernel ~jobs ~faults (bench : Benchmark.t) =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) @@ fun () ->
  let m = lower_kernel bench in
  let machine = Usim.Machine.create ~faults (Driver.upmem_sim_config suite_upmem) in
  match
    Compile.run_func ~hooks:[ Usim.Machine.hook machine ] ~modul:m (List.hd m.Func.funcs)
      (bench.Benchmark.inputs ())
  with
  | results, profile ->
    Profile.add ~into:profile machine.Usim.Machine.lanes;
    Ok (results, machine.Usim.Machine.stats, profile)
  | exception e -> Error (Printexc.to_string e)

(* Every PrIM and ML kernel, tree vs compiled, at jobs 1 and 4, with and
   without permanent and transient DPU failures: same results, stats
   and profiles (so the fused DPU loops account exactly what the
   tree-walker does). *)
let test_suite_parity () =
  let faulty =
    match Fault.parse "dpu_fail=0.2" with Ok p -> Some p | Error e -> failwith e
  in
  List.iter
    (fun (bench : Benchmark.t) ->
      List.iter
        (fun (jobs, faults) ->
          let what =
            Printf.sprintf "%s jobs %d%s" bench.Benchmark.name jobs
              (if faults = None then "" else " dpu_fail=0.2")
          in
          differential
            (fun () -> run_kernel ~jobs ~faults bench)
            (fun tree compiled ->
              match (tree, compiled) with
              | Ok (r1, s1, p1), Ok (r2, s2, p2) ->
                Alcotest.(check bool) (what ^ ": results") true (List.for_all2 rtval_equal r1 r2);
                Alcotest.(check bool) (what ^ ": results match the reference") true
                  (Benchmark.results_match bench r2);
                Alcotest.(check string) (what ^ ": stats") (Usim.Stats.to_string s1)
                  (Usim.Stats.to_string s2);
                Alcotest.(check bool) (what ^ ": stats equal") true (Usim.Stats.equal s1 s2);
                if faults <> None then
                  Alcotest.(check bool) (what ^ ": faults were injected") true
                    (s2.Usim.Stats.failed_dpus + s2.Usim.Stats.retries > 0);
                Alcotest.(check string) (what ^ ": profile") (Profile.to_string p1)
                  (Profile.to_string p2)
              | Error a, Error b -> Alcotest.(check string) (what ^ ": same failure") a b
              | Ok _, Error e | Error e, Ok _ ->
                Alcotest.failf "%s: one backend failed: %s" what e))
        [ (1, None); (4, None); (1, faulty); (4, faulty) ])
    (suite_kernels ())

let count_loops (r : Ir.region) =
  let n = ref 0 in
  Ir.walk_region (fun (op : Ir.op) -> if op.Ir.name = "scf.for" then incr n) r;
  !n

let launch_regions m =
  let rs = ref [] in
  List.iter
    (fun (f : Func.t) ->
      Ir.walk_region
        (fun (op : Ir.op) -> if op.Ir.name = "upmem.launch" then rs := Ir.region op 0 :: !rs)
        f.Func.body)
    m.Func.funcs;
  List.rev !rs

(* Every DPU loop of every suite kernel (the hot ones of mm, va, red, mv
   and ts among them) runs fused: a change that makes the recogniser
   reject one fails here, not only in a benchmark. *)
let test_dpu_loops_fuse () =
  List.iter
    (fun (bench : Benchmark.t) ->
      let name = bench.Benchmark.name in
      let regions = launch_regions (lower_kernel bench) in
      Alcotest.(check bool) (name ^ " has launches") true (regions <> []);
      List.iter
        (fun r ->
          Alcotest.(check int)
            (name ^ ": every DPU loop fuses")
            (count_loops r)
            (List.length (Compile.fused_loops r)))
        regions)
    (suite_kernels ())

(* The innermost DPU loops that carry the suite's work run in strips:
   the multiply-accumulate loop of every GEMM-shaped kernel, va's
   elementwise loop and ts's distance loop. *)
let test_dpu_loops_vectorize () =
  let ops_in (l : Ir.op) =
    let ops = ref [] in
    Ir.walk_region (fun op -> ops := op :: !ops) (Ir.region l 0);
    !ops
  in
  let has name l = List.exists (fun (o : Ir.op) -> o.Ir.name = name) (ops_in l) in
  let innermost r =
    let loops = ref [] in
    Ir.walk_region
      (fun (op : Ir.op) ->
        if op.Ir.name = "scf.for" && not (has "scf.for" op) then loops := op :: !loops)
      r;
    !loops
  in
  (* loads and multiplies i32 values (not indices) *)
  let int_mac l =
    has "memref.load" l
    && List.exists
         (fun (o : Ir.op) -> o.Ir.name = "arith.muli" && o.Ir.results.(0).Ir.ty <> T.Index)
         (ops_in l)
  in
  let hot = function
    | "mm" | "2mm" | "3mm" | "contrl" | "contrs1" | "contrs2" | "mlp" ->
      Some (fun l -> int_mac l && has "memref.store" l)
    | "va" -> Some (has "memref.load")
    | "ts" -> Some (fun (l : Ir.op) -> Array.length l.Ir.results = 1 && int_mac l)
    | _ -> None
  in
  List.iter
    (fun (bench : Benchmark.t) ->
      let name = bench.Benchmark.name in
      Option.iter
        (fun hot ->
          let found =
            List.concat_map
              (fun r ->
                let strips = Compile.vector_loops r in
                List.map (fun l -> List.memq l strips) (List.filter hot (innermost r)))
              (launch_regions (lower_kernel bench))
          in
          Alcotest.(check bool) (name ^ ": has the loop") true (found <> []);
          List.iter (Alcotest.(check bool) (name ^ ": the loop runs in strips") true) found)
        (hot name))
    (suite_kernels ())

(* ----- hand-built scf control flow ----- *)

(* Loop-carried swap: yield (b, a + b) permutes the iteration-argument
   slots, which the compiled backend must route through scratch slots. *)
let test_scf_loop_carried () =
  let run () =
    let f =
      Func.create ~name:"fib" ~arg_tys:[]
        ~result_tys:[ T.Scalar T.I32; T.Scalar T.I32 ]
    in
    let b = Builder.for_func f in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 10
    and step = Arith.const_index b 1 in
    let i0 = Arith.constant b 0 and i1 = Arith.constant b 1 in
    let results =
      Scf_d.for_ b ~lb ~ub ~step ~init:[ i0; i1 ] (fun bb _iv iters ->
          [ iters.(1); Arith.addi bb iters.(0) iters.(1) ])
    in
    Func_d.return b results;
    Compile.run_func f []
  in
  differential run (fun (r1, p1) (r2, p2) ->
      Alcotest.(check bool) "fib results equal" true (r1 = r2);
      Alcotest.(check bool) "fib profiles equal" true (Profile.equal p1 p2);
      match r1 with
      | [ Rtval.Int a; Rtval.Int b ] ->
        Alcotest.(check int) "fib(10)" 55 a;
        Alcotest.(check int) "fib(11)" 89 b
      | _ -> Alcotest.fail "unexpected fib results")

let test_scf_if_cmpi_memref () =
  let run () =
    let f = Func.create ~name:"g" ~arg_tys:[ T.Scalar T.I32 ] ~result_tys:[ T.Scalar T.I32 ] in
    let b = Builder.for_func f in
    let m = Memref_d.alloc b [| 8 |] T.I32 in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 8
    and step = Arith.const_index b 1 in
    Scf_d.for0 b ~lb ~ub ~step (fun bb iv ->
        let v = Arith.index_cast bb iv ~to_ty:(T.Scalar T.I32) in
        Memref_d.store bb (Arith.muli bb v v) m [ iv ]);
    let x = Func.param f 0 in
    let neg = Arith.cmpi b Arith.Slt x (Arith.constant b 0) in
    let r =
      Scf_d.if_ b neg
        ~then_:(fun bb -> [ Arith.subi bb (Arith.constant bb 0) x ])
        ~else_:(fun bb -> [ Memref_d.load bb m [ Arith.const_index bb 5 ] ])
        ~result_tys:[ T.Scalar T.I32 ]
    in
    Func_d.return b r;
    let minus = Compile.run_func f [ Rtval.Int (-3) ] in
    let plus = Compile.run_func f [ Rtval.Int 7 ] in
    (minus, plus)
  in
  differential run (fun ((m1, mp1), (p1, pp1)) ((m2, mp2), (p2, pp2)) ->
      Alcotest.(check bool) "then-branch results equal" true (m1 = m2);
      Alcotest.(check bool) "else-branch results equal" true (p1 = p2);
      Alcotest.(check bool) "then-branch profiles equal" true (Profile.equal mp1 mp2);
      Alcotest.(check bool) "else-branch profiles equal" true (Profile.equal pp1 pp2);
      Alcotest.(check bool) "then-branch value" true (m1 = [ Rtval.Int 3 ]);
      Alcotest.(check bool) "else-branch value" true (p1 = [ Rtval.Int 25 ]))

(* ----- in-place tensor updates ----- *)

(* Run [f] under both backends on the caller's [inputs]: results and
   profiles must be equal, and the inputs unchanged afterwards. Returns
   the names of the update ops compiled code runs in place. *)
let in_place_parity name (f : Func.t) inputs =
  let before = List.map Tensor.copy inputs in
  let run () = Compile.run_func f (List.map (fun t -> Rtval.Tensor t) inputs) in
  differential run (fun (r1, p1) (r2, p2) ->
      check_tensors (name ^ ": results") (List.map Rtval.as_tensor r1)
        (List.map Rtval.as_tensor r2);
      Alcotest.(check bool) (name ^ ": profiles") true (Profile.equal p1 p2));
  check_tensors (name ^ ": inputs unchanged") before inputs;
  List.map (fun (op : Ir.op) -> op.Ir.name) (Compile.in_place_ops f.Func.body)

(* f(tile : 4x4, base : 8x8) -> results of [body] *)
let tile_func ~results body =
  let f =
    Func.create ~name:"upd" ~arg_tys:[ tensor [| 4; 4 |]; tensor [| 8; 8 |] ]
      ~result_tys:(List.init results (fun _ -> tensor [| 8; 8 |]))
  in
  let b = Builder.for_func f in
  Func_d.return b (body b (Func.param f 0) (Func.param f 1));
  f

let copy_of b base = Tensor_d.extract_slice b base ~offsets:[| 0; 0 |] ~sizes:[| 8; 8 |] ~dyn_offsets:[]
let put b tile dst = Tensor_d.insert_slice b tile dst ~offsets:[| 2; 2 |] ~dyn_offsets:[]

let test_in_place_keeps_copies () =
  let tile = iota [| 4; 4 |] and base = Tensor.init [| 8; 8 |] (fun i -> 100 + i) in
  let cases =
    [
      ("function argument", tile_func ~results:1 (fun b tile base -> [ put b tile base ]));
      ( "used after the insert",
        tile_func ~results:2 (fun b tile base ->
            let d = copy_of b base in
            [ put b tile d; d ]) );
      ( "loop init used after the loop",
        tile_func ~results:2 (fun b tile base ->
            let d = copy_of b base in
            let lb = Arith.const_index b 0
            and ub = Arith.const_index b 2
            and step = Arith.const_index b 1 in
            let r =
              Scf_d.for_ b ~lb ~ub ~step ~init:[ d ] (fun bb i it ->
                  [ Tensor_d.insert_slice bb tile it.(0) ~offsets:[| 0; 0 |]
                      ~dyn_offsets:[ i; i ] ])
            in
            r @ [ d ]) );
      ( "through tensor.reshape",
        tile_func ~results:2 (fun b tile base ->
            let d = copy_of b base in
            [ put b tile (Tensor_d.reshape b d [| 8; 8 |]); d ]) );
      ( "through cinm.expand",
        tile_func ~results:2 (fun b tile base ->
            let d = copy_of b base in
            [ put b tile (Cinm_d.expand b d ~shape:[| 8; 8 |]); d ]) );
      ( "chosen by arith.select",
        tile_func ~results:3 (fun b tile base ->
            let d1 = copy_of b base and d2 = copy_of b base in
            let c = Arith.cmpi b Arith.Slt (Arith.constant b 0) (Arith.constant b 1) in
            [ put b tile (Arith.select b c d1 d2); d1; d2 ]) );
      ( "yielded by scf.if",
        tile_func ~results:2 (fun b tile base ->
            let d = copy_of b base in
            let c = Arith.cmpi b Arith.Slt (Arith.constant b 0) (Arith.constant b 1) in
            let s =
              Scf_d.if_ b c
                ~then_:(fun _ -> [ d ])
                ~else_:(fun bb -> [ copy_of bb base ])
                ~result_tys:[ tensor [| 8; 8 |] ]
            in
            [ put b tile (List.hd s); d ]) );
    ]
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list string)) (name ^ ": copies") []
        (in_place_parity name f [ tile; base ]))
    cases

(* The cinm-to-cim tile loop: a loop-carried accumulator (two nested
   loops, so each loop's ownership presumes the other's) read by
   extract_slice, merged, and written back by insert_slice. *)
let test_in_place_tile_accumulate () =
  let f =
    tile_func ~results:1 (fun b tile base ->
        let acc = Tensor_d.empty b [| 8; 8 |] T.I32 in
        let c0 = Arith.const_index b 0
        and c1 = Arith.const_index b 1
        and c2 = Arith.const_index b 2
        and c4 = Arith.const_index b 4 in
        Scf_d.for_ b ~lb:c0 ~ub:c2 ~step:c1 ~init:[ acc ] (fun bb i outer ->
            let row = Arith.muli bb i c4 in
            Scf_d.for_ bb ~lb:c0 ~ub:c2 ~step:c1 ~init:[ outer.(0) ] (fun bj j inner ->
                let col = Arith.muli bj j c4 in
                let part =
                  Tensor_d.extract_slice bj inner.(0) ~offsets:[| 0; 0 |] ~sizes:[| 4; 4 |]
                    ~dyn_offsets:[ row; col ]
                in
                let src =
                  Tensor_d.extract_slice bj base ~offsets:[| 0; 0 |] ~sizes:[| 4; 4 |]
                    ~dyn_offsets:[ row; col ]
                in
                let m = Cinm_d.merge_partial bj ~op:"add" part (Cinm_d.add bj tile src) in
                [ Tensor_d.insert_slice bj m inner.(0) ~offsets:[| 0; 0 |]
                    ~dyn_offsets:[ row; col ] ])))
  in
  let tile = iota [| 4; 4 |] and base = Tensor.init [| 8; 8 |] (fun i -> 100 + i) in
  Alcotest.(check (list string)) "merge and insert go in place"
    [ "cinm.merge_partial"; "tensor.insert_slice" ]
    (in_place_parity "tile accumulate" f [ tile; base ])

(* An accumulator chain as the cim lowering emits it (extract_slice of
   the carried accumulator, merge_partial, insert_slice at the same
   offsets, adjacent in the loop body) runs as one region update, with
   the tree-walker's results and profile: i32 sums wrap as the three ops
   wrap them, other merge ops apply, and a region that leaves the
   accumulator fails with the tree-walker's error. *)
let test_in_place_merge_chain () =
  let chain ~op ~stride =
    tile_func ~results:1 (fun b tile base ->
        let c0 = Arith.const_index b 0 and c1 = Arith.const_index b 1 in
        let two = Arith.const_index b 2 and step = Arith.const_index b stride in
        Scf_d.for_ b ~lb:c0 ~ub:two ~step:c1 ~init:[ copy_of b base ] (fun bb i it ->
            let off = Arith.muli bb i step in
            let part =
              Tensor_d.extract_slice bb it.(0) ~offsets:[| 0; 0 |] ~sizes:[| 4; 4 |]
                ~dyn_offsets:[ off; off ]
            in
            let m = Cinm_d.merge_partial bb ~op part tile in
            [ Tensor_d.insert_slice bb m it.(0) ~offsets:[| 0; 0 |] ~dyn_offsets:[ off; off ] ]))
  in
  let tile = Tensor.init [| 4; 4 |] (fun i -> 2147483000 + i)
  and base = Tensor.init [| 8; 8 |] (fun i -> 2147483600 + i) in
  List.iter
    (fun op ->
      let f = chain ~op ~stride:4 in
      Alcotest.(check (list string)) (op ^ ": one region update") [ "tensor.insert_slice" ]
        (List.map (fun (o : Ir.op) -> o.Ir.name) (Compile.merged_updates f.Func.body));
      ignore (in_place_parity ("chain " ^ op) f [ tile; base ]))
    [ "add"; "max" ];
  let f = chain ~op:"add" ~stride:6 in
  let error backend =
    with_backend backend (fun () ->
        match Compile.run_func f [ Rtval.Tensor tile; Rtval.Tensor base ] with
        | _ -> None
        | exception e -> Some (Printexc.to_string e))
  in
  let e_tree = error Compile.Tree in
  Alcotest.(check bool) "the region at (6, 6) fails" true (e_tree <> None);
  Alcotest.(check (option string)) "same error" e_tree (error Compile.Compiled)

let test_in_place_scalar_insert () =
  let f = Func.create ~name:"squares" ~arg_tys:[] ~result_tys:[ tensor [| 8 |] ] in
  let b = Builder.for_func f in
  let acc = Tensor_d.empty b [| 8 |] T.I32 in
  let r =
    Scf_d.for_ b ~lb:(Arith.const_index b 0) ~ub:(Arith.const_index b 8)
      ~step:(Arith.const_index b 1) ~init:[ acc ] (fun bb i it ->
        let v = Arith.index_cast bb i ~to_ty:(T.Scalar T.I32) in
        [ Tensor_d.insert bb (Arith.muli bb v v) it.(0) [ i ] ])
  in
  Func_d.return b r;
  Alcotest.(check (list string)) "insert goes in place" [ "tensor.insert" ]
    (in_place_parity "scalar insert" f [])

(* ----- recycled storage ----- *)

(* Run [f] under both backends: results and profiles must be equal and
   the inputs unchanged. Then run it compiled twice more: the second run
   draws from the arena whatever the first returned to it, so storage
   recycled while still reachable (a result, an argument, a hook's
   tensor) would show as a changed first result. Returns the producer
   of every value compiled code recycles, in program order: the op name,
   or "arg" for a block argument. *)
let recycling_parity ?(hooks = []) name (f : Func.t) inputs =
  let before = List.map Tensor.copy inputs in
  let run () = Compile.run_func ~hooks f (List.map (fun t -> Rtval.Tensor t) inputs) in
  let tensors rs = List.map Rtval.as_tensor rs in
  differential run (fun (r1, p1) (r2, p2) ->
      check_tensors (name ^ ": results") (tensors r1) (tensors r2);
      Alcotest.(check bool) (name ^ ": profiles") true (Profile.equal p1 p2));
  let expect, _ = with_backend Compile.Tree run in
  with_backend Compile.Compiled (fun () ->
      let first, _ = run () in
      ignore (run ());
      check_tensors (name ^ ": results after another run") (tensors expect) (tensors first));
  check_tensors (name ^ ": inputs unchanged") before inputs;
  List.concat_map
    (fun (_, vs) ->
      List.map
        (fun (v : Ir.value) ->
          match v.Ir.def with Ir.Op_result (op, _) -> op.Ir.name | Ir.Block_arg _ -> "arg")
        vs)
    (Compile.recycled_after f.Func.body)

(* f(a : 32x32, b : 32x32) -> results of [body]. 32x32 is over the
   arena's small-tensor bound, so these tensors are worth recycling. *)
let square = [| 32; 32 |]

let pair_func ~results body =
  let f =
    Func.create ~name:"rec" ~arg_tys:[ tensor square; tensor square ]
      ~result_tys:(List.init results (fun _ -> tensor square))
  in
  let b = Builder.for_func f in
  Func_d.return b (body b (Func.param f 0) (Func.param f 1));
  f

let counted_loop b ~trips ~init body =
  Scf_d.for_ b ~lb:(Arith.const_index b 0) ~ub:(Arith.const_index b trips)
    ~step:(Arith.const_index b 1) ~init body

let test_recycle_keeps_live_storage () =
  let a = iota square and base = Tensor.init square (fun i -> 100 + i) in
  let copy_of b t = Tensor_d.extract_slice b t ~offsets:[| 0; 0 |] ~sizes:square ~dyn_offsets:[] in
  let cases =
    [
      (* arguments belong to the caller *)
      ("function arguments", [], pair_func ~results:1 (fun b a base -> [ Cinm_d.add b a base ]));
      (* the function's results outlive it *)
      ( "returned values",
        [],
        pair_func ~results:2 (fun b a base ->
            let d = Cinm_d.add b a base in
            [ d; Cinm_d.mul b d d ]) );
      (* a view shares its source's storage *)
      ( "through tensor.reshape",
        [ "cinm.add" ],
        pair_func ~results:1 (fun b a base ->
            let d = Cinm_d.sub b a base in
            let v = Tensor_d.reshape b d square in
            [ Cinm_d.add b (Cinm_d.add b v v) base ]) );
      ( "through cinm.expand",
        [ "cinm.add" ],
        pair_func ~results:1 (fun b a base ->
            let d = Cinm_d.sub b a base in
            let v = Cinm_d.expand b d ~shape:square in
            [ Cinm_d.add b (Cinm_d.add b v v) base ]) );
      (* a loop-carried value yielded unchanged is never released; the
         accumulator is released on each trip after its last read, and
         the loop result is returned *)
      ( "loop-carried values",
        [ "arg"; "tensor.extract_slice" ],
        pair_func ~results:2 (fun b a base ->
            let acc = Cinm_d.sub b a a in
            let kept = Cinm_d.add b a base in
            let r =
              counted_loop b ~trips:3 ~init:[ acc; kept ] (fun bb _ it ->
                  let s = copy_of bb base in
                  [ Cinm_d.add bb it.(0) s; it.(1) ])
            in
            r) );
      (* released after its last read, not its first *)
      ( "read twice",
        [ "cinm.sub"; "cinm.add"; "cinm.add" ],
        pair_func ~results:1 (fun b a base ->
            let d = Cinm_d.sub b a base in
            let e = Cinm_d.add b d a in
            [ Cinm_d.mul b (Cinm_d.add b d e) a ]) );
      (* read on every trip of a loop: released after the loop, not
         inside it *)
      ( "read by every trip",
        [ "tensor.extract_slice" ],
        pair_func ~results:1 (fun b a base ->
            let s = copy_of b base in
            counted_loop b ~trips:3 ~init:[ a ] (fun bb _ it -> [ Cinm_d.add bb it.(0) s ])) );
    ]
  in
  List.iter
    (fun (name, expect, f) ->
      Alcotest.(check (list string)) (name ^ ": recycled") expect
        (recycling_parity name f [ a; base ]))
    cases

(* A hook's tensor result is not owned: the hook may keep it (here it
   returns the same tensor on every call), so compiled code must never
   hand it to the arena even when it dies unread by anything else. *)
let test_recycle_skips_hook_results () =
  let held = iota square in
  let snapshot = Tensor.copy held in
  let hook : Interp.hook =
   fun _ op _ ->
    match op.Ir.name with "test.held" -> Some [ Rtval.Tensor held ] | _ -> None
  in
  let f =
    pair_func ~results:1 (fun b a _ ->
        let h = Builder.build1 b "test.held" ~result_tys:[ tensor square ] in
        [ Cinm_d.add b (Cinm_d.add b h a) a ])
  in
  Alcotest.(check (list string)) "only the fresh sum is recycled" [ "cinm.add" ]
    (recycling_parity ~hooks:[ hook ] "hook result" f [ iota square; iota square ]);
  check_tensors "the hook's tensor is untouched" [ snapshot ] [ held ]

(* The cinm-to-memristor tile loop: the temporaries of a trip that
   compiled code owns to the end (the weight slice, the gemm_tile result)
   go back to the arena; the tile adopts the input slice it stages and
   releases it when the next one replaces it; the accumulator chain
   (slice, merge, insert) runs as one region update, so the slice merged
   into never exists; the loop-carried accumulator is written in place
   and returned. *)
let test_recycle_tile_loop () =
  let f =
    Func.create ~name:"tiles"
      ~arg_tys:[ tensor [| 64; 32 |]; tensor square ]
      ~result_tys:[ tensor [| 64; 32 |] ]
  in
  let b = Builder.for_func f in
  let x = Func.param f 0 and w = Func.param f 1 in
  let dev = Memristor_d.alloc b ~rows:32 ~cols:32 ~tiles:1 in
  let acc = Tensor_d.empty b [| 64; 32 |] T.I32 in
  let r =
    counted_loop b ~trips:2 ~init:[ acc ] (fun bb i it ->
        let row = Arith.muli bb i (Arith.const_index bb 32) and c0 = Arith.const_index bb 0 in
        let slice src = Tensor_d.extract_slice bb src ~offsets:[| 0; 0 |] ~sizes:square in
        Memristor_d.store_tile bb dev ~tile:0 (slice w ~dyn_offsets:[ c0; c0 ]);
        Memristor_d.copy_tile bb dev ~tile:0 (slice x ~dyn_offsets:[ row; c0 ]);
        let out = Memristor_d.gemm_tile bb dev ~tile:0 ~result_ty:(tensor square) in
        let part = slice it.(0) ~dyn_offsets:[ row; c0 ] in
        let m = Cinm_d.merge_partial bb ~op:"add" part out in
        [ Tensor_d.insert_slice bb m it.(0) ~offsets:[| 0; 0 |] ~dyn_offsets:[ row; c0 ] ])
  in
  Memristor_d.release b dev;
  Func_d.return b r;
  (* every run gets a fresh machine (at its memristor.alloc): stats and
     tiles are per run *)
  let machine () = Cinm_memristor_sim.Machine.create (Cinm_memristor_sim.Config.default ()) in
  let m = ref (machine ()) in
  let hook ctx (op : Ir.op) ops =
    if op.Ir.name = "memristor.alloc" then m := machine ();
    Cinm_memristor_sim.Machine.hook !m ctx op ops
  in
  Alcotest.(check (list string)) "every trip temporary is recycled"
    [ "tensor.extract_slice"; "memristor.gemm_tile" ]
    (recycling_parity ~hooks:[ hook ] "tile loop" f [ iota [| 64; 32 |]; iota square ]);
  Alcotest.(check (list string)) "the accumulator chain is one update" [ "tensor.insert_slice" ]
    (List.map (fun (op : Ir.op) -> op.Ir.name) (Compile.merged_updates f.Func.body))

(* ----- error parity ----- *)

let catch run =
  match run () with
  | _ -> None
  | exception e -> Some (Printexc.to_string e)

let test_error_parity () =
  let oob () =
    let f = Func.create ~name:"oob" ~arg_tys:[] ~result_tys:[ T.Scalar T.I32 ] in
    let b = Builder.for_func f in
    let m = Memref_d.alloc b [| 4 |] T.I32 in
    Func_d.return b [ Memref_d.load b m [ Arith.const_index b 10 ] ];
    Compile.run_func f []
  in
  let bad_step () =
    let f = Func.create ~name:"bs" ~arg_tys:[] ~result_tys:[] in
    let b = Builder.for_func f in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 4
    and step = Arith.const_index b 0 in
    Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
    Func_d.return b [];
    Compile.run_func f []
  in
  List.iter
    (fun scenario ->
      let e_tree = with_backend Compile.Tree (fun () -> catch scenario) in
      let e_comp = with_backend Compile.Compiled (fun () -> catch scenario) in
      match (e_tree, e_comp) with
      | Some a, Some b -> Alcotest.(check string) "same error" a b
      | _ -> Alcotest.fail "expected both backends to raise")
    [ oob; bad_step ]

(* ----- interpreter watchdog ----- *)

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= hn && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

(* A kernel that would run for ~1e9 iterations: the CINM_MAX_STEPS
   watchdog must abort it in both backends with the exact same message
   (function, op, step count) — another consequence of the shared profile
   contract, since the step counter *is* profile.launched_ops. *)
let test_watchdog_parity () =
  let spin () =
    let f = Func.create ~name:"spin" ~arg_tys:[] ~result_tys:[] in
    let b = Builder.for_func f in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 1_000_000_000
    and step = Arith.const_index b 1 in
    Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
    Func_d.return b [];
    Compile.run_func ~config:{ (Config.default ()) with Config.max_steps = 1000 } f []
  in
  let e_tree = with_backend Compile.Tree (fun () -> catch spin) in
  let e_comp = with_backend Compile.Compiled (fun () -> catch spin) in
  match (e_tree, e_comp) with
  | Some a, Some b ->
    Alcotest.(check string) "identical watchdog diagnostics" a b;
    Alcotest.(check bool) "names the watchdog" true (contains a "watchdog");
    Alcotest.(check bool) "names the function" true (contains a "@spin");
    Alcotest.(check bool) "names the op" true (contains a "scf.for");
    Alcotest.(check bool) "names the budget" true (contains a "max 1000")
  | _ -> Alcotest.fail "expected both backends to abort"

let test_watchdog_default_off () =
  (* without a budget the same structure (with a small bound) completes *)
  let f = Func.create ~name:"ok" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let lb = Arith.const_index b 0
  and ub = Arith.const_index b 100
  and step = Arith.const_index b 1 in
  Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
  Func_d.return b [];
  differential
    (fun () -> Compile.run_func f [])
    (fun (r1, _) (r2, _) -> Alcotest.(check bool) "both complete" true (r1 = [] && r2 = []))

(* ----- failures inside fused loop nests ----- *)

(* [f] under both backends, each on a fresh profile passed in: both must
   fail with the same message and leave the same profile, and the
   compiled unit must run its nest fused. *)
let fused_failure_parity ?config ?device name build args expect =
  let outcome () =
    let f = build () in
    let profile = Profile.create () in
    let ctx =
      { (Interp.create_ctx ~profile ~fname:f.Func.fname ?config ()) with Interp.device }
    in
    let msg =
      match Compile.run_region ctx f.Func.body (args ()) with
      | _ -> "no failure"
      | exception e -> Printexc.to_string e
    in
    (msg, Profile.to_string profile, List.length (Compile.fused_loops f.Func.body))
  in
  let m1, p1, _ = with_backend Compile.Tree outcome in
  let m2, p2, fused = with_backend Compile.Compiled outcome in
  Alcotest.(check bool) (name ^ ": the nest is fused") true (fused > 0);
  Alcotest.(check string) (name ^ ": same message") m1 m2;
  Alcotest.(check bool) (name ^ ": " ^ m1) true (contains m1 expect);
  Alcotest.(check string) (name ^ ": same profile") p1 p2

(* Two nested loops over a [size]-element memref: the inner one holds a
   branch that yields a load at [i + j] for [j < 2], a compare and a
   select, a load at [i + j], a store and an accumulation. *)
let nest_func ?(size = 512) ~outer ~inner () =
  let f = Func.create ~name:"nest" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let m = Memref_d.alloc b [| size |] T.I32 and acc = Memref_d.alloc b [| 1 |] T.I32 in
  let c0 = Arith.const_index b 0
  and c1 = Arith.const_index b 1
  and c2 = Arith.const_index b 2 in
  let ub_o = Arith.const_index b outer and ub_i = Arith.const_index b inner in
  Scf_d.for0 b ~lb:c0 ~ub:ub_o ~step:c1 (fun bo i ->
      Scf_d.for0 bo ~lb:c0 ~ub:ub_i ~step:c1 (fun bi j ->
          let near = Arith.cmpi bi Arith.Slt j c2 in
          let v =
            List.hd
              (Scf_d.if_ bi near
                 ~then_:(fun bt -> [ Memref_d.load bt m [ Arith.addi bt i j ] ])
                 ~else_:(fun be -> [ Arith.constant be 7 ])
                 ~result_tys:[ T.Scalar T.I32 ])
          in
          let x = Memref_d.load bi m [ Arith.addi bi i j ] in
          let y = Arith.select bi near (Arith.muli bi x v) (Arith.subi bi x v) in
          Memref_d.store bi y m [ Arith.minsi bi j c1 ];
          let a = Memref_d.load bi acc [ c0 ] in
          Memref_d.store bi (Arith.addi bi a y) acc [ c0 ]));
  Func_d.return b [];
  f

let test_fused_load_oob () =
  (* [i + j] leaves the memref at trip 4 of the first inner loop *)
  fused_failure_parity "load at trip 4" (nest_func ~size:4 ~outer:3 ~inner:5) (fun () -> [])
    "Util.linearize: out of bounds";
  (* ... and inside the branch at trip 1 of the fourth inner loop *)
  fused_failure_parity "load in a branch" (nest_func ~size:4 ~outer:5 ~inner:2) (fun () -> [])
    "Util.linearize: out of bounds"

(* A DPU lane whose fourth DMA reads past the end of its MRAM buffer. *)
let test_fused_dma_oob () =
  let build () =
    let f = Func.create ~name:"dma" ~arg_tys:[ T.MemRef ([| 512 |], T.I32) ] ~result_tys:[] in
    let b = Builder.for_func f in
    let w = Upmem_d.wram_alloc b [| 128 |] T.I32 in
    let c0 = Arith.const_index b 0
    and c1 = Arith.const_index b 1
    and c4 = Arith.const_index b 4
    and c192 = Arith.const_index b 192 in
    Scf_d.for0 b ~lb:c0 ~ub:c4 ~step:c1 (fun bb t ->
        Upmem_d.mram_read bb ~mram:(Func.param f 0) ~wram:w ~mram_off:(Arith.muli bb t c192)
          ~wram_off:c0 ~count:128;
        Memref_d.store bb (Memref_d.load bb w [ t ]) w [ c0 ]);
    Func_d.return b [];
    f
  in
  let lane =
    { Interp.dpu = 3; tasklet = 1; wram = Hashtbl.create 1; wram_used = 0; wram_bytes = 65536 }
  in
  fused_failure_parity ~device:lane "DMA at trip 3" build
    (fun () -> [ Rtval.Memref (iota [| 512 |]) ])
    "upmem.mram_read: MRAM range [576, 704) out of bounds for 512 elements on DPU 3 (tasklet 1)"

let test_fused_watchdog () =
  fused_failure_parity
    ~config:{ (Config.default ()) with Config.max_steps = 13 }
    "max_steps 13" (nest_func ~outer:3 ~inner:4) (fun () -> [])
    "exceeded the step budget at scf.for: 14 steps (max 13)"

let test_fused_cancel () =
  let cancel = Atomic.make true in
  fused_failure_parity
    ~config:{ (Config.default ()) with Config.cancel }
    "cancelled" (nest_func ~outer:3 ~inner:4) (fun () -> [])
    "request cancelled in @nest at scf.for";
  (* a deadline already past trips at the 1024th step, inside the
     inner loop *)
  fused_failure_parity
    ~config:{ (Config.default ()) with Config.deadline = 1.0 }
    "deadline" (nest_func ~outer:300 ~inner:4) (fun () -> [])
    "deadline exceeded in @nest at scf.for (1024 steps)"

(* ----- strips ----- *)

let full_string = function
  | Rtval.Memref t -> Tensor.to_string ~max_elems:max_int t
  | v -> Rtval.to_string v

(* [build ()] under both backends, each on a fresh profile and fresh
   [args ()]: the same results or message, the same memref contents
   after the run and the same profile; [strips] says whether the
   compiled unit has a loop with a strip form. *)
let strip_parity ~strips name build args expect =
  let outcome () =
    let f = build () in
    let profile = Profile.create () in
    let ctx = Interp.create_ctx ~profile ~fname:f.Func.fname () in
    let args = args () in
    let got =
      match Compile.run_region ctx f.Func.body args with
      | rs -> String.concat " " (List.map full_string rs)
      | exception e -> Printexc.to_string e
    in
    ( got ^ " | " ^ String.concat " " (List.map full_string args),
      Profile.to_string profile,
      Compile.vector_loops f.Func.body <> [] )
  in
  let r1, p1, _ = with_backend Compile.Tree outcome in
  let r2, p2, vector = with_backend Compile.Compiled outcome in
  Alcotest.(check bool) (name ^ ": strip form") strips vector;
  Alcotest.(check string) (name ^ ": same outcome") r1 r2;
  Alcotest.(check bool) (name ^ ": " ^ expect) true (contains r1 expect);
  Alcotest.(check string) (name ^ ": same profile") p1 p2

(* A function of i32 memref parameters of [sizes], returning [body]'s
   values. *)
let memref_func ?(result_tys = []) sizes body () =
  let f =
    Func.create ~name:"strips"
      ~arg_tys:(List.map (fun n -> T.MemRef ([| n |], T.I32)) sizes)
      ~result_tys
  in
  let b = Builder.for_func f in
  Func_d.return b (body b (Array.init (List.length sizes) (Func.param f)));
  f

let memrefs sizes () = List.map (fun n -> Rtval.Memref (iota [| n |])) sizes

(* c[i] = 3 * a[i + shift] + 1 for i in [0, trips) *)
let scale_loop ~shift ~trips sizes =
  memref_func sizes (fun b p ->
      let c0 = Arith.const_index b 0 and c1 = Arith.const_index b 1 in
      Scf_d.for0 b ~lb:c0 ~ub:(Arith.const_index b trips) ~step:c1 (fun bb i ->
          let x = Memref_d.load bb p.(0) [ Arith.addi bb i (Arith.const_index bb shift) ] in
          Memref_d.store bb
            (Arith.addi bb (Arith.muli bb x (Arith.constant bb 3)) (Arith.constant bb 1))
            p.(1) [ i ]);
      [])

let test_strip_oob () =
  (* the load leaves [a] at trip 30, in the middle of the first strip *)
  strip_parity ~strips:true "load at trip 30" (scale_loop ~shift:10 ~trips:100 [ 40; 100 ])
    (memrefs [ 40; 100 ]) "Util.linearize: out of bounds";
  (* the store leaves [c] at trip 90, in the middle of the second *)
  strip_parity ~strips:true "store at trip 90" (scale_loop ~shift:0 ~trips:100 [ 100; 90 ])
    (memrefs [ 100; 90 ]) "Util.linearize: out of bounds"

(* 150 trips from 3 (strips of 64, 64 and 22) over memrefs that extend
   past the last trip: a store of a[i] - i and a reduction *)
let test_strip_tail () =
  strip_parity ~strips:true "150 trips"
    (memref_func ~result_tys:[ T.Scalar T.I32 ] [ 260; 260 ] (fun b p ->
         let c1 = Arith.const_index b 1 in
         Scf_d.for_ b ~lb:(Arith.const_index b 3) ~ub:(Arith.const_index b 153) ~step:c1
           ~init:[ Arith.constant b 5 ] (fun bb i acc ->
             let x = Memref_d.load bb p.(0) [ i ] in
             let i32 = Arith.index_cast bb i ~to_ty:(T.Scalar T.I32) in
             Memref_d.store bb (Arith.subi bb x i32) p.(1) [ i ];
             [ Arith.addi bb acc.(0) (Arith.muli bb x (Arith.constant bb 2)) ])))
    (memrefs [ 260; 260 ])
    (let a = iota [| 260 |] in
     let sum = ref 5 in
     for i = 3 to 152 do
       sum := !sum + (2 * Tensor.get_int a i)
     done;
     string_of_int !sum ^ " |")

(* b[i + 1] = a[i] + 1 with [a] and [b] one payload: each trip reads
   what the previous one stored, so the loop must run trip by trip *)
let test_strip_aliased () =
  strip_parity ~strips:true "aliased memrefs"
    (memref_func [ 100; 100 ] (fun b p ->
         let c0 = Arith.const_index b 0 and c1 = Arith.const_index b 1 in
         Scf_d.for0 b ~lb:c0 ~ub:(Arith.const_index b 99) ~step:c1 (fun bb i ->
             let x = Memref_d.load bb p.(0) [ i ] in
             Memref_d.store bb (Arith.addi bb x (Arith.constant bb 1)) p.(1)
               [ Arith.addi bb i c1 ]);
         []))
    (fun () ->
      let t = Rtval.Memref (iota [| 100 |]) in
      [ t; t ])
    (" | " ^ Tensor.to_string ~max_elems:max_int (Tensor.init [| 100 |] (fun k -> k - 11)))

(* acc[0] += a[i]: a store at a loop-invariant index has no strip form *)
let test_strip_invariant_store () =
  strip_parity ~strips:false "store at an invariant index"
    (memref_func [ 100; 1 ] (fun b p ->
         let c0 = Arith.const_index b 0 and c1 = Arith.const_index b 1 in
         Scf_d.for0 b ~lb:c0 ~ub:(Arith.const_index b 100) ~step:c1 (fun bb i ->
             let acc = Memref_d.load bb p.(1) [ c0 ] in
             Memref_d.store bb (Arith.addi bb acc (Memref_d.load bb p.(0) [ i ])) p.(1) [ c0 ]);
         []))
    (memrefs [ 100; 1 ])
    (let a = iota [| 100 |] in
     let sum = ref (-11) in
     for i = 0 to 99 do
       sum := !sum + Tensor.get_int a i
     done;
     "[" ^ string_of_int !sum ^ "]")

(* sum of a[i] * a[i] over values from 40000 to 45940: the products fit
   in i32, their sum does not, and the strip sums wrap to the same bits *)
let test_strip_wrapping_sum () =
  let value i = 40_000 + (i * 60) in
  let exact = List.fold_left (fun acc i -> acc + (value i * value i)) 0 (List.init 100 Fun.id) in
  let wrapped = Tensor.wrap T.I32 exact in
  strip_parity ~strips:true "wrapping i32 sum"
    (memref_func ~result_tys:[ T.Scalar T.I32 ] [ 100 ] (fun b p ->
         Scf_d.for_ b ~lb:(Arith.const_index b 0) ~ub:(Arith.const_index b 100)
           ~step:(Arith.const_index b 1) ~init:[ Arith.constant b 0 ] (fun bb i acc ->
             let x = Memref_d.load bb p.(0) [ i ] in
             [ Arith.addi bb acc.(0) (Arith.muli bb x x) ])))
    (fun () -> [ Rtval.Memref (Tensor.init [| 100 |] value) ])
    (string_of_int wrapped ^ " |");
  Alcotest.(check bool) "the sum wraps" true (wrapped <> exact)

(* ----- process defaults ----- *)

(* Every run setting has one source of truth: the Config default, which
   runs that pass no config read. *)
let test_backend_reads_config_default () =
  let saved = Config.default () in
  Fun.protect ~finally:(fun () -> Config.set_default saved) @@ fun () ->
  Config.set_default { saved with Config.interp = "compiled" };
  Alcotest.(check bool) "compiled" true (Compile.backend () = Compile.Compiled);
  Config.set_default { saved with Config.interp = "tree" };
  Alcotest.(check bool) "tree" true (Compile.backend () = Compile.Tree);
  (* the pass manager: strict, pass budget, reproducer dir *)
  let dir = Filename.temp_file "cinm-config-repro" "" in
  Sys.remove dir;
  Config.set_default
    { saved with Config.strict = true; pass_budget_s = Some 0.0; reproducer_dir = Some dir };
  let nop = Pass.create ~name:"nop" (fun _ -> ()) in
  let unverified () =
    let m = Func.create_module () in
    let f = Func.create ~name:"bad" ~arg_tys:[] ~result_tys:[] in
    let b = Builder.for_func f in
    Builder.build0 b "bogus.op";
    Func_d.return b [];
    Func.add_func m f;
    m
  in
  (match Pass.run_one_result ~verify:false nop (unverified ()) with
  | Error d ->
    Alcotest.(check bool) "strict verifies" true (contains d.Pass.message "verification")
  | Ok () -> Alcotest.fail "strict did not reach the pass manager");
  let valid () =
    let m = Func.create_module () in
    Func.add_func m (build_mm 2 2 2 ());
    m
  in
  (match Pass.run_pipeline_result [ nop ] (valid ()) with
  | Error d ->
    Alcotest.(check bool) "pass budget" true (contains d.Pass.message "wall-time budget")
  | Ok () -> Alcotest.fail "the pass budget did not reach the pass manager");
  (match Pass.last_reproducer () with
  | Some r ->
    Alcotest.(check string) "reproducer dir" dir (Filename.dirname r.Pass.path);
    Sys.remove r.Pass.path;
    Sys.rmdir dir
  | None -> Alcotest.fail "the reproducer dir did not reach the pass manager");
  (* the interpreter watchdog and the machines' fault plan *)
  let plan = Result.get_ok (Fault.parse "dpu_fail=0.2,seed=3") in
  Config.set_default { saved with Config.max_steps = 1000; faults = Some plan };
  Alcotest.(check bool) "Fault.default is the same store" true (Fault.default () = Some plan);
  let spin () =
    let f = Func.create ~name:"spin" ~arg_tys:[] ~result_tys:[] in
    let b = Builder.for_func f in
    let lb = Arith.const_index b 0
    and ub = Arith.const_index b 100_000
    and step = Arith.const_index b 1 in
    Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
    Func_d.return b [];
    Compile.run_func f []
  in
  Alcotest.(check bool) "max_steps" true
    (match catch spin with Some e -> contains e "max 1000" | None -> false);
  let backend = Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:8 ~tasklets:4 ()) in
  let _, r =
    Driver.compile_and_run backend (build_mm 32 8 6 ())
      [ Rtval.Tensor (iota [| 32; 8 |]); Rtval.Tensor (iota [| 8; 6 |]) ]
  in
  Alcotest.(check bool) "faults" true
    (Option.value ~default:0 (List.assoc_opt "failed_dpus" r.Report.counters) > 0)

(* Driver.run costs the host side of a CIM run on the model it is given
   (default: the in-order ARM core). *)
let test_cim_host_model () =
  let module Cpu = Cinm_cpu_sim.Model in
  let backend = Backend.Cim (Backend.default_cim ()) in
  let args () = [ Rtval.Tensor (iota [| 32; 16 |]); Rtval.Tensor (iota [| 16; 8 |]) ] in
  let c = Driver.compile_func backend (build_mm 32 16 8 ()) in
  let _, arm = Driver.run c (args ()) in
  let _, xeon = Driver.run ~host_model:Cpu.xeon_opt c (args ()) in
  let machines = Cinm_core.Machine_set.create ~faults:None backend in
  let _, profile =
    Compile.run_func
      ~hooks:(Cinm_core.Machine_set.hooks machines)
      ~modul:c.Driver.modul (List.hd c.Driver.modul.Func.funcs) (args ())
  in
  let est m = (Cpu.estimate m profile).Cpu.time_s in
  Alcotest.(check (float 0.0)) "default host is the ARM core" (est Cpu.arm_inorder)
    arm.Report.host_s;
  Alcotest.(check (float 0.0)) "host_model is honoured" (est Cpu.xeon_opt) xeon.Report.host_s;
  Alcotest.(check bool) "the two models differ" true (xeon.Report.host_s <> arm.Report.host_s)

(* ----- which path serves an op ----- *)

(* Run [f] under both backends through [counting :: hooks ()], twice
   each (the second run warm). The counting hook declines every op; it
   must be offered device ops only, and never from a DPU lane or a pool
   domain. *)
let check_hooks_see_device_ops what ~jobs hooks (f : Func.t) modul args =
  let offered = Atomic.make 0 and host_ops = Atomic.make 0 and from_lanes = Atomic.make 0 in
  let counting : Interp.hook =
   fun ctx op _ ->
    Atomic.incr offered;
    if not (Interp.is_device_op op) then Atomic.incr host_ops;
    if Option.is_some ctx.Interp.device || not (Domain.is_main_domain ()) then
      Atomic.incr from_lanes;
    None
  in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) @@ fun () ->
  List.iter
    (fun backend ->
      with_backend backend (fun () ->
          for _ = 1 to 2 do
            ignore (Compile.run_func ~hooks:(counting :: hooks ()) ~modul f (args ()))
          done))
    [ Compile.Tree; Compile.Compiled ];
  Alcotest.(check bool) (what ^ ": the hooks see device ops") true (Atomic.get offered > 0);
  Alcotest.(check int) (what ^ ": host ops offered to the hooks") 0 (Atomic.get host_ops);
  Alcotest.(check int) (what ^ ": hook calls from a lane") 0 (Atomic.get from_lanes)

let test_hooks_see_device_ops () =
  let module K = Cinm_benchmarks.Ml_kernels in
  let mm = K.mm ~m:128 ~k:64 ~n:64 () in
  let cim = Backend.Cim (Backend.default_cim ~min_writes:true ~parallel:true ()) in
  let m = (Driver.compile_func cim (mm.Benchmark.build ())).Driver.modul in
  check_hooks_see_device_ops "mm@cim" ~jobs:1
    (fun () -> Cinm_core.Machine_set.hooks (Cinm_core.Machine_set.create ~faults:None cim))
    (List.hd m.Func.funcs) m mm.Benchmark.inputs;
  (* PrIM's histogram, whose tasklets meet at a barrier per merge chunk *)
  let hst = Cinm_benchmarks.Prim_baseline.hst_l suite_upmem ~n:4096 () in
  let m = Func.create_module () in
  Func.add_func m (hst.Benchmark.build ());
  check_hooks_see_device_ops "hst-l@upmem" ~jobs:4
    (fun () ->
      Cinm_core.Machine_set.hooks
        (Cinm_core.Machine_set.create ~faults:None (Backend.Upmem suite_upmem)))
    (List.hd m.Func.funcs) m hst.Benchmark.inputs

(* A device op no hook answers fails when it runs, with the same message
   under both backends. *)
let test_unserved_device_op () =
  let f = Func.create ~name:"unserved" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  ignore (Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:1);
  Func_d.return b [];
  let cim = Backend.Cim (Backend.default_cim ()) in
  let run () =
    catch (fun () ->
        Compile.run_func
          ~hooks:(Cinm_core.Machine_set.hooks (Cinm_core.Machine_set.create ~faults:None cim))
          f [])
  in
  differential run (fun tree compiled ->
      let expect =
        Some
          (Printexc.to_string
             (Interp.Interp_error "no interpreter semantics for upmem.alloc_dpus"))
      in
      Alcotest.(check (option string)) "tree" expect tree;
      Alcotest.(check (option string)) "compiled" expect compiled)

(* ----- compiled code on its block ----- *)

(* A region's compiled unit lives on its entry block: the first compiled
   run of a module compiles each unit it runs (k misses), a second run
   finds them all (k hits). Canonicalize rebuilds the body through the
   rewrite driver, so its blocks are fresh: the run after it compiles
   again and counts what a fresh parse of the canonicalized text counts,
   not what the stale code would. *)
let test_fresh_code_after_canonicalize () =
  let text =
    {|func.func @f(%arg0: i32) -> (i32) {
  %0 = "arith.constant"() {value = 1} : () -> (i32)
  %1 = "arith.constant"() {value = 2} : () -> (i32)
  %2 = "arith.addi"(%0, %1) : (i32, i32) -> (i32)
  %3 = "arith.addi"(%2, %arg0) : (i32, i32) -> (i32)
  "func.return"(%3) : (i32) -> ()
}|}
  in
  let run m = Compile.run_func (List.hd m.Func.funcs) [ Rtval.Int 5 ] in
  (* hits and misses [f] adds *)
  let counted f =
    let s0 = Compile.cache_stats () in
    let r = f () in
    let s1 = Compile.cache_stats () in
    (r, s1.Compile.hits - s0.Compile.hits, s1.Compile.misses - s0.Compile.misses)
  in
  with_backend Compile.Compiled @@ fun () ->
  let m = Parser.parse_module_text text in
  let _, hits, k = counted (fun () -> run m) in
  Alcotest.(check int) "first run: no hits" 0 hits;
  Alcotest.(check bool) "first run: misses" true (k > 0);
  let _, hits, misses = counted (fun () -> run m) in
  Alcotest.(check (pair int int)) "second run: k hits, no misses" (k, 0) (hits, misses);
  Pass.run_pipeline [ Canonicalize.pass ] m;
  let (results, profile), _, misses = counted (fun () -> run m) in
  Alcotest.(check bool) "canonicalized module compiles afresh" true (misses > 0);
  let fresh_results, fresh_profile =
    run (Parser.parse_module_text (Printer.module_to_string m))
  in
  Alcotest.(check bool) "same results" true (results = fresh_results);
  Alcotest.(check string) "profile of a fresh parse"
    (Profile.to_string fresh_profile) (Profile.to_string profile)

(* Two domains make the first compiled run of one freshly parsed kernel
   at the same time, so both may find its blocks empty and compile
   them: each must still return the tree-walker's results and profile. *)
let test_concurrent_first_run () =
  let text =
    {|func.func @k(%arg0: tensor<4x4xi32>, %arg1: i32) -> (tensor<4x4xi32>, i32) {
  %0 = "arith.constant"() {value = 0} : () -> (index)
  %1 = "arith.constant"() {value = 16} : () -> (index)
  %2 = "arith.constant"() {value = 1} : () -> (index)
  %3 = "scf.for"(%0, %1, %2, %arg1) ({
  ^bb0(%4: index, %5: i32):
    %6 = "arith.index_cast"(%4) : (index) -> (i32)
    %7 = "arith.muli"(%6, %6) : (i32, i32) -> (i32)
    %8 = "arith.addi"(%5, %7) : (i32, i32) -> (i32)
    "scf.yield"(%8) : (i32) -> ()
  }) : (index, index, index, i32) -> (i32)
  %9 = "cinm.add"(%arg0, %arg0) : (tensor<4x4xi32>, tensor<4x4xi32>) -> (tensor<4x4xi32>)
  "func.return"(%9, %3) : (tensor<4x4xi32>, i32) -> ()
}|}
  in
  let args () = [ Rtval.Tensor (iota [| 4; 4 |]); Rtval.Int 7 ] in
  let run interp f =
    let results, profile =
      Compile.run_func ~config:{ (Config.default ()) with Config.interp } f (args ())
    in
    (List.map Rtval.to_string results, Profile.to_string profile)
  in
  let kernel () = List.hd (Parser.parse_module_text text).Func.funcs in
  let expect = run "tree" (kernel ()) in
  for _ = 1 to 20 do
    let f = kernel () in
    let ready = Atomic.make 0 in
    let lane () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      run "compiled" f
    in
    let d = Domain.spawn lane in
    let here = lane () in
    let there = Domain.join d in
    Alcotest.(check (pair (list string) string)) "this domain" expect here;
    Alcotest.(check (pair (list string) string)) "the other domain" expect there
  done

(* ----- bench --json differential ----- *)

(* locate the bench executable relative to this test binary, so the test
   works under both `dune runtest` (cwd test/) and `dune exec` (cwd root) *)
let bench_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bench" "main.exe"))

let bench_json ~interp ~jobs =
  let out = Filename.temp_file "cinm_bench" ".json" in
  let cmd =
    Printf.sprintf
      "%s --quick --jobs %d --interp %s --json %s ablation tab4 dialects \
       >/dev/null 2>&1"
      (Filename.quote bench_exe) jobs interp (Filename.quote out)
  in
  let rc = Sys.command cmd in
  Alcotest.(check int) (Printf.sprintf "bench exit (%s)" cmd) 0 rc;
  let doc = Cinm_check.Bench_pin.load out in
  Sys.remove out;
  doc

let test_bench_json_differential () =
  List.iter
    (fun jobs ->
      let tree = bench_json ~interp:"tree" ~jobs in
      let compiled = bench_json ~interp:"compiled" ~jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "--json identical minus wall_s at --jobs %d" jobs)
        [] (Cinm_check.Bench_pin.diff ~pin:tree compiled))
    [ 1; 4 ]

let () =
  Alcotest.run "compile"
    [ ( "differential",
        [ Alcotest.test_case "upmem gemm, jobs 1 and 4" `Quick test_upmem_gemm;
          Alcotest.test_case "upmem gemm wram-opt, jobs 1 and 4" `Quick
            test_upmem_gemm_wram_opt;
          Alcotest.test_case "fault scenarios" `Quick test_faults_differential;
          Alcotest.test_case "cim matmul report" `Quick test_cim_differential;
          Alcotest.test_case "float min/max NaN and signed zero" `Quick
            test_float_min_max_engines;
          Alcotest.test_case "PrIM and ML suites, jobs 1 and 4, dpu_fail" `Quick
            test_suite_parity;
          Alcotest.test_case "every DPU loop fuses" `Quick test_dpu_loops_fuse;
          Alcotest.test_case "innermost DPU loops vectorize" `Quick test_dpu_loops_vectorize;
        ] );
      ( "control-flow",
        [ Alcotest.test_case "loop-carried swap (fib)" `Quick test_scf_loop_carried;
          Alcotest.test_case "scf.if + cmpi + memref" `Quick test_scf_if_cmpi_memref;
          Alcotest.test_case "error parity" `Quick test_error_parity;
          Alcotest.test_case "watchdog parity" `Quick test_watchdog_parity;
          Alcotest.test_case "watchdog off by default" `Quick test_watchdog_default_off;
        ] );
      ( "fused failures",
        [ Alcotest.test_case "out-of-bounds load in an inner loop" `Quick test_fused_load_oob;
          Alcotest.test_case "out-of-bounds DMA on a DPU lane" `Quick test_fused_dma_oob;
          Alcotest.test_case "watchdog inside a nest" `Quick test_fused_watchdog;
          Alcotest.test_case "cancel and deadline inside a nest" `Quick test_fused_cancel;
        ] );
      ( "strips",
        [ Alcotest.test_case "out-of-bounds load and store mid-strip" `Quick test_strip_oob;
          Alcotest.test_case "trip count not a multiple of 64" `Quick test_strip_tail;
          Alcotest.test_case "two memrefs on one payload" `Quick test_strip_aliased;
          Alcotest.test_case "store at a loop-invariant index" `Quick test_strip_invariant_store;
          Alcotest.test_case "i32 add-reduction that wraps" `Quick test_strip_wrapping_sum;
        ] );
      ( "in-place",
        [ Alcotest.test_case "aliased or live destinations copy" `Quick
            test_in_place_keeps_copies;
          Alcotest.test_case "tile accumulate loop" `Quick test_in_place_tile_accumulate;
          Alcotest.test_case "accumulator chain as one update" `Quick test_in_place_merge_chain;
          Alcotest.test_case "scalar insert loop" `Quick test_in_place_scalar_insert;
        ] );
      ( "recycling",
        [ Alcotest.test_case "live storage is never recycled" `Quick
            test_recycle_keeps_live_storage;
          Alcotest.test_case "hook results are not recycled" `Quick
            test_recycle_skips_hook_results;
          Alcotest.test_case "tile loop temporaries are recycled" `Quick test_recycle_tile_loop;
        ] );
      ( "defaults",
        [ Alcotest.test_case "backend reads the Config default" `Quick
            test_backend_reads_config_default;
          Alcotest.test_case "cim honours host_model" `Quick test_cim_host_model;
        ] );
      ( "dispatch",
        [ Alcotest.test_case "hooks see device ops only" `Quick test_hooks_see_device_ops;
          Alcotest.test_case "an unserved device op fails alike" `Quick
            test_unserved_device_op;
        ] );
      ( "code cache",
        [ Alcotest.test_case "fresh code after canonicalize" `Quick
            test_fresh_code_after_canonicalize;
          Alcotest.test_case "two domains make the first run" `Quick
            test_concurrent_first_run;
        ] );
      ( "bench-json",
        [ Alcotest.test_case "bit-identical at jobs 1 and 4" `Quick
            test_bench_json_differential;
        ] );
    ]
