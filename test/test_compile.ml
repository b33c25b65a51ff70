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
  (* WRAM-optimized kernels exercise the hook ops (wram_shared_alloc,
     mram_read/write, barrier_wait) through the generic-fallback path *)
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
        ] );
      ( "control-flow",
        [ Alcotest.test_case "loop-carried swap (fib)" `Quick test_scf_loop_carried;
          Alcotest.test_case "scf.if + cmpi + memref" `Quick test_scf_if_cmpi_memref;
          Alcotest.test_case "error parity" `Quick test_error_parity;
          Alcotest.test_case "watchdog parity" `Quick test_watchdog_parity;
          Alcotest.test_case "watchdog off by default" `Quick test_watchdog_default_off;
        ] );
      ( "in-place",
        [ Alcotest.test_case "aliased or live destinations copy" `Quick
            test_in_place_keeps_copies;
          Alcotest.test_case "tile accumulate loop" `Quick test_in_place_tile_accumulate;
          Alcotest.test_case "scalar insert loop" `Quick test_in_place_scalar_insert;
        ] );
      ( "defaults",
        [ Alcotest.test_case "backend reads the Config default" `Quick
            test_backend_reads_config_default;
          Alcotest.test_case "cim honours host_model" `Quick test_cim_host_model;
        ] );
      ( "bench-json",
        [ Alcotest.test_case "bit-identical at jobs 1 and 4" `Quick
            test_bench_json_differential;
        ] );
    ]
