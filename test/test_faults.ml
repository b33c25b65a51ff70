(* Fault injection and the fault-tolerant runtime: plan determinism (same
   seed => byte-identical decisions, stats and results at any job count),
   transparency of the retry/remap machinery (numeric results must equal
   the fault-free run), capacity/bounds diagnostics, per-workgroup MRAM
   accounting, graceful CPU fallback, and crossbar non-idealities. *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
open Cinm_core
module T = Types
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Fault = Cinm_support.Fault
module Pool = Cinm_support.Pool

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)
let iota shape = Tensor.init shape (fun i -> (i mod 23) - 11)

let check_tensor msg expected actual =
  if not (Tensor.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

let plan ?(seed = 42) rates = Fault.make ~seed rates

(* ----- the plan itself ----- *)

let test_plan_determinism () =
  let p = plan { Fault.no_rates with dpu_fail = 0.3; dpu_transient = 0.3 } in
  for dpu = 0 to 63 do
    Alcotest.(check bool) "perm decision stable" (Fault.dpu_failed p ~dpu)
      (Fault.dpu_failed p ~dpu);
    for attempt = 0 to 3 do
      Alcotest.(check bool) "transient decision stable"
        (Fault.launch_transient p ~launch:5 ~dpu ~attempt)
        (Fault.launch_transient p ~launch:5 ~dpu ~attempt)
    done
  done;
  (* a 0.3 rate over 64 DPUs hits some and spares some *)
  let hits = ref 0 in
  for dpu = 0 to 63 do
    if Fault.dpu_failed p ~dpu then incr hits
  done;
  Alcotest.(check bool) "some DPUs fail" true (!hits > 0);
  Alcotest.(check bool) "some DPUs survive" true (!hits < 64);
  (* a different seed yields a different fault set *)
  let q = plan ~seed:43 { Fault.no_rates with dpu_fail = 0.3 } in
  let differs = ref false in
  for dpu = 0 to 63 do
    if Fault.dpu_failed p ~dpu <> Fault.dpu_failed q ~dpu then differs := true
  done;
  Alcotest.(check bool) "seeds decorrelate" true !differs

let test_parse () =
  (match Fault.parse "dpu_fail=0.05,bitflip=1e-6,seed=7" with
  | Ok p ->
    Alcotest.(check int) "seed" 7 p.Fault.seed;
    Alcotest.(check (float 0.0)) "perm" 0.05 p.Fault.rates.Fault.dpu_fail;
    (* dpu_fail covers both mechanisms unless overridden *)
    Alcotest.(check (float 0.0)) "transient" 0.05 p.Fault.rates.Fault.dpu_transient;
    Alcotest.(check (float 0.0)) "bitflip" 1e-6 p.Fault.rates.Fault.mram_bitflip
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse "dpu_fail=0.05,transient=0.2" with
  | Ok p ->
    Alcotest.(check (float 0.0)) "perm kept" 0.05 p.Fault.rates.Fault.dpu_fail;
    Alcotest.(check (float 0.0)) "transient overridden" 0.2
      p.Fault.rates.Fault.dpu_transient
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse "nonsense=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must be rejected");
  match Fault.parse "dpu_fail=-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative rate must be rejected"

(* ----- UPMEM retry / remap transparency ----- *)

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

let cnm_opts =
  { Cinm_to_cnm.dpus = 8; tasklets = 4; optimize = false; max_rows_per_launch = 8 }

let run_faulted ?(jobs = 1) ~faults f args =
  Pool.set_default_jobs jobs;
  let machine =
    Usim.Machine.create ~faults (Usim.Config.default ~dimms:1 ())
  in
  let results, _ = Interp.run_func ~hooks:[ Usim.Machine.hook machine ] f args in
  Pool.set_default_jobs 1;
  (List.map Rtval.as_tensor results, machine.Usim.Machine.stats)

let gemm_under ~faults =
  let a = iota [| 32; 8 |] and bt = iota [| 8; 6 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor bt ] in
  let clean, _ = run_faulted ~faults:None (lower_to_upmem ~cnm_opts (build_mm 32 8 6 ())) args in
  let r1, s1 = run_faulted ~faults (lower_to_upmem ~cnm_opts (build_mm 32 8 6 ())) args in
  let r4, s4 =
    run_faulted ~jobs:4 ~faults (lower_to_upmem ~cnm_opts (build_mm 32 8 6 ())) args
  in
  List.iter2 (check_tensor "jobs=1 == jobs=4 under faults") r1 r4;
  Alcotest.(check bool)
    (Printf.sprintf "stats identical at any job count:\n%s\nvs\n%s"
       (Usim.Stats.to_string s1) (Usim.Stats.to_string s4))
    true (Usim.Stats.equal s1 s4);
  List.iter2 (check_tensor "faulted run reproduces fault-free results") clean r1;
  s1

let test_retry_transient () =
  let faults = Some (plan { Fault.no_rates with dpu_transient = 0.3 }) in
  let s = gemm_under ~faults in
  Alcotest.(check bool)
    (Printf.sprintf "transients retried (%d)" s.Usim.Stats.retries)
    true
    (s.Usim.Stats.retries > 0);
  Alcotest.(check bool) "retry time accounted" true
    (s.Usim.Stats.kernel_s > 0.0)

let test_permanent_masking () =
  let faults = Some (plan { Fault.no_rates with dpu_fail = 0.3 }) in
  let s = gemm_under ~faults in
  Alcotest.(check bool)
    (Printf.sprintf "failed DPUs masked at alloc (%d)" s.Usim.Stats.failed_dpus)
    true
    (s.Usim.Stats.failed_dpus > 0)

let test_exhausted_retries_remap () =
  (* transient rate high enough that some DPU fails all 4 attempts
     (p = 0.9^4 ≈ 0.66 per DPU) and is remapped to a spare *)
  let faults = Some (plan { Fault.no_rates with dpu_transient = 0.9 }) in
  let s = gemm_under ~faults in
  Alcotest.(check bool)
    (Printf.sprintf "exhausted DPUs remapped (%d)" s.Usim.Stats.failed_dpus)
    true
    (s.Usim.Stats.failed_dpus > 0);
  Alcotest.(check bool) "remap restaging time accounted" true
    (s.Usim.Stats.remap_s > 0.0)

let test_bitflip_determinism () =
  (* bit flips corrupt data (the fault retries can't hide); the test is
     that two same-seed runs corrupt identically, and that the fault
     plan's decisions are reflected in the machine's scatter stream *)
  let faults = Some (plan { Fault.no_rates with mram_bitflip = 0.05 }) in
  let a = iota [| 32; 8 |] and bt = iota [| 8; 6 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor bt ] in
  let r1, _ = run_faulted ~faults (lower_to_upmem ~cnm_opts (build_mm 32 8 6 ())) args in
  let r2, _ = run_faulted ~faults (lower_to_upmem ~cnm_opts (build_mm 32 8 6 ())) args in
  List.iter2 (check_tensor "same seed => identical corruption") r1 r2

(* ----- capacity and bounds diagnostics ----- *)

let run_kernel build_body ~ins ~out_shape =
  let f =
    Func.create ~name:"k"
      ~arg_tys:(List.map (fun t -> tensor t.Tensor.shape) ins)
      ~result_tys:[ tensor out_shape ]
  in
  let b = Builder.for_func f in
  let wg = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:2 in
  let in_bufs =
    List.mapi
      (fun i t ->
        let n = Tensor.num_elements t in
        let buf = Upmem_d.alloc b wg ~shape:[| n / 4 |] ~dtype:T.I32 ~level:0 in
        ignore (Upmem_d.scatter b (Func.param f i) buf wg ~map:"block");
        buf)
      ins
  in
  let out_buf =
    Upmem_d.alloc b wg
      ~shape:[| Cinm_support.Util.product_of_shape out_shape / 4 |]
      ~dtype:T.I32 ~level:0
  in
  ignore (Upmem_d.launch b wg ~tasklets:2 ~ins:in_bufs ~outs:[ out_buf ] build_body);
  let out, _ = Upmem_d.gather b out_buf wg ~result_shape:out_shape in
  Func_d.return b [ out ];
  let machine = Usim.Machine.create ~faults:None (Usim.Config.default ~dimms:1 ()) in
  ignore (Usim.Machine.run machine f (List.map (fun t -> Rtval.Tensor t) ins))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_dpu_failure ~substring run =
  match run () with
  | _ -> Alcotest.failf "expected a Dpu_failed mentioning %S" substring
  | exception Usim.Machine.Dpu_failed { message; dpu; _ } ->
    if not (contains message substring) then
      Alcotest.failf "diagnostic %S does not mention %S" message substring;
    Alcotest.(check bool) "failing DPU identified" true (dpu >= 0)

let test_wram_capacity_enforced () =
  (* 20000 x i32 = 80 kB > the 64 kB WRAM *)
  let input = iota [| 8 |] in
  expect_dpu_failure ~substring:"WRAM" (fun () ->
      run_kernel
        (fun bb _args -> ignore (Upmem_d.wram_shared_alloc bb [| 20000 |] T.I32))
        ~ins:[ input ] ~out_shape:[| 8 |])

let test_shared_wram_outside_launch () =
  (* shared WRAM is per DPU: a host-side alloc has no DPU to live on *)
  let f = Func.create ~name:"host_shared" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  ignore (Upmem_d.wram_shared_alloc b [| 4 |] T.I32);
  Func_d.return b [];
  let machine = Usim.Machine.create ~faults:None (Usim.Config.default ~dimms:1 ()) in
  Alcotest.check_raises "rejected"
    (Invalid_argument "upmem.wram_shared_alloc: outside a DPU launch") (fun () ->
      ignore (Usim.Machine.run machine f []))

let test_dma_bounds_checked () =
  let input = iota [| 8 |] in
  expect_dpu_failure ~substring:"upmem.mram_read" (fun () ->
      run_kernel
        (fun bb args ->
          let wram = Upmem_d.wram_alloc bb [| 2 |] T.I32 in
          let c0 = Arith.const_index bb 0 in
          (* each PU's MRAM slice has 2 elements; reading 6 overruns *)
          Upmem_d.mram_read bb ~mram:args.(0) ~wram ~mram_off:c0 ~wram_off:c0
            ~count:6)
        ~ins:[ input ] ~out_shape:[| 8 |])

let test_mram_accounting_per_workgroup () =
  (* two live workgroups; freeing one must release only its own bytes *)
  let f = Func.create ~name:"two_wgs" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let wg1 = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:1 in
  let wg2 = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:1 in
  (* per DPU: 64 elements x 4 B = 256 B for wg1; 32 x 4 = 128 B for wg2 *)
  ignore (Upmem_d.alloc b wg1 ~shape:[| 64 |] ~dtype:T.I32 ~level:0);
  ignore (Upmem_d.alloc b wg2 ~shape:[| 32 |] ~dtype:T.I32 ~level:0);
  Upmem_d.free_dpus b wg1;
  Func_d.return b [];
  let machine = Usim.Machine.create ~faults:None (Usim.Config.default ~dimms:1 ()) in
  ignore (Usim.Machine.run machine f []);
  Alcotest.(check int) "only wg2's bytes remain accounted" 128
    machine.Usim.Machine.mram_used_per_dpu

(* ----- graceful CPU fallback ----- *)

let test_cpu_fallback_matches_device () =
  let a = iota [| 8; 4 |] and bt = iota [| 4; 6 |] in
  let args = [ Rtval.Tensor a; Rtval.Tensor bt ] in
  let expected, _ = Interp.run_func (build_mm 8 4 6 ()) args in
  (* a working device path for reference *)
  let good = Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ()) in
  let device, _ = Driver.compile_and_run good (build_mm 8 4 6 ()) args in
  (* dimms:0 makes the cnm lowering fail (0 DPUs); the driver must degrade
     to the scf CPU lowering instead of dying *)
  let broken = Backend.Upmem (Backend.default_upmem ~dimms:0 ()) in
  let compiled = Driver.compile_func broken (build_mm 8 4 6 ()) in
  (match compiled.Driver.fallback with
  | Some diag ->
    Alcotest.(check bool) "diagnostic names the failing pass" true
      (String.length diag.Pass.pass > 0)
  | None -> Alcotest.fail "expected a fallback diagnostic");
  let results, report = Driver.run compiled args in
  Alcotest.(check bool) "report marks the fallback" true
    (contains report.Report.backend "cpu-fallback");
  check_tensor "fallback result == host reference"
    (Rtval.as_tensor (List.hd expected))
    (Rtval.as_tensor (List.hd results));
  check_tensor "fallback result == device result"
    (Rtval.as_tensor (List.hd device))
    (Rtval.as_tensor (List.hd results))

let test_fallback_disabled_raises () =
  let broken = Backend.Upmem (Backend.default_upmem ~dimms:0 ()) in
  match Driver.compile_func ~fallback:false broken (build_mm 8 4 6 ()) with
  | _ -> Alcotest.fail "expected Pass_failed with fallback disabled"
  | exception Pass.Pass_failed diag ->
    Alcotest.(check bool) "structured diagnostic" true
      (String.length (Pass.diag_to_string diag) > 0)

(* ----- crossbar non-idealities ----- *)

let crossbar_gemm ~faults a w =
  let f =
    Func.create ~name:"xb" ~arg_tys:[ tensor [| 8; 8 |]; tensor [| 8; 8 |] ]
      ~result_tys:[ tensor [| 8; 8 |] ]
  in
  let b = Builder.for_func f in
  let id = Memristor_d.alloc b ~rows:8 ~cols:8 ~tiles:2 in
  Memristor_d.store_tile b id ~tile:0 (Func.param f 1);
  Memristor_d.copy_tile b id ~tile:0 (Func.param f 0);
  let r = Memristor_d.gemm_tile b id ~tile:0 ~result_ty:(tensor [| 8; 8 |]) in
  Memristor_d.release b id;
  Func_d.return b [ r ];
  let machine = Msim.Machine.create ~faults (Msim.Config.default ()) in
  let results, stats =
    Msim.Machine.run machine f [ Rtval.Tensor a; Rtval.Tensor w ]
  in
  (Rtval.as_tensor (List.hd results), stats)

let test_stuck_at_zero_kills_output () =
  let a = iota [| 8; 8 |] and w = Tensor.init [| 8; 8 |] (fun i -> (i mod 3) + 1) in
  let faults = Some (plan { Fault.no_rates with stuck0 = 1.0 }) in
  let out, stats = crossbar_gemm ~faults a w in
  Alcotest.(check bool) "all cells clamped" true
    (stats.Msim.Stats.stuck_cells = 64);
  Alcotest.(check bool) "stuck-at-0 everywhere zeroes the MVM" true
    (Tensor.equal out (Tensor.zeros [| 8; 8 |] T.I32))

let test_gain_variation_calibrates () =
  let a = iota [| 8; 8 |] and w = iota [| 8; 8 |] in
  let ideal, s_ideal = crossbar_gemm ~faults:None a w in
  let faults = Some (plan { Fault.no_rates with gain_var = 0.5 }) in
  let out, stats = crossbar_gemm ~faults a w in
  Alcotest.(check bool)
    (Printf.sprintf "gain drift forces write-verify (%d)" stats.Msim.Stats.calibrations)
    true
    (stats.Msim.Stats.calibrations > 0);
  Alcotest.(check bool) "calibration costs io time" true
    (stats.Msim.Stats.time.io_s > s_ideal.Msim.Stats.time.io_s);
  check_tensor "calibrated results are unaffected" ideal out

let () =
  Alcotest.run "faults"
    [ ( "plan",
        [ Alcotest.test_case "decisions deterministic per seed" `Quick
            test_plan_determinism;
          Alcotest.test_case "spec parsing" `Quick test_parse;
        ] );
      ( "upmem",
        [ Alcotest.test_case "transients retried, results clean" `Quick
            test_retry_transient;
          Alcotest.test_case "permanent failures masked at alloc" `Quick
            test_permanent_masking;
          Alcotest.test_case "exhausted retries remap to spares" `Quick
            test_exhausted_retries_remap;
          Alcotest.test_case "bitflips deterministic per seed" `Quick
            test_bitflip_determinism;
          Alcotest.test_case "WRAM capacity enforced" `Quick
            test_wram_capacity_enforced;
          Alcotest.test_case "shared WRAM outside a launch" `Quick
            test_shared_wram_outside_launch;
          Alcotest.test_case "DMA bounds checked" `Quick test_dma_bounds_checked;
          Alcotest.test_case "MRAM accounting per workgroup" `Quick
            test_mram_accounting_per_workgroup;
        ] );
      ( "fallback",
        [ Alcotest.test_case "CPU fallback matches device path" `Quick
            test_cpu_fallback_matches_device;
          Alcotest.test_case "fallback off raises Pass_failed" `Quick
            test_fallback_disabled_raises;
        ] );
      ( "memristor",
        [ Alcotest.test_case "stuck-at-0 crossbar" `Quick
            test_stuck_at_zero_kills_output;
          Alcotest.test_case "gain variation write-verify" `Quick
            test_gain_variation_calibrates;
        ] );
    ]
