(* Determinism of the domain-parallel UPMEM launch (results, stats and
   profiles must be byte-identical for any job count) and a linearity
   smoke test for the growable-array op storage (a 50k-op block must
   build in far less time than the old quadratic list appends allowed). *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
module T = Types
module Usim = Cinm_upmem_sim
module Pool = Cinm_support.Pool

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)
let iota shape = Tensor.init shape (fun i -> (i mod 23) - 11)

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

(* Run [f] on a fresh machine with the default pool resized to [jobs];
   returns the result tensors, the machine stats and the host profile. *)
let run_with_jobs ~jobs f args =
  Pool.set_default_jobs jobs;
  let machine = Usim.Machine.create (Usim.Config.default ~dimms:1 ()) in
  let results, profile =
    Interp.run_func ~hooks:[ Usim.Machine.hook machine ] f args
  in
  Pool.set_default_jobs 1;
  (List.map Rtval.as_tensor results, machine.Usim.Machine.stats, profile)

let check_identical_runs ~cnm_opts builder args =
  let f1 = lower_to_upmem ~cnm_opts (builder ()) in
  let f4 = lower_to_upmem ~cnm_opts (builder ()) in
  let r1, s1, p1 = run_with_jobs ~jobs:1 f1 args in
  let r4, s4, p4 = run_with_jobs ~jobs:4 f4 args in
  List.iter2
    (fun a b ->
      if not (Tensor.equal a b) then
        Alcotest.failf "jobs=1 and jobs=4 tensors differ: %s vs %s"
          (Tensor.to_string a) (Tensor.to_string b))
    r1 r4;
  Alcotest.(check bool)
    (Printf.sprintf "stats identical:\n%s\nvs\n%s"
       (Usim.Stats.to_string s1) (Usim.Stats.to_string s4))
    true
    (Usim.Stats.equal s1 s4);
  Alcotest.(check bool) "host profiles identical" true (Profile.equal p1 p4)

let test_determinism_gemm () =
  let a = iota [| 32; 8 |] and b = iota [| 8; 6 |] in
  check_identical_runs
    ~cnm_opts:
      { Cinm_to_cnm.dpus = 8; tasklets = 4; optimize = false;
        max_rows_per_launch = 8 }
    (build_mm 32 8 6)
    [ Rtval.Tensor a; Rtval.Tensor b ]

let test_determinism_gemm_opt () =
  (* the WRAM-optimized GEMM gives every tasklet its own upmem.wram_alloc
     buffers and moves data by mram_read/mram_write DMA, whose byte counts
     the parallel launch must account in DPU order *)
  let a = iota [| 32; 16 |] and b = iota [| 16; 8 |] in
  check_identical_runs
    ~cnm_opts:
      { Cinm_to_cnm.dpus = 4; tasklets = 4; optimize = true;
        max_rows_per_launch = 8 }
    (build_mm 32 16 8)
    [ Rtval.Tensor a; Rtval.Tensor b ]

let test_determinism_elementwise () =
  let build () =
    let f =
      Func.create ~name:"va" ~arg_tys:[ tensor [| 256 |]; tensor [| 256 |] ]
        ~result_tys:[ tensor [| 256 |] ]
    in
    let b = Builder.for_func f in
    Func_d.return b [ Linalg_d.add b (Func.param f 0) (Func.param f 1) ];
    f
  in
  let a = iota [| 256 |] and b = iota [| 256 |] in
  check_identical_runs
    ~cnm_opts:
      { Cinm_to_cnm.dpus = 8; tasklets = 2; optimize = false;
        max_rows_per_launch = 8 }
    build
    [ Rtval.Tensor a; Rtval.Tensor b ]

(* With the old [ops @ [op]] storage, inserting n ops walked the list
   each time: 50k inserts cost ~1.25G list cells. With Vec storage each
   insert allocates a constant, so the work is counted, not timed: the
   minor words per insert of a 50k-op block may be at most 1.25x those of
   a 12.5k-op one (list appends would make them 4x). *)
let test_linear_insert () =
  let build n =
    let f = Func.create ~name:"big" ~arg_tys:[] ~result_tys:[ T.Scalar T.I32 ] in
    let b = Builder.for_func f in
    let before = Gc.minor_words () in
    let last = ref (Arith.constant b 0) in
    for i = 1 to n - 1 do
      last := Arith.addi b !last (Arith.constant b i)
    done;
    Func_d.return b [ !last ];
    let words = Gc.minor_words () -. before in
    let entry = Ir.entry_block f.Func.body in
    Alcotest.(check int) "all ops present" (2 * (n - 1) + 2) (Ir.num_ops entry);
    words /. float_of_int (Ir.num_ops entry)
  in
  let small = build 12_500 and large = build 50_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per op at 50k ops, %.1f at 12.5k (bound 1.25x)" large
       small)
    true
    (large <= 1.25 *. small)

let () =
  Alcotest.run "parallel"
    [ ( "determinism",
        [ Alcotest.test_case "gemm jobs=1 == jobs=4" `Quick test_determinism_gemm;
          Alcotest.test_case "gemm(wram-opt) jobs=1 == jobs=4" `Quick
            test_determinism_gemm_opt;
          Alcotest.test_case "elementwise jobs=1 == jobs=4" `Quick
            test_determinism_elementwise;
        ] );
      ( "linearity",
        [ Alcotest.test_case "50k-op block builds linearly" `Quick
            test_linear_insert;
        ] );
    ]
