(* Heterogeneous-partitioning benchmarks (paper §3.4): programs whose
   independent kernels suit *different* machines, so the partitioner
   splits one module across the crossbar (gemm), the DPU grid
   (elementwise/reduction) and the CAM (similarity search) at once and
   the recorded schedule overlaps their DMA and compute. Kept out of the
   default suites: the single-device baselines pin their own benchmark
   lists. *)

open Cinm_ir
open Cinm_dialects
open Cinm_interp

let tensor shape = Types.Tensor (shape, Types.I32)

(* One kernel class per machine, all independent: the gemm prefers the
   crossbar, the hamming search the CAM, and the elementwise adds load
   the host until the earliest-finish rule spills onto the DPU grid.
   Sequential execution pays the sum, overlapped execution only the
   slowest device. db/q sized to the CAM array (4096 entries, width 64). *)
let mix ?(m = 1024) ?(k = 32) ?(n = 32) ?(ew = 65536) ?(db = 4096) ?(q = 64)
    ?(topk = 4) () =
  Benchmark.make ~name:"het-mix" ~category:"heterogeneous"
    ~description:"independent gemm + elementwise adds + hamming search"
    ~build:(fun () ->
      let f =
        Func.create ~name:"het_mix"
          ~arg_tys:
            [
              tensor [| m; k |]; tensor [| k; n |]; tensor [| ew |];
              tensor [| ew |]; tensor [| ew |]; tensor [| db |]; tensor [| q |];
            ]
          ~result_tys:
            [
              tensor [| m; n |]; tensor [| ew |]; tensor [| ew |];
              tensor [| ew |]; tensor [| topk |];
            ]
      in
      let b = Builder.for_func f in
      let mm = Linalg_d.matmul b (Func.param f 0) (Func.param f 1) in
      let x = Func.param f 2 and y = Func.param f 3 and z = Func.param f 4 in
      let s1 = Linalg_d.add b x y in
      let s2 = Linalg_d.add b y z in
      let s3 = Linalg_d.add b x z in
      let _values, idx =
        Cinm_d.sim_search b ~metric:"hamming" ~k:topk (Func.param f 5)
          (Func.param f 6)
      in
      Func_d.return b [ mm; s1; s2; s3; idx ];
      f)
    ~inputs:(fun () ->
      [
        Rtval.Tensor (Workloads.tensor ~seed:91 [| m; k |]);
        Rtval.Tensor (Workloads.tensor ~seed:92 [| k; n |]);
        Rtval.Tensor (Workloads.tensor ~seed:93 [| ew |]);
        Rtval.Tensor (Workloads.tensor ~seed:94 [| ew |]);
        Rtval.Tensor (Workloads.tensor ~seed:95 [| ew |]);
        Rtval.Tensor (Workloads.tensor ~seed:96 [| db |]);
        Rtval.Tensor (Workloads.tensor ~seed:97 [| q |]);
      ])

(* A batch of independent vector adds plus one gemm: the adds queue on
   the DPU grid, where the h2d stage of add i+1 overlaps the kernel of
   add i (double-buffered DMA), while the crossbar runs the gemm
   concurrently. *)
let batch ?(lanes = 4) ?(n = 16384) ?(m = 256) ?(k = 32) ?(nn = 32) () =
  Benchmark.make ~name:"het-batch" ~category:"heterogeneous"
    ~description:"independent vector-add batch + gemm"
    ~build:(fun () ->
      let vec_args = List.init (2 * lanes) (fun _ -> tensor [| n |]) in
      let f =
        Func.create ~name:"het_batch"
          ~arg_tys:(vec_args @ [ tensor [| m; k |]; tensor [| k; nn |] ])
          ~result_tys:
            (List.init lanes (fun _ -> tensor [| n |]) @ [ tensor [| m; nn |] ])
      in
      let b = Builder.for_func f in
      let sums =
        List.init lanes (fun i ->
            Linalg_d.add b (Func.param f (2 * i)) (Func.param f ((2 * i) + 1)))
      in
      let mm =
        Linalg_d.matmul b (Func.param f (2 * lanes)) (Func.param f ((2 * lanes) + 1))
      in
      Func_d.return b (sums @ [ mm ]);
      f)
    ~inputs:(fun () ->
      List.init (2 * lanes) (fun i ->
          Rtval.Tensor (Workloads.tensor ~seed:(101 + i) [| n |]))
      @ [
          Rtval.Tensor (Workloads.tensor ~seed:121 [| m; k |]);
          Rtval.Tensor (Workloads.tensor ~seed:122 [| k; nn |]);
        ])

let all () = [ mix (); batch () ]
