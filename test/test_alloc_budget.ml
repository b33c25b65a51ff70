(* Allocation-budget smoke tests for the compiled backend:
   - the scalar hot path (scf.for driving memref load / arith / store on
     the int frame) must not allocate per iteration. A regression back to
     per-element Rtval boxing costs >= 3 minor words per iteration and
     trips the budget below;
   - a tile loop writes into its owned, loop-carried destination in place
     instead of copying the whole destination per tile;
   - verifying and printing a lowered module allocate little beyond what
     they return (no message formatting on the success path, no string
     concatenation per line). *)

open Cinm_ir
open Cinm_dialects
open Cinm_interp
open Cinm_core
module T = Types

let () = Registry.ensure_all ()

let iters = 200_000

(* sum over a counted loop doing load / addi / store on one i32 cell *)
let build () =
  let f = Func.create ~name:"hot" ~arg_tys:[] ~result_tys:[ T.Scalar T.I32 ] in
  let b = Builder.for_func f in
  let m = Memref_d.alloc b [| 1 |] T.I32 in
  let i0 = Arith.const_index b 0 in
  Memref_d.store b (Arith.constant b 0) m [ i0 ];
  let c0 = Arith.const_index b 0
  and c1 = Arith.const_index b 1
  and cn = Arith.const_index b iters in
  let c3 = Arith.constant b 3 in
  Scf_d.for0 b ~lb:c0 ~ub:cn ~step:c1 (fun bb i ->
      ignore i;
      let v = Memref_d.load bb m [ i0 ] in
      Memref_d.store bb (Arith.addi bb v c3) m [ i0 ]);
  Func_d.return b [ Memref_d.load b m [ i0 ] ];
  f

let with_backend backend f =
  let prev = Compile.backend () in
  Compile.set_backend backend;
  Fun.protect ~finally:(fun () -> Compile.set_backend prev) f

let test_compiled_loop_alloc_budget () =
  with_backend Compile.Compiled (fun () ->
      let f = build () in
      let run () =
        match Compile.run_func f [] with
        | [ v ], _ -> Rtval.as_int v
        | _ -> Alcotest.fail "expected one result"
      in
      (* first run compiles the unit and warms caches *)
      let expect = iters * 3 in
      Alcotest.(check int) "loop result" expect (run ());
      let before = Gc.minor_words () in
      Alcotest.(check int) "loop result (measured run)" expect (run ());
      let delta = Gc.minor_words () -. before in
      (* generous: < 1 word per iteration on average. The loop body itself
         allocates nothing; the budget absorbs the per-run constant
         (register file, profile, result list). *)
      let budget = float_of_int iters in
      if delta > budget then
        Alcotest.failf
          "compiled hot loop allocated %.0f minor words over %d iterations \
           (budget %.0f) — per-element boxing is back"
          delta iters budget)

(* 64 16x16 tiles written by tensor.insert_slice into a 256x256
   tensor.empty carried through an scf.for: the shape of the tile loops
   cinm-to-cim emits. *)
let tile_loop () =
  let f =
    Func.create ~name:"tiles"
      ~arg_tys:[ T.Tensor ([| 16; 16 |], T.I32) ]
      ~result_tys:[ T.Tensor ([| 256; 256 |], T.I32) ]
  in
  let b = Builder.for_func f in
  let acc = Tensor_d.empty b [| 256; 256 |] T.I32 in
  let c0 = Arith.const_index b 0
  and c1 = Arith.const_index b 1
  and c16 = Arith.const_index b 16
  and c64 = Arith.const_index b 64 in
  let out =
    Scf_d.for_ b ~lb:c0 ~ub:c64 ~step:c1 ~init:[ acc ] (fun bb i iters ->
        let row = Arith.muli bb (Arith.divsi bb i c16) c16 in
        let col = Arith.muli bb (Arith.remsi bb i c16) c16 in
        [ Tensor_d.insert_slice bb (Func.param f 0) iters.(0) ~offsets:[| 0; 0 |]
            ~dyn_offsets:[ row; col ] ])
  in
  Func_d.return b out;
  f

let test_tile_loop_in_place () =
  let f = tile_loop () in
  let tile = Tensor.init [| 16; 16 |] (fun i -> i + 1) in
  let run () =
    match Compile.run_func f [ Rtval.Tensor tile ] with
    | [ v ], _ -> Rtval.as_tensor v
    | _ -> Alcotest.fail "expected one result"
  in
  let expect = with_backend Compile.Tree run in
  with_backend Compile.Compiled (fun () ->
      ignore (run ());
      let before = Gc.allocated_bytes () in
      let got = run () in
      let delta = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) "same result as the tree-walker" true (Tensor.equal expect got);
      Alcotest.(check int) "tile (63, 255)" 256 (Tensor.get got [| 63; 255 |]);
      Alcotest.(check int) "below the tiles" 0 (Tensor.get got [| 64; 0 |]);
      (* one 256x256 destination plus O(tiles) change; a copy per tile
         would be 64 destinations *)
      let word = float_of_int (Sys.word_size / 8) in
      let budget = 2.0 *. 256.0 *. 256.0 *. word in
      if delta > budget then
        Alcotest.failf
          "tile loop allocated %.0f bytes (budget %.0f): the destination is \
           copied per tile (64 copies = %.0f bytes)"
          delta budget (64.0 *. 256.0 *. 256.0 *. word))

(* Words a warm run allocates straight into the major heap: every block
   over 256 words (a tensor of more than 256 elements) skips the minor
   heap, and OCaml 5 mallocs every block over 128 words. A full major
   collection before the measured run keeps a major cycle from ending
   inside it: one that did read 0.45 MB for a warm 2mm@hetero that
   allocates 0.016 MB. *)
let large_words run =
  run ();
  run ();
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  run ();
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)

(* MB of large blocks per warm run of each named catalog benchmark on
   [backend], checked against its budget. *)
let check_large_blocks backend_name backend cases =
  let module B = Cinm_benchmarks.Benchmark in
  Tensor.Arena.clear ();
  with_backend Compile.Compiled (fun () ->
      List.iter
        (fun (name, budget_mb) ->
          let bench = Option.get (Cinm_serve_lib.Catalog.find name) in
          let c = Driver.compile_func backend (bench.B.build ()) in
          let run () =
            let results, _ = Driver.run c (bench.B.inputs ()) in
            Alcotest.(check bool) (name ^ " matches the reference") true
              (B.results_match bench results)
          in
          let mb = large_words run *. float_of_int (Sys.word_size / 8) /. 1e6 in
          if mb > budget_mb then
            Alcotest.failf "%s@%s allocated %.2f MB of large blocks per warm run (budget %.2f MB)"
              name backend_name mb budget_mb)
        cases)

(* The cim tile loop returns its slices, its gemm_tile results and the
   slices it merges into to the arena after their last read, and draws
   the next trip's from it: a warm run's large blocks are the result and
   whatever the arena cannot hold. Without recycling a warm run
   allocated about 8.4 MB (bfs) and 4.8 MB (mv). *)
let test_cim_large_blocks () =
  check_large_blocks "cim"
    (Backend.Cim (Backend.default_cim ()))
    (* measured: bfs 0 MB, mv 0.016 MB (its 2048-element result) *)
    [ ("bfs", 0.1); ("mv", 0.1) ]

(* A hetero run's host code runs on the compiled interpreter too, so its
   tile loops update in place and recycle like the cim backend's. On the
   daemon's geometry (1 DIMM x 4 DPUs) a warm run allocates 0.07 MB
   (contrs2), 0.02 MB (2mm) and 0.02 MB (3mm) of large blocks; 1.21, 0.62
   and 0.63 MB while its top-level ops were tree-walked one by one. *)
let test_hetero_large_blocks () =
  check_large_blocks "hetero"
    (Backend.default_hetero ~dimms:1 ~dpus_per_dimm:4 ())
    [ ("contrs2", 0.2); ("2mm", 0.2); ("3mm", 0.2) ]

(* Minor words of a warm run of [run n] for two trip counts: their
   difference is what the trips allocate. *)
let words_per_trip run ~small ~large =
  let words n =
    run n;
    let before = Gc.minor_words () in
    run n;
    Gc.minor_words () -. before
  in
  let ws = words small and wl = words large in
  (wl -. ws) /. float_of_int (large - small)

(* [trips] outer trips, each a DMA in and out of a 16-element WRAM
   buffer around an inner loop of loads, arithmetic and stores; with
   [fusable] false a division keeps the outer loop on the per-op path. *)
let dma_loop ~fusable =
  let f =
    Func.create ~name:"dma_loop" ~arg_tys:[ T.Index; T.MemRef ([| 64 |], T.I32) ] ~result_tys:[]
  in
  let b = Builder.for_func f in
  let w = Memref_d.alloc b [| 16 |] T.I32 in
  let c0 = Arith.const_index b 0
  and c1 = Arith.const_index b 1
  and c16 = Arith.const_index b 16
  and c3 = Arith.constant b 3 in
  Scf_d.for0 b ~lb:c0 ~ub:(Func.param f 0) ~step:c1 (fun bb t ->
      if not fusable then ignore (Arith.divsi bb t c1);
      Upmem_d.mram_read bb ~mram:(Func.param f 1) ~wram:w ~mram_off:c0 ~wram_off:c0 ~count:16;
      Scf_d.for0 bb ~lb:c0 ~ub:c16 ~step:c1 (fun bi j ->
          Memref_d.store bi (Arith.addi bi (Memref_d.load bi w [ j ]) c3) w [ j ]);
      Upmem_d.mram_write bb ~wram:w ~mram:(Func.param f 1) ~mram_off:c16 ~wram_off:c0 ~count:16);
  Func_d.return b [];
  f

let run_dma_loop f n =
  ignore (Compile.run_func f [ Rtval.Int n; Rtval.Memref (Tensor.zeros [| 64 |] T.I32) ])

let test_fused_loop_zero_words () =
  with_backend Compile.Compiled (fun () ->
      let f = dma_loop ~fusable:true in
      Alcotest.(check int) "both loops fuse" 2 (List.length (Compile.fused_loops f.Func.body));
      let w = words_per_trip (run_dma_loop f) ~small:100 ~large:20_100 in
      if w > 0.01 then Alcotest.failf "a fused loop trip allocated %.2f minor words" w)

let test_dma_zero_words () =
  with_backend Compile.Compiled (fun () ->
      let f = dma_loop ~fusable:false in
      Alcotest.(check int) "only the inner loop fuses" 1
        (List.length (Compile.fused_loops f.Func.body));
      (* per trip: two DMA ops, the division and the inner loop's entry *)
      let w = words_per_trip (run_dma_loop f) ~small:100 ~large:20_100 in
      if w > 0.01 then Alcotest.failf "a per-op trip with two DMA ops allocated %.2f minor words" w)

(* [trips] executions of a 100-trip strip loop (strips of 64 and 36: a
   load, a multiply, a store and an i32 sum stored after the loop); a
   division keeps the outer loop per-op, so each of its trips enters the
   inner loop afresh. *)
let strip_loop () =
  let f =
    Func.create ~name:"strip_loop" ~arg_tys:[ T.Index; T.MemRef ([| 100 |], T.I32) ]
      ~result_tys:[]
  in
  let b = Builder.for_func f in
  let out = Memref_d.alloc b [| 100 |] T.I32 and acc = Memref_d.alloc b [| 1 |] T.I32 in
  let c0 = Arith.const_index b 0
  and c1 = Arith.const_index b 1
  and c100 = Arith.const_index b 100
  and c3 = Arith.constant b 3 in
  Scf_d.for0 b ~lb:c0 ~ub:(Func.param f 0) ~step:c1 (fun bb t ->
      ignore (Arith.divsi bb t c1);
      let sum =
        Scf_d.for_ bb ~lb:c0 ~ub:c100 ~step:c1 ~init:[ Arith.constant bb 0 ] (fun bi j s ->
            let x = Arith.muli bi (Memref_d.load bi (Func.param f 1) [ j ]) c3 in
            Memref_d.store bi x out [ j ];
            [ Arith.addi bi s.(0) x ])
      in
      Memref_d.store bb (List.hd sum) acc [ c0 ]);
  Func_d.return b [];
  f

let test_strip_loop_zero_words () =
  with_backend Compile.Compiled (fun () ->
      let f = strip_loop () in
      Alcotest.(check int) "the inner loop runs in strips" 1
        (List.length (Compile.vector_loops f.Func.body));
      let run n =
        ignore (Compile.run_func f [ Rtval.Int n; Rtval.Memref (Tensor.zeros [| 100 |] T.I32) ])
      in
      let w = words_per_trip run ~small:100 ~large:20_100 in
      if w > 0.01 then Alcotest.failf "a strip loop execution allocated %.2f minor words" w)

(* [trips] executions of the naive GEMV's 100-trip row loop (count-1
   DMAs of A[k] and B[k] into one-element buffers, then a one-trip loop
   c[j] += a[0] * b[j]); a division keeps the outer loop per-op. *)
let gemv_row_loop () =
  let f =
    Func.create ~name:"gemv_row_loop"
      ~arg_tys:[ T.Index; T.MemRef ([| 100 |], T.I32); T.MemRef ([| 100 |], T.I32) ]
      ~result_tys:[]
  in
  let b = Builder.for_func f in
  let wa = Memref_d.alloc b [| 1 |] T.I32
  and wb = Memref_d.alloc b [| 1 |] T.I32
  and wc = Memref_d.alloc b [| 1 |] T.I32 in
  let c0 = Arith.const_index b 0
  and c1 = Arith.const_index b 1
  and c100 = Arith.const_index b 100 in
  Scf_d.for0 b ~lb:c0 ~ub:(Func.param f 0) ~step:c1 (fun bb t ->
      ignore (Arith.divsi bb t c1);
      Scf_d.for0 bb ~lb:c0 ~ub:c100 ~step:c1 (fun bk k ->
          Upmem_d.mram_read bk ~mram:(Func.param f 1) ~wram:wa ~mram_off:k ~wram_off:c0 ~count:1;
          Upmem_d.mram_read bk ~mram:(Func.param f 2) ~wram:wb ~mram_off:(Arith.muli bk k c1)
            ~wram_off:c0 ~count:1;
          let a = Memref_d.load bk wa [ c0 ] in
          Scf_d.for0 bk ~lb:c0 ~ub:c1 ~step:c1 (fun bj j ->
              let acc = Memref_d.load bj wc [ j ] in
              Memref_d.store bj
                (Arith.addi bj acc (Arith.muli bj a (Memref_d.load bj wb [ j ])))
                wc [ j ])));
  Func_d.return b [];
  f

let test_gemv_row_loop_zero_words () =
  with_backend Compile.Compiled (fun () ->
      let f = gemv_row_loop () in
      (* the row loop (the one with the DMAs), not its one-trip loop *)
      let dma (l : Ir.op) =
        let n = ref 0 in
        Ir.walk_region
          (fun (o : Ir.op) -> if o.Ir.name = "upmem.mram_read" then incr n)
          (Ir.region l 0);
        !n
      in
      Alcotest.(check (list int)) "the row loop runs in strips" [ 2 ]
        (List.map dma (Compile.vector_loops f.Func.body));
      let a = Rtval.Memref (Tensor.zeros [| 100 |] T.I32)
      and b = Rtval.Memref (Tensor.zeros [| 100 |] T.I32) in
      let run n = ignore (Compile.run_func f [ Rtval.Int n; a; b ]) in
      let w = words_per_trip run ~small:100 ~large:20_100 in
      if w > 0.01 then Alcotest.failf "a GEMV row loop execution allocated %.2f minor words" w)

(* Warm bfs and mv on the daemon's UPMEM geometry: every DPU loop of
   both runs fused, so what a run allocates is launch bookkeeping
   (frames, lane contexts, profiles), not per-element boxing. Measured:
   bfs 0.41 MB, mv 0.08 MB; before the loops fused and DMA became a
   builtin op, 36 MB and 18 MB. *)
let test_upmem_minor_words () =
  let module B = Cinm_benchmarks.Benchmark in
  with_backend Compile.Compiled (fun () ->
      List.iter
        (fun (name, budget_mb) ->
          let bench = Option.get (Cinm_serve_lib.Catalog.find name) in
          let backend =
            Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ())
          in
          let c = Driver.compile_func backend (bench.B.build ()) in
          let run () =
            let results, _ = Driver.run c (bench.B.inputs ()) in
            Alcotest.(check bool) (name ^ " matches the reference") true
              (B.results_match bench results)
          in
          run ();
          let before = Gc.minor_words () in
          run ();
          let mb = (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8) /. 1e6 in
          if mb > budget_mb then
            Alcotest.failf "%s@upmem allocated %.2f MB of minor words per warm run (budget %.2f MB)"
              name mb budget_mb)
        [ ("bfs", 1.0); ("mv", 1.0) ])

(* Minor words of a warm [Driver.run] of [bench] compiled for [backend]
   (the run is checked against the host reference). *)
let warm_run_words backend (bench : Cinm_benchmarks.Benchmark.t) =
  let module B = Cinm_benchmarks.Benchmark in
  let c = Driver.compile_func backend (bench.B.build ()) in
  let args = bench.B.inputs () in
  let run () =
    let results, _ = Driver.run c args in
    Alcotest.(check bool) (bench.B.name ^ " matches the reference") true
      (B.results_match bench results)
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  Gc.minor_words () -. before

(* The host contractions run as permute + one GEMM + permute, on arena
   storage: a warm run allocates what the interpreter does around one
   op. Measured at these (cim-ml) shapes: about 1K words each; 0.20M,
   0.29M and 0.72M while an index odometer ran them. *)
let test_contractions_minor_words () =
  let module K = Cinm_benchmarks.Ml_kernels in
  with_backend Compile.Compiled (fun () ->
      List.iter
        (fun (bench : Cinm_benchmarks.Benchmark.t) ->
          let words = warm_run_words Backend.Host_arm bench in
          if words > 20_000. then
            Alcotest.failf "%s@arm allocated %.0f minor words per warm run (budget 20000)"
              bench.Cinm_benchmarks.Benchmark.name words)
        [
          K.contrl ~a:16 ~b:16 ~c:16 ~d:4 ~e:8 ~f:8 ();
          K.contrs1 ~a:112 ~b:256 ~c:8 ~d:8 ();
          K.contrs2 ~a:32 ~b:256 ~c:8 ~d:64 ();
        ])

(* A crossbar tile's trip allocates no storage of its size (a 128x64
   slice is 8K words): the slices, partials and staged inputs recycle
   through the arena, the tile adopts its input and the accumulator
   chain updates in place. What a trip still allocates is a constant
   set of boxes: the operand arrays and result lists of the ops compiled
   code runs through [Interp.apply] (the device ops and the host ops it
   has no native form for), the boxed energy total and, with a pool of 2
   or more jobs, the row-chunk closure of the tile's GEMM (above the
   split threshold at both sizes). mm at 128x64x64 runs 2 tiles, at
   256x256x256 32.
   Measured: 205.5 words per trip at 2 jobs (190.0 at 1) since compiled
   code runs host ops through [Interp.apply] off its register file;
   275.6 (260.1 at 1) while it staged them through the tree-walker's
   environment, since the tile GEMM splits its rows over the pool and
   the crossbar's clocks and time buckets sit in float-only records;
   269.3 while they were boxed fields of mixed records and the GEMM ran
   on one domain; 301.5 while every host op was first offered to the
   memristor and CAM hooks (each offer built an operand array), 340.4
   while the machine still logged a schedule event per timed op on
   every run, and 562 before the kernel lost its per-row option and row
   accumulator, and the arena its tuple keys. The budget, 215, keeps a
   margin of about 9 words and sits below 260.1, so host ops cannot go
   back to staging through the environment. *)
let test_cim_words_per_tile () =
  let module K = Cinm_benchmarks.Ml_kernels in
  let backend = Backend.Cim (Backend.default_cim ~min_writes:true ~parallel:true ()) in
  with_backend Compile.Compiled (fun () ->
      let small = warm_run_words backend (K.mm ~m:128 ~k:64 ~n:64 ()) in
      let large = warm_run_words backend (K.mm ~m:256 ~k:256 ~n:256 ()) in
      let per_tile = (large -. small) /. 30. in
      if per_tile > 215. then
        Alcotest.failf "a crossbar tile trip allocates %.0f minor words (budget 215)" per_tile)

(* gemm_tile computes only the live columns of the programmed weights
   (those up to the last nonzero one). The same mm@cim run twice, with
   dense weights and with weights whose only nonzero column is the first:
   the second computes exactly 1/64 of the multiply-accumulates. *)
let test_cim_live_columns () =
  let module M = Cinm_memristor_sim.Machine in
  let bench = Cinm_benchmarks.Ml_kernels.mm ~m:512 ~k:64 ~n:64 () in
  let c = Driver.compile_func (Backend.Cim (Backend.default_cim ())) (bench.build ()) in
  let f = List.hd c.Driver.modul.Func.funcs in
  let a = Cinm_benchmarks.Workloads.tensor ~seed:1 [| 512; 64 |] in
  let dense = Cinm_benchmarks.Workloads.tensor ~seed:2 [| 64; 64 |] in
  let one_col = Tensor.init [| 64; 64 |] (fun i -> if i mod 64 = 0 then Tensor.get_int dense i else 0) in
  let run w =
    let m = M.create ~faults:None (Cinm_memristor_sim.Config.default ()) in
    let results, _ = M.run m f [ Rtval.Tensor a; Rtval.Tensor w ] in
    (match results with
    | [ Rtval.Tensor out ] ->
      Alcotest.(check bool) "mm matches matmul" true (Tensor.equal out (Tensor.matmul a w))
    | _ -> Alcotest.fail "expected one tensor result");
    m.M.stats.Cinm_memristor_sim.Stats.macs
  in
  with_backend Compile.Compiled (fun () ->
      let dense = run dense and one = run one_col in
      Alcotest.(check int) "dense weights compute every MAC" (512 * 64 * 64) dense;
      Alcotest.(check int) "one live column computes 1/64 of them" (dense / 64) one)

(* Generated modules lowered for UPMEM and for CIM: the IR that the
   per-pass verifier and the strict-mode printer see. *)
let lowered_modules () =
  List.concat_map
    (fun backend ->
      List.map
        (fun seed ->
          let c = Driver.compile backend (Cinm_fuzz_lib.Gen.generate ~ops:12 ~seed ()) in
          Alcotest.(check bool) "lowered on the device" true (c.Driver.fallback = None);
          c.Driver.modul)
        [ 1; 2; 3 ])
    [
      Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ());
      Backend.Cim (Backend.default_cim ());
    ]

let words_per_op name budget f mods =
  List.iter (fun m -> ignore (Sys.opaque_identity (f m))) mods;
  let ops = List.fold_left (fun n m -> n + Pass.count_ops m) 0 mods in
  let before = Gc.minor_words () in
  List.iter (fun m -> ignore (Sys.opaque_identity (f m))) mods;
  let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
  if per_op > budget then
    Alcotest.failf "%s allocated %.1f minor words per op over %d ops (budget %.0f)" name
      per_op ops budget

let test_verify_budget () =
  let mods = lowered_modules () in
  List.iter
    (fun m -> Alcotest.(check int) "verifies" 0 (List.length (Verifier.verify_module m)))
    mods;
  words_per_op "Verifier.verify_module" 64. Verifier.verify_module mods

let test_print_budget () =
  words_per_op "Printer.module_to_string" 200. Printer.module_to_string (lowered_modules ())

(* A module's compiled code lives on its blocks, so it dies with the
   module: rounds of parse -> compile -> compiled run over the same 20
   generated modules on hetero, each round on fresh modules, leave the
   live heap where the first round left it. Measured: 0.23 MB live after
   every round; 1.32, 2.41, 3.50 and 4.59 MB while a process-global
   table held each unit, and with it its module, after the run. *)
let test_code_dies_with_module () =
  let module Gen = Cinm_fuzz_lib.Gen in
  let backend = Backend.default_hetero ~dimms:1 ~dpus_per_dimm:4 () in
  let module Config = Cinm_support.Config in
  let config = { (Config.default ()) with Config.interp = "compiled" } in
  let texts =
    List.init 20 (fun s -> Printer.module_to_string (Gen.generate ~ops:12 ~seed:(s + 1) ()))
  in
  let round () =
    List.iteri
      (fun s text ->
        let m = Parser.parse_module_text text in
        let c = Driver.compile ~config backend m in
        ignore (Driver.run ~config c (Gen.arg_values ~seed:s (List.hd m.Func.funcs))))
      texts;
    Gc.full_major ();
    float_of_int (Gc.stat ()).Gc.live_words *. 8. /. 1e6
  in
  let live = List.init 4 (fun _ -> round ()) in
  let growth = List.nth live 3 -. List.hd live in
  if growth > 0.25 then
    Alcotest.failf "live heap grew %.2f MB over 3 rounds of fresh modules (%s MB)" growth
      (String.concat ", " (List.map (Printf.sprintf "%.2f") live))

(* Top-8 selection over 4096 and 65536 candidates allocates the same:
   the k-best heap and the two results, nothing per candidate. (A boxed
   (value, index) pair per candidate, sorted, is 3 minor words each:
   180K more at the larger size.) *)
let test_selection_words () =
  let words f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  List.iter
    (fun (what, run) ->
      let small = words (run 4096) and large = words (run 65536) in
      if large -. small > 100. then
        Alcotest.failf "%s allocated %.0f minor words at n = 4096 and %.0f at n = 65536" what
          small large)
    [
      ( "topk",
        fun n ->
          let t = Tensor.init [| n |] (fun i -> (i * 7919) mod 1000) in
          fun () -> Tensor.topk ~k:8 t );
      ( "sim_search",
        fun n ->
          let db = Tensor.init [| n |] (fun i -> (i * 7919) mod 1000)
          and q = Tensor.init [| 8 |] (fun i -> i * 3) in
          fun () -> Tensor.sim_search ~metric:"l2" ~k:8 db q );
    ]

(* [Array.make] of more than 256 elements runs a minor collection when
   its initial value is young (on the pool, a stop-the-world with every
   domain). A 512-instance UPMEM buffer (32 DPUs x 16 tasklets) must
   not. *)
let test_buffer_alloc_no_minor_gc () =
  let module Usim = Cinm_upmem_sim in
  let f = Func.create ~name:"alloc" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let wg = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:32 ~tasklets:16 in
  ignore (Upmem_d.alloc b wg ~shape:[| 16 |] ~dtype:T.I32 ~level:0);
  Func_d.return b [];
  let run () =
    let machine = Usim.Machine.create (Usim.Config.default ~dimms:1 ()) in
    ignore (Compile.run_func ~hooks:[ Usim.Machine.hook machine ] f [])
  in
  run ();
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  run ();
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "minor collections during a 512-instance alloc" 0 (after - before)

let () =
  Alcotest.run "alloc_budget"
    [
      ( "compiled",
        [
          Alcotest.test_case "hot loop stays unboxed" `Quick
            test_compiled_loop_alloc_budget;
          Alcotest.test_case "tile loop updates in place" `Quick test_tile_loop_in_place;
          Alcotest.test_case "cim tile loops recycle their temporaries" `Quick
            test_cim_large_blocks;
          Alcotest.test_case "hetero host code recycles its temporaries" `Quick
            test_hetero_large_blocks;
          Alcotest.test_case "a fused loop trip allocates nothing" `Quick
            test_fused_loop_zero_words;
          Alcotest.test_case "a DMA op allocates nothing" `Quick test_dma_zero_words;
          Alcotest.test_case "a vectorized loop execution allocates nothing" `Quick
            test_strip_loop_zero_words;
          Alcotest.test_case "a naive GEMV row loop in strips allocates nothing" `Quick
            test_gemv_row_loop_zero_words;
          Alcotest.test_case "warm bfs and mv on upmem" `Quick test_upmem_minor_words;
          Alcotest.test_case "host contractions stay under 20K words" `Quick
            test_contractions_minor_words;
          Alcotest.test_case "crossbar tile trips allocate a constant" `Quick
            test_cim_words_per_tile;
          Alcotest.test_case "gemm_tile computes live columns only" `Quick test_cim_live_columns;
          Alcotest.test_case "compiled code dies with its module" `Quick
            test_code_dies_with_module;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "selection allocates O(k)" `Quick test_selection_words;
          Alcotest.test_case "512-lane buffer, no minor GC" `Quick
            test_buffer_alloc_no_minor_gc;
        ] );
      ( "compile path",
        [
          Alcotest.test_case "verifier stays under 64 words per op" `Quick
            test_verify_budget;
          Alcotest.test_case "printer stays under 200 words per op" `Quick
            test_print_budget;
        ] );
    ]
