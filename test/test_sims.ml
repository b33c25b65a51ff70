(* Unit tests for the device simulators and CPU models: data-distribution
   semantics, DMA, buffer levels, the timing/energy models' qualitative
   properties, and failure injection. *)

open Cinm_ir
open Cinm_dialects
open Cinm_interp
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Cpu = Cinm_cpu_sim
module T = Types

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)

(* ----- data distribution ----- *)

let test_scatter_block () =
  let t = Tensor.init [| 8 |] (fun i -> i) in
  let bufs = Array.init 4 (fun _ -> Tensor.zeros [| 2 |] T.I32) in
  Distrib.scatter ~map:"block" t bufs;
  Alcotest.(check int) "pu1[0]" 2 (Tensor.get_int bufs.(1) 0);
  Alcotest.(check int) "pu3[1]" 7 (Tensor.get_int bufs.(3) 1)

let test_scatter_cyclic () =
  let t = Tensor.init [| 8 |] (fun i -> i) in
  let bufs = Array.init 4 (fun _ -> Tensor.zeros [| 2 |] T.I32) in
  Distrib.scatter ~map:"cyclic" t bufs;
  Alcotest.(check int) "pu1[0]" 1 (Tensor.get_int bufs.(1) 0);
  Alcotest.(check int) "pu1[1]" 5 (Tensor.get_int bufs.(1) 1)

let test_scatter_overlap () =
  (* 4 buffers of 4 with halo 2: chunk = 2, total = 4*2+2 = 10 *)
  let t = Tensor.init [| 10 |] (fun i -> i) in
  let bufs = Array.init 4 (fun _ -> Tensor.zeros [| 4 |] T.I32) in
  Distrib.scatter ~halo:2 ~map:"overlap" t bufs;
  Alcotest.(check (array int)) "pu0" [| 0; 1; 2; 3 |] (Tensor.to_int_array bufs.(0));
  Alcotest.(check (array int)) "pu2" [| 4; 5; 6; 7 |] (Tensor.to_int_array bufs.(2))

let prop_scatter_gather_roundtrip =
  QCheck.Test.make ~name:"scatter/gather roundtrip (block & cyclic)" ~count:60
    QCheck.(pair (1 -- 8) (1 -- 8))
    (fun (pus, per) ->
      let n = pus * per in
      let t = Tensor.init [| n |] (fun i -> (i * 31) mod 97) in
      List.for_all
        (fun map ->
          let bufs = Array.init pus (fun _ -> Tensor.zeros [| per |] T.I32) in
          Distrib.scatter ~map t bufs;
          if map = "block" then
            Tensor.equal t (Distrib.gather bufs ~result_shape:[| n |] ~dtype:T.I32)
          else true (* cyclic gather is not the inverse layout; only check block *))
        [ "block"; "cyclic" ])

(* Gathers into recycled arena storage that still holds old values: 4
   buffers tiling the result overwrite all of it (taking it without a
   zero fill), 3 buffers leave the rest of it zero. *)
let test_gather_dirty_arena () =
  let n = 1024 and per = 256 in
  let dirty () =
    Tensor.Arena.clear ();
    let t = Tensor.init [| n |] (fun _ -> 999) in
    Tensor.Arena.release t;
    t
  in
  let gather pus =
    let bufs = Array.init pus (fun p -> Tensor.init [| per |] (fun i -> (p * 1000) + i)) in
    Distrib.gather bufs ~result_shape:[| n |] ~dtype:T.I32
  in
  let expect pus =
    Array.init n (fun i -> if i / per < pus then (i / per * 1000) + (i mod per) else 0)
  in
  let old = dirty () in
  let full = gather 4 in
  Alcotest.(check bool) "full tiling: recycled storage" true (full.Tensor.data == old.Tensor.data);
  Alcotest.(check (array int)) "full tiling" (expect 4) (Tensor.to_int_array full);
  let old = dirty () in
  let part = gather 3 in
  Alcotest.(check bool) "partial tiling: recycled storage" true
    (part.Tensor.data == old.Tensor.data);
  Alcotest.(check (array int)) "partial tiling: the rest is zero" (expect 3)
    (Tensor.to_int_array part);
  Tensor.Arena.clear ()

(* ----- buffer levels (paper Fig. 7) ----- *)

let test_buffers_at_level () =
  Alcotest.(check int) "level 0" 16 (Cnm_d.buffers_at_level [| 8; 2 |] 0);
  Alcotest.(check int) "level 1" 8 (Cnm_d.buffers_at_level [| 8; 2 |] 1);
  Alcotest.(check int) "level 2" 1 (Cnm_d.buffers_at_level [| 8; 2 |] 2);
  Alcotest.(check int) "pu 5 -> buffer 2 at level 1" 2
    (Cnm_d.buffer_index_of_pu [| 8; 2 |] 1 5)

let test_level1_buffer_shared_per_dpu () =
  (* a level-1 buffer written by tasklet 0 must be visible to tasklet 1 of
     the same DPU but not to other DPUs *)
  let f = Func.create ~name:"lvl" ~arg_tys:[ tensor [| 2 |] ] ~result_tys:[ tensor [| 8 |] ] in
  let b = Builder.for_func f in
  let wg = Cnm_d.workgroup b ~shape:[| 2; 2 |] ~physical_dims:[ "dpu"; "thread" ] in
  let shared = Cnm_d.alloc b wg ~shape:[| 1 |] ~dtype:T.I32 ~level:1 in
  let out = Cnm_d.alloc b wg ~shape:[| 2 |] ~dtype:T.I32 ~level:0 in
  let t1 = Cnm_d.scatter b (Func.param f 0) shared wg ~map:"block" in
  let tok =
    Cnm_d.launch b wg ~ins:[ shared ] ~outs:[ out ] (fun bb args ->
        (* every PU copies the shared cell into both of its private slots *)
        let c0 = Arith.const_index bb 0 in
        let c1 = Arith.const_index bb 1 in
        let v = Memref_d.load bb args.(0) [ c0 ] in
        Memref_d.store bb v args.(1) [ c0 ];
        Memref_d.store bb v args.(1) [ c1 ])
  in
  let result, t2 = Cnm_d.gather b out wg ~result_shape:[| 8 |] in
  Cnm_d.wait b [ t1; tok; t2 ];
  Func_d.return b [ result ];
  let input = Tensor.of_int_array [| 2 |] [| 10; 20 |] in
  let st = Cnm_ref.create_state () in
  let results, _ = Interp.run_func ~hooks:[ Cnm_ref.hook st ] f [ Rtval.Tensor input ] in
  Alcotest.(check (array int)) "dpu0 sees 10, dpu1 sees 20"
    [| 10; 10; 10; 10; 20; 20; 20; 20 |]
    (Tensor.to_int_array (Rtval.as_tensor (List.hd results)))

(* ----- upmem machine ----- *)

let run_kernel ?(config = Usim.Config.default ~dimms:1 ()) build_body ~ins ~out_shape args =
  let f =
    Func.create ~name:"k" ~arg_tys:(List.map (fun t -> t.Tensor.shape) ins |> List.map tensor)
      ~result_tys:[ tensor out_shape ]
  in
  ignore args;
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
  let machine = Usim.Machine.create config in
  let results, stats = Usim.Machine.run machine f (List.map (fun t -> Rtval.Tensor t) ins) in
  (Rtval.as_tensor (List.hd results), stats)

let test_dma_offsets () =
  (* copy the input to the output reversed in 2-element blocks using both
     DMA offsets *)
  let input = Tensor.init [| 8 |] (fun i -> i + 1) in
  let body bb (args : Ir.value array) =
    let wram = Upmem_d.wram_alloc bb [| 2 |] T.I32 in
    let c0 = Arith.const_index bb 0 in
    let c1 = Arith.const_index bb 1 in
    (* read elements [0..2) of mram into wram, write them back swapped *)
    Upmem_d.mram_read bb ~mram:args.(0) ~wram ~mram_off:c0 ~wram_off:c0 ~count:2;
    let a = Memref_d.load bb wram [ c0 ] in
    let b2 = Memref_d.load bb wram [ c1 ] in
    Memref_d.store bb b2 wram [ c0 ];
    Memref_d.store bb a wram [ c1 ];
    Upmem_d.mram_write bb ~wram ~mram:args.(1) ~mram_off:c0 ~wram_off:c0 ~count:2
  in
  let out, stats = run_kernel body ~ins:[ input ] ~out_shape:[| 8 |] [] in
  Alcotest.(check (array int)) "per-PU swap" [| 2; 1; 4; 3; 6; 5; 8; 7 |]
    (Tensor.to_int_array out);
  Alcotest.(check bool) "dma bytes counted" true (stats.Usim.Stats.dma_bytes >= 8 * 4 * 2)

let test_pipeline_stall_factor () =
  (* the same total work with fewer tasklets per DPU must take longer
     (pipeline needs ~11 resident tasklets to saturate) *)
  let kernel_time ~tasklets =
    let dpus = 2 in
    let l = 64 in
    let f = Func.create ~name:"s" ~arg_tys:[] ~result_tys:[] in
    let b = Builder.for_func f in
    let wg = Upmem_d.alloc_dpus b ~dimms:1 ~dpus ~tasklets in
    let buf = Upmem_d.alloc b wg ~shape:[| l |] ~dtype:T.I32 ~level:0 in
    ignore
      (Upmem_d.launch b wg ~tasklets ~ins:[] ~outs:[ buf ] (fun bb args ->
           let c0 = Arith.const_index bb 0 in
           let c1 = Arith.const_index bb 1 in
           let cl = Arith.const_index bb l in
           let v = Arith.constant bb 3 in
           Scf_d.for0 bb ~lb:c0 ~ub:cl ~step:c1 (fun bb i ->
               Memref_d.store bb v args.(0) [ i ])));
    Func_d.return b [];
    let machine = Usim.Machine.create (Usim.Config.default ~dimms:1 ()) in
    let _, stats = Usim.Machine.run machine f [] in
    (* normalize: per-tasklet work is identical, so more tasklets = more
       total work; compare per-work-unit time *)
    stats.Usim.Stats.kernel_s /. float_of_int tasklets
  in
  Alcotest.(check bool) "2 tasklets stall more than 16 per unit of work" true
    (kernel_time ~tasklets:2 > kernel_time ~tasklets:16)

let test_host_transfer_scales_with_dimms () =
  let transfer dimms dpus =
    let f = Func.create ~name:"t" ~arg_tys:[ tensor [| 4096 |] ] ~result_tys:[] in
    let b = Builder.for_func f in
    let wg = Upmem_d.alloc_dpus b ~dimms ~dpus ~tasklets:2 in
    let buf = Upmem_d.alloc b wg ~shape:[| 4096 / (dpus * 2) |] ~dtype:T.I32 ~level:0 in
    ignore (Upmem_d.scatter b (Func.param f 0) buf wg ~map:"block");
    Func_d.return b [];
    let config = { (Usim.Config.default ~dimms ()) with Usim.Config.dpus_per_dimm = dpus / dimms } in
    let machine = Usim.Machine.create config in
    let _, stats = Usim.Machine.run machine f [ Rtval.Tensor (Tensor.zeros [| 4096 |] T.I32) ] in
    stats.Usim.Stats.host_to_device_s
  in
  Alcotest.(check bool) "4 dimms transfer faster than 1" true
    (transfer 4 8 < transfer 1 8)

(* Host <-> MRAM transfers cost the host-transfer energy per byte: a
   program that only scatters and gathers spends exactly that. *)
let test_host_transfer_energy () =
  let f = Func.create ~name:"t" ~arg_tys:[ tensor [| 256 |] ] ~result_tys:[ tensor [| 256 |] ] in
  let b = Builder.for_func f in
  let wg = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:4 ~tasklets:2 in
  let buf = Upmem_d.alloc b wg ~shape:[| 32 |] ~dtype:T.I32 ~level:0 in
  ignore (Upmem_d.scatter b (Func.param f 0) buf wg ~map:"block");
  let out, _ = Upmem_d.gather b buf wg ~result_shape:[| 256 |] in
  Upmem_d.free_dpus b wg;
  Func_d.return b [ out ];
  let config = { (Usim.Config.default ~dimms:1 ()) with Usim.Config.dpus_per_dimm = 4 } in
  let machine = Usim.Machine.create config in
  let _, stats =
    Usim.Machine.run machine f [ Rtval.Tensor (Tensor.init [| 256 |] (fun i -> i)) ]
  in
  Alcotest.(check int) "bytes both ways" (2 * 256 * 4) stats.Usim.Stats.transferred_bytes;
  Alcotest.(check (float 0.))
    "energy = transferred bytes x energy per host byte"
    (float_of_int stats.Usim.Stats.transferred_bytes *. config.Usim.Config.energy_per_host_byte)
    stats.Usim.Stats.energy_j

let test_unknown_handle_fails () =
  let f = Func.create ~name:"bad" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  (* a token-typed garbage value used as a workgroup *)
  let bogus = Builder.build1 b "upmem.alloc_dpus" ~attrs:[ ("dimms", Attr.Int 1) ] ~result_tys:[ T.Workgroup [| 2; 2 |] ] in
  Upmem_d.free_dpus b bogus;
  (* free twice is fine; but alloc with a non-workgroup result type fails in verify *)
  Func_d.return b [];
  let machine = Usim.Machine.create (Usim.Config.default ~dimms:1 ()) in
  match Usim.Machine.run machine f [] with
  | _ -> () (* structurally fine *)

(* ----- memristor machine ----- *)

let crossbar_prog ~same_tile () =
  let f = Func.create ~name:"xb" ~arg_tys:[ tensor [| 8; 8 |]; tensor [| 8; 8 |] ] ~result_tys:[ tensor [| 8; 8 |] ] in
  let b = Builder.for_func f in
  let id = Memristor_d.alloc b ~rows:8 ~cols:8 ~tiles:2 in
  let t0 = 0 and t1 = if same_tile then 0 else 1 in
  Memristor_d.store_tile b id ~tile:t0 (Func.param f 1);
  Memristor_d.copy_tile b id ~tile:t0 (Func.param f 0);
  let r0 = Memristor_d.gemm_tile b id ~tile:t0 ~result_ty:(tensor [| 8; 8 |]) in
  Memristor_d.store_tile b id ~tile:t1 (Func.param f 1);
  Memristor_d.copy_tile b id ~tile:t1 (Func.param f 0);
  let r1 = Memristor_d.gemm_tile b id ~tile:t1 ~result_ty:(tensor [| 8; 8 |]) in
  Memristor_d.barrier b id;
  Memristor_d.release b id;
  let sum = Cinm_d.add b r0 r1 in
  Func_d.return b [ sum ];
  f

let run_crossbar f args =
  let machine = Msim.Machine.create (Msim.Config.default ()) in
  Msim.Machine.run machine f args

let test_crossbar_compute_and_overlap () =
  let a = Tensor.init [| 8; 8 |] (fun i -> (i mod 5) - 2) in
  let w = Tensor.init [| 8; 8 |] (fun i -> (i mod 3) - 1) in
  let args = [ Rtval.Tensor a; Rtval.Tensor w ] in
  let expected =
    let mm = Tensor.matmul a w in
    Tensor.map2 "add" mm mm
  in
  let r_same, s_same = run_crossbar (crossbar_prog ~same_tile:true ()) args in
  let r_diff, s_diff = run_crossbar (crossbar_prog ~same_tile:false ()) args in
  Alcotest.(check bool) "same-tile result" true
    (Tensor.equal expected (Rtval.as_tensor (List.hd r_same)));
  Alcotest.(check bool) "two-tile result" true
    (Tensor.equal expected (Rtval.as_tensor (List.hd r_diff)));
  Alcotest.(check bool)
    (Printf.sprintf "two tiles faster (%.3g < %.3g)" (Msim.Stats.total_s s_diff)
       (Msim.Stats.total_s s_same))
    true
    (Msim.Stats.total_s s_diff < Msim.Stats.total_s s_same);
  Alcotest.(check int) "endurance: tile0 written twice (same-tile)" 2
    s_same.Msim.Stats.endurance_writes.(0);
  Alcotest.(check int) "endurance: spread (two-tile)" 1 s_diff.Msim.Stats.endurance_writes.(1)

let test_gemm_without_weights_fails () =
  let f = Func.create ~name:"nw" ~arg_tys:[ tensor [| 4; 4 |] ] ~result_tys:[ tensor [| 4; 4 |] ] in
  let b = Builder.for_func f in
  let id = Memristor_d.alloc b ~rows:8 ~cols:8 ~tiles:1 in
  Memristor_d.copy_tile b id ~tile:0 (Func.param f 0);
  let r = Memristor_d.gemm_tile b id ~tile:0 ~result_ty:(tensor [| 4; 4 |]) in
  Func_d.return b [ r ];
  match run_crossbar f [ Rtval.Tensor (Tensor.zeros [| 4; 4 |] T.I32) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure: gemm with no programmed weights"

let test_energy_monotonic_in_writes () =
  let prog n_stores () =
    let f = Func.create ~name:"e" ~arg_tys:[ tensor [| 8; 8 |] ] ~result_tys:[] in
    let b = Builder.for_func f in
    let id = Memristor_d.alloc b ~rows:8 ~cols:8 ~tiles:1 in
    for _ = 1 to n_stores do
      Memristor_d.store_tile b id ~tile:0 (Func.param f 0)
    done;
    Memristor_d.release b id;
    Func_d.return b [];
    f
  in
  let energy n =
    let _, s = run_crossbar (prog n ()) [ Rtval.Tensor (Tensor.zeros [| 8; 8 |] T.I32) ] in
    s.Msim.Stats.energy_j
  in
  Alcotest.(check bool) "more writes = more energy" true (energy 5 > energy 1)

(* ----- cpu models ----- *)

let test_cpu_roofline () =
  let p_compute = Profile.create () in
  p_compute.Profile.mul_ops <- 100_000_000;
  let p_memory = Profile.create () in
  p_memory.Profile.loads <- 100_000_000;
  let est_c = Cpu.Model.estimate Cpu.Model.xeon_opt p_compute in
  let est_m = Cpu.Model.estimate Cpu.Model.xeon_opt p_memory in
  Alcotest.(check bool) "compute-bound picks compute side" true
    (est_c.Cpu.Model.time_s = est_c.Cpu.Model.compute_s
    || est_c.Cpu.Model.compute_s > est_c.Cpu.Model.memory_s);
  Alcotest.(check bool) "memory-bound picks memory side" true
    (est_m.Cpu.Model.memory_s >= est_m.Cpu.Model.compute_s)

let test_cpu_scaled () =
  let p = Profile.create () in
  p.Profile.alu_ops <- 10_000_000;
  p.Profile.loads <- 10_000_000;
  let full = Cpu.Model.estimate Cpu.Model.xeon_opt p in
  let half = Cpu.Model.estimate (Cpu.Model.scaled 0.5 Cpu.Model.xeon_opt) p in
  Alcotest.(check bool) "half-scale is ~2x slower" true
    (half.Cpu.Model.time_s > 1.8 *. full.Cpu.Model.time_s
    && half.Cpu.Model.time_s < 2.2 *. full.Cpu.Model.time_s)

let test_arm_slower_than_xeon () =
  let p = Profile.create () in
  p.Profile.mul_ops <- 1_000_000;
  p.Profile.loads <- 2_000_000;
  let arm = Cpu.Model.estimate Cpu.Model.arm_inorder p in
  let xeon = Cpu.Model.estimate Cpu.Model.xeon_opt p in
  Alcotest.(check bool) "arm slower" true (arm.Cpu.Model.time_s > xeon.Cpu.Model.time_s)

let () =
  Alcotest.run "sims"
    [
      ( "distribution",
        [
          Alcotest.test_case "block" `Quick test_scatter_block;
          Alcotest.test_case "cyclic" `Quick test_scatter_cyclic;
          Alcotest.test_case "overlap (halo)" `Quick test_scatter_overlap;
          QCheck_alcotest.to_alcotest prop_scatter_gather_roundtrip;
          Alcotest.test_case "gather into dirty arena storage" `Quick test_gather_dirty_arena;
        ] );
      ( "buffer levels",
        [
          Alcotest.test_case "counts and indexing" `Quick test_buffers_at_level;
          Alcotest.test_case "level-1 shared per DPU" `Quick test_level1_buffer_shared_per_dpu;
        ] );
      ( "upmem machine",
        [
          Alcotest.test_case "dma offsets" `Quick test_dma_offsets;
          Alcotest.test_case "pipeline stall factor" `Quick test_pipeline_stall_factor;
          Alcotest.test_case "host transfer scales with dimms" `Quick
            test_host_transfer_scales_with_dimms;
          Alcotest.test_case "host transfer energy" `Quick test_host_transfer_energy;
          Alcotest.test_case "structural edge" `Quick test_unknown_handle_fails;
        ] );
      ( "memristor machine",
        [
          Alcotest.test_case "compute + tile overlap + endurance" `Quick
            test_crossbar_compute_and_overlap;
          Alcotest.test_case "gemm without weights fails" `Quick test_gemm_without_weights_fails;
          Alcotest.test_case "energy monotonic in writes" `Quick test_energy_monotonic_in_writes;
        ] );
      ( "cpu models",
        [
          Alcotest.test_case "roofline" `Quick test_cpu_roofline;
          Alcotest.test_case "scaling" `Quick test_cpu_scaled;
          Alcotest.test_case "arm slower than xeon" `Quick test_arm_slower_than_xeon;
        ] );
    ]
