(* The heterogeneous partitioner and the multi-stream schedule recorder:
   plan determinism (the device schedule is a pure function of the
   module — byte-identical at any job count and for both interpreter
   backends), the hetero differential (tree and compiled runs at any job
   count produce bit-identical tensors, machine stats and schedules, with
   the merged end-to-end time bounded by the sequential sum above and the
   busiest engine below), the per-run watchdog, and per-rank fault domains
   of the multi-rank UPMEM machine (remaps never leave the failed DPU's
   rank). *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
open Cinm_core
module Sched = Cinm_support.Schedule
module Pool = Cinm_support.Pool
module Config = Cinm_support.Config
module Fault = Cinm_support.Fault
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Camsim = Cinm_cam_sim
module Benchmark = Cinm_benchmarks.Benchmark
module Hetero = Cinm_benchmarks.Hetero_kernels

let () = Registry.ensure_all ()

let check_tensor msg expected actual =
  if not (Tensor.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

(* the same shape the hetero smoke configuration uses: 4 ranks, 2 DIMMs,
   8 DPUs per DIMM -> 64 DPUs *)
let backend = Backend.default_hetero ~ranks:4 ~dimms:2 ~dpus_per_dimm:8 ()

let hetero_configs () =
  match backend with Backend.Hetero (u, ci) -> (u, ci) | _ -> assert false

(* ----- partition determinism ----- *)

(* Full fingerprint of a plan: every assignment with device, transfer
   bytes and cost estimates. Any nondeterminism in the HEFT scheduler
   shows up here. *)
let plan_fingerprint (plan : Partition.plan) =
  String.concat "\n"
    (List.mapi
       (* position, not raw oid: the oid counter is global, so two builds
          of the same function get different ids for identical ops *)
       (fun i (a : Partition.assignment) ->
         Printf.sprintf "%s#%d -> %s xfer=%d est=%.12e span=%.12e..%.12e"
           a.Partition.a_op i a.Partition.a_device a.Partition.a_xfer_in_bytes
           a.Partition.a_est_s a.Partition.a_start_s a.Partition.a_finish_s)
       plan.Partition.assignments)
  ^ Printf.sprintf "\nmakespan=%.12e seq=%.12e" plan.Partition.est_makespan_s
      plan.Partition.est_sequential_s

let plan_of (b : Benchmark.t) =
  let m = Func.create_module () in
  Func.add_func m (b.Benchmark.build ());
  Pass.run_pipeline [ Tosa_to_linalg.pass; Linalg_to_cinm.pass ] m;
  let u, ci = hetero_configs () in
  let policy =
    {
      Partition.upmem_dpus =
        u.Backend.ranks * u.Backend.dimms * u.Backend.dpus_per_dimm;
      cim_rows = ci.Backend.rows;
      cim_cols = ci.Backend.cols;
    }
  in
  Partition.plan_module policy m

let test_plan_determinism () =
  List.iter
    (fun (b : Benchmark.t) ->
      let reference = plan_fingerprint (plan_of b) in
      Alcotest.(check bool)
        (b.Benchmark.name ^ ": plan uses more than one device")
        true
        (List.length
           (List.filter (fun (_, n) -> n > 0) (plan_of b).Partition.per_device)
        > 1);
      List.iter
        (fun jobs ->
          Pool.set_default_jobs jobs;
          List.iter
            (fun interp ->
              Compile.set_backend interp;
              let fp = plan_fingerprint (plan_of b) in
              Compile.set_backend Compile.Tree;
              Alcotest.(check string)
                (Printf.sprintf "%s: plan identical at jobs=%d" b.Benchmark.name
                   jobs)
                reference fp)
            [ Compile.Tree; Compile.Compiled ])
        [ 1; 4 ];
      Pool.set_default_jobs 1)
    [ Hetero.mix (); Hetero.batch () ]

(* The recorded "partition" fattr pins the exact placement of each hetero
   kernel: ops per device and the estimated overlap speedup. *)
let test_partition_fattr () =
  List.iter
    (fun ((b : Benchmark.t), expected) ->
      let compiled = Driver.compile_func backend (b.Benchmark.build ()) in
      let f = List.hd compiled.Driver.modul.Func.funcs in
      match List.assoc_opt "partition" f.Func.fattrs with
      | Some (Attr.Str s) ->
        Alcotest.(check string) (b.Benchmark.name ^ ": partition fattr") expected s
      | _ -> Alcotest.fail "partitioned function must carry the partition fattr")
    [
      (Hetero.mix (), "cpu=2 upmem=1 memristor=1 cam=1 est_speedup=1.96x");
      (Hetero.batch (), "cpu=3 upmem=1 memristor=1 est_speedup=2.56x");
    ]

(* ----- overlap-correctness differential ----- *)

let fresh_machines () = Machine_set.create ~faults:None backend

let host_cost p =
  (Cinm_cpu_sim.Model.estimate Cinm_cpu_sim.Model.arm_inorder p)
    .Cinm_cpu_sim.Model.time_s

let run_stream ~interp ~jobs (b : Benchmark.t) =
  Pool.set_default_jobs jobs;
  let compiled = Driver.compile_func backend (b.Benchmark.build ()) in
  let machines = fresh_machines () in
  let f = List.hd compiled.Driver.modul.Func.funcs in
  let outcome =
    Stream_exec.run
      ~config:{ (Config.default ()) with Config.interp }
      ~modul:compiled.Driver.modul ~host_cost ~machines f
      (b.Benchmark.inputs ())
  in
  Pool.set_default_jobs 1;
  (outcome, machines)

(* The hetero run is the one executor's program-order run plus a
   recorded schedule: the sequential tree-walker run at jobs 1 is the
   reference, and both interpreters at jobs 1 and 4 must match it bit
   for bit — tensors, profile, every machine's stats, the summary and
   each node's schedule events. *)
let test_overlap_differential () =
  List.iter
    (fun (b : Benchmark.t) ->
      let ref_o, ref_m = run_stream ~interp:"tree" ~jobs:1 b in
      List.iter
        (fun (interp, jobs) ->
          let o, m = run_stream ~interp ~jobs b in
          let what = Printf.sprintf "%s: %s at jobs %d" b.Benchmark.name interp jobs in
          List.iter2
            (fun a c ->
              check_tensor (what ^ ": tensors") (Rtval.as_tensor a) (Rtval.as_tensor c))
            ref_o.Stream_exec.results o.Stream_exec.results;
          let same name eq = Alcotest.(check bool) (what ^ ": " ^ name) true eq in
          same "profile" (Profile.equal ref_o.Stream_exec.profile o.Stream_exec.profile);
          let stats name eq get = same (name ^ " stats") (eq (get ref_m) (get m)) in
          stats "upmem" Usim.Stats.equal (fun ms ->
              (Option.get ms.Machine_set.upmem).Usim.Machine.stats);
          stats "memristor" ( = ) (fun ms ->
              (Option.get ms.Machine_set.memristor).Msim.Machine.stats);
          stats "cam" ( = ) (fun ms ->
              (Option.get ms.Machine_set.cam).Camsim.Cam_machine.stats);
          same "summary" (ref_o.Stream_exec.summary = o.Stream_exec.summary);
          same "schedule events" (ref_o.Stream_exec.schedule = o.Stream_exec.schedule))
        [ ("tree", 4); ("compiled", 1); ("compiled", 4) ];
      (* the two-clock merge invariants: busiest engine <= overlapped
         critical path <= sequential sum *)
      let os = ref_o.Stream_exec.summary in
      Alcotest.(check bool)
        (Printf.sprintf "%s: e2e (%.3e) <= sequential sum (%.3e)"
           b.Benchmark.name os.Sched.e2e_s os.Sched.seq_s)
        true
        (os.Sched.e2e_s <= os.Sched.seq_s +. 1e-12);
      Alcotest.(check bool)
        (Printf.sprintf "%s: e2e (%.3e) >= busiest engine (%.3e)"
           b.Benchmark.name os.Sched.e2e_s os.Sched.max_channel_busy_s)
        true
        (os.Sched.e2e_s >= os.Sched.max_channel_busy_s -. 1e-12);
      (* the per-machine tracks bound the makespan too *)
      List.iter
        (fun (t : Sched.track) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s busy <= e2e" b.Benchmark.name
               t.Sched.tr_machine)
            true
            (t.Sched.tr_compute_s +. t.Sched.tr_dma_s
            <= os.Sched.e2e_s +. 1e-12))
        os.Sched.tracks;
      (* the timeline replay places every event within the makespan *)
      List.iter
        (fun (p : Sched.placed) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: placed event within makespan"
               b.Benchmark.name)
            true
            (p.Sched.p_start_s >= 0.0
            && p.Sched.p_finish_s <= os.Sched.e2e_s +. 1e-12))
        (Sched.timeline ref_o.Stream_exec.schedule))
    [ Hetero.mix (); Hetero.batch () ]

(* Two top-level loops of 1000 trips against a budget of 1500 steps: the
   watchdog counts per run, so a hetero run stops at the budget, with
   the diagnostic [Compile.run_func] gives, under both interpreters. *)
let test_hetero_watchdog () =
  let f = Func.create ~name:"two_loops" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let lb = Arith.const_index b 0
  and ub = Arith.const_index b 1000
  and step = Arith.const_index b 1 in
  Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
  Scf_d.for0 b ~lb ~ub ~step (fun _ _ -> ());
  Func_d.return b [];
  let catch run =
    match run () with
    | _ -> None
    | exception Interp.Interp_error msg -> Some msg
  in
  List.iter
    (fun interp ->
      let config = { (Config.default ()) with Config.interp; max_steps = 1500 } in
      let single = catch (fun () -> ignore (Compile.run_func ~config f [])) in
      let hetero =
        catch (fun () ->
            ignore
              (Stream_exec.run ~config ~host_cost ~machines:(fresh_machines ()) f []))
      in
      Alcotest.(check bool) (interp ^ ": run_func stops") true (single <> None);
      Alcotest.(check (option string)) (interp ^ ": the hetero run stops alike") single hetero)
    [ "tree"; "compiled" ]

(* end to end through the driver: device results must match the host
   reference, and het-mix must genuinely overlap (the whole point) *)
let test_hetero_end_to_end () =
  List.iter
    (fun (b : Benchmark.t) ->
      let results, report =
        Driver.compile_and_run backend (b.Benchmark.build ())
          (b.Benchmark.inputs ())
      in
      Alcotest.(check bool)
        (b.Benchmark.name ^ ": hetero results match host reference")
        true
        (Benchmark.results_match b results);
      let ovl = List.assoc "e2e_overlapped" report.Report.breakdown in
      let seq = List.assoc "e2e_sequential" report.Report.breakdown in
      Alcotest.(check bool)
        (Printf.sprintf "%s: overlap speedup %.2fx >= 1.5x" b.Benchmark.name
           (seq /. ovl))
        true
        (seq /. ovl >= 1.5);
      Alcotest.(check bool)
        (b.Benchmark.name ^ ": report carries per-machine tracks")
        true
        (List.length report.Report.tracks >= 2))
    [ Hetero.mix (); Hetero.batch () ]

(* ----- per-rank fault domains of the multi-rank UPMEM machine ----- *)

let tensor shape = Types.Tensor (shape, Types.I32)
let iota shape = Tensor.init shape (fun i -> (i mod 23) - 11)

let force_cnm =
  Target_select.pass
    ~policy:{ Target_select.default_policy with forced_target = Some "cnm" }
    ()

let build_mm m k n () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| m; k |]; tensor [| k; n |] ]
      ~result_tys:[ tensor [| m; n |] ]
  in
  let b = Builder.for_func f in
  Func_d.return b [ Linalg_d.matmul b (Func.param f 0) (Func.param f 1) ];
  f

let lower_to_upmem ~dpus f =
  let m = Func.create_module () in
  Func.add_func m f;
  Pass.run_pipeline
    [ Tosa_to_linalg.pass; Linalg_to_cinm.pass; force_cnm;
      Cinm_to_cnm.pass
        ~options:
          { Cinm_to_cnm.dpus; tasklets = 4; optimize = false;
            max_rows_per_launch = 8 }
        ();
      Cnm_to_upmem.pass () ]
    m;
  List.hd m.Func.funcs

let test_rank_fault_domains () =
  let ranks = 4 and dpus_per_dimm = 8 in
  let config =
    {
      (Usim.Config.default ~ranks ~dimms:1 ()) with
      Usim.Config.dpus_per_dimm;
    }
  in
  let dpus = Usim.Config.total_dpus config in
  (* 128 rows fill the 32 DPUs x 4 tasklets at one row per lane, so the
     GEMM's workgroup spans every rank *)
  let args = [ Rtval.Tensor (iota [| 128; 8 |]); Rtval.Tensor (iota [| 8; 6 |]) ] in
  let run ~faults ~jobs =
    Pool.set_default_jobs jobs;
    let machine = Usim.Machine.create ~faults config in
    let results, _ =
      Interp.run_func
        ~hooks:[ Usim.Machine.hook machine ]
        (lower_to_upmem ~dpus (build_mm 128 8 6 ()))
        args
    in
    Pool.set_default_jobs 1;
    (List.map Rtval.as_tensor results, machine)
  in
  let clean, _ = run ~faults:None ~jobs:1 in
  (* seed 7 at 10% fails a DPU in two different ranks while leaving every
     rank enough spares (each shard has 2) to stay allocatable *)
  let faults =
    Some (Fault.make ~seed:7 { Fault.no_rates with Fault.dpu_fail = 0.1 })
  in
  let r1, m1 = run ~faults ~jobs:1 in
  let r4, m4 = run ~faults ~jobs:4 in
  List.iter2 (check_tensor "multi-rank faulted == fault-free") clean r1;
  List.iter2 (check_tensor "multi-rank faulted: jobs=1 == jobs=4") r1 r4;
  Alcotest.(check bool) "stats identical at any job count" true
    (Usim.Stats.equal m1.Usim.Machine.stats m4.Usim.Machine.stats);
  Alcotest.(check bool)
    (Printf.sprintf "a 25%% failure rate masks some DPUs (%d)"
       m1.Usim.Machine.stats.Usim.Stats.failed_dpus)
    true
    (m1.Usim.Machine.stats.Usim.Stats.failed_dpus > 0);
  (* the spare cursors must stay inside their rank's physical shard:
     rank r owns [r * per_rank, (r+1) * per_rank) and a cursor that
     walked below its shard's base would mean a remap crossed into
     another rank's fault domain *)
  let rd = Usim.Config.rank_dpus config in
  let per_rank = rd + max 2 (rd / 4) in
  Array.iteri
    (fun r cursor ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d spare cursor %d stays in shard [%d, %d)" r
           cursor
           ((r * per_rank) - 1)
           ((r + 1) * per_rank))
        true
        (cursor >= (r * per_rank) - 1 && cursor < (r + 1) * per_rank))
    m1.Usim.Machine.spare_cursors

let () =
  Alcotest.run "partition"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic across jobs and interps" `Quick
            test_plan_determinism;
          Alcotest.test_case "partition fattr recorded" `Quick
            test_partition_fattr;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "differential vs sequential" `Quick
            test_overlap_differential;
          Alcotest.test_case "watchdog counts per run" `Quick test_hetero_watchdog;
          Alcotest.test_case "end to end through the driver" `Quick
            test_hetero_end_to_end;
        ] );
      ( "faults",
        [
          Alcotest.test_case "per-rank fault domains" `Quick
            test_rank_fault_domains;
        ] );
    ]
