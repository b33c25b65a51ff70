(* The end-to-end CINM compiler driver: assembles the progressive-lowering
   pipeline of paper Fig. 4 for a chosen backend, compiles a module, and
   executes it on the corresponding simulator, producing a Report.

   Pipelines:
     host:   tosa -> linalg                     (reference interpreter)
     upmem:  tosa -> linalg -> cinm -> cnm -> upmem   (machine simulator)
     cim:    tosa -> linalg -> cinm -> cim [-> unroll] -> memristor -> licm
     hetero: tosa -> linalg -> cinm -> partition -> the cim lowering, then
             the upmem lowering (schedule recorded)

   Every backend executes through one runner: Machine_set picks the
   simulators, and one report builder reads each simulator's stats.
*)

open Cinm_ir
open Cinm_transforms
open Cinm_interp
module Usim = Cinm_upmem_sim
module Cpu = Cinm_cpu_sim
module Trace = Cinm_support.Trace
module Log = Cinm_support.Log
module Config = Cinm_support.Config
module Sched = Cinm_support.Schedule

let () = Cinm_dialects.Registry.ensure_all ()

(* ----- pipeline construction ----- *)

let force_target t =
  Target_select.pass
    ~policy:{ Target_select.default_policy with forced_target = Some t }
    ()

let cim_target =
  (* greedy policy with a low threshold: every matmul-like op offloads to
     the crossbar, everything else is host-orchestrated (as in OCC) *)
  Target_select.pass
    ~policy:{ Target_select.default_policy with cim_gemm_threshold = 2 }
    ()

(* The front end: the host backends stop at linalg, every device lowering
   (and the CPU fallback) continues from cinm. *)
let to_linalg = [ Torch_to_tosa.pass; Tosa_to_linalg.pass ]
let to_cinm = to_linalg @ [ Linalg_to_cinm.pass ]

(* ranks scale the DPU grid like extra DIMMs (per-rank fault domains live
   in the simulator, not the lowering) *)
let total_dpus (c : Backend.upmem_config) =
  c.Backend.ranks * c.Backend.dimms * c.Backend.dpus_per_dimm

let upmem_lowering (c : Backend.upmem_config) =
  [
    Cinm_to_cnm.pass
      ~options:
        {
          Cinm_to_cnm.dpus = total_dpus c;
          tasklets = c.Backend.tasklets;
          optimize = c.Backend.optimize;
          max_rows_per_launch = c.Backend.max_rows_per_launch;
        }
      ();
    Cnm_to_upmem.pass
      ~options:
        { Cnm_to_upmem.default_options with dpus_per_dimm = c.Backend.dpus_per_dimm }
      ();
  ]

let cim_lowering (c : Backend.cim_config) =
  [
    Cinm_to_cam.pass; Cinm_to_rtm.pass ();
    Cinm_to_cim.pass
      ~options:
        {
          Cinm_to_cim.rows = c.Backend.rows;
          cols = c.Backend.cols;
          tiles = c.Backend.tiles;
          input_chunk = c.Backend.input_chunk;
          interchange = c.Backend.min_writes;
          parallel = c.Backend.parallel;
        }
      ();
    Loop_unroll.pass;
    Cim_to_memristor.assign_pass ~tiles:c.Backend.tiles; Cim_to_memristor.pass;
    Licm.pass; Licm.pass;
  ]

let pipeline (backend : Backend.t) : Pass.t list =
  match backend with
  | Backend.Host_xeon | Backend.Host_arm -> to_linalg
  | Backend.Upmem c ->
    to_cinm
    @ [ force_target "cnm"; Ew_fusion.pass ]
    @ upmem_lowering c @ [ Canonicalize.pass ]
  | Backend.Cim c -> to_cinm @ [ cim_target ] @ cim_lowering c @ [ Canonicalize.pass ]
  | Backend.Hetero (u, ci) ->
    (* one module partitioned across all devices: the dependency-aware
       partitioner replaces forced target selection, then *every* device
       lowering runs — each claims the ops whose "target" the partitioner
       assigned to it, everything left runs natively on the host *)
    let geometry =
      {
        Partition.upmem_dpus = total_dpus u;
        cim_rows = ci.Backend.rows;
        cim_cols = ci.Backend.cols;
      }
    in
    to_cinm
    @ [ Partition.pass geometry; Ew_fusion.pass ]
    @ cim_lowering ci @ upmem_lowering u @ [ Canonicalize.pass ]

(* One host-clock driver span (compile / execute), emitted even when [f]
   raises so the trace shows where a failing run died. The same timing
   feeds the phase histograms (cinm_driver_compile_seconds /
   cinm_driver_execute_seconds) when metrics are collected; with both
   tracing and metrics off this is a single branch around [f]. *)
let with_span ~config name f =
  let tracing = Trace.enabled () and metrics = Trace.Metrics.enabled () in
  if not (tracing || metrics) then f ()
  else begin
    let t0 = Trace.now_host () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Trace.now_host () -. t0 in
        if tracing then begin
          let args =
            if config.Config.req_id = "" then []
            else [ ("req_id", Trace.Str config.Config.req_id) ]
          in
          Trace.complete ~cat:"driver" ~args ~clock:Trace.Host
            ~pid:Trace.host_pid ~track:"driver" ~ts:t0 ~dur name
        end;
        if metrics then begin
          let phase =
            match String.index_opt name ':' with
            | Some i -> String.sub name 0 i
            | None -> name
          in
          Trace.Metrics.observe
            (Printf.sprintf "cinm_driver_%s_seconds" phase)
            dur
        end)
      f
  end

type compiled = {
  modul : Func.modul;
  backend : Backend.t;
  fallback : Pass.diag option;
      (** set when device lowering failed and the module was re-lowered
          for the CPU instead *)
}

(* The degradation path when a device lowering or launch fails: lower the
   pristine module [m] to scf loops for the host interpreter (cinm→scf
   applies to ops without a device target, which a fresh front-end run
   leaves unset) and record why. *)
let cpu_fallback ?verify ~config backend diag m =
  Pass.run_pipeline ?verify ~config (to_cinm @ [ Cinm_to_scf.pass; Canonicalize.pass ]) m;
  { modul = m; backend; fallback = Some diag }

let compile ?(verify = true) ?(fallback = true) ?(config = Config.default ()) backend
    (m : Func.modul) : compiled =
  with_span ~config ("compile:" ^ Backend.to_string backend) @@ fun () ->
  match backend with
  | Backend.Host_xeon | Backend.Host_arm ->
    Pass.run_pipeline ~verify ~config (pipeline backend) m;
    { modul = m; backend; fallback = None }
  | Backend.Upmem _ | Backend.Cim _ | Backend.Hetero _ -> (
    (* device lowerings can fail on capacity/config limits; keep a pristine
       snapshot so the failed (possibly half-transformed) module can be
       abandoned and re-lowered for the CPU *)
    let snapshot = if fallback then Some (Func.clone_module m) else None in
    match Pass.run_pipeline_result ~verify ~config (pipeline backend) m with
    | Ok () -> { modul = m; backend; fallback = None }
    | Error diag -> (
      match snapshot with
      | None -> raise (Pass.Pass_failed diag)
      | Some snap ->
        Log.warn "%s; degrading to CPU lowering" (Pass.diag_to_string diag);
        (match Pass.last_reproducer () with
        | Some r when r.Pass.diag = diag ->
          Log.warn "crash reproducer for the failed lowering: %s" r.Pass.path
        | _ -> ());
        cpu_fallback ~verify ~config backend diag snap))

let compile_func ?verify ?fallback ?config backend (f : Func.t) : compiled =
  let m = Func.create_module () in
  Func.add_func m f;
  compile ?verify ?fallback ?config backend m

(* ----- execution ----- *)

let upmem_sim_config = Machine_set.upmem_sim_config

(* The host model a backend is costed on when the caller names none:
   cpu-opt for the xeon host and as the UPMEM host; the in-order ARM core
   orchestrates the accelerators and runs everything not offloaded
   (paper §4.1). *)
let default_host_model = function
  | Backend.Host_xeon | Backend.Upmem _ -> Cpu.Model.xeon_opt
  | Backend.Host_arm | Backend.Cim _ | Backend.Hetero _ -> Cpu.Model.arm_inorder

(* The one report builder. Each simulator's stats contribute a fragment;
   device time and energy are their sums, counters their concatenation.
   A single-stream run totals host + device; an overlapped run ([summary])
   reports the critical path of the merged schedule, which is >= the
   busiest engine and <= host_s + device_s. With no simulator the host
   estimate is the whole report. *)
let report ~backend_name ~host_model ~profile ?summary machines : Report.t =
  let host = Cpu.Model.estimate host_model profile in
  let frags = Machine_set.fragments machines in
  let sum field = List.fold_left (fun acc fr -> acc +. field fr) 0.0 frags in
  let device_s = sum (fun fr -> fr.Machine_set.device_s) in
  let energy_j = sum (fun fr -> fr.Machine_set.energy_j) +. host.Cpu.Model.energy_j in
  let breakdown, counters =
    match frags with
    | [] ->
      ( [ ("compute", host.Cpu.Model.compute_s); ("memory", host.Cpu.Model.memory_s) ],
        [ ("ops", Profile.total_scalar_ops profile) ] )
    | _ ->
      ( List.concat_map (fun fr -> fr.Machine_set.breakdown) frags,
        List.concat_map (fun fr -> fr.Machine_set.counters) frags )
  in
  let total_s, host_s, device_s, breakdown, tracks =
    match summary with
    | None ->
      (host.Cpu.Model.time_s +. device_s, host.Cpu.Model.time_s, device_s, breakdown, [])
    | Some s ->
      let busy pred =
        List.fold_left
          (fun acc (t : Sched.track) ->
            if pred (String.equal Sched.host_machine t.Sched.tr_machine) then
              acc +. t.Sched.tr_compute_s +. t.Sched.tr_dma_s
            else acc)
          0.0 s.Sched.tracks
      in
      ( s.Sched.e2e_s,
        busy Fun.id,
        busy not,
        [
          ("e2e_overlapped", s.Sched.e2e_s);
          ("e2e_sequential", s.Sched.seq_s);
          ("max_channel_busy", s.Sched.max_channel_busy_s);
        ]
        @ List.concat_map
            (fun (t : Sched.track) ->
              [
                (t.Sched.tr_machine ^ ".compute", t.Sched.tr_compute_s);
                (t.Sched.tr_machine ^ ".dma", t.Sched.tr_dma_s);
                (t.Sched.tr_machine ^ ".idle", t.Sched.tr_idle_s);
              ])
            s.Sched.tracks,
        s.Sched.tracks )
  in
  {
    Report.backend = backend_name;
    total_s;
    host_s;
    device_s;
    breakdown;
    energy_j;
    counters;
    tracks;
  }

(* The one runner behind every backend: [f] runs with the set's hooks on
   the interpreter the config names. With [overlapped] (hetero) it runs
   through the schedule recorder, which is the same run with each
   top-level op costed and its device events recorded. *)
let execute ?modul ~config ~backend_name ~host_model ~overlapped machines f args =
  let results, profile, summary =
    with_span ~config ("execute:" ^ backend_name) @@ fun () ->
    if overlapped then
      let host_cost p = (Cpu.Model.estimate host_model p).Cpu.Model.time_s in
      let o = Stream_exec.run ~config ?modul ~host_cost ~machines f args in
      (o.Stream_exec.results, o.Stream_exec.profile, Some o.Stream_exec.summary)
    else
      let results, profile =
        Compile.run_func ~hooks:(Machine_set.hooks machines) ?modul ~config f args
      in
      (results, profile, None)
  in
  let r = report ~backend_name ~host_model ~profile ?summary machines in
  Machine_set.recycle machines;
  (results, r)

(* Run an already-lowered upmem-level function on a UPMEM machine of a
   given simulator config (the hand-written PrIM baselines and the bench
   harness's scaled machines). *)
let run_upmem_func ?(backend_name = "upmem") ?(host_model = Cpu.Model.xeon_opt) ?modul
    ?(config = Config.default ()) ~sim_config f args =
  let machines =
    (* [sim_config] replaces the UPMEM geometry of the default backend *)
    Machine_set.create ~faults:config.Config.faults ~upmem:sim_config
      (Backend.Upmem (Backend.default_upmem ()))
  in
  execute ?modul ~config ~backend_name ~host_model ~overlapped:false machines f args

let run ?(fname = "") ?host_model ?(config = Config.default ()) (compiled : compiled)
    (args : Rtval.t list) : Rtval.t list * Report.t =
  let f =
    match fname with
    | "" -> List.hd compiled.modul.Func.funcs
    | name -> Func.find_func_exn compiled.modul name
  in
  (* a failed device lowering left the scf CPU lowering in the module:
     it runs on the host interpreter *)
  let backend, suffix =
    match compiled.fallback with
    | Some _ -> (Backend.Host_xeon, "+cpu-fallback")
    | None -> (compiled.backend, "")
  in
  execute ~modul:compiled.modul ~config
    ~backend_name:(Backend.to_string compiled.backend ^ suffix)
    ~host_model:(Option.value host_model ~default:(default_host_model backend))
    ~overlapped:(match backend with Backend.Hetero _ -> true | _ -> false)
    (Machine_set.create ~faults:config.Config.faults backend)
    f args

(* Compile and run in one step (used by examples and the bench harness). *)
let compile_and_run ?verify ?fallback ?host_model ?(config = Config.default ()) backend f
    args =
  let compiled = compile_func ?verify ?fallback ~config backend (Func.clone f) in
  match run ?host_model ~config compiled args with
  | result -> result
  | exception Usim.Machine.Insufficient_capacity msg
    when fallback <> Some false ->
    (* a fault plan failed more DPUs than the allocation can absorb:
       like a compile-time lowering failure, degrade the request to the
       host rather than losing it — only this typed capacity error is
       caught, so genuine kernel bugs still surface *)
    Log.warn "%s; degrading to host execution" msg;
    let m = Func.create_module () in
    Func.add_func m (Func.clone f);
    let diag = { Pass.pass = "execute"; op = None; message = msg } in
    run ?host_model ~config (cpu_fallback ?verify ~config backend diag m) args
