(* The traced twins of Driver.compile and Driver.run.

   They call the same public layer functions the driver calls, one layer
   at a time, so the benchmark can open a span around each: the pass
   pipeline runs pass by pass with Pass.run_one_result, and the device
   machines are created here so their interpreter hooks can be timed.
   The traced set-up checks both against the driver (same printed
   lowering, same report numbers), so a drift between the two shows up
   as a failed run rather than as a silently different measurement. *)

open Cinm_ir
open Cinm_core
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Camsim = Cinm_cam_sim
module Cpu = Cinm_cpu_sim
module Compile = Cinm_interp.Compile
module Profile = Cinm_interp.Profile
module Interp = Cinm_interp.Interp

(* What one item run must reproduce exactly on every pass and in the
   traced run: the report's simulated numbers and the lowered code size. *)
type det = {
  total_s : float;
  energy_j : float;
  host_s : float;
  code_ops : int;
  fallback : bool;
  counters : (string * int) list;  (** sorted by name *)
  breakdown : (string * float) list;
}

let det_of_report (c : Driver.compiled) (r : Report.t) =
  {
    total_s = r.Report.total_s;
    energy_j = r.Report.energy_j;
    host_s = r.Report.host_s;
    code_ops = Pass.count_ops c.Driver.modul;
    fallback = c.Driver.fallback <> None;
    counters = List.sort compare r.Report.counters;
    breakdown = r.Report.breakdown;
  }

(* Bitwise on the floats: a host-only change must not move them at all. *)
let same_det a b =
  Int64.equal (Int64.bits_of_float a.total_s) (Int64.bits_of_float b.total_s)
  && Int64.equal (Int64.bits_of_float a.energy_j) (Int64.bits_of_float b.energy_j)
  && a.code_ops = b.code_ops && a.fallback = b.fallback && a.counters = b.counters

(* Extra observations the traced set-up collects once per item. *)
type probe = {
  ops_out : (string, int) Hashtbl.t;  (** pass name -> Σ op count after it *)
  mutable text_bytes : int;  (** printed lowered modules *)
  mutable host_scalar_ops : int;  (** interpreter profile, host side *)
  mutable items : int;
}

let new_probe () =
  { ops_out = Hashtbl.create 32; text_bytes = 0; host_scalar_ops = 0; items = 0 }

(* Pass by pass through Driver.pipeline. A failing device lowering falls
   back exactly as the driver does — by handing a pristine module from
   [fresh] to Driver.compile, inside the driver span. *)
let compile sp ?probe ~config backend (m : Func.modul) ~fresh : Driver.compiled =
  Span.with_ sp "driver.compile" @@ fun () ->
  let rec go = function
    | [] -> true
    | (p : Pass.t) :: rest -> (
      match
        Span.with_ sp ("transforms." ^ p.Pass.pass_name) (fun () ->
            Pass.run_one_result ~config p m)
      with
      | Ok () ->
        Option.iter
          (fun pr ->
            let k = p.Pass.pass_name in
            Hashtbl.replace pr.ops_out k
              (Pass.count_ops m + Option.value ~default:0 (Hashtbl.find_opt pr.ops_out k)))
          probe;
        go rest
      | Error d -> (
        match backend with
        | Backend.Host_xeon | Backend.Host_arm -> raise (Pass.Pass_failed d)
        | _ -> false))
  in
  if go (Driver.pipeline backend) then { Driver.modul = m; backend; fallback = None }
  else Driver.compile ~config backend (fresh ())

(* Outermost-call hook timer. The UPMEM hook re-enters itself from the
   kernel lanes it runs (on this domain and on pool domains), so only
   the call that enters from host code on the main domain is timed. *)
let in_hook = ref false

let timed_hook sp name (h : Interp.hook) : Interp.hook =
 fun ctx op args ->
  if (not (Domain.is_main_domain ())) || !in_hook then h ctx op args
  else begin
    in_hook := true;
    Fun.protect
      ~finally:(fun () -> in_hook := false)
      (fun () -> Span.with_ sp name (fun () -> h ctx op args))
  end

let host_det ~code_ops ~fallback model profile =
  let est = Cpu.Model.estimate model profile in
  {
    total_s = est.Cpu.Model.time_s;
    energy_j = est.Cpu.Model.energy_j;
    host_s = est.Cpu.Model.time_s;
    code_ops;
    fallback;
    counters = [ ("ops", Profile.total_scalar_ops profile) ];
    breakdown = [];
  }

(* Driver.run, one layer at a time. Hetero items go through Driver.run
   whole: the multi-stream executor runs nodes on pool domains, where a
   per-hook timer cannot attribute time to one item. *)
let run sp ?probe ~config (c : Driver.compiled) args : Cinm_interp.Rtval.t list * det =
  Span.with_ sp "driver.run" @@ fun () ->
  let f = List.hd c.Driver.modul.Func.funcs in
  let code_ops = Pass.count_ops c.Driver.modul in
  let exec ?hooks ?profile () =
    let results, profile =
      Span.with_ sp "interp.run" (fun () ->
          Compile.run_func ?hooks ?profile ~modul:c.Driver.modul ~config f args)
    in
    Option.iter
      (fun pr -> pr.host_scalar_ops <- pr.host_scalar_ops + Profile.total_scalar_ops profile)
      probe;
    (results, profile)
  in
  match (c.Driver.fallback, c.Driver.backend) with
  | Some _, _ | None, Backend.Host_xeon ->
    let results, profile = exec () in
    (results, host_det ~code_ops ~fallback:(c.Driver.fallback <> None) Cpu.Model.xeon_opt profile)
  | None, Backend.Host_arm ->
    let results, profile = exec () in
    (results, host_det ~code_ops ~fallback:false Cpu.Model.arm_inorder profile)
  | None, Backend.Upmem u ->
    let machine = Usim.Machine.create ~faults:None (Driver.upmem_sim_config u) in
    let results, profile =
      exec
        ~hooks:[ timed_hook sp "upmem_sim.hook" (Usim.Machine.hook machine) ]
        ~profile:(Profile.create ()) ()
    in
    let stats = machine.Usim.Machine.stats in
    let host = Cpu.Model.estimate Cpu.Model.xeon_opt profile in
    let device_s = Usim.Stats.total_s stats in
    Usim.Machine.recycle machine;
    ( results,
      {
        total_s = host.Cpu.Model.time_s +. device_s;
        energy_j = stats.Usim.Stats.energy_j +. host.Cpu.Model.energy_j;
        host_s = host.Cpu.Model.time_s;
        code_ops;
        fallback = false;
        counters =
          List.sort compare
            [
              ("launches", stats.Usim.Stats.launches);
              ("dpu_instructions", stats.Usim.Stats.dpu_instructions);
              ("dma_bytes", stats.Usim.Stats.dma_bytes);
              ("transferred_bytes", stats.Usim.Stats.transferred_bytes);
            ];
        breakdown = [];
      } )
  | None, Backend.Cim ci ->
    let machine =
      Msim.Machine.create ~faults:None
        {
          (Msim.Config.default ~tiles:ci.Backend.tiles ()) with
          Msim.Config.rows = ci.Backend.rows;
          cols = ci.Backend.cols;
        }
    in
    let cam = Camsim.Cam_machine.create (Camsim.Cam_machine.default_config ()) in
    let results, profile =
      exec
        ~hooks:
          [
            timed_hook sp "memristor_sim.hook" (Msim.Machine.hook machine);
            timed_hook sp "cam_sim.hook" (Camsim.Cam_machine.hook cam);
          ]
        ~profile:(Profile.create ()) ()
    in
    let stats = machine.Msim.Machine.stats in
    let cs = cam.Camsim.Cam_machine.stats in
    let host = Cpu.Model.estimate Cpu.Model.arm_inorder profile in
    let device_s = Msim.Stats.total_s stats +. cs.Camsim.Cam_machine.busy_s in
    Msim.Machine.recycle machine;
    ( results,
      {
        total_s = host.Cpu.Model.time_s +. device_s;
        energy_j =
          stats.Msim.Stats.energy_j +. cs.Camsim.Cam_machine.energy_j
          +. host.Cpu.Model.energy_j;
        host_s = host.Cpu.Model.time_s;
        code_ops;
        fallback = false;
        counters =
          List.sort compare
            [
              ("crossbar_writes", stats.Msim.Stats.store_ops);
              ("cells_written", stats.Msim.Stats.cells_written);
              ("mvms", stats.Msim.Stats.mvms);
              ("cam_searches", cs.Camsim.Cam_machine.cam_searches);
              ("rtm_reads", cs.Camsim.Cam_machine.rtm_reads);
            ];
        breakdown = [];
      } )
  | None, Backend.Hetero _ ->
    let results, r = Span.with_ sp "stream_exec.run" (fun () -> Driver.run ~config c args) in
    (results, det_of_report c r)
