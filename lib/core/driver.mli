(** The end-to-end CINM compiler driver: assembles the progressive-lowering
    pipeline of paper Fig. 4 for a chosen backend, compiles modules, and
    executes them on the corresponding simulator. *)

open Cinm_ir
open Cinm_interp
module Usim = Cinm_upmem_sim
module Cpu = Cinm_cpu_sim

(** The pass pipeline for a backend (host: front-end only; upmem:
    tosa→linalg→cinm→cnm→upmem; cim: …→cim→memristor with unroll/LICM;
    hetero: …→cinm→partition, then the cim and the upmem lowerings). *)
val pipeline : Backend.t -> Pass.t list

type compiled = {
  modul : Func.modul;
  backend : Backend.t;
  fallback : Pass.diag option;
      (** set when the device lowering failed and the module was
          re-lowered to scf loops for the host instead *)
}

(** Lower a module for the backend. With [fallback] (default on), a device
    lowering failure degrades gracefully: the diagnostic is reported on
    stderr and a pristine clone of the module is lowered via cinm→scf for
    the CPU (so [compiled.modul] is then that clone, and {!run} executes
    it on the host interpreter). With [~fallback:false] — or when
    verification fails on a host backend — {!Pass.Pass_failed} is
    raised.

    [config] is a per-request {!Cinm_support.Config} snapshot threaded
    through the pass pipelines (strict/budget/reproducers) and, in the
    run entry points below, the interpreter (watchdog/deadline/cancel/
    backend) and the machine simulators (fault plan; [None] =
    fault-free). Omitted, {!Cinm_support.Config.default} applies — the
    one-shot CLI behavior. *)
val compile :
  ?verify:bool -> ?fallback:bool -> ?config:Cinm_support.Config.t -> Backend.t ->
  Func.modul -> compiled

val compile_func :
  ?verify:bool -> ?fallback:bool -> ?config:Cinm_support.Config.t -> Backend.t ->
  Func.t -> compiled

(** UPMEM simulator configuration corresponding to a backend config. *)
val upmem_sim_config : Backend.upmem_config -> Usim.Config.t

(** Run an already-lowered upmem-level function on a UPMEM machine built
    from [sim_config], through the same runner and report builder as
    {!run} (also used directly by the hand-written PrIM baselines).
    [host_model] defaults to the Xeon [cpu-opt] model. *)
val run_upmem_func :
  ?backend_name:string ->
  ?host_model:Cpu.Model.t ->
  ?modul:Func.modul ->
  ?config:Cinm_support.Config.t ->
  sim_config:Usim.Config.t ->
  Func.t ->
  Rtval.t list ->
  Rtval.t list * Report.t

(** Execute a compiled module's function ([fname] defaults to the first)
    on the backend's simulators ({!Machine_set.create}); returns results
    and the report, built from the simulators' stats alone. The host side
    is costed on [host_model], by default [cpu-opt] for the Xeon host,
    UPMEM and a CPU fallback, and the in-order ARM core for the ARM host,
    CIM and hetero. *)
val run :
  ?fname:string ->
  ?host_model:Cpu.Model.t ->
  ?config:Cinm_support.Config.t ->
  compiled ->
  Rtval.t list ->
  Rtval.t list * Report.t

(** Compile a clone of the function and run it in one step. *)
val compile_and_run :
  ?verify:bool ->
  ?fallback:bool ->
  ?host_model:Cpu.Model.t ->
  ?config:Cinm_support.Config.t ->
  Backend.t ->
  Func.t ->
  Rtval.t list ->
  Rtval.t list * Report.t
