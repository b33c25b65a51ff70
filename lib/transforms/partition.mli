(** Heterogeneous multi-device partitioner (paper §3.2.2/§3.3): a
    dependency-aware generalization of {!Target_select} that schedules a
    function's cinm ops across UPMEM, the memristor crossbar, the CAM/RTM
    engines and the host CPU simultaneously, using HEFT-style list
    scheduling in program order over one {!Cost_model} set built from the
    backend geometry, with host-staged transfer costs.

    Each scheduled op is annotated with ["target"] (what the existing
    lowerings dispatch on), and the function with a one-line ["partition"]
    summary ("cpu=1 upmem=2 ... est_speedup=1.80x").

    The plan is a pure function of the module: byte-identical at any job
    count and for tree and compiled interpreters. *)

(** The backend geometry the cost models assume. *)
type policy = {
  upmem_dpus : int;  (** DPU grid of the cnm model *)
  cim_rows : int;  (** crossbar tile of the cim model *)
  cim_cols : int;
}

type assignment = {
  a_op : string;
  a_oid : int;
  a_device : string;  (** ["cpu"|"upmem"|"memristor"|"cam"] *)
  a_est_s : float;  (** cost-model estimate on the chosen device *)
  a_xfer_in_bytes : int;  (** operand bytes staged from other devices *)
  a_start_s : float;
  a_finish_s : float;
}

type plan = {
  assignments : assignment list;
  per_device : (string * int) list;  (** ops per device, fixed order *)
  est_makespan_s : float;  (** last estimated finish across devices *)
  est_sequential_s : float;  (** single-stream sum of the same estimates *)
}

(** Annotate the function's top-level cinm ops in place (and record the
    ["partition"] fattr) and return the schedule. *)
val run_on_func : policy -> Cinm_ir.Func.t -> plan

(** Plan of the module's first function (modules here are single-func),
    computed on a clone: the input is left unannotated. *)
val plan_module : policy -> Cinm_ir.Func.modul -> plan

val pass : policy -> Cinm_ir.Pass.t
