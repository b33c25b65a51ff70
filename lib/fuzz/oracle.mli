(** The differential oracle matrix.

    One generated module, one seed, many executions that must agree:

    - [compiled]: closure-compiling interpreter vs the tree walker;
    - [arm] / [upmem] / [cim] / [hetero]: each device backend vs the
      CPU reference (the driver's CPU fallback is legal and invisible
      here — it must still produce the reference answer); [hetero] also
      runs on the compiled interpreter, which must give the same outcome
      and report, and both reports must keep the schedule's bounds
      ([max_channel_busy <= e2e_overlapped <= e2e_sequential]);
    - [jobs]: the UPMEM simulation at [--jobs 1] vs [--jobs N], results
      {e and} deterministic report counters;
    - [strict]: verify + print→parse→print fixpoint after every pass
      must not change the answer (or crash);
    - [faults]: a deterministic fault plan vs fault-free — retry/remap
      must make injected faults result-transparent.

    Any divergence — differing tensors, one side raising, counter drift —
    is a mismatch. *)

open Cinm_ir
open Cinm_interp
module Backend = Cinm_core.Backend
module Report = Cinm_core.Report

type outcome = Vals of Rtval.t list | Fail of string

val outcome_to_string : outcome -> string

(** NaN-aware runtime-value equality ([0.0] = [-0.0], NaNs equal). *)
val rt_equal : Rtval.t -> Rtval.t -> bool

(** Run [m]'s first function under one configuration; all failures fold
    into the outcome. [seed] drives the synthesized argument values. *)
val run_module :
  backend:Backend.t ->
  ?interp:string ->
  ?strict:bool ->
  ?faults:Cinm_support.Fault.plan option ->
  ?jobs:int ->
  seed:int ->
  Func.modul ->
  outcome * Report.t option

(** [exec_outcome] as a stable string — the interestingness currency of
    [cinm_reduce --exec] (two configurations are "interesting" when
    their outcome strings differ). *)
val exec_outcome :
  backend:Backend.t ->
  ?interp:string ->
  ?faults:Cinm_support.Fault.plan option ->
  ?seed:int ->
  Func.modul ->
  string

(** Backends by CLI name: host | arm | upmem | cim | hetero (small
    simulator configurations, sized for reduction loops). *)
val backend_of_name : string -> (Backend.t, string) result

(** The deterministic per-seed fault plan the [faults] axis injects
    (permanent + transient DPU failures at the campaign rates). *)
val fault_plan : int -> Cinm_support.Fault.plan

type mismatch = { axis : string; detail : string }

(** The axes [check_seed] runs, in order. *)
val axes : string list

(** Re-check a single axis on module text (the shrink predicate). When
    [inject] is set, the [compiled] axis reports a synthetic mismatch on
    any module containing [cinm.gemm] — the known-bug fixture for
    exercising the shrink pipeline end to end. *)
val check_axis :
  ?inject:bool -> ?jobs_alt:int -> axis:string -> seed:int -> string ->
  mismatch option

(** The full matrix on one generated module's text. *)
val check_seed :
  ?inject:bool -> ?jobs_alt:int -> seed:int -> string -> mismatch list
