(** Multi-stream schedule recorder for the {!Backend.Hetero} backend: runs
    a lowered module across the UPMEM, memristor and CAM/RTM simulators
    plus the host interpreter, and merges their simulated time into one
    coherent overlapped schedule.

    The function runs through {!Cinm_interp.Compile.run_body}: its
    top-level ops in program order on one context, under the context's
    interpreter, with one watchdog budget for the whole run. For the run,
    the recorder wraps each machine's hook and logs one schedule event per
    timed device op, costed by the increment of that machine's busy
    clock; the machines keep no event log. Each top-level op is a
    schedule node, with its own profile (costed as a host event) and the
    events the machines' hooks logged while it ran.
    Node dependencies are SSA values (including region captures) and
    shared memref storage (chased through view aliases). Results, machine
    stats and schedules are the same at any job count and under either
    interpreter. *)

open Cinm_ir
open Cinm_interp

(** The simulators the nodes drive. *)
type machines = Machine_set.t

type outcome = {
  results : Rtval.t list;
  profile : Profile.t;  (** the per-node profiles, summed *)
  summary : Cinm_support.Schedule.summary;
      (** overlapped + sequential makespans and per-machine tracks of this
          run's device events, host work included as "cpu" events costed
          by [host_cost] *)
  schedule : Cinm_support.Schedule.node list;
      (** the merged event DAG the summary was computed from, in program
          order — feed to {!Cinm_support.Schedule.timeline} for a placed
          per-event trace *)
}

val run :
  ?config:Cinm_support.Config.t ->
  ?modul:Func.modul ->
  host_cost:(Profile.t -> float) ->
  machines:machines ->
  Func.t ->
  Rtval.t list ->
  outcome
