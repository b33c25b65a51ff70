(** Async multi-stream executor for the {!Backend.Hetero} backend: runs a
    lowered module across the UPMEM, memristor and CAM/RTM simulators plus
    the host interpreter simultaneously, on the shared
    {!Cinm_support.Pool}, and merges the machines' simulated-time event
    logs into one coherent overlapped schedule.

    Nodes are the function's top-level ops; dependencies are SSA values
    (including region captures), shared memref storage (chased through
    view aliases), and per-machine program-order chains — the chains are
    what make machine stats, event logs and therefore the schedule
    bit-identical at any job count. [sequential] executes the same
    per-node contexts in program order on the calling domain only; it
    changes wall-clock behavior, never results or simulated numbers. *)

open Cinm_ir
open Cinm_interp

(** The simulators the nodes drive; a node whose ops target a machine
    the set lacks fails with [Invalid_argument]. *)
type machines = Machine_set.t

type outcome = {
  results : Rtval.t list;
  profile : Profile.t;  (** merged per-node profiles, in program order *)
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
  ?sequential:bool ->
  ?dma_depth:int ->
  host_cost:(Profile.t -> float) ->
  machines:machines ->
  Func.t ->
  Rtval.t list ->
  outcome
