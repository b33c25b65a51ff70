(** UPMEM machine simulator: interpreter hooks for the upmem dialect.
    Kernels are executed per (DPU, tasklet) on real data; the timing model
    (PrIM-calibrated) converts the execution profiles to time:

    - pipeline: with T resident tasklets the aggregate issue rate is
      min(1, T/11) instructions per cycle;
    - MRAM<->WRAM DMA: fixed setup cost per transfer plus a per-byte cost,
      serialized per DPU;
    - host transfers: parallel across active DIMMs;
    - a launch costs the slowest DPU plus a fixed dispatch overhead.

    With a {!Cinm_support.Fault} plan installed the machine is
    fault-tolerant: permanently-failed DPUs are masked out of workgroups
    at allocation, transient launch failures are retried with capped
    exponential backoff in simulated time, and a DPU that exhausts its
    retries has its work remapped to a spare — all before the kernel
    runs, so numeric results equal the fault-free run and only
    {!Stats.t.retries} / {!Stats.t.failed_dpus} / {!Stats.t.remap_s}
    change. Fault decisions are pure functions of the plan's seed, making
    them byte-identical for any job count. *)

open Cinm_ir
open Cinm_interp

(** A kernel failure on one lane. The launch captures per-DPU outcomes and
    re-raises the lowest-numbered DPU's failure, independent of how the
    domain pool scheduled the DPUs. *)
exception Dpu_failed of { dpu : int; launch : int; message : string }

(** Raised by DPU allocation when a fault plan has permanently failed so
    many physical DPUs that the request cannot be satisfied even after
    spilling across ranks. The driver degrades exactly this failure to
    host execution. *)
exception Insufficient_capacity of string

type t = {
  config : Config.t;
  stats : Stats.t;
  entries : (int, entry) Hashtbl.t;
  mutable next : int;
  mutable mram_used_per_dpu : int;  (** bytes of MRAM allocated per DPU *)
  faults : Cinm_support.Fault.plan option;
  mutable launch_seq : int;
  mutable scatter_seq : int;
  spare_cursors : int array;
      (** per rank: spares are taken from the failed DPU's own rank, so
          each rank is an independent fault domain *)
  masked : (int, unit) Hashtbl.t;
  mutable trace_pid : int;
      (** the machine's {!Cinm_support.Trace} device pid; [0] until the
          first event is emitted with tracing on. With tracing live the
          machine emits its timing as device-clock spans — scatter/gather
          on the ["xfer"] track, per-launch kernel and retry-backoff spans
          on ["rank"], per-DPU compute/DMA lane spans on ["dpu<i>"], and
          fault instants (transient failures, remaps, MRAM bit flips) on
          the lane they hit. Span durations equal the stats-bucket
          increments, added in the same order, so
          {!Cinm_support.Trace.device_total} reproduces the stats fields
          bit for bit. All events are emitted host-side, never from pool
          domains: the device track is identical for any [--jobs]. *)
  lanes : Profile.t;
      (** the sum of every DPU profile (its tasklets' work) of every
          completed launch: the work the kernels did, whichever
          interpreter ran them *)
}

and entry

val create : ?faults:Cinm_support.Fault.plan option -> Config.t -> t
(** [faults] defaults to {!Cinm_support.Fault.default} (the [CINM_FAULTS]
    plan, if any); pass [~faults:None] to force a fault-free machine. *)

(** The interpreter hook implementing the host-side upmem.* ops (and the
    cnm.alloc/cnm.wait ops that survive lowering); the ops a DPU lane
    runs itself are {!Interp} builtins. It accounts into {!t.stats} and
    keeps no schedule-event log: the hetero schedule recorder wraps it and
    costs each scatter, launch and gather by the increment of
    {!Stats.total_s}. [upmem.launch] runs each DPU's tasklets one after
    another on one lane context and profile with no hooks, so the hook is
    never entered from a lane. *)
val hook : t -> Interp.hook

(** Return every device buffer's storage to the {!Tensor.Arena}, for the
    end of a run. Callers must guarantee no live value aliases device
    memory — gathers copy out, so host results never do. *)
val recycle : t -> unit

(** Run a lowered host function on this machine. *)
val run : t -> Func.t -> Rtval.t list -> Rtval.t list * Stats.t
