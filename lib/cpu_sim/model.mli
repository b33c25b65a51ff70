(** Analytic host-CPU timing models, driven by the interpreter's execution
    profile. Two baselines, matching the paper's evaluation (§4.1):
    [xeon_opt] (the `cpu-opt` configuration) and [arm_inorder] (the
    in-order ARMv8 host of the OCC/gem5 CIM setup). *)

open Cinm_interp

type t = {
  model_name : string;
  freq_hz : float;
  cores : float;
  simd_width : float;  (** 32-bit lanes per op *)
  ipc : float;  (** sustained scalar-op issue rate per core *)
  cycles_mul : float;
  cycles_div : float;
  mem_bandwidth : float;  (** bytes/s, shared across cores *)
  cache_reuse : float;  (** fraction of accesses served by caches *)
  power_w : float;  (** package power while active *)
}

(** Scale a model's throughput (cores, bandwidth, power) by [s]; used with
    the 1/16-scale UPMEM machine so speedup ratios match full size. *)
val scaled : float -> t -> t

val xeon_opt : t
val arm_inorder : t

type result = { time_s : float; energy_j : float; compute_s : float; memory_s : float }

(** Roofline estimate: max(compute time, DRAM traffic / bandwidth). *)
val estimate : t -> Profile.t -> result
