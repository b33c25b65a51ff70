(* Analytic host-CPU timing models, driven by the interpreter's execution
   profile (so CPU "time" reflects work the program actually performed).

   Two baselines, matching the paper's evaluation (§4.1):
   - [xeon_opt]: the Intel Xeon E5-2630 v2 `cpu-opt` configuration
     (12 cores x 2.6 GHz, vectorized and parallelized). PrIM-class
     workloads are memory-bound on CPUs, so time is a roofline:
     max(compute, memory traffic / bandwidth).
   - [arm_inorder]: the in-order ARMv8 host of the OCC/gem5 setup used as
     the CIM baseline: single issue, no SIMD. *)

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

(* Scale a CPU model's throughput (cores/bandwidth/power) by [s]. Used by
   the benchmark harness, which simulates a 1/s-scale UPMEM machine and
   must scale the competing CPU identically so speedup ratios match the
   full-size comparison. *)
let scaled s m =
  {
    m with
    model_name = Printf.sprintf "%s (x%.3g scale)" m.model_name s;
    cores = m.cores *. s;
    mem_bandwidth = m.mem_bandwidth *. s;
    power_w = m.power_w *. s;
  }

let xeon_opt =
  {
    model_name = "cpu-opt (Xeon E5-2630v2, icx -O3)";
    freq_hz = 2.6e9;
    cores = 12.0;
    simd_width = 4.0;
    ipc = 2.0;
    cycles_mul = 1.0;
    cycles_div = 8.0;
    (* effective streaming bandwidth of the 2013 Ivy Bridge EP part on
       PrIM-class access patterns (NUMA- and pattern-limited), not the
       theoretical channel peak *)
    mem_bandwidth = 40e9;
    (* PrIM-class workloads stream their data: no cache reuse *)
    cache_reuse = 0.0;
    power_w = 95.0;
  }

let arm_inorder =
  {
    model_name = "arm (in-order ARMv8, gem5 baseline)";
    freq_hz = 2.0e9;
    cores = 1.0;
    simd_width = 1.0;
    ipc = 1.0;
    cycles_mul = 3.0;
    cycles_div = 12.0;
    mem_bandwidth = 12.8e9;
    cache_reuse = 0.7;
    power_w = 2.5;
  }

type result = { time_s : float; energy_j : float; compute_s : float; memory_s : float }

let estimate (m : t) (p : Profile.t) : result =
  let fl = float_of_int in
  let op_cycles =
    fl p.Profile.alu_ops
    +. (fl p.Profile.mul_ops *. m.cycles_mul)
    +. (fl p.Profile.div_ops *. m.cycles_div)
  in
  let compute_s = op_cycles /. (m.freq_hz *. m.cores *. m.simd_width *. m.ipc) in
  let dram_bytes = fl ((p.Profile.loads + p.Profile.stores) * 4) *. (1.0 -. m.cache_reuse) in
  let memory_s = dram_bytes /. m.mem_bandwidth in
  let time_s = Float.max compute_s memory_s in
  { time_s; energy_j = time_s *. m.power_w; compute_s; memory_s }
