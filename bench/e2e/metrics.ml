(* Metric names and units: the end-to-end set every untraced run prints
   and the per-layer set every traced run prints (BENCHMARK.json lists
   the same names; the bench-smoke alias checks that they agree).

   Per-layer "_s" metrics are self times in seconds per item: a span's
   duration minus its children's, averaged over the traced items, so
   that all of them plus unattributed_s add up to the mean item time.
   Counts and simulated quantities are summed over one pass of the item
   set and repeat exactly from run to run. *)

let e2e =
  [
    ("setup_s", "s");
    ("ops_per_s", "items/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_rss_mb", "MB");
    ("sim_s", "sim-s");
    ("code_ops", "ops");
  ]

(* The passes of Driver.pipeline, across all backends. *)
let passes =
  [
    "torch-to-tosa"; "tosa-to-linalg"; "linalg-to-cinm"; "cinm-target-select";
    "cinm-partition"; "cinm-ew-fusion"; "cinm-to-cam"; "cinm-to-rtm"; "cinm-to-cim";
    "loop-unroll"; "cim-assign-tiles"; "cim-to-memristor"; "licm"; "cinm-to-cnm";
    "cnm-to-upmem"; "canonicalize";
  ]

let layers =
  [ ("ir.parse_s", "s/item"); ("ir.print_s", "s/item"); ("ir.text_kb", "KB/item") ]
  @ List.concat_map
      (fun p -> [ ("transforms." ^ p ^ ".s", "s/item"); ("transforms." ^ p ^ ".ops_out", "ops") ])
      passes
  @ [
      ("driver.compile_s", "s/item");
      ("driver.run_s", "s/item");
      ("driver.fallbacks", "count");
      ("interp.host_s", "s/item");
      ("interp.host_scalar_ops", "ops");
      ("interp.code_cache.hits", "count");
      ("interp.code_cache.misses", "count");
      ("interp.code_cache.hit_ratio", "ratio");
      ("tensor.arena.pooled", "count");
      ("upmem_sim.hook_s", "s/item");
      ("upmem_sim.launches", "count");
      ("upmem_sim.dpu_instructions", "count");
      ("upmem_sim.ns_per_dpu_instruction", "ns");
      ("upmem_sim.dma_bytes", "B");
      ("upmem_sim.transferred_bytes", "B");
      ("upmem_sim.kernel_sim_s", "sim-s");
      ("upmem_sim.transfer_sim_s", "sim-s");
      ("memristor_sim.hook_s", "s/item");
      ("memristor_sim.mvms", "count");
      ("memristor_sim.ns_per_mvm", "ns");
      ("memristor_sim.cells_written", "count");
      ("memristor_sim.crossbar_writes", "count");
      ("memristor_sim.program_sim_s", "sim-s");
      ("memristor_sim.mvm_sim_s", "sim-s");
      ("memristor_sim.io_sim_s", "sim-s");
      ("cam_sim.hook_s", "s/item");
      ("cam_sim.searches", "count");
      ("cam_sim.rtm_reads", "count");
      ("cpu_sim.host_sim_s", "sim-s");
      ("stream_exec.run_s", "s/item");
      ("schedule.overlapped_sim_s", "sim-s");
      ("schedule.sequential_sim_s", "sim-s");
      ("schedule.overlap_ratio", "ratio");
      ("benchmarks.build_s", "s/item");
      ("benchmarks.check_s", "s/item");
      ("sim.energy_j", "J");
      ("runtime.cpu_s", "s/item");
      ("runtime.minor_words_per_item", "words");
      ("runtime.major_collections", "count");
      ("runtime.top_heap_mb", "MB");
      ("serve.encode_s", "s/item");
      ("serve.rpc_s", "s/item");
      ("serve.decode_s", "s/item");
      ("serve.request_mean_ms", "ms");
      ("serve.queue_wait_mean_ms", "ms");
      ("serve.compile_mean_ms", "ms");
      ("serve.execute_mean_ms", "ms");
      ("serve.request_p95_ms", "ms");
      ("serve.execute_p95_ms", "ms");
      ("serve.transport_mean_ms", "ms");
      ("serve.pipeline_cache.hit_ratio", "ratio");
      ("serve.pool_utilization", "ratio");
      ("unattributed_s", "s/item");
      ("trace_overhead", "ratio");
    ]

(* The per-layer metric a span's self time is reported under. *)
let of_span = function
  | "item" -> "unattributed_s"
  | "interp.run" -> "interp.host_s"
  | name when String.starts_with ~prefix:"transforms." name -> name ^ ".s"
  | name -> name ^ "_s"
