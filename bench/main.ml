(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4). Each experiment prints the series the paper
   reports together with the paper's own numbers so the shape comparison
   is immediate.

   UPMEM experiments run on a 1/16-scale machine model (8 instead of 128
   DPUs per DIMM, with host bandwidth, dispatch overhead and the competing
   CPU scaled identically), so that the functional simulation of every DPU
   stays tractable while all speedup ratios match the full-size
   comparison. The CIM experiments run the accelerator at full scale (it
   has only 4 tiles). See EXPERIMENTS.md.

   Usage: main.exe [fig10|fig10-energy|fig11|fig12|tab4|tab5|dialects|bechamel|all]
          main.exe [hetero|scaling] (heterogeneous partitioning across
                                     cpu+upmem+memristor+cam with
                                     DMA/compute overlap, and the
                                     multi-rank UPMEM scaling sweep; not
                                     part of "all" — the single-device
                                     baselines above pin their own
                                     benchmark lists)
          main.exe --quick ...      (smaller inputs, for CI)
          main.exe --jobs N ...     (simulation domains; default CINM_JOBS
                                     or the machine's core count; 0 =
                                     auto-detect, same as unset)
          main.exe --json FILE ...  (write per-experiment wall-clock and
                                     simulated seconds for regression
                                     tracking; experiments that run the
                                     hetero schedule recorder also record
                                     per-machine compute/dma/idle tracks)
          main.exe --interp NAME .. (interpreter backend, tree|compiled;
                                     default CINM_INTERP or tree)
          main.exe --strict ...     (verify + print->parse->print fixpoint
                                     after every pass, CINM_STRICT=1
                                     equivalent; --json output unchanged)
          main.exe --trace FILE ... (Chrome trace-event JSON: compile
                                     passes and per-device simulated
                                     timelines; open in ui.perfetto.dev)
          main.exe --metrics ...    (collect the telemetry registry and
                                     dump it to stderr at exit; report
                                     and --json minus wall_s are
                                     byte-identical either way)
          main.exe --faults SPEC --seed N
                                    (seeded fault injection, e.g.
                                     dpu_fail=0.05; the retry/remap runtime
                                     must still reproduce fault-free
                                     results, and every benchmark checks
                                     its output against the host)
*)

open Cinm_ir
open Cinm_core
open Cinm_benchmarks
module Usim = Cinm_upmem_sim
module Cpu = Cinm_cpu_sim

let () = Cinm_dialects.Registry.ensure_all ()

let machine_scale = 1.0 /. 16.0
let scaled_dpus_per_dimm = 8

let quick = ref false

(* ----- measurement accounting (--json) ----- *)

(* Simulated seconds and run counts accumulate while an experiment
   executes; [timed] snapshots them per experiment and --json dumps the
   records for regression tracking across PRs. *)
let sim_s_acc = ref 0.0
let sim_runs_acc = ref 0

(* Per-machine simulated-time tracks (hetero runs only),
   summed across the runs of one experiment in first-appearance order.
   Empty for the single-device experiments, whose --json records are
   byte-identical to before the field existed. *)
let tracks_acc : (string * (float * float * float)) list ref = ref []

(* Named per-benchmark scalars an experiment wants pinned in --json (the
   hetero overlap ratios, the per-rank scaling curve). Experiments that
   never call [note_series] keep their records byte-identical. *)
let series_acc : (string * float) list ref = ref []

let note_series name v = series_acc := !series_acc @ [ (name, v) ]

let note_report (r : Report.t) =
  sim_s_acc := !sim_s_acc +. r.Report.total_s;
  incr sim_runs_acc;
  let module Sched = Cinm_support.Schedule in
  List.iter
    (fun (t : Sched.track) ->
      let m = t.Sched.tr_machine in
      let c, d, i =
        Option.value ~default:(0.0, 0.0, 0.0) (List.assoc_opt m !tracks_acc)
      in
      let entry =
        ( m,
          ( c +. t.Sched.tr_compute_s,
            d +. t.Sched.tr_dma_s,
            i +. t.Sched.tr_idle_s ) )
      in
      tracks_acc :=
        if List.mem_assoc m !tracks_acc then
          List.map (fun (m', v) -> if m' = m then entry else (m', v)) !tracks_acc
        else !tracks_acc @ [ entry ])
    r.Report.tracks

(* Every simulated run flows through these shims, so the accounting covers
   all experiments without touching each call site. *)
module Driver = struct
  include Driver

  let run_upmem_func ?backend_name ?host_model ?modul ~sim_config f args =
    let results, report =
      Driver.run_upmem_func ?backend_name ?host_model ?modul ~sim_config f args
    in
    note_report report;
    (results, report)

  let compile_and_run ?verify ?host_model backend f args =
    let results, report =
      Driver.compile_and_run ?verify ?host_model backend f args
    in
    note_report report;
    (results, report)

  let run ?fname ?host_model compiled args =
    let results, report = Driver.run ?fname ?host_model compiled args in
    note_report report;
    (results, report)
end

type json_record = {
  exp : string;
  wall_s : float;
  sim_s : float;
  runs : int;
  tracks : (string * (float * float * float)) list;
      (** machine -> summed (compute_s, dma_s, idle_s); empty unless the
          experiment ran on hetero *)
  series : (string * float) list;
      (** named per-benchmark scalars (overlap ratios, scaling curves) *)
}

let timed name f =
  sim_s_acc := 0.0;
  sim_runs_acc := 0;
  tracks_acc := [];
  series_acc := [];
  let module Trace = Cinm_support.Trace in
  let span_t0 = if Trace.enabled () then Trace.now_host () else 0.0 in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  if Trace.enabled () then
    Trace.complete ~cat:"experiment"
      ~args:
        [ ("sim_s", Trace.Float !sim_s_acc); ("runs", Trace.Int !sim_runs_acc) ]
      ~clock:Trace.Host ~pid:Trace.host_pid ~track:"bench" ~ts:span_t0
      ~dur:(Trace.now_host () -. span_t0)
      ("exp:" ^ name);
  {
    exp = name;
    wall_s;
    sim_s = !sim_s_acc;
    runs = !sim_runs_acc;
    tracks = !tracks_acc;
    series = !series_acc;
  }

let write_json path recs =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"schema\": \"cinm-bench-1\",\n";
  Printf.bprintf b "  \"quick\": %b,\n" !quick;
  Printf.bprintf b "  \"jobs\": %d,\n" (Cinm_support.Pool.default_jobs ());
  Buffer.add_string b "  \"experiments\": [\n";
  let n = List.length recs in
  List.iteri
    (fun i r ->
      (* tracks render only when present so records of the single-device
         experiments stay byte-identical to the pinned baselines *)
      let tracks =
        match r.tracks with
        | [] -> ""
        | ts ->
          Printf.sprintf ", \"tracks\": [%s]"
            (String.concat ", "
               (List.map
                  (fun (m, (c, d, idle)) ->
                    Printf.sprintf
                      "{ \"machine\": %S, \"compute_s\": %.9f, \"dma_s\": %.9f, \"idle_s\": %.9f }"
                      m c d idle)
                  ts))
      in
      let series =
        match r.series with
        | [] -> ""
        | ss ->
          Printf.sprintf ", \"series\": { %s }"
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%S: %.9f" k v) ss))
      in
      Printf.bprintf b
        "    { \"name\": %S, \"wall_s\": %.6f, \"sim_s\": %.9f, \"runs\": %d%s%s }%s\n"
        r.exp r.wall_s r.sim_s r.runs tracks series
        (if i = n - 1 then "" else ","))
    recs;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

(* ----- printing helpers ----- *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row_format widths cells =
  String.concat "  "
    (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths cells)

let print_table rows =
  match rows with
  | [] -> ()
  | first :: _ ->
    let n = List.length first in
    let widths =
      List.init n (fun i ->
          List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 rows)
    in
    List.iteri
      (fun i row ->
        print_endline (row_format widths row);
        if i = 0 then
          print_endline (String.concat "  " (List.map (fun w -> String.make w '-') widths)))
      rows

let ms v = Printf.sprintf "%.4g" (1e3 *. v)
let x v = Printf.sprintf "%.2fx" v

let geomean = Cinm_support.Util.geomean

(* ----- configurations ----- *)

let scaled_host = Cpu.Model.scaled machine_scale Cpu.Model.xeon_opt

let upmem_backend ~dimms ~optimize =
  Backend.default_upmem ~dimms ~dpus_per_dimm:scaled_dpus_per_dimm ~tasklets:16 ~optimize ()

let scaled_sim_config (c : Backend.upmem_config) =
  let base = Driver.upmem_sim_config c in
  {
    base with
    Usim.Config.host_to_mram_bw = base.Usim.Config.host_to_mram_bw *. machine_scale;
    mram_to_host_bw = base.Usim.Config.mram_to_host_bw *. machine_scale;
    launch_overhead_s = base.Usim.Config.launch_overhead_s *. machine_scale;
  }

(* Run a device-independent benchmark through the CINM flow on UPMEM,
   reporting kernel+transfer time (the PrIM methodology) and host time. *)
let run_cinm_upmem ~config (bench : Benchmark.t) =
  let compiled = Driver.compile_func (Backend.Upmem config) (bench.Benchmark.build ()) in
  let f = List.hd compiled.Driver.modul.Func.funcs in
  let results, report =
    Driver.run_upmem_func ~backend_name:"cinm" ~host_model:scaled_host
      ~modul:compiled.Driver.modul ~sim_config:(scaled_sim_config config) f
      (bench.Benchmark.inputs ())
  in
  if not (Benchmark.results_match bench results) then
    failwith (bench.Benchmark.name ^ ": device results differ from host reference!");
  report

let run_prim_upmem ~config (baseline : Benchmark.t) =
  let results, report =
    Driver.run_upmem_func ~backend_name:"prim" ~host_model:scaled_host
      ~sim_config:(scaled_sim_config config)
      (baseline.Benchmark.build ())
      (baseline.Benchmark.inputs ())
  in
  ignore results;
  report

let run_cpu (bench : Benchmark.t) =
  let _, report =
    Driver.compile_and_run ~host_model:scaled_host Backend.Host_xeon
      (bench.Benchmark.build ()) (bench.Benchmark.inputs ())
  in
  report

(* DPU time, PrIM methodology: kernel time dominates the reported numbers;
   we use device time (kernel + on-device DMA) plus the scaled dispatch. *)
let dpu_time (r : Report.t) = List.assoc "kernel" r.Report.breakdown

(* ----- Figure 10: CIM configurations vs the ARM host ----- *)

let cim_variants =
  [
    ("cim", false, false);
    ("cim-min-writes", true, false);
    ("cim-parallel", false, true);
    ("cim-opt", true, true);
  ]

let fig10_suite () =
  let s = if !quick then 1 else 4 in
  [
    (* sized so the M dimension streams in several chunks (the min-writes
       interchange matters) and K/N tiles fill the 64x64 crossbars *)
    Ml_kernels.mm ~m:(224 * s) ~k:256 ~n:256 ();
    Ml_kernels.mm2 ~m:(112 * s) ~k:256 ~n:256 ~p:256 ();
    Ml_kernels.mm3 ~m:(112 * s) ~k:256 ~n:256 ~p:256 ~q:256 ();
    Ml_kernels.conv_multi ~h:(32 * s) ~w:64 ~kh:8 ~kw:8 ~filters:256 ();
    Prim_kernels.mv ~m:(256 * s) ~n:256 ();
    Ml_kernels.contrl ~a:16 ~b:16 ~c:16 ~d:(4 * s) ~e:8 ~f:8 ();
    Ml_kernels.contrs1 ~a:(112 * s) ~b:256 ~c:8 ~d:8 ();
    Ml_kernels.contrs2 ~a:32 ~b:256 ~c:(8 * s) ~d:64 ();
    Ml_kernels.mlp ~batch:(112 * s) ~d_in:256 ~d_hidden:256 ~d_out:128 ();
  ]

let run_cim ~min_writes ~parallel (bench : Benchmark.t) =
  let backend = Backend.Cim (Backend.default_cim ~min_writes ~parallel ()) in
  let results, report =
    Driver.compile_and_run backend (bench.Benchmark.build ()) (bench.Benchmark.inputs ())
  in
  if not (Benchmark.results_match bench results) then
    failwith (bench.Benchmark.name ^ ": cim results differ from host reference!");
  report

let fig10 () =
  header "Figure 10: CIM configurations, speedup over the ARM host (higher is better)";
  let suite = fig10_suite () in
  let arm_time (b : Benchmark.t) =
    let _, r =
      Driver.compile_and_run Backend.Host_arm (b.Benchmark.build ()) (b.Benchmark.inputs ())
    in
    r.Report.total_s
  in
  let rows = ref [] in
  let speedups = Hashtbl.create 8 in
  let writes = Hashtbl.create 8 in
  List.iter
    (fun (b : Benchmark.t) ->
      let t_arm = arm_time b in
      let cells =
        List.map
          (fun (vname, mw, par) ->
            let r = run_cim ~min_writes:mw ~parallel:par b in
            let sp = t_arm /. r.Report.total_s in
            Hashtbl.replace speedups vname
              (sp :: Option.value ~default:[] (Hashtbl.find_opt speedups vname));
            Hashtbl.replace writes vname
              (Report.counter r "crossbar_writes"
              :: Option.value ~default:[] (Hashtbl.find_opt writes vname));
            x sp)
          cim_variants
      in
      rows := (b.Benchmark.name :: cells) :: !rows)
    suite;
  print_table
    (("benchmark" :: List.map (fun (n, _, _) -> n) cim_variants) :: List.rev !rows);
  let gm name = geomean (Hashtbl.find speedups name) in
  Printf.printf "\ngeomean speedup vs arm: cim=%.1fx  min-writes=%.1fx  parallel=%.1fx  opt=%.1fx\n"
    (gm "cim") (gm "cim-min-writes") (gm "cim-parallel") (gm "cim-opt");
  let write_reduction =
    geomean
      (List.map2
         (fun base opt -> float_of_int base /. float_of_int (max 1 opt))
         (Hashtbl.find writes "cim")
         (Hashtbl.find writes "cim-min-writes"))
  in
  Printf.printf "crossbar write ops: %d (cim) vs %d (min-writes); geomean reduction %.1fx\n"
    (List.fold_left ( + ) 0 (Hashtbl.find writes "cim"))
    (List.fold_left ( + ) 0 (Hashtbl.find writes "cim-min-writes"))
    write_reduction;
  print_endline
    "paper: cim ~10x, min-writes 12.4x, opt 30x (geomean); writes reduced 7x"

let fig10_energy () =
  header "Figure 10 (energy): cim-opt energy vs the ARM host (ratio > 1 = cim better)";
  let suite = fig10_suite () in
  let ratios = ref [] in
  let rows =
    List.map
      (fun (b : Benchmark.t) ->
        let _, arm =
          Driver.compile_and_run Backend.Host_arm (b.Benchmark.build ())
            (b.Benchmark.inputs ())
        in
        let r = run_cim ~min_writes:true ~parallel:true b in
        let ratio = arm.Report.energy_j /. r.Report.energy_j in
        ratios := ratio :: !ratios;
        [
          b.Benchmark.name;
          Printf.sprintf "%.3g mJ" (1e3 *. arm.Report.energy_j);
          Printf.sprintf "%.3g mJ" (1e3 *. r.Report.energy_j);
          x ratio;
        ])
      suite
  in
  print_table ([ "benchmark"; "arm energy"; "cim-opt energy"; "arm/cim" ] :: rows);
  Printf.printf "\ngeomean energy reduction: %.1fx\n" (geomean !ratios);
  print_endline "paper: cim-opt ~5x less energy (geomean); mv/conv 30-40% worse than cpu"

(* ----- Figure 11: impact of the CINM device-aware optimizations ----- *)

let fig11_suite () =
  let s = if !quick then 4 else 16 in
  [
    (* M sized to span the PU grid of the largest DIMM configuration *)
    Ml_kernels.mm ~m:(128 * s) ~k:16 ~n:16 ();
    Ml_kernels.mm2 ~m:(128 * s) ~k:16 ~n:16 ~p:16 ();
    Ml_kernels.mm3 ~m:(128 * s) ~k:16 ~n:16 ~p:16 ~q:16 ();
    Ml_kernels.conv ~h:(32 * s) ~w:66 ();
    Ml_kernels.contrs1 ~a:(128 * s) ~b:16 ~c:4 ~d:4 ();
    Ml_kernels.mlp ~batch:(128 * s) ~d_in:16 ~d_hidden:16 ~d_out:16 ();
  ]

let fig11 () =
  header "Figure 11: cinm vs cinm-opt kernel time (ms) on UPMEM";
  let dimm_configs = [ 4; 8; 16 ] in
  let gains = Hashtbl.create 4 in
  let rows =
    List.map
      (fun (b : Benchmark.t) ->
        b.Benchmark.name
        :: List.concat_map
             (fun dimms ->
               let base = run_cinm_upmem ~config:(upmem_backend ~dimms ~optimize:false) b in
               let opt = run_cinm_upmem ~config:(upmem_backend ~dimms ~optimize:true) b in
               let t_base = dpu_time base and t_opt = dpu_time opt in
               Hashtbl.replace gains dimms
                 ((t_base /. t_opt)
                 :: Option.value ~default:[] (Hashtbl.find_opt gains dimms));
               [ ms t_base; ms t_opt ])
             dimm_configs)
      (fig11_suite ())
  in
  print_table
    (("benchmark"
     :: List.concat_map
          (fun d -> [ Printf.sprintf "cinm-%dd" d; Printf.sprintf "opt-%dd" d ])
          dimm_configs)
    :: rows);
  Printf.printf "\ngeomean cinm-opt speedup over cinm: ";
  List.iter
    (fun d ->
      let g = geomean (Hashtbl.find gains d) in
      Printf.printf "%dd: %.0f%% faster  " d ((1.0 -. (1.0 /. g)) *. 100.0))
    dimm_configs;
  print_newline ();
  print_endline "paper: cinm-opt is 47% (4d), 42% (8d), 40% (16d) faster than cinm"

(* ----- Figure 12: CPU vs cinm vs PrIM ----- *)

let fig12_sizes () =
  if !quick then
    { Suites.default_prim_sizes with Suites.va_n = 16384; red_n = 16384; hst_n = 16384;
      sel_n = 16384; ts_n = 16384 + 7 }
  else Suites.default_prim_sizes

let fig12 () =
  header "Figure 12: cpu-opt vs cinm vs prim, PrIM workloads (time in ms)";
  let sizes = fig12_sizes () in
  let dimm_configs = [ 4; 8; 16 ] in
  let cinm_vs_prim = Hashtbl.create 4 in
  let prim_vs_cpu = Hashtbl.create 4 in
  let suite = Suites.prim_suite ~sizes () in
  let rows =
    List.map
      (fun (b : Benchmark.t) ->
        let cpu_r = run_cpu b in
        let t_cpu = cpu_r.Report.total_s in
        b.Benchmark.name :: ms t_cpu
        :: List.concat_map
             (fun dimms ->
               let config = upmem_backend ~dimms ~optimize:true in
               let cinm_r = run_cinm_upmem ~config b in
               let t_cinm = dpu_time cinm_r in
               let prim_cells =
                 match
                   List.find_opt
                     (fun (p : Benchmark.t) -> p.Benchmark.name = b.Benchmark.name)
                     (Suites.prim_baselines ~sizes config)
                 with
                 | Some baseline ->
                   let prim_r = run_prim_upmem ~config baseline in
                   let t_prim = dpu_time prim_r in
                   Hashtbl.replace cinm_vs_prim dimms
                     ((t_prim /. t_cinm)
                     :: Option.value ~default:[] (Hashtbl.find_opt cinm_vs_prim dimms));
                   Hashtbl.replace prim_vs_cpu dimms
                     ((t_cpu /. t_prim)
                     :: Option.value ~default:[] (Hashtbl.find_opt prim_vs_cpu dimms));
                   [ ms t_prim ]
                 | None -> [ "-" ]
               in
               [ ms t_cinm ] @ prim_cells)
             dimm_configs)
      suite
  in
  print_table
    (("benchmark" :: "cpu-opt"
     :: List.concat_map
          (fun d -> [ Printf.sprintf "cinm-%dd" d; Printf.sprintf "prim-%dd" d ])
          dimm_configs)
    :: rows);
  Printf.printf "\ngeomean prim speedup vs cpu-opt: ";
  List.iter
    (fun d -> Printf.printf "%dd: %.1fx  " d (geomean (Hashtbl.find prim_vs_cpu d)))
    dimm_configs;
  Printf.printf "\ngeomean cinm speedup vs prim:    ";
  List.iter
    (fun d -> Printf.printf "%dd: %.1fx  " d (geomean (Hashtbl.find cinm_vs_prim d)))
    dimm_configs;
  print_newline ();
  print_endline "paper: prim 1.9x/3.1x/5.1x vs cpu; cinm 1.6x/1.9x/2.0x vs prim (4d/8d/16d)";
  print_endline "paper per-benchmark: va ~1.23x, hst-l ~3.7x, mv comparable, ts prim ahead"

(* ----- Table 4: lines of code ----- *)

let tab4 () =
  header "Table 4: application representation size, CINM (cinm-level IR) vs UPMEM level";
  let apps =
    [
      ("mm", (Ml_kernels.mm ~m:32 ~k:8 ~n:8 ()).Benchmark.build);
      ("2mm", (Ml_kernels.mm2 ~m:16 ~k:8 ~n:8 ~p:8 ()).Benchmark.build);
      ("3mm", (Ml_kernels.mm3 ~m:16 ~k:8 ~n:8 ~p:8 ~q:8 ()).Benchmark.build);
      ("conv", (Ml_kernels.conv ~h:10 ~w:10 ()).Benchmark.build);
      ("contrl", (Ml_kernels.contrl ~a:2 ~b:2 ~c:2 ~d:2 ~e:3 ~f:3 ()).Benchmark.build);
      ("contrs1", (Ml_kernels.contrs1 ~a:4 ~b:4 ~c:3 ~d:3 ()).Benchmark.build);
      ("contrs2", (Ml_kernels.contrs2 ~a:4 ~b:4 ~c:4 ~d:3 ()).Benchmark.build);
      ("mlp", (Ml_kernels.mlp ~batch:8 ~d_in:8 ~d_hidden:8 ~d_out:4 ()).Benchmark.build);
      ("va", (Prim_kernels.va ~n:1024 ()).Benchmark.build);
      ("mv", (Prim_kernels.mv ~m:64 ~n:16 ()).Benchmark.build);
      ("red", (Prim_kernels.red ~n:1024 ()).Benchmark.build);
      ("hst-l", (Prim_kernels.hst_l ~n:512 ~bins:16 ()).Benchmark.build);
      ("sel", (Prim_kernels.sel ~n:512 ()).Benchmark.build);
      ("ts", (Prim_kernels.ts ~n:135 ~m:8 ~k:2 ()).Benchmark.build);
      ("bfs", (Prim_kernels.bfs ~v:32 ()).Benchmark.build);
    ]
  in
  let reductions = ref [] in
  let rows =
    List.map
      (fun (app, build) ->
        let row = Loc_metrics.row ~app (build ()) in
        reductions := Loc_metrics.reduction row :: !reductions;
        [
          app;
          string_of_int row.Loc_metrics.cinm_loc;
          string_of_int row.Loc_metrics.upmem_loc;
          Printf.sprintf "%.0f" (Loc_metrics.reduction row);
        ])
      apps
  in
  print_table ([ "application"; "CINM (IR)"; "UPMEM level"; "reduction" ] :: rows);
  Printf.printf "\ngeomean reduction: %.0fx (paper: ~15x geomean, 4-40x range)\n"
    (geomean !reductions)

(* ----- Table 5 + dialect inventories ----- *)

let tab5 () =
  header "Table 5: comparison of CI/NM compilers and software frameworks";
  print_table (Related_work.to_table ())

let dialects () =
  header "Dialect inventories (paper Tables 1-3)";
  List.iter
    (fun d ->
      Printf.printf "\n[%s] %s\n" d.Dialect.dname d.Dialect.description;
      List.iter
        (fun (o : Dialect.op_def) ->
          Printf.printf "  %-28s %s\n" o.Dialect.op_name o.Dialect.summary)
        (Dialect.ops_of d))
    (Dialect.all_dialects ())

(* ----- ablations: design-choice sweeps (DESIGN.md) ----- *)

let ablation () =
  header "Ablation 1: tasklets per DPU (pipeline saturation, PrIM ~11 needed)";
  let bench_for_tasklets t =
    let config = Backend.default_upmem ~dimms:1 ~dpus_per_dimm:8 ~tasklets:t ~optimize:true () in
    let b = Prim_kernels.va ~n:16384 () in
    let r = run_cinm_upmem ~config b in
    (t, dpu_time r)
  in
  print_table
    ([ "tasklets"; "va kernel (ms)" ]
    :: List.map
         (fun t ->
           let t', s = bench_for_tasklets t in
           [ string_of_int t'; ms s ])
         [ 1; 2; 4; 8; 11; 16 ]);
  print_endline "expected: time drops steeply until ~11 tasklets, then flattens";

  header "Ablation 2: DMA block size in the naive kernels (cinm-nd)";
  let bench_block naive_block =
    let bench = Prim_kernels.va ~n:16384 () in
    let m = Func.create_module () in
    Func.add_func m (bench.Cinm_benchmarks.Benchmark.build ());
    Cinm_ir.Pass.run_pipeline
      [
        Cinm_transforms.Linalg_to_cinm.pass;
        Cinm_transforms.Target_select.pass
          ~policy:
            { Cinm_transforms.Target_select.default_policy with forced_target = Some "cnm" }
          ();
        Cinm_transforms.Cinm_to_cnm.pass
          ~options:
            { Cinm_transforms.Cinm_to_cnm.dpus = 8; tasklets = 16; optimize = false;
              max_rows_per_launch = 64 } ();
        Cinm_transforms.Cnm_to_upmem.pass
          ~options:{ Cinm_transforms.Cnm_to_upmem.default_options with naive_block } ();
      ]
      m;
    let _, report =
      Driver.run_upmem_func ~host_model:scaled_host
        ~sim_config:(scaled_sim_config (upmem_backend ~dimms:1 ~optimize:false))
        (List.hd m.Func.funcs)
        (bench.Cinm_benchmarks.Benchmark.inputs ())
    in
    dpu_time report
  in
  print_table
    ([ "block (elems)"; "va kernel (ms)" ]
    :: List.map (fun bsz -> [ string_of_int bsz; ms (bench_block bsz) ]) [ 8; 32; 64; 128 ]);
  print_endline "expected: larger blocks amortize the fixed DMA setup cost";

  header "Ablation 3: elementwise fusion on/off (bfs, 4 levels x 2 chains)";
  let bfs_time ~fuse =
    let config = upmem_backend ~dimms:1 ~optimize:true in
    let bench = Prim_kernels.bfs ~v:64 () in
    let m = Func.create_module () in
    Func.add_func m (bench.Cinm_benchmarks.Benchmark.build ());
    let passes =
      [ Cinm_transforms.Tosa_to_linalg.pass; Cinm_transforms.Linalg_to_cinm.pass;
        Cinm_transforms.Target_select.pass
          ~policy:
            { Cinm_transforms.Target_select.default_policy with forced_target = Some "cnm" }
          () ]
      @ (if fuse then [ Cinm_transforms.Ew_fusion.pass ] else [])
      @ [
          Cinm_transforms.Cinm_to_cnm.pass
            ~options:
              { Cinm_transforms.Cinm_to_cnm.dpus = config.Backend.dimms * config.Backend.dpus_per_dimm;
                tasklets = config.Backend.tasklets; optimize = true; max_rows_per_launch = 64 } ();
          Cinm_transforms.Cnm_to_upmem.pass ();
        ]
    in
    Cinm_ir.Pass.run_pipeline passes m;
    let launches = ref 0 in
    List.iter
      (Func.walk (fun op -> if op.Ir.name = "upmem.launch" then incr launches))
      m.Func.funcs;
    let _, report =
      Driver.run_upmem_func ~host_model:scaled_host ~sim_config:(scaled_sim_config config)
        (List.hd m.Func.funcs)
        (bench.Cinm_benchmarks.Benchmark.inputs ())
    in
    (!launches, dpu_time report, report.Report.device_s)
  in
  let l_on, k_on, d_on = bfs_time ~fuse:true in
  let l_off, k_off, d_off = bfs_time ~fuse:false in
  print_table
    [
      [ "config"; "launches"; "kernel (ms)"; "device total (ms)" ];
      [ "fusion on"; string_of_int l_on; ms k_on; ms d_on ];
      [ "fusion off"; string_of_int l_off; ms k_off; ms d_off ];
    ];
  print_endline "expected: fusion cuts launches and transfer traffic (paper section 2.4)";

  header "Ablation 4: workgroup transform footprints (paper Fig. 8)";
  let open Cinm_transforms.Workgroup_analysis in
  let m_, p_, n_, o_ = (64, 8, 4, 4) in
  let expr = paper_example ~m:m_ ~p:p_ ~n:n_ ~o:o_ in
  Printf.printf "x_ijk = A_ir B_rjk + C_jk with M=%d P=%d N=%d O=%d\n" m_ p_ n_ o_;
  Printf.printf "paper (i,j,k) form: %d elements; measured: %d\n"
    (paper_ijk_footprint ~m:m_ ~p:p_ ~n:n_ ~o:o_)
    (footprint expr [ 'i'; 'j'; 'k' ]);
  Printf.printf "paper (h=jk,i) form: %d elements; measured (j,k,i): %d\n"
    (paper_jk_footprint ~m:m_ ~p:p_ ~n:n_ ~o:o_)
    (footprint expr [ 'j'; 'k'; 'i' ]);
  print_endline "cheapest five tree orders:";
  Cinm_support.Util.list_take 5 (rank expr)
  |> List.iter (fun (axes, fp, pu) ->
         Printf.printf "  axes=%-4s footprint=%6d elements  PUs=%d\n"
           (axes_to_string axes) fp pu);

  header "Ablation 5: tiling chunk size (Fig. 9 shapes: rows per PU per launch)";
  let chunk_time rows =
    let config = { (upmem_backend ~dimms:1 ~optimize:true) with Backend.max_rows_per_launch = rows } in
    let b = Ml_kernels.mm ~m:1024 ~k:16 ~n:16 () in
    let r = run_cinm_upmem ~config b in
    (List.assoc "cpu->dpu" r.Report.breakdown, dpu_time r, Report.counter r "launches")
  in
  print_table
    ([ "rows/PU/launch"; "launches"; "cpu->dpu (ms)"; "kernel (ms)" ]
    :: List.map
         (fun rows ->
           let xfer, k, l = chunk_time rows in
           [ string_of_int rows; string_of_int l; ms xfer; ms k ])
         [ 1; 2; 4; 8 ]);
  print_endline "expected: bigger chunks = fewer launches, same total kernel work"

(* ----- bechamel microbenchmarks of the compiler itself ----- *)

let bechamel () =
  header "Bechamel: real cost of the compile+simulate pipeline per experiment";
  let module Bch = Bechamel in
  let mk_test name f = Bch.Test.make ~name (Bch.Staged.stage f) in
  let tiny = Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 () in
  let bench_mm = Ml_kernels.mm ~m:32 ~k:8 ~n:8 () in
  let bench_va = Prim_kernels.va ~n:1024 () in
  let tests =
    [
      mk_test "fig10:cim compile+sim (mm)" (fun () ->
          ignore
            (Driver.compile_and_run
               (Backend.Cim (Backend.default_cim ~min_writes:true ~parallel:true ()))
               (bench_mm.Benchmark.build ()) (bench_mm.Benchmark.inputs ())));
      mk_test "fig11:upmem compile+sim (mm)" (fun () ->
          ignore
            (Driver.compile_and_run (Backend.Upmem tiny) (bench_mm.Benchmark.build ())
               (bench_mm.Benchmark.inputs ())));
      mk_test "fig12:upmem compile+sim (va)" (fun () ->
          ignore
            (Driver.compile_and_run (Backend.Upmem tiny) (bench_va.Benchmark.build ())
               (bench_va.Benchmark.inputs ())));
      mk_test "tab4:loc metric (mm)" (fun () ->
          ignore (Loc_metrics.row ~app:"mm" (bench_mm.Benchmark.build ())));
      mk_test "tab5:related-work table" (fun () -> ignore (Related_work.to_table ()));
    ]
  in
  let benchmark test =
    let instance = Bch.Toolkit.Instance.monotonic_clock in
    let cfg = Bch.Benchmark.cfg ~limit:200 ~quota:(Bch.Time.second 0.5) () in
    Bch.Benchmark.all cfg [ instance ] test
  in
  List.iter
    (fun test ->
      let results = benchmark (Bch.Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name raw ->
          let stats =
            Bch.Analyze.one
              (Bch.Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Bch.Measure.run |])
              Bch.Toolkit.Instance.monotonic_clock raw
          in
          match Bch.Analyze.OLS.estimates stats with
          | Some [ est ] -> Printf.printf "  %-40s %10.3f us/run\n" name (est /. 1e3)
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        results)
    tests

(* ----- heterogeneous partitioning + async DMA/compute overlap ----- *)

(* One module split across cpu + upmem + memristor + cam by the
   dependency-aware partitioner, executed on the multi-stream runtime.
   The e2e columns come from the same event logs replayed under the two
   disciplines (Schedule.summarize), so "overlap" is a pure simulated
   ratio, independent of host job count. *)

let hetero_backend ~ranks =
  Backend.default_hetero ~ranks ~dimms:2 ~dpus_per_dimm:scaled_dpus_per_dimm ()

let hetero_suite () =
  let het =
    if !quick then
      [
        Hetero_kernels.mix ~m:256 ~ew:16384 ~db:1024 ~q:64 ();
        Hetero_kernels.batch ~n:4096 ();
      ]
    else Hetero_kernels.all ()
  in
  let ml = Suites.ml_suite () in
  het @ [ Suites.find "mm" ml; Suites.find "3mm" ml; Suites.find "mlp" ml ]

let run_hetero ~backend (bench : Benchmark.t) =
  let compiled = Driver.compile_func backend (bench.Benchmark.build ()) in
  let plan =
    match compiled.Driver.modul.Func.funcs with
    | f :: _ -> (
      match List.assoc_opt "partition" f.Func.fattrs with
      | Some (Attr.Str s) -> s
      | _ -> "-")
    | [] -> "-"
  in
  let results, report = Driver.run compiled (bench.Benchmark.inputs ()) in
  if not (Benchmark.results_match bench results) then
    failwith (bench.Benchmark.name ^ ": hetero results differ from host reference!");
  (plan, report)

let hetero () =
  header
    "Heterogeneous partitioning: one module on cpu+upmem+memristor+cam, \
     DMA/compute overlapped";
  let backend = hetero_backend ~ranks:4 in
  let overlaps = ref [] in
  let rows =
    List.map
      (fun (b : Benchmark.t) ->
        let plan, r = run_hetero ~backend b in
        let ovl = List.assoc "e2e_overlapped" r.Report.breakdown in
        let seq = List.assoc "e2e_sequential" r.Report.breakdown in
        let busy = List.assoc "max_channel_busy" r.Report.breakdown in
        note_series (b.Benchmark.name ^ ".e2e_overlapped_s") ovl;
        note_series (b.Benchmark.name ^ ".e2e_sequential_s") seq;
        note_series (b.Benchmark.name ^ ".overlap_speedup") (seq /. ovl);
        overlaps := (seq /. ovl) :: !overlaps;
        [ b.Benchmark.name; plan; ms ovl; ms seq; x (seq /. ovl); ms busy ])
      (hetero_suite ())
  in
  print_table
    ([
       "benchmark"; "partition"; "e2e-ovl (ms)"; "e2e-seq (ms)"; "overlap";
       "busiest engine (ms)";
     ]
    :: rows);
  Printf.printf "\ngeomean overlap speedup (sequential sum / overlapped critical path): %.2fx\n"
    (geomean !overlaps);
  print_endline
    "expected: het-* split across all four machines and overlap >= 1.5x; the\n\
     single-kernel ml benchmarks stay on their best device (overlap ~1x)"

(* ----- multi-rank UPMEM scaling ----- *)

let scaling () =
  header "Multi-rank UPMEM scaling: kernel time vs ranks (1 DIMM, 8 DPUs/rank)";
  let ranks_list = if !quick then [ 1; 4; 16 ] else [ 1; 4; 16; 64 ] in
  let n = if !quick then 65536 else 262144 in
  let suite = [ Prim_kernels.va ~n (); Prim_kernels.red ~n () ] in
  let rows =
    List.map
      (fun (b : Benchmark.t) ->
        let times =
          List.map
            (fun ranks ->
              let config =
                Backend.default_upmem ~ranks ~dimms:1
                  ~dpus_per_dimm:scaled_dpus_per_dimm ~tasklets:16
                  ~optimize:true ()
              in
              let t = dpu_time (run_cinm_upmem ~config b) in
              note_series
                (Printf.sprintf "%s.kernel_s@%dr" b.Benchmark.name ranks)
                t;
              t)
            ranks_list
        in
        let t1 = List.hd times in
        b.Benchmark.name
        :: List.concat
             (List.map2
                (fun ranks t ->
                  [ Printf.sprintf "%dr: %s" ranks (ms t); x (t1 /. t) ])
                ranks_list times))
      suite
  in
  print_table
    (("benchmark"
     :: List.concat_map
          (fun r -> [ Printf.sprintf "kernel @%dr (ms)" r; "speedup" ])
          ranks_list)
    :: rows);
  print_endline
    "expected: near-linear until the rows run out, then the extra ranks idle;\n\
     every configuration checks its tensors against the host reference"

(* ----- entry point ----- *)

let run_experiment name =
  let f =
    match name with
    | "fig10" -> fig10
    | "fig10-energy" -> fig10_energy
    | "fig11" -> fig11
    | "fig12" -> fig12
    | "tab4" -> tab4
    | "tab5" -> tab5
    | "dialects" -> dialects
    | "bechamel" -> bechamel
    | "ablation" -> ablation
    | "hetero" -> hetero
    | "scaling" -> scaling
    | cmd ->
      Printf.eprintf
        "unknown experiment %S (expected fig10|fig10-energy|fig11|fig12|tab4|tab5|dialects|ablation|bechamel|hetero|scaling|all)\n"
        cmd;
      exit 1
  in
  timed name f

let all_experiments =
  [ "fig10"; "fig10-energy"; "fig11"; "fig12"; "tab4"; "tab5"; "dialects"; "ablation" ]

let () =
  let json_out = ref None in
  let trace_out = ref None in
  let fault_rates = ref None in
  let fault_seed = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--faults" :: spec :: rest -> (
      match Cinm_support.Fault.parse spec with
      | Ok plan ->
        fault_rates := Some plan;
        parse acc rest
      | Error msg ->
        Printf.eprintf "--faults: %s\n" msg;
        exit 1)
    | [ "--faults" ] ->
      Printf.eprintf "--faults expects a spec like dpu_fail=0.05,bitflip=1e-7\n";
      exit 1
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some s ->
        fault_seed := Some s;
        parse acc rest
      | _ ->
        Printf.eprintf "--seed expects an integer, got %S\n" n;
        exit 1)
    | [ "--seed" ] ->
      Printf.eprintf "--seed expects an integer\n";
      exit 1
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 0 ->
        (* 0 = auto-detect (Domain.recommended_domain_count), same as an
           unset CINM_JOBS; the pool resolves it *)
        Cinm_support.Pool.set_default_jobs j;
        parse acc rest
      | _ ->
        Printf.eprintf "--jobs expects a non-negative integer (0 = auto), got %S\n" n;
        exit 1)
    | [ "--jobs" ] ->
      Printf.eprintf "--jobs expects a non-negative integer (0 = auto)\n";
      exit 1
    | "--strict" :: rest ->
      (* verify + print->parse->print fixpoint after every pass; the
         compile stage gets slower but --json output is unchanged *)
      Cinm_support.Config.update_default (fun c -> { c with strict = true });
      parse acc rest
    | "--interp" :: b :: rest -> (
      match Cinm_interp.Compile.backend_of_string b with
      | Some backend ->
        Cinm_interp.Compile.set_backend backend;
        parse acc rest
      | None ->
        Printf.eprintf "--interp expects tree|compiled, got %S\n" b;
        exit 1)
    | [ "--interp" ] ->
      Printf.eprintf "--interp expects tree|compiled\n";
      exit 1
    | "--json" :: file :: rest ->
      json_out := Some file;
      parse acc rest
    | [ "--json" ] ->
      Printf.eprintf "--json expects a file name\n";
      exit 1
    | "--trace" :: file :: rest ->
      trace_out := Some file;
      Cinm_support.Trace.enable ();
      parse acc rest
    | [ "--trace" ] ->
      Printf.eprintf "--trace expects a file name\n";
      exit 1
    | "--metrics" :: rest ->
      (* collect the telemetry registry (histograms per pass, codegen
         counters, ...) and dump it to stderr at exit; the printed
         report and --json minus wall_s must be byte-identical with or
         without this flag — CI asserts that *)
      Cinm_support.Trace.Metrics.enable ();
      at_exit (fun () ->
          Printf.eprintf "%s%!" (Cinm_support.Trace.Metrics.dump ()));
      parse acc rest
    | cmd :: rest -> parse (cmd :: acc) rest
  in
  let cmds = parse [] (List.tl (Array.to_list Sys.argv)) in
  (match (!fault_rates, !fault_seed) with
  | Some plan, seed ->
    (* --seed overrides a seed= key in the spec *)
    let plan =
      match seed with
      | Some s -> { plan with Cinm_support.Fault.seed = s }
      | None -> plan
    in
    Cinm_support.Config.update_default (fun c -> { c with faults = Some plan });
    Printf.eprintf "[bench] fault injection enabled: %s\n%!"
      (Cinm_support.Fault.to_string plan)
  | None, Some _ ->
    Printf.eprintf "--seed has no effect without --faults\n";
    exit 1
  | None, None -> ());
  let cmds =
    match cmds with
    | [] | [ "all" ] -> all_experiments
    | cmds -> cmds
  in
  let records = List.map run_experiment cmds in
  Option.iter (fun path -> write_json path records) !json_out;
  Option.iter
    (fun file ->
      Cinm_support.Trace.write file;
      Printf.eprintf "[bench] trace written to %s (open in ui.perfetto.dev)\n%!" file)
    !trace_out
