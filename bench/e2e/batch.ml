(* The three batch workloads: one sequential caller runs a fixed item set
   pass after pass. An item is one program taken from source to checked
   output: build or parse, compile, run, compare with a reference the
   set-up computed on the tree-walking host interpreter. *)

open Cinm_ir
open Cinm_core
open Cinm_benchmarks
module Rtval = Cinm_interp.Rtval
module Tensor = Cinm_interp.Tensor
module Interp = Cinm_interp.Interp
module Rng = Cinm_fuzz_lib.Rng
module Gen = Cinm_fuzz_lib.Gen
module Oracle = Cinm_fuzz_lib.Oracle
module Config = Cinm_support.Config

(* The settings every run uses, set here rather than read from the
   environment: compiled interpreter, fault-free, non-strict, no
   watchdog, no reproducer files. *)
let config =
  {
    Config.strict = false;
    pass_budget_s = None;
    reproducer_dir = None;
    max_steps = 0;
    interp = "compiled";
    faults = None;
    deadline = 0.0;
    cancel = Config.never_cancelled;
    req_id = "";
  }

type source = Build of (unit -> Func.t) | Text of string

type item = {
  label : string;
  backend : Backend.t;
  source : source;
  args : Rtval.t list;
  expect : Rtval.t list;
  roundtrip : bool;  (** assert print -> parse -> print is a fixpoint *)
}

let module_of = function
  | Build build ->
    let m = Func.create_module () in
    Func.add_func m (build ());
    m
  | Text t -> Parser.parse_module_text t

let check it results =
  if
    not
      (List.length it.expect = List.length results
      && List.for_all2 Oracle.rt_equal it.expect results)
  then failwith "output differs from the reference"

let roundtrip sp m =
  let t1 = Span.with_ sp "ir.print" (fun () -> Printer.module_to_string m) in
  let m2 = Span.with_ sp "ir.parse" (fun () -> Parser.parse_module_text t1) in
  let t2 = Span.with_ sp "ir.print" (fun () -> Printer.module_to_string m2) in
  if not (String.equal t1 t2) then failwith "print -> parse -> print is not a fixpoint"

(* The untraced item: exactly the calls a user of the driver makes. *)
let exec_plain it =
  let c = Driver.compile ~config it.backend (module_of it.source) in
  if it.roundtrip then roundtrip None c.Driver.modul;
  let results, r = Driver.run ~config c it.args in
  check it results;
  Layers.det_of_report c r

(* The traced item: the same work, one layer per span. *)
let exec_traced sp it =
  let fresh () = module_of it.source in
  let m =
    Span.with_ sp (match it.source with Build _ -> "benchmarks.build" | Text _ -> "ir.parse") fresh
  in
  let c = Layers.compile sp ~config it.backend m ~fresh in
  if it.roundtrip then roundtrip sp c.Driver.modul;
  let results, d = Layers.run sp ~config c it.args in
  Span.with_ sp "benchmarks.check" (fun () -> check it results);
  d

(* Traced set-up only: the pass-by-pass lowering must print exactly what
   Driver.compile prints, and the hook-wrapped run must reproduce the
   driver's report (recorded by the warm pass as [warm]). *)
let verify probe it (warm : Layers.det) =
  let c = Layers.compile None ~probe ~config it.backend (module_of it.source)
      ~fresh:(fun () -> module_of it.source)
  in
  let text = Printer.module_to_string c.Driver.modul in
  let reference = Driver.compile ~config it.backend (module_of it.source) in
  if not (String.equal text (Printer.module_to_string reference.Driver.modul)) then
    failwith "pass-by-pass lowering prints differently from Driver.compile";
  probe.Layers.text_bytes <- probe.Layers.text_bytes + String.length text;
  probe.Layers.items <- probe.Layers.items + 1;
  let results, d = Layers.run None ~probe ~config c it.args in
  check it results;
  if not (Layers.same_det d warm) then
    failwith "hook-wrapped run differs from Driver.run's report"

(* ----- item sets ----- *)

(* Seeded inputs: a permutation of each benchmark's own input tensors
   keeps their value ranges (histogram bins, 0/1 adjacency, one-hot
   sources) valid while the data, and so the results, change with the
   seed. *)
let shuffle rng = function
  | Rtval.Tensor t ->
    let perm = Engine.permutation rng (Tensor.num_elements t) in
    let out = Tensor.copy t in
    if Tensor.is_int t then Array.iteri (fun i j -> Tensor.set_int out i (Tensor.get_int t j)) perm
    else Array.iteri (fun i j -> Tensor.set_float out i (Tensor.get_float t j)) perm;
    Rtval.Tensor out
  | v -> v

let reference build args = fst (Interp.run_func (build ()) args)

let bench_items ~rng backends (benches : Benchmark.t list) =
  List.concat_map
    (fun (b : Benchmark.t) ->
      let args = List.map (shuffle rng) (b.Benchmark.inputs ()) in
      let expect = reference b.Benchmark.build args in
      List.map
        (fun backend ->
          {
            label = b.Benchmark.name ^ "@" ^ Backend.to_string backend;
            backend;
            source = Build b.Benchmark.build;
            args;
            expect;
            roundtrip = false;
          })
        backends)
    benches

(* upmem-prim: the PrIM and ML suites on the 1/16-scale UPMEM machine. *)
let upmem_prim ~seed =
  bench_items ~rng:(Rng.make seed)
    [
      Backend.Upmem
        (Backend.default_upmem ~dimms:4 ~dpus_per_dimm:8 ~tasklets:16 ~optimize:true ());
    ]
    (Suites.prim_suite () @ Suites.ml_suite ())

(* cim-ml: the Fig. 10 kernels at the bench harness's --quick shapes, on
   the optimized crossbar configuration and on the in-order ARM host. *)
let cim_ml ~seed =
  bench_items ~rng:(Rng.make seed)
    [ Backend.Cim (Backend.default_cim ~min_writes:true ~parallel:true ()); Backend.Host_arm ]
    [
      Ml_kernels.mm ~m:224 ~k:256 ~n:256 ();
      Ml_kernels.mm2 ~m:112 ~k:256 ~n:256 ~p:256 ();
      Ml_kernels.mm3 ~m:112 ~k:256 ~n:256 ~p:256 ~q:256 ();
      Ml_kernels.conv_multi ~h:32 ~w:64 ~kh:8 ~kw:8 ~filters:256 ();
      Prim_kernels.mv ~m:256 ~n:256 ();
      Ml_kernels.contrl ~a:16 ~b:16 ~c:16 ~d:4 ~e:8 ~f:8 ();
      Ml_kernels.contrs1 ~a:112 ~b:256 ~c:8 ~d:8 ();
      Ml_kernels.contrs2 ~a:32 ~b:256 ~c:8 ~d:64 ();
      Ml_kernels.mlp ~batch:112 ~d_in:256 ~d_hidden:256 ~d_out:128 ();
    ]

(* compile-fuzz: a fixed corpus of generated modules, so every seed
   compiles the same programs and only their argument data follows the
   seed. The reference is the host front-end lowering run by the tree
   interpreter. *)
let corpus_size = 200

let compile_fuzz ~seed =
  let backends =
    [
      Backend.Upmem (Backend.default_upmem ~dimms:1 ~dpus_per_dimm:4 ~tasklets:4 ());
      Backend.Cim (Backend.default_cim ());
      Backend.default_hetero ~dimms:1 ~dpus_per_dimm:4 ();
    ]
  in
  List.concat_map
    (fun s ->
      let text = Printer.module_to_string (Gen.generate ~ops:12 ~seed:s ()) in
      let m = Parser.parse_module_text text in
      let args = Gen.arg_values ~seed:((seed * 1_000_003) + s) (List.hd m.Func.funcs) in
      let host = Driver.compile ~config Backend.Host_xeon m in
      let expect, _ = Driver.run ~config:{ config with Config.interp = "tree" } host args in
      List.map
        (fun backend ->
          {
            label = Printf.sprintf "gen%d@%s" s (Backend.to_string backend);
            backend;
            source = Text text;
            args;
            expect;
            roundtrip = true;
          })
        backends)
    (List.init corpus_size (fun i -> i + 1))

(* ----- one run ----- *)

let items_of = function
  | "upmem-prim" -> upmem_prim
  | "cim-ml" -> cim_ml
  | "compile-fuzz" -> compile_fuzz
  | w -> invalid_arg ("not a batch workload: " ^ w)

let sum_dets dets f =
  Array.fold_left (fun acc d -> match d with Some d -> acc +. f d | None -> acc) 0.0 dets

let counter (d : Layers.det) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name d.Layers.counters))

let part (d : Layers.det) name =
  Option.value ~default:0.0 (List.assoc_opt name d.Layers.breakdown)

(* Peak memory is read after this many timed passes (or at the end of a
   shorter window), so it covers the same work in every run: the program
   keeps caches that grow with the items it has run. *)
let rss_passes = 8

(* Set-up (items, references, one untimed warm pass that records every
   item's deterministic outcome), then [ready ()], then the timed window.
   A traced run splits the window: an untraced half for the overhead
   baseline, then a traced half for the layer table. *)
let run ~workload ~seed ~seconds ~trace ~out_dir ~ready : Engine.result =
  let items = Array.of_list ((items_of workload) ~seed) in
  let n = Array.length items in
  let order = Rng.make (seed + 0x5eed) in
  let fs = Engine.failures () and attempted = ref 0 in
  let attempt i f =
    incr attempted;
    match f () with
    | d -> Some d
    | exception e ->
      Engine.fail fs items.(i).label (Engine.reason e);
      None
  in
  let warm = Array.make n None in
  Array.iter
    (fun i -> warm.(i) <- attempt i (fun () -> exec_plain items.(i)))
    (Engine.permutation order n);
  let probe = Layers.new_probe () in
  if trace then
    Array.iteri
      (fun i it -> Option.iter (fun w -> ignore (attempt i (fun () -> verify probe it w))) warm.(i))
      items;
  ready ();
  let rss = ref None in
  let pass exec k =
    if k = rss_passes && !rss = None then rss := Some (Engine.peak_rss_mb 0);
    Array.fold_left
      (fun acc i ->
        let t0 = Engine.now () in
        (match attempt i (fun () -> exec i) with
        | Some d -> (
          match warm.(i) with
          | Some w when Layers.same_det d w -> ()
          | _ -> Engine.fail fs items.(i).label "deterministic metrics differ from the warm pass")
        | None -> ());
        (Engine.now () -. t0) :: acc)
      [] (Engine.permutation order n)
  in
  let w =
    Engine.timed ~seconds:(if trace then seconds /. 2.0 else seconds)
      (pass (fun i -> exec_plain items.(i)))
  in
  let e2e =
    Engine.e2e_of_window w
    @ [
        ("peak_rss_mb", Option.value !rss ~default:(Engine.peak_rss_mb 0));
        ("sim_s", sum_dets warm (fun d -> d.Layers.total_s));
        ("code_ops", sum_dets warm (fun d -> float_of_int d.Layers.code_ops));
      ]
  in
  let layers, trace_path =
    if not trace then ([], "")
    else begin
      let sp = Span.create ~tid:1 in
      let next = ref 0 and dpu_instr = ref 0.0 and mvms = ref 0.0 in
      let cc0 = Cinm_interp.Compile.cache_stats () and r0 = Engine.runtime () in
      let tw =
        Engine.timed ~seconds:(seconds /. 2.0)
          (pass (fun i ->
               incr next;
               let d = Span.item (Some sp) ~id:!next (fun () -> exec_traced (Some sp) items.(i)) in
               dpu_instr := !dpu_instr +. counter d "dpu_instructions";
               mvms := !mvms +. counter d "mvms";
               d))
      in
      let r1 = Engine.runtime () and cc1 = Cinm_interp.Compile.cache_stats () in
      let self, traced = Engine.layers_of_spans sp.Span.spans in
      let path = Engine.trace_file ~out_dir ~workload ~seed in
      Span.write_chrome path ~t_origin:tw.Engine.t_start sp.Span.spans;
      let get k = Option.value ~default:0.0 (List.assoc_opt k self) in
      let per_event k total =
        if total = 0.0 then 0.0 else 1e9 *. get k *. float_of_int traced /. total
      in
      let hits = float_of_int (cc1.Cinm_interp.Compile.hits - cc0.Cinm_interp.Compile.hits)
      and misses = float_of_int (cc1.Cinm_interp.Compile.misses - cc0.Cinm_interp.Compile.misses) in
      let sum_counter k = sum_dets warm (fun d -> counter d k) in
      let sum_part k = sum_dets warm (fun d -> part d k) in
      let ovl = sum_part "e2e_overlapped" and seq = sum_part "e2e_sequential" in
      ( self
        @ List.map (fun (p, ops) -> ("transforms." ^ p ^ ".ops_out", float_of_int ops))
            (List.of_seq (Hashtbl.to_seq probe.Layers.ops_out))
        @ Engine.runtime_layers r0 r1 ~items:traced
        @ [
            ( "ir.text_kb",
              float_of_int probe.Layers.text_bytes /. 1024.0
              /. float_of_int (max 1 probe.Layers.items) );
            ("driver.fallbacks", sum_dets warm (fun d -> if d.Layers.fallback then 1.0 else 0.0));
            ("interp.host_scalar_ops", float_of_int probe.Layers.host_scalar_ops);
            ("interp.code_cache.hits", hits);
            ("interp.code_cache.misses", misses);
            ("interp.code_cache.hit_ratio", Engine.hit_ratio hits misses);
            ( "tensor.arena.pooled",
              float_of_int (Cinm_interp.Tensor.Arena.stats ()).Cinm_interp.Tensor.Arena.pooled );
            ("upmem_sim.launches", sum_counter "launches");
            ("upmem_sim.dpu_instructions", sum_counter "dpu_instructions");
            ("upmem_sim.ns_per_dpu_instruction", per_event "upmem_sim.hook_s" !dpu_instr);
            ("upmem_sim.dma_bytes", sum_counter "dma_bytes");
            ("upmem_sim.transferred_bytes", sum_counter "transferred_bytes");
            ("upmem_sim.kernel_sim_s", sum_part "kernel");
            ("upmem_sim.transfer_sim_s", sum_part "cpu->dpu" +. sum_part "dpu->cpu");
            ("memristor_sim.mvms", sum_counter "mvms");
            ("memristor_sim.ns_per_mvm", per_event "memristor_sim.hook_s" !mvms);
            ("memristor_sim.cells_written", sum_counter "cells_written");
            ("memristor_sim.crossbar_writes", sum_counter "crossbar_writes");
            ("memristor_sim.program_sim_s", sum_part "program");
            ("memristor_sim.mvm_sim_s", sum_part "mvm");
            ("memristor_sim.io_sim_s", sum_part "io");
            ("cam_sim.searches", sum_counter "cam_searches");
            ("cam_sim.rtm_reads", sum_counter "rtm_reads");
            ("cpu_sim.host_sim_s", sum_dets warm (fun d -> d.Layers.host_s));
            ("schedule.overlapped_sim_s", ovl);
            ("schedule.sequential_sim_s", seq);
            ("schedule.overlap_ratio", if ovl = 0.0 then 0.0 else seq /. ovl);
            ("sim.energy_j", sum_dets warm (fun d -> d.Layers.energy_j));
            ("trace_overhead", Engine.ops_per_s w /. Engine.ops_per_s tw);
          ],
        path )
    end
  in
  {
    Engine.attempted = !attempted;
    failed = fs.Engine.count;
    reasons = fs.Engine.reasons;
    e2e;
    layers;
    samples = List.length (Engine.fast_latencies w);
    passes = List.length w.Engine.passes;
    trace_path;
  }
