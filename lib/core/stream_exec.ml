(* Multi-stream schedule recorder for the Hetero backend: runs one lowered
   module across the UPMEM, memristor and CAM/RTM simulators plus the host
   interpreter, and records the schedule an async runtime would have
   overlapped — each device's scatter/gather DMA against compute, and
   independent ops on different devices against each other.

   Execution model
   - Execution is the one executor's: {!Compile.run_body} runs the
     function's top-level ops in program order on one context, under the
     context's interpreter, with the watchdog counted per run. DPU lanes
     still run on the pool inside each launch.
   - Nodes are the function's top-level ops (the terminator excluded).
     Their schedule dependencies are (a) SSA: every value the op uses —
     operands plus values its nested regions capture — points at its
     producing node; (b) memory: nodes touching the same memref storage
     (chased through view/cast aliases to the allocation) are chained in
     program order, since memref mutation is invisible to SSA. Ops queued
     on the same machine overlap across its h2d/kernel/d2h engines
     (double-buffered DMA), while per-channel serialization in the merge
     keeps each engine's events in program order.
   - Simulated time: for the duration of the run the recorder wraps each
     machine's hook and logs one schedule event per timed device op
     ({!timed}), its duration the increment of that machine's busy clock;
     the events a node logged, with the dependency DAG, go to
     {!Cinm_support.Schedule.summarize} — producing the overlapped
     (critical-path) end-to-end time, the sequential single-stream sum of
     the very same events, and per-machine busy/idle tracks. Host-side
     work becomes one event per node on the shared "cpu" channel, costed
     by the caller's host model over the node's own profile (the model's
     max(compute, memory) is applied per node, and device issue is
     asynchronous: a node's device events do not wait for its own host
     event).

   Because the ops run in program order, results, machine stats and
   schedule events are the same at any host job count and under either
   interpreter (asserted by test_partition and the fuzz oracle's hetero
   axis). *)

open Cinm_ir
open Cinm_interp
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Camsim = Cinm_cam_sim
module Schedule = Cinm_support.Schedule

type machines = Machine_set.t

(* ----- schedule events ----- *)

(* The schedule event of a device op its hook has run: channel, kind and
   the buffer handles that carry its RAW hazards. A launch waits for the
   scatters that filled its buffers and a gather for the launch that wrote
   its buffer, so the transfer of chunk n+1 can overlap the kernel of
   chunk n. The crossbar and CAM/RTM are one serial "dev" channel each:
   their internal tile overlap is already in their clocks. *)
let timed (op : Ir.op) (ops : Rtval.t array) =
  match op.Ir.name with
  | "upmem.scatter" -> Some ("h2d", Schedule.Dma_in, [ Rtval.as_handle ops.(1) ])
  | "upmem.gather" -> Some ("d2h", Schedule.Dma_out, [ Rtval.as_handle ops.(0) ])
  | "upmem.launch" ->
    let bufs = List.init (Array.length ops - 1) (fun i -> Rtval.as_handle ops.(i + 1)) in
    Some ("kernel", Schedule.Compute, bufs)
  | "memristor.copy_tile" | "cam.write_entries" | "rtm.write" ->
    Some ("dev", Schedule.Dma_in, [])
  | "memristor.store_tile" | "memristor.gemm_tile" | "cam.search_best" | "rtm.pop_count" ->
    Some ("dev", Schedule.Compute, [])
  | _ -> None

(* [hook], wrapped to log its timed ops newest first, each lasting the
   increment of the machine's busy clock [busy]. *)
let record machine busy (hook : Interp.hook) =
  let log = ref [] in
  let hook ctx op ops =
    let t0 = busy () in
    let r = hook ctx op ops in
    (match (r, timed op ops) with
    | Some _, Some (chan, kind, bufs) ->
      let ev = { Schedule.chan; kind; dur_s = busy () -. t0; bufs; label = op.Ir.name } in
      log := (machine, ev) :: !log
    | _ -> ());
    r
  in
  (hook, log)

(* Every machine's recording hook and log, in the set's fixed order, so a
   node's events are reproducible. The memristor's busy clock is its
   serial sum: [Msim.Stats.total_s] is the tile-overlapped makespan once a
   device is released. *)
let recorders (ms : machines) =
  let upmem (u : Usim.Machine.t) =
    record "upmem" (fun () -> Usim.Stats.total_s u.stats) (Usim.Machine.hook u)
  and memristor (x : Msim.Machine.t) =
    let t = x.stats.Msim.Stats.time in
    record "memristor"
      (fun () -> t.Msim.Stats.program_s +. t.compute_s +. t.io_s)
      (Msim.Machine.hook x)
  and cam (c : Camsim.Cam_machine.t) =
    record "cam" (fun () -> c.stats.busy_s) (Camsim.Cam_machine.hook c)
  in
  List.filter_map Fun.id
    [ Option.map upmem ms.Machine_set.upmem;
      Option.map memristor ms.Machine_set.memristor;
      Option.map cam ms.Machine_set.cam ]

(* ----- the node DAG ----- *)

let is_mem (ty : Types.t) =
  match ty with Types.MemRef _ | Types.Buffer _ -> true | _ -> false

(* Chase memref views/casts back to the allocation they alias, so the
   memory chain orders accesses by storage rather than by SSA name. *)
let rec mem_root (v : Ir.value) =
  match v.Ir.def with
  | Ir.Op_result (op, _)
    when Ir.dialect_of op = "memref"
         && op.Ir.name <> "memref.alloc"
         && Ir.num_operands op > 0
         && is_mem (Ir.operand op 0).Ir.ty ->
    mem_root (Ir.operand op 0)
  | _ -> v

(* The schedule dependencies of each top-level op, by program index:
   the earlier nodes it waits on for data or memory. *)
let node_deps (f : Func.t) : int list array =
  let producer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_mem : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let acc = ref [] and idx = ref 0 in
  Ir.iter_ops
    (fun op ->
      if not (Ir.is_terminator op) then begin
        let id = !idx in
        incr idx;
        let uses = Array.to_list op.Ir.operands @ Compile.free_values op in
        let deps = ref [] in
        let add d = if d <> id then deps := d :: !deps in
        List.iter
          (fun (v : Ir.value) -> Option.iter add (Hashtbl.find_opt producer v.Ir.vid))
          uses;
        let touch_mem (v : Ir.value) =
          if is_mem v.Ir.ty then begin
            let r = (mem_root v).Ir.vid in
            Option.iter add (Hashtbl.find_opt last_mem r);
            Hashtbl.replace last_mem r id
          end
        in
        List.iter touch_mem uses;
        Array.iter touch_mem op.Ir.results;
        Array.iter (fun (v : Ir.value) -> Hashtbl.replace producer v.Ir.vid id) op.Ir.results;
        acc := List.sort_uniq compare !deps :: !acc
      end)
    (Func.entry_block f);
  Array.of_list (List.rev !acc)

(* ----- recording ----- *)

type outcome = {
  results : Rtval.t list;
  profile : Profile.t;  (** the per-node profiles, summed *)
  summary : Schedule.summary;
  schedule : Schedule.node list;  (** the merged event DAG, for tracing *)
}

let run ?config ?modul ~(host_cost : Profile.t -> float) ~(machines : machines)
    (f : Func.t) (args : Rtval.t list) : outcome =
  let deps = node_deps f in
  let profiles = Array.map (fun _ -> Profile.create ()) deps in
  let events = Array.make (Array.length deps) [] in
  let recorders = recorders machines in
  let each i run =
    run profiles.(i);
    let host_s = host_cost profiles.(i) in
    let device_evs =
      List.concat_map
        (fun (_, log) ->
          let evs = List.rev !log in
          log := [];
          evs)
        recorders
    in
    events.(i) <-
      (if host_s > 0.0 then [ Schedule.host_event host_s ] else []) @ device_evs
  in
  let ctx =
    Interp.create_ctx ~hooks:(List.map fst recorders) ?modul ~fname:f.Func.fname ?config ()
  in
  let results = Compile.run_body ~each ctx f args in
  let profile = ctx.Interp.profile in
  Array.iter (fun p -> Profile.add ~into:profile p) profiles;
  let schedule =
    List.mapi
      (fun i n_deps -> { Schedule.n_id = i; n_deps; n_events = events.(i) })
      (Array.to_list deps)
  in
  { results; profile; summary = Schedule.summarize schedule; schedule }
