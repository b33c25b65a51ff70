(* Async multi-stream executor for the Hetero backend: runs one lowered
   module across the UPMEM, memristor and CAM/RTM simulators plus the
   host interpreter *simultaneously*, overlapping each device's
   scatter/gather DMA with compute through the schedule model.

   Execution model
   - Nodes are the function's top-level ops (the terminator excluded).
     Dependencies are (a) SSA: every free value of the op — operands plus
     values its nested regions capture — points at its producing node;
     (b) memory: nodes touching the same memref storage (chased through
     view/cast aliases to the allocation) are chained in program order,
     since memref mutation is invisible to SSA; (c) machine exclusivity:
     nodes driving the same simulator are chained in program order — the
     chain is what makes its stats and event log deterministic under any
     host job count. The exclusivity chains govern *execution* only; the
     schedule merge sees just the data/memory DAG, so queued same-machine
     ops still overlap across the machine's h2d/kernel/d2h engines
     (double-buffered DMA), while per-channel serialization keeps each
     engine's events in program order.
   - Ready nodes execute on the shared {!Cinm_support.Pool} (helper
     tasks plus the calling domain, so progress never depends on a
     worker being free). Every node evaluates in a private context whose
     environment is staged from a mutex-protected results table, with a
     private profile; profiles are merged in program order afterwards, so
     the merged profile is independent of the interleaving.
   - Simulated time: each machine appends schedule events (duration = its
     stats increment) while a node runs; the executor slices the logs per
     node and feeds them, with the dependency DAG, to
     {!Cinm_support.Schedule.summarize} — producing the overlapped
     (critical-path) end-to-end time, the sequential single-stream sum of
     the very same events, and per-machine busy/idle tracks. Host-side
     work becomes one event per node on the shared "cpu" channel, costed
     by the caller's host model over the node's private profile (the
     model's max(compute, memory) is applied per node, and device issue
     is asynchronous: a node's device events do not wait for its own host
     event).

   Because both the parallel and the sequential walk execute the same
   per-node contexts with machine chains forcing the same per-machine op
   order, results, machine stats and schedule events are bit-identical at
   any job count — overlapped execution changes wall-clock and the
   *reported* overlapped makespan, never the data (asserted by
   test_partition). *)

open Cinm_ir
open Cinm_interp
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Camsim = Cinm_cam_sim
module Schedule = Cinm_support.Schedule
module Vec = Cinm_support.Vec
module Pool = Cinm_support.Pool

type machines = Machine_set.t

let events_of (ms : machines) m =
  match (m, ms) with
  | "upmem", { Machine_set.upmem = Some u; _ } -> u.Usim.Machine.events
  | "memristor", { Machine_set.memristor = Some x; _ } -> x.Msim.Machine.events
  | "cam", { Machine_set.cam = Some c; _ } -> c.Camsim.Cam_machine.events
  | _ -> invalid_arg ("Stream_exec: no " ^ m ^ " machine in the set")

(* Which simulator a dialect's ops land on. cnm/cim ops that survive to
   execution are handled by the upmem/memristor hooks respectively. *)
let machine_of_dialect = function
  | "upmem" | "cnm" -> Some "upmem"
  | "memristor" | "cim" -> Some "memristor"
  | "cam" | "rtm" -> Some "cam"
  | _ -> None

(* ----- node extraction ----- *)

type node = {
  id : int;
  op : Ir.op;
  free : Ir.value list;  (** operands + values captured by nested regions *)
  machs : string list;  (** simulators driven, fixed order *)
  mutable deps : int list;
      (** execution deps: data + memory + machine chains — what must have
          *run* before this node may run *)
  mutable sdeps : int list;
      (** schedule deps: data + memory only. The machine chains are
          deliberately absent: in the modelled timeline a machine is a set
          of engines (h2d / kernel / d2h channels), and ops queued on the
          same machine overlap across channels — that is the
          double-buffering the schedule measures. Per-channel
          serialization in {!Schedule.makespan} still orders same-channel
          events by program order. *)
}

(* Operands of [op] plus everything its nested regions reference but do
   not define (same notion as the compiled backend's capture set). *)
let free_values (op : Ir.op) : Ir.value list =
  let defined = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let add (v : Ir.value) =
    if (not (Hashtbl.mem defined v.Ir.vid)) && not (Hashtbl.mem seen v.Ir.vid)
    then begin
      Hashtbl.add seen v.Ir.vid ();
      acc := v :: !acc
    end
  in
  Array.iter add op.Ir.operands;
  let rec go_region r =
    Ir.iter_blocks
      (fun b ->
        Array.iter
          (fun (v : Ir.value) -> Hashtbl.replace defined v.Ir.vid ())
          b.Ir.args;
        Ir.iter_ops
          (fun o ->
            Array.iter
              (fun (v : Ir.value) -> Hashtbl.replace defined v.Ir.vid ())
              o.Ir.results)
          b;
        Ir.iter_ops
          (fun o ->
            Array.iter add o.Ir.operands;
            Array.iter go_region o.Ir.regions)
          b)
      r
  in
  Array.iter go_region op.Ir.regions;
  List.rev !acc

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

let machines_of_op (op : Ir.op) =
  let found = ref [] in
  Ir.walk_op
    (fun o ->
      match machine_of_dialect (Ir.dialect_of o) with
      | Some m when not (List.mem m !found) -> found := m :: !found
      | _ -> ())
    op;
  (* fixed order, so chains and event slices are reproducible *)
  List.filter (fun m -> List.mem m !found) [ "upmem"; "memristor"; "cam" ]

let build_nodes (f : Func.t) =
  let block = Func.entry_block f in
  let producer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_mem : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let last_mach : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let acc = ref [] and idx = ref 0 in
  Ir.iter_ops
    (fun op ->
      if not (Ir.is_terminator op) then begin
        let id = !idx in
        incr idx;
        let free = free_values op in
        let machs = machines_of_op op in
        let deps = ref [] and sdeps = ref [] in
        let add d =
          if d <> id then begin
            deps := d :: !deps;
            sdeps := d :: !sdeps
          end
        in
        List.iter
          (fun (v : Ir.value) ->
            match Hashtbl.find_opt producer v.Ir.vid with
            | Some p -> add p
            | None -> ())
          free;
        let touch_mem (v : Ir.value) =
          if is_mem v.Ir.ty then begin
            let r = (mem_root v).Ir.vid in
            (match Hashtbl.find_opt last_mem r with
            | Some p -> add p
            | None -> ());
            Hashtbl.replace last_mem r id
          end
        in
        List.iter touch_mem free;
        Array.iter touch_mem op.Ir.results;
        List.iter
          (fun m ->
            (match Hashtbl.find_opt last_mach m with
            | Some p -> if p <> id then deps := p :: !deps
            | None -> ());
            Hashtbl.replace last_mach m id)
          machs;
        Array.iter
          (fun (v : Ir.value) -> Hashtbl.replace producer v.Ir.vid id)
          op.Ir.results;
        acc :=
          {
            id;
            op;
            free;
            machs;
            deps = List.sort_uniq compare !deps;
            sdeps = List.sort_uniq compare !sdeps;
          }
          :: !acc
      end)
    block;
  Array.of_list (List.rev !acc)

(* ----- execution ----- *)

type outcome = {
  results : Rtval.t list;
  profile : Profile.t;  (** merged per-node profiles, in program order *)
  summary : Schedule.summary;
  schedule : Schedule.node list;  (** the merged event DAG, for tracing *)
}

let run ?config ?modul ?(sequential = false) ?(dma_depth = 2)
    ~(host_cost : Profile.t -> float) ~(machines : machines) (f : Func.t)
    (args : Rtval.t list) : outcome =
  let nodes = build_nodes f in
  let n = Array.length nodes in
  let hooks = Machine_set.hooks machines in
  let glock = Mutex.create () in
  let genv : (int, Rtval.t) Hashtbl.t = Hashtbl.create (4 * (n + 1)) in
  List.iter2
    (fun (p : Ir.value) a -> Hashtbl.replace genv p.Ir.vid a)
    (Func.params f) args;
  let profiles = Array.init n (fun _ -> Profile.create ()) in
  let sched_events : (string * Schedule.ev) list array = Array.make n [] in
  let exec_node i =
    let node = nodes.(i) in
    let profile = profiles.(i) in
    let ctx =
      Interp.create_ctx ~hooks ~profile ?modul ~fname:f.Func.fname ?config ()
    in
    Mutex.lock glock;
    List.iter
      (fun (v : Ir.value) ->
        match Hashtbl.find_opt genv v.Ir.vid with
        | Some rv -> Interp.bind ctx v rv
        | None -> ())
      node.free;
    Mutex.unlock glock;
    (* the machine chains guarantee this node is the only one driving its
       machines, so the log lengths delimit exactly its events *)
    let marks =
      List.map (fun m -> (m, Vec.length (events_of machines m))) node.machs
    in
    Interp.eval_op ctx node.op;
    let host_s = host_cost profile in
    let device_evs =
      List.concat_map
        (fun (m, start) ->
          let log = events_of machines m in
          List.init (Vec.length log - start) (fun k -> (m, Vec.get log (start + k))))
        marks
    in
    sched_events.(i) <-
      (if host_s > 0.0 then [ Schedule.host_event host_s ] else []) @ device_evs;
    Mutex.lock glock;
    Array.iter
      (fun (v : Ir.value) -> Hashtbl.replace genv v.Ir.vid (Interp.lookup ctx v))
      node.op.Ir.results;
    Mutex.unlock glock
  in
  let pool = Pool.default () in
  if sequential || n <= 1 || Pool.jobs pool <= 1 then
    (* program order is a topological order: every dep points backwards *)
    Array.iter (fun node -> exec_node node.id) nodes
  else begin
    let succs = Array.make n [] in
    let indeg = Array.make n 0 in
    Array.iter
      (fun node ->
        indeg.(node.id) <- List.length node.deps;
        List.iter
          (fun d -> succs.(d) <- node.id :: succs.(d))
          node.deps)
      nodes;
    let slock = Mutex.create () in
    let cond = Condition.create () in
    let ready = Queue.create () in
    Array.iter (fun node -> if indeg.(node.id) = 0 then Queue.push node.id ready) nodes;
    let remaining = ref n and executing = ref 0 in
    let failure = ref None in
    (* Worker loop: claim a ready node, run it, release its successors.
       Exits once everything ran or a node failed; the calling domain runs
       the same loop, so completion never depends on pool workers being
       free (the pool may be busy serving the node's own DPU lanes). *)
    let worker () =
      Mutex.lock slock;
      let continue_ = ref true in
      while !continue_ do
        if !remaining = 0 || !failure <> None then continue_ := false
        else
          match Queue.take_opt ready with
          | None -> Condition.wait cond slock
          | Some i ->
            incr executing;
            Mutex.unlock slock;
            let res =
              try
                exec_node i;
                None
              with e -> Some (e, Printexc.get_raw_backtrace ())
            in
            Mutex.lock slock;
            decr executing;
            (match res with
            | Some _ when !failure = None -> failure := res
            | _ -> ());
            decr remaining;
            List.iter
              (fun s ->
                indeg.(s) <- indeg.(s) - 1;
                if indeg.(s) = 0 then Queue.push s ready)
              succs.(i);
            Condition.broadcast cond
      done;
      Condition.broadcast cond;
      Mutex.unlock slock
    in
    let extra = min (Pool.jobs pool - 1) (max 1 (n / 2)) in
    for _ = 1 to extra do
      Pool.help pool worker
    done;
    worker ();
    (* wait for in-flight workers so machines and tables are quiescent *)
    Mutex.lock slock;
    while !executing > 0 do
      Condition.wait cond slock
    done;
    let fail = !failure in
    Mutex.unlock slock;
    match fail with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end;
  let results =
    let term_operands = ref [] in
    Ir.iter_ops
      (fun op -> if Ir.is_terminator op then term_operands := Array.to_list op.Ir.operands)
      (Func.entry_block f);
    List.map
      (fun (v : Ir.value) ->
        match Hashtbl.find_opt genv v.Ir.vid with
        | Some rv -> rv
        | None -> Interp.err "hetero executor: result value v%d unbound" v.Ir.vid)
      !term_operands
  in
  let profile = Profile.create () in
  Array.iter (fun p -> Profile.add ~into:profile p) profiles;
  let sched =
    Array.to_list
      (Array.map
         (fun node ->
           {
             Schedule.n_id = node.id;
             n_deps = node.sdeps;
             n_events = sched_events.(node.id);
           })
         nodes)
  in
  {
    results;
    profile;
    summary = Schedule.summarize ~dma_depth sched;
    schedule = sched;
  }
