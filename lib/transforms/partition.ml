(* Heterogeneous partitioner (the multi-device generalization of
   Target_select, paper §3.2.2/§3.3): instead of picking one device per
   op in isolation, build a dependency-aware device schedule for the
   whole function across UPMEM (cnm), the memristor crossbar (cim), the
   CAM/RTM engines (cim) and the host CPU.

   The scheduler is HEFT-style list scheduling in program order (the
   block is already topologically sorted): for every cinm op it asks the
   cost models for an estimate on each feasible device, adds the
   host-staged transfer cost for operands that live on a *different*
   device, and places the op on the device with the earliest estimated
   finish time. Per-device ready times make load balancing emergent —
   two independent gemms split across the crossbar and the DPU grid
   because the second gemm would otherwise wait for the first device to
   drain.

   The pass annotates each scheduled op with "target" ("cnm" | "cim" |
   "host"), what the existing lowerings dispatch on — downstream passes
   are unchanged — and records a one-line plan summary on the function.

   The returned plan is a pure function of the module: byte-identical
   for any job count and interpreter backend (asserted by
   test_partition). *)

open Cinm_ir
open Cinm_dialects

type policy = {
  upmem_dpus : int;  (** DPU grid the cnm cost model assumes *)
  cim_rows : int;
  cim_cols : int;
}

type assignment = {
  a_op : string;
  a_oid : int;
  a_device : string;
  a_est_s : float;  (** cost-model estimate on the chosen device *)
  a_xfer_in_bytes : int;  (** operand bytes staged from other devices *)
  a_start_s : float;
  a_finish_s : float;
}

type plan = {
  assignments : assignment list;
  per_device : (string * int) list;  (** ops per device, fixed order *)
  est_makespan_s : float;  (** last estimated finish across devices *)
  est_sequential_s : float;  (** single-stream sum of the same estimates *)
}

let value_bytes (v : Ir.value) =
  match v.Ir.ty with
  | Types.Tensor (shape, dt) | Types.MemRef (shape, dt)
  | Types.Buffer { shape; dtype = dt; _ } ->
    Cinm_support.Util.product_of_shape shape * Types.dtype_bytes dt
  | _ -> 0

(* CAM-suited ops, per C4CAM's detection criterion (hamming/exact match)
   plus the RTM popcount engine. *)
let cam_suited op =
  match op.Ir.name with
  | "cinm.sim_search" -> (
    match Ir.attr op "metric" with Some (Attr.Str "hamming") -> true | _ -> false)
  | "cinm.pop_count" -> true
  | _ -> false

let matmul_like op = op.Ir.name = "cinm.gemm" || op.Ir.name = "cinm.gemv"

(* Ops the cnm lowering actually claims (cinm_to_cnm's pattern): the
   support table marks what the *paradigm* could run, but scheduling an
   op on upmem is only meaningful when a kernel exists for it. *)
let cnm_lowerable op =
  match op.Ir.name with
  | "cinm.gemm" | "cinm.gemv" | "cinm.reduce" | "cinm.histogram"
  | "cinm.scan" | "cinm.ew_expr" | "cinm.not" -> true
  | name ->
    Ir.dialect_of op = "cinm"
    && List.mem (String.sub name 5 (String.length name - 5)) Cinm_d.elementwise_binary

(* The model set of one plan, built from the backend geometry. The list
   order is the fixed device order: it breaks estimated-finish ties and
   orders [per_device]. *)
let models policy =
  [
    ("cpu", Cost_model.host);
    ("upmem", Cost_model.cnm ~dpus:policy.upmem_dpus);
    ("memristor", Cost_model.cim ~rows:policy.cim_rows ~cols:policy.cim_cols);
    ("cam", Cost_model.cam);
  ]

(* Whether [device] can run one cinm op; "cpu" always can. *)
let feasible op (support : Cinm_d.support) = function
  | "upmem" -> support.Cinm_d.cnm && cnm_lowerable op
  | "memristor" -> support.Cinm_d.cim && matmul_like op
  | "cam" -> cam_suited op
  | _ -> true

let target_of_device = function
  | "cpu" -> "host"
  | "upmem" -> "cnm"
  | _ (* memristor, cam *) -> "cim"

(* ----- the list scheduler ----- *)

type sched_state = {
  models : (string * Cost_model.t) list;
  (* vid -> (estimated ready time, device holding the value) *)
  avail : (int, float * string) Hashtbl.t;
  device_free : (string, float) Hashtbl.t;
  mutable acc : assignment list;
  mutable seq_s : float;
}

let fresh_state policy =
  {
    models = models policy;
    avail = Hashtbl.create 64;
    device_free = Hashtbl.create 4;
    acc = [];
    seq_s = 0.0;
  }

let value_avail st (v : Ir.value) =
  match Hashtbl.find_opt st.avail v.Ir.vid with
  | Some pair -> pair
  | None -> (0.0, "cpu") (* func params and constants live on the host *)

(* Staging an operand from [src] onto [dst] goes through the host, so a
   device-to-device move pays both directions. *)
let xfer_cost ~src ~dst bytes =
  if src = dst || bytes = 0 then 0.0
  else
    let hops = if src <> "cpu" && dst <> "cpu" then 2.0 else 1.0 in
    hops *. float_of_int bytes /. Cost_model.host_bw

let schedule_op st op =
  match Cinm_d.support_of op.Ir.name with
  | None ->
    (* not a cinm compute op: its results become available on the host
       once its operands are (zero-cost orchestration in this model) *)
    let ready = ref 0.0 in
    for i = 0 to Ir.num_operands op - 1 do
      let t, _ = value_avail st (Ir.operand op i) in
      if t > !ready then ready := t
    done;
    for i = 0 to Ir.num_results op - 1 do
      Hashtbl.replace st.avail (Ir.result op i).Ir.vid (!ready, "cpu")
    done
  | Some support ->
    let best = ref None in
    List.iter
      (fun (dev, model) ->
        match model op with
        | None -> ()
        | Some est ->
          let ready = ref 0.0 and xfer_bytes = ref 0 in
          for i = 0 to Ir.num_operands op - 1 do
            let v = Ir.operand op i in
            let t, src = value_avail st v in
            let bytes = value_bytes v in
            let arrive = t +. xfer_cost ~src ~dst:dev bytes in
            if src <> dev && bytes > 0 then xfer_bytes := !xfer_bytes + bytes;
            if arrive > !ready then ready := arrive
          done;
          let free =
            Option.value ~default:0.0 (Hashtbl.find_opt st.device_free dev)
          in
          let start = Float.max !ready free in
          let finish = start +. est in
          let better =
            match !best with
            | None -> true
            | Some (_, _, _, _, f) -> finish < f (* strict: first-listed wins ties *)
          in
          if better then best := Some (dev, est, !xfer_bytes, start, finish))
      (List.filter (fun (dev, _) -> feasible op support dev) st.models);
    let dev, est, xfer_bytes, start, finish =
      match !best with
      | Some b -> b
      | None -> ("cpu", 0.0, 0, 0.0, 0.0) (* no model covers it: free host op *)
    in
    Ir.set_attr op "target" (Attr.Str (target_of_device dev));
    Hashtbl.replace st.device_free dev finish;
    for i = 0 to Ir.num_results op - 1 do
      Hashtbl.replace st.avail (Ir.result op i).Ir.vid (finish, dev)
    done;
    st.seq_s <-
      st.seq_s +. est +. (float_of_int xfer_bytes /. Cost_model.host_bw);
    st.acc <-
      {
        a_op = op.Ir.name;
        a_oid = op.Ir.oid;
        a_device = dev;
        a_est_s = est;
        a_xfer_in_bytes = xfer_bytes;
        a_start_s = start;
        a_finish_s = finish;
      }
      :: st.acc

let plan_of_state st =
  let assignments = List.rev st.acc in
  let per_device =
    List.map
      (fun (d, _) ->
        (d, List.length (List.filter (fun a -> a.a_device = d) assignments)))
      st.models
  in
  let est_makespan_s =
    List.fold_left (fun m a -> Float.max m a.a_finish_s) 0.0 assignments
  in
  { assignments; per_device; est_makespan_s; est_sequential_s = st.seq_s }

(* Human-readable one-liner recorded on the function so later stages
   (serve, reports) can say how the module was split without replanning:
   "cpu=1 upmem=2 memristor=1 est_speedup=1.8x". *)
let plan_summary_string plan =
  let parts =
    List.filter_map
      (fun (d, c) -> if c > 0 then Some (Printf.sprintf "%s=%d" d c) else None)
      plan.per_device
  in
  let speedup =
    if plan.est_makespan_s > 0.0 then
      Printf.sprintf "est_speedup=%.2fx" (plan.est_sequential_s /. plan.est_makespan_s)
    else "est_speedup=1.00x"
  in
  String.concat " " (parts @ [ speedup ])

(* Partition one function: annotate its top-level cinm ops and return the
   schedule. Ops nested in regions stay with their parent. *)
let run_on_func policy (f : Func.t) =
  let st = fresh_state policy in
  Ir.iter_ops (schedule_op st) (Func.entry_block f);
  let plan = plan_of_state st in
  f.Func.fattrs <-
    ("partition", Attr.Str (plan_summary_string plan))
    :: List.remove_assoc "partition" f.Func.fattrs;
  plan

(* Plan of the module's first function, on a clone. *)
let plan_module policy (m : Func.modul) =
  match m.Func.funcs with
  | [] -> plan_of_state (fresh_state policy)
  | f :: _ -> run_on_func policy (Func.clone f)

let pass policy =
  Pass.create ~name:"cinm-partition" (fun m ->
      List.iter (fun f -> ignore (run_on_func policy f)) m.Func.funcs)
