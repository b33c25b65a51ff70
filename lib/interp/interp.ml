(* Reference interpreter for the CINM IR. Executes host-level dialects
   (arith, scf, tensor, memref, linalg, tosa, cinm) and the UPMEM ops a
   DPU lane runs itself directly; the device ops ([is_device_op]) are
   delegated to hooks installed by the simulators. Every executed
   operation is accounted in a [Profile.t], from which the timing models
   derive simulated time. *)

open Cinm_ir
module Util = Cinm_support.Util
module Config = Cinm_support.Config

(* The identity of one DPU's kernel evaluation in the UPMEM simulator:
   the executing DPU and tasklet, and the DPU's WRAM. A DPU's tasklets
   run one after another on one lane, so [tasklet] is mutable; each DPU
   owns its [wram] table, so the per-DPU loop bodies touch no
   machine-global mutable state. It lives here, not in the simulator,
   because the builtin lane ops (DMA, tasklet id, barrier, shared WRAM)
   read it. *)
type lane = {
  dpu : int;
  mutable tasklet : int;
  wram : (int, Tensor.t) Hashtbl.t;
      (** per-DPU shared WRAM buffers, keyed by the alloc op's oid *)
  mutable wram_used : int;  (** bytes allocated in this DPU's WRAM *)
  wram_bytes : int;  (** the DPU's WRAM capacity *)
}

type ctx = {
  env : (int, Rtval.t) Hashtbl.t;
  profile : Profile.t;
  hooks : hook list;
  modul : Func.modul option;  (** for func.call *)
  device : lane option;
      (** the DPU lane being simulated; [None] on the host. Carrying it
          in the context, not in the machine, is what lets the simulator
          run many DPUs at once on OCaml 5 domains. *)
  fname : string;  (** function being executed, for watchdog diagnostics *)
  max_steps : int;
      (** watchdog: abort once [steps] exceeds this (0 = unlimited).
          Checked on loop back-edges and calls only, so straight-line
          code pays nothing. *)
  steps : int ref;
      (** back-edges and calls taken so far; a [ref] (not a mutable
          field) so [{ctx with fname}] copies for callees share it *)
  deadline : float;
      (** absolute host time after which execution aborts (0. = none);
          checked every 1024 watchdog steps so the hot path never calls
          the clock *)
  cancel : bool Atomic.t;
      (** cooperative cancellation, set by a server to tear the request
          down; device-lane copies share the flag, so cancelling the
          request cancels every lane *)
  interp : string;
      (** per-request interpreter backend ("tree" | "compiled"); ""
          defers to the process default ({!Compile.backend}). Carried on
          the context so machine hooks evaluating kernel regions honor
          the request's choice without a global *)
  mutable adopt : bool;
      (** see the interface *)
  scratch : Tensor.t list ref option;
      (** when set (device lanes executing a launch region), tensors
          allocated by [memref.alloc]/[upmem.wram_alloc] come from the
          {!Tensor.Arena} and are recorded here; the machine releases
          them after the launch. Kernel-local allocations cannot escape
          a launch region (regions yield tokens, stores copy elements),
          so the recycling is invisible to program semantics. [None]
          (host execution) allocates normally — host allocations can
          escape through [func.return]. *)
}

and hook = ctx -> Ir.op -> Rtval.t array -> Rtval.t list option

exception Interp_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Interp_error s)) fmt

(* Does [check_steps] do more than one branch? The fused loops of the
   closure compiler poll it per trip only then. *)
let watched ctx =
  ctx.max_steps > 0 || ctx.deadline > 0. || ctx.cancel != Config.never_cancelled

(* Watchdog check, shared verbatim by the tree-walker and the closure
   compiler. It counts its own invocations (loop back-edges and calls)
   rather than consulting the profile, so even a loop whose body is pure
   control flow trips it; both backends place the check at the same
   sites, so the count — and therefore this message — is identical in
   both.

   The same sites double as deadline/cancellation points for server
   requests: the cancel flag is a single atomic load per back-edge, and
   the deadline consults the clock only every 1024 steps. Both raise
   {!Config.Cancelled}, which is not an [Interp_error] — callers that
   convert interpreter failures into diagnostics must let it escape. With
   no budget, no deadline and the shared never-cancelled flag, the whole
   check is one branch, preserving the uninstrumented fast path. *)
let check_steps ctx (op_name : string) =
  if watched ctx then begin
    incr ctx.steps;
    if ctx.max_steps > 0 && !(ctx.steps) > ctx.max_steps then
      err
        "watchdog: function @%s exceeded the step budget at %s: %d steps (max %d); raise the config's max_steps (CINM_MAX_STEPS)"
        ctx.fname op_name !(ctx.steps) ctx.max_steps;
    if Atomic.get ctx.cancel then
      raise
        (Config.Cancelled
           (Printf.sprintf "request cancelled in @%s at %s" ctx.fname op_name));
    if
      ctx.deadline > 0.
      && !(ctx.steps) land 1023 = 0
      && Unix.gettimeofday () > ctx.deadline
    then
      raise
        (Config.Cancelled
           (Printf.sprintf "deadline exceeded in @%s at %s (%d steps)"
              ctx.fname op_name !(ctx.steps)))
  end

(* [n] watchdog steps at once, for a caller that runs [n] checks' worth
   of work between two of its own: when none of the [n] checks would
   raise (the budget holds them, the cancel flag is clear, and no
   1024-step mark falls in them past the deadline), count them and
   return true; otherwise change nothing and return false, and the
   caller makes the checks one at a time. *)
let skip_steps ctx n =
  let s0 = !(ctx.steps) in
  let s = s0 + n in
  if
    (ctx.max_steps > 0 && s > ctx.max_steps)
    || Atomic.get ctx.cancel
    || (ctx.deadline > 0. && s lsr 10 <> s0 lsr 10 && Unix.gettimeofday () > ctx.deadline)
  then false
  else begin
    ctx.steps := s;
    true
  end

let lookup ctx (v : Ir.value) =
  match Hashtbl.find_opt ctx.env v.Ir.vid with
  | Some rv -> rv
  | None -> err "use of unbound value %%%d : %s" v.Ir.vid (Types.to_string v.Ir.ty)

let bind ctx (v : Ir.value) rv = Hashtbl.replace ctx.env v.Ir.vid rv

(* The results of the first hook that implements [op], given its operand
   values; [apply]'s last case. *)
let dispatch_hooks ctx (op : Ir.op) args =
  let rec go = function
    | [] -> err "no interpreter semantics for %s" op.Ir.name
    | h :: rest -> ( match h ctx op args with Some vals -> vals | None -> go rest)
  in
  go ctx.hooks

(* The ops a machine hook serves: those of the device dialects, but for
   the UPMEM ops a DPU lane runs itself, which [apply] implements. *)
let is_device_op (op : Ir.op) =
  match Ir.dialect_of op with
  | "cnm" | "cim" | "memristor" | "cam" | "rtm" -> true
  | "upmem" -> (
    match op.Ir.name with
    | "upmem.mram_read" | "upmem.mram_write" | "upmem.wram_alloc"
    | "upmem.wram_shared_alloc" | "upmem.tasklet_id" | "upmem.barrier_wait" ->
      false
    | _ -> true)
  | _ -> false

(* Allocation point of [memref.alloc]/[upmem.wram_alloc] under both
   backends: arena-recycled (and recorded for release) inside a launch,
   fresh on the host. Arena tensors are zero-filled, so the two sources
   are indistinguishable to the program. *)
let alloc_tensor ctx shape dt =
  match ctx.scratch with
  | Some l ->
    let t = Tensor.Arena.alloc shape dt in
    l := t :: !l;
    t
  | None -> Tensor.zeros shape dt

let dma_name to_wram = if to_wram then "upmem.mram_read" else "upmem.mram_write"

let dma_oob ctx ~to_wram what off count n =
  let where =
    match ctx.device with
    | Some l -> Printf.sprintf " on DPU %d (tasklet %d)" l.dpu l.tasklet
    | None -> ""
  in
  invalid_arg
    (Printf.sprintf "%s: %s range [%d, %d) out of bounds for %d elements%s"
       (dma_name to_wram) what off (off + count) n where)

(* [upmem.mram_read] ([to_wram]) and [upmem.mram_write]: copy [count]
   contiguous elements between an MRAM memref (a PU's buffer) and a WRAM
   scratchpad, at flat offsets. One transfer of [count] elements of the
   MRAM dtype is accounted once the copy is done. *)
let dma ctx ~to_wram ~count (mram : Tensor.t) (wram : Tensor.t) mram_off wram_off =
  (let n = Tensor.num_elements mram in
   if mram_off < 0 || count < 0 || mram_off + count > n then
     dma_oob ctx ~to_wram "MRAM" mram_off count n);
  (let n = Tensor.num_elements wram in
   if wram_off < 0 || count < 0 || wram_off + count > n then
     dma_oob ctx ~to_wram "WRAM" wram_off count n);
  if to_wram then Tensor.blit mram mram_off wram wram_off count
  else Tensor.blit wram wram_off mram mram_off count;
  let p = ctx.profile in
  p.Profile.dma_transfers <- p.Profile.dma_transfers + 1;
  p.Profile.dma_bytes <- p.Profile.dma_bytes + (count * Types.dtype_bytes mram.Tensor.dtype)

(* Operand [i] of [op] among its values [args], failing as [Ir.operand]
   does when the op has no such operand. *)
let arg (op : Ir.op) (args : Rtval.t array) i =
  if i < 0 || i >= Array.length args then
    invalid_arg (Printf.sprintf "Ir.operand %d of %s" i op.Ir.name);
  Array.unsafe_get args i

let t_arg op args i = Rtval.as_tensor (arg op args i)
let i_arg op args i = Rtval.as_int (arg op args i)

(* ----- profile accounting for bulk (tensor-level) ops ----- *)

let account_elementwise p n =
  p.Profile.alu_ops <- p.Profile.alu_ops + n;
  p.Profile.loads <- p.Profile.loads + (2 * n);
  p.Profile.stores <- p.Profile.stores + n

let account_matmul p m n k =
  p.Profile.mul_ops <- p.Profile.mul_ops + (m * n * k);
  p.Profile.alu_ops <- p.Profile.alu_ops + (m * n * k);
  p.Profile.loads <- p.Profile.loads + (2 * m * n * k);
  p.Profile.stores <- p.Profile.stores + (m * n)

let account_move p n =
  p.Profile.loads <- p.Profile.loads + n;
  p.Profile.stores <- p.Profile.stores + n

(* ----- evaluation ----- *)

(* Profile buckets for scalar int binops, see [account_int_binop]. *)
let bucket_alu = 0
let bucket_mul = 1
let bucket_div = 2

let account_int_binop (p : Profile.t) bucket =
  if bucket = bucket_mul then p.Profile.mul_ops <- p.Profile.mul_ops + 1
  else if bucket = bucket_div then p.Profile.div_ops <- p.Profile.div_ops + 1
  else p.Profile.alu_ops <- p.Profile.alu_ops + 1

(* The scalar binops, one table for [apply] and the closure compiler. *)
type binop =
  | Int_binop of int * (int -> int -> int)
  | Float_binop of (float -> float -> float)
  | Not_a_binop

let binop = function
  | "arith.addi" -> Int_binop (bucket_alu, ( + ))
  | "arith.subi" -> Int_binop (bucket_alu, ( - ))
  | "arith.muli" -> Int_binop (bucket_mul, ( * ))
  | "arith.divsi" -> Int_binop (bucket_div, Tensor.int_binop "div")
  | "arith.remsi" -> Int_binop (bucket_div, Tensor.int_binop "rem")
  | "arith.minsi" -> Int_binop (bucket_alu, Tensor.int_binop "min")
  | "arith.maxsi" -> Int_binop (bucket_alu, Tensor.int_binop "max")
  | "arith.andi" -> Int_binop (bucket_alu, ( land ))
  | "arith.ori" -> Int_binop (bucket_alu, ( lor ))
  | "arith.xori" -> Int_binop (bucket_alu, ( lxor ))
  | "arith.shli" -> Int_binop (bucket_alu, ( lsl ))
  | "arith.shrsi" -> Int_binop (bucket_alu, ( asr ))
  | "arith.addf" -> Float_binop ( +. )
  | "arith.subf" -> Float_binop ( -. )
  | "arith.mulf" -> Float_binop ( *. )
  | "arith.divf" -> Float_binop ( /. )
  | "arith.minf" -> Float_binop Float.min
  | "arith.maxf" -> Float_binop Float.max
  | _ -> Not_a_binop

(* [arith.cmpi] predicates as shared top-level closures. The compiled
   backend decodes once per op at compile time; the tree-walker decodes on
   every evaluation, which costs about what a per-op cache lookup would. *)
let pred_eq (a : int) b = a = b
let pred_ne (a : int) b = a <> b
let pred_slt (a : int) b = a < b
let pred_sle (a : int) b = a <= b
let pred_sgt (a : int) b = a > b
let pred_sge (a : int) b = a >= b

let decode_cmpi_predicate (op : Ir.op) =
  match Ir.str_attr op "predicate" with
  | "eq" -> pred_eq
  | "ne" -> pred_ne
  | "slt" -> pred_slt
  | "sle" -> pred_sle
  | "sgt" -> pred_sgt
  | "sge" -> pred_sge
  | s -> err "arith.cmpi: predicate %s" s

let elementwise_names prefix =
  List.map (fun n -> (prefix ^ "." ^ n, n)) Cinm_dialects.Cinm_d.elementwise_binary

let cinm_elementwise = elementwise_names "cinm"
let linalg_elementwise = elementwise_names "linalg"

let is_elementwise name =
  List.mem_assoc name cinm_elementwise || List.mem_assoc name linalg_elementwise

let scalar_result_dtype (op : Ir.op) =
  match (Ir.result op 0).Ir.ty with
  | Types.Scalar dt -> dt
  | Types.Index -> Types.I64
  | ty -> err "expected scalar result, got %s" (Types.to_string ty)

let elementwise p (op : Ir.op) args opname =
  let a = t_arg op args 0 and b = t_arg op args 1 in
  account_elementwise p (Tensor.num_elements a);
  [ Rtval.Tensor (Tensor.map2 opname a b) ]

let add_dyn_offsets (op : Ir.op) args ~skip offsets =
  let n_dyn = Array.length args - skip in
  if n_dyn = 0 then offsets
  else begin
    if n_dyn <> Array.length offsets then
      err "%s: %d dynamic offsets for rank %d" op.Ir.name n_dyn (Array.length offsets);
    Array.mapi (fun i off -> off + i_arg op args (skip + i)) offsets
  end

let check_results (op : Ir.op) vals =
  let n = List.length vals in
  if n <> Array.length op.Ir.results then
    err "%s: produced %d values for %d results" op.Ir.name n (Array.length op.Ir.results)

(* The semantics of every op but the four [eval_op] walks itself, on the
   op's operand values: both backends run an op's work and its profile
   accounting here. *)
let apply ctx (op : Ir.op) (args : Rtval.t array) : Rtval.t list =
  let p = ctx.profile in
  let name = op.Ir.name in
  match name with
  (* ----- arith ----- *)
  | "arith.constant" -> (
    match Ir.attr_exn op "value" with
    | Attr.Int i -> [ Rtval.Int (Tensor.wrap (scalar_result_dtype op) i) ]
    | Attr.Float f -> [ Rtval.Float f ]
    | a -> err "arith.constant: bad value %s" (Attr.to_string a))
  | "arith.cmpi" ->
    let a = i_arg op args 0 and b = i_arg op args 1 in
    p.Profile.alu_ops <- p.Profile.alu_ops + 1;
    [ Rtval.Bool (decode_cmpi_predicate op a b) ]
  | "arith.select" ->
    p.Profile.alu_ops <- p.Profile.alu_ops + 1;
    let c = Rtval.as_bool (arg op args 0) in
    [ (if c then arg op args 1 else arg op args 2) ]
  | "arith.index_cast" -> [ Rtval.Int (i_arg op args 0) ]
  (* ----- tensor ----- *)
  | "tensor.empty" -> (
    match (Ir.result op 0).Ir.ty with
    | Types.Tensor (shape, dt) -> [ Rtval.Tensor (Tensor.Arena.alloc shape dt) ]
    | ty -> err "tensor.empty: %s" (Types.to_string ty))
  | "tensor.splat" | "linalg.fill" -> (
    match (Ir.result op 0).Ir.ty with
    | Types.Tensor (shape, dt) ->
      account_move p (Util.product_of_shape shape);
      let t =
        if Types.is_float_dtype dt then
          Tensor.fill_float shape dt (Rtval.as_float (arg op args 0))
        else Tensor.fill_scalar shape dt (i_arg op args 0)
      in
      [ Rtval.Tensor t ]
    | ty -> err "%s: %s" name (Types.to_string ty))
  | "tensor.extract_slice" ->
    let src = t_arg op args 0 in
    let offsets = Ir.ints_attr op "offsets" in
    let sizes = Ir.ints_attr op "sizes" in
    let offsets = add_dyn_offsets op args ~skip:1 offsets in
    account_move p (Util.product_of_shape sizes);
    [ Rtval.Tensor (Tensor.extract_slice src ~offsets ~sizes) ]
  | "tensor.insert_slice" ->
    let src = t_arg op args 0 and dst = t_arg op args 1 in
    let offsets = Ir.ints_attr op "offsets" in
    let offsets = add_dyn_offsets op args ~skip:2 offsets in
    account_move p (Tensor.num_elements src);
    [ Rtval.Tensor (Tensor.insert_slice src dst ~offsets) ]
  | "tensor.extract" ->
    let src = t_arg op args 0 in
    let idx = Array.init (Array.length args - 1) (fun i -> i_arg op args (i + 1)) in
    p.Profile.loads <- p.Profile.loads + 1;
    [ (if Types.is_float_dtype src.Tensor.dtype then Rtval.Float (Tensor.get_f src idx)
       else Rtval.Int (Tensor.get src idx)) ]
  | "tensor.insert" ->
    let dst = t_arg op args 1 in
    let idx = Array.init (Array.length args - 2) (fun i -> i_arg op args (i + 2)) in
    p.Profile.stores <- p.Profile.stores + 1;
    let out = Tensor.copy dst in
    if Types.is_float_dtype out.Tensor.dtype then
      Tensor.set_f out idx (Rtval.as_float (arg op args 0))
    else Tensor.set out idx (i_arg op args 0);
    [ Rtval.Tensor out ]
  | "tensor.reshape" | "cinm.expand" -> (
    let src = t_arg op args 0 in
    match Types.shape_of (Ir.result op 0).Ir.ty with
    | Some shape -> [ Rtval.Tensor (Tensor.reshape src shape) ]
    | None -> err "%s: unshaped result" name)
  | "tensor.pad" ->
    let src = t_arg op args 0 in
    let low = Ir.ints_attr op "low" and high = Ir.ints_attr op "high" in
    account_move p (Tensor.num_elements src);
    [ Rtval.Tensor (Tensor.pad src ~low ~high) ]
  (* ----- memref ----- *)
  | "memref.alloc" | "upmem.wram_alloc" -> (
    match (Ir.result op 0).Ir.ty with
    | Types.MemRef (shape, dt) -> [ Rtval.Memref (alloc_tensor ctx shape dt) ]
    | ty -> err "%s: %s" name (Types.to_string ty))
  | "memref.load" ->
    let m = t_arg op args 0 in
    let idx = Array.init (Array.length args - 1) (fun i -> i_arg op args (i + 1)) in
    p.Profile.loads <- p.Profile.loads + 1;
    [ (if Types.is_float_dtype m.Tensor.dtype then Rtval.Float (Tensor.get_f m idx)
       else Rtval.Int (Tensor.get m idx)) ]
  | "memref.store" ->
    let m = t_arg op args 1 in
    let idx = Array.init (Array.length args - 2) (fun i -> i_arg op args (i + 2)) in
    p.Profile.stores <- p.Profile.stores + 1;
    if Types.is_float_dtype m.Tensor.dtype then
      Tensor.set_f m idx (Rtval.as_float (arg op args 0))
    else Tensor.set m idx (i_arg op args 0);
    []
  | "memref.copy" ->
    let src = t_arg op args 0 and dst = t_arg op args 1 in
    let n = Tensor.num_elements src in
    account_move p n;
    Tensor.blit src 0 dst 0 n;
    []
  | "memref.dealloc" -> []
  | "upmem.mram_read" | "upmem.mram_write" ->
    let mram = t_arg op args 0 and wram = t_arg op args 1 in
    dma ctx ~to_wram:(name = "upmem.mram_read") ~count:(Ir.int_attr op "count") mram wram
      (i_arg op args 2) (i_arg op args 3);
    []
  | "upmem.wram_shared_alloc" -> (
    match (Ir.result op 0).Ir.ty with
    | Types.MemRef (shape, dt) ->
      let l =
        match ctx.device with
        | Some l -> l
        | None -> invalid_arg "upmem.wram_shared_alloc: outside a DPU launch"
      in
      let t =
        match Hashtbl.find_opt l.wram op.Ir.oid with
        | Some t -> t
        | None ->
          let bytes = Util.product_of_shape shape * Types.dtype_bytes dt in
          if l.wram_used + bytes > l.wram_bytes then
            invalid_arg
              (Printf.sprintf
                 "%s: WRAM exhausted on DPU %d: %d B requested on top of %d B in \
                  use (capacity %d B)"
                 name l.dpu bytes l.wram_used l.wram_bytes);
          l.wram_used <- l.wram_used + bytes;
          (* launch-scoped: the machine releases the whole table *)
          let t = Tensor.Arena.alloc shape dt in
          Hashtbl.replace l.wram op.Ir.oid t;
          t
      in
      [ Rtval.Memref t ]
    | _ -> invalid_arg "upmem.wram_shared_alloc: bad result type")
  | "upmem.tasklet_id" ->
    [ Rtval.Int (match ctx.device with Some l -> l.tasklet | None -> 0) ]
  | "upmem.barrier_wait" ->
    p.Profile.barriers <- p.Profile.barriers + 1;
    []
  (* ----- elementwise cinm / linalg / tosa ----- *)
  | "tosa.add" -> elementwise p op args "add"
  | "cinm.not" ->
    let a = t_arg op args 0 in
    account_elementwise p (Tensor.num_elements a);
    [ Rtval.Tensor (Tensor.map_not a) ]
  (* ----- matmul family ----- *)
  | "cinm.gemm" | "linalg.matmul" | "tosa.matmul" ->
    let a = t_arg op args 0 and bt = t_arg op args 1 in
    (match (a.Tensor.shape, bt.Tensor.shape) with
    | [| m; k |], [| _; n |] -> account_matmul p m n k
    | _ -> ());
    [ Rtval.Tensor (Tensor.matmul a bt) ]
  | "cinm.gemv" | "linalg.matvec" ->
    let a = t_arg op args 0 and v = t_arg op args 1 in
    (match a.Tensor.shape with [| m; n |] -> account_matmul p m 1 n | _ -> ());
    [ Rtval.Tensor (Tensor.matvec a v) ]
  | "linalg.dot" ->
    let a = t_arg op args 0 and bt = t_arg op args 1 in
    account_matmul p 1 1 (Tensor.num_elements a);
    if Types.is_float_dtype a.Tensor.dtype then [ Rtval.Float (Tensor.dot_f a bt) ]
    else [ Rtval.Int (Tensor.dot a bt) ]
  | "linalg.conv_2d" ->
    let img = t_arg op args 0 and k = t_arg op args 1 in
    (match (img.Tensor.shape, k.Tensor.shape) with
    | [| h; w |], [| kh; kw |] ->
      account_matmul p ((h - kh + 1) * (w - kw + 1)) 1 (kh * kw)
    | _ -> ());
    [ Rtval.Tensor (Tensor.conv_2d img k) ]
  | "linalg.einsum" ->
    let a = t_arg op args 0 and bt = t_arg op args 1 in
    let spec = Ir.str_attr op "spec" in
    let out = Tensor.einsum ~spec a bt in
    (* MACs = |out| * K where, for a pure contraction with M/N/K index
       groups, |A|*|B| = M*K * K*N = |out| * K^2 *)
    let red =
      let n_a = Tensor.num_elements a
      and n_b = Tensor.num_elements bt
      and n_out = Tensor.num_elements out in
      max 1 (int_of_float (sqrt (float_of_int n_a *. float_of_int n_b /. float_of_int (max 1 n_out))))
    in
    account_matmul p (Tensor.num_elements out) 1 red;
    [ Rtval.Tensor out ]
  | "linalg.broadcast" -> (
    let src = t_arg op args 0 in
    match Types.shape_of (Ir.result op 0).Ir.ty with
    | Some dst_shape ->
      let out = Tensor.zeros dst_shape src.Tensor.dtype in
      account_move p (Tensor.num_elements out);
      Tensor.broadcast_into src out;
      [ Rtval.Tensor out ]
    | None -> err "linalg.broadcast: unshaped result")
  (* ----- shape ops ----- *)
  | "cinm.transpose" | "linalg.transpose" ->
    let a = t_arg op args 0 in
    let perms = Ir.ints_attr op "perms" in
    account_move p (Tensor.num_elements a);
    [ Rtval.Tensor (Tensor.transpose a perms) ]
  | "cinm.im2col" ->
    let img = t_arg op args 0 in
    let kernel = Ir.ints_attr op "kernel" in
    let out = Tensor.im2col img ~kh:kernel.(0) ~kw:kernel.(1) in
    account_move p (Tensor.num_elements out);
    [ Rtval.Tensor out ]
  (* ----- reductions / analytics ----- *)
  | "cinm.reduce" | "linalg.reduce" ->
    let a = t_arg op args 0 in
    let red = Ir.str_attr op "op" in
    account_elementwise p (Tensor.num_elements a);
    if Types.is_float_dtype a.Tensor.dtype then [ Rtval.Float (Tensor.reduce_f red a) ]
    else [ Rtval.Int (Tensor.reduce red a) ]
  | "cinm.scan" ->
    let a =
      match Ir.attr op "pre_expr" with
      | None -> t_arg op args 0
      | Some (Attr.Strs tokens) ->
        (* the fused elementwise chain, run before the scan *)
        let inputs = Array.init (Array.length args) (fun i -> t_arg op args i) in
        let n = Tensor.num_elements inputs.(0) in
        p.Profile.alu_ops <- p.Profile.alu_ops + (n * List.length tokens / 2);
        Tensor.ew_expr tokens inputs
      | Some a -> err "cinm.scan: bad pre_expr %s" (Attr.to_string a)
    in
    account_elementwise p (Tensor.num_elements a);
    [ Rtval.Tensor (Tensor.scan (Ir.str_attr op "op") a) ]
  | "cinm.histogram" ->
    let a = t_arg op args 0 in
    account_elementwise p (Tensor.num_elements a);
    [ Rtval.Tensor (Tensor.histogram ~bins:(Ir.int_attr op "bins") a) ]
  | "cinm.pop_count" ->
    let a = t_arg op args 0 in
    account_elementwise p (Tensor.num_elements a);
    [ Rtval.Int (Tensor.pop_count a) ]
  | "cinm.majority" ->
    let a = t_arg op args 0 in
    account_elementwise p (Tensor.num_elements a);
    [ Rtval.Tensor (Tensor.majority a) ]
  | "cinm.topk" ->
    let a = t_arg op args 0 in
    let n = Tensor.num_elements a in
    (* comparison-sort cost model *)
    p.Profile.alu_ops <-
      p.Profile.alu_ops + (n * max 1 (int_of_float (log (float_of_int (max 2 n)))));
    let values, indices = Tensor.topk ~k:(Ir.int_attr op "k") a in
    [ Rtval.Tensor values; Rtval.Tensor indices ]
  | "cinm.sim_search" ->
    let db = t_arg op args 0 and q = t_arg op args 1 in
    let k = Ir.int_attr op "k" and metric = Ir.str_attr op "metric" in
    let n = Tensor.num_elements db and m = Tensor.num_elements q in
    let windows = max 1 (n - m + 1) in
    (if metric = "hamming" then begin
       (* per element: xor plus a ~5-step SWAR popcount with mask
          constants and an accumulate — pure ALU work, no multiplies *)
       p.Profile.alu_ops <- p.Profile.alu_ops + (windows * m * 12);
       p.Profile.loads <- p.Profile.loads + (2 * windows * m);
       p.Profile.stores <- p.Profile.stores + windows
     end
     else account_matmul p windows 1 m);
    let values, indices = Tensor.sim_search ~metric ~k db q in
    [ Rtval.Tensor values; Rtval.Tensor indices ]
  | "cinm.merge_partial" -> elementwise p op args (Ir.str_attr op "op")
  | "cinm.ew_expr" ->
    let tokens =
      match Ir.attr_exn op "expr" with
      | Attr.Strs l -> l
      | a -> err "cinm.ew_expr: bad expr attr %s" (Attr.to_string a)
    in
    let inputs = Array.init (Array.length args) (fun i -> t_arg op args i) in
    let n = Tensor.num_elements inputs.(0) in
    p.Profile.alu_ops <- p.Profile.alu_ops + (n * List.length tokens / 2);
    p.Profile.loads <- p.Profile.loads + (n * Array.length inputs);
    p.Profile.stores <- p.Profile.stores + n;
    [ Rtval.Tensor (Tensor.ew_expr tokens inputs) ]
  (* ----- tosa ----- *)
  | "tosa.fully_connected" ->
    let input = t_arg op args 0
    and weight = t_arg op args 1
    and bias = t_arg op args 2 in
    let wt = Tensor.transpose weight [| 1; 0 |] in
    let mm = Tensor.matmul input wt in
    (match (input.Tensor.shape, wt.Tensor.shape) with
    | [| m; k |], [| _; n |] -> account_matmul p m n k
    | _ -> ());
    let out = Tensor.copy mm in
    (match out.Tensor.shape with
    | [| n; f |] ->
      for i = 0 to n - 1 do
        for j = 0 to f - 1 do
          Tensor.set_int out ((i * f) + j) (Tensor.get_int out ((i * f) + j) + Tensor.get_int bias j)
        done
      done
    | _ -> err "tosa.fully_connected: bad output shape");
    [ Rtval.Tensor out ]
  | "tosa.clamp" ->
    let a = t_arg op args 0 in
    let min_v = Ir.int_attr op "min" and max_v = Ir.int_attr op "max" in
    account_elementwise p (Tensor.num_elements a);
    [ Rtval.Tensor (Tensor.clamp a ~lo:min_v ~hi:max_v) ]
  | _ -> (
    (* the scalar binops (the hottest ops of interpreted kernels), the
       elementwise ops, then the device ops and any name a hook adds *)
    match binop name with
    | Int_binop (bucket, f) ->
      account_int_binop p bucket;
      let dt = scalar_result_dtype op in
      [ Rtval.Int (Tensor.wrap dt (f (i_arg op args 0) (i_arg op args 1))) ]
    | Float_binop f ->
      p.Profile.alu_ops <- p.Profile.alu_ops + 1;
      [ Rtval.Float (f (Rtval.as_float (arg op args 0)) (Rtval.as_float (arg op args 1))) ]
    | Not_a_binop -> (
      match List.assoc_opt name cinm_elementwise with
      | Some opname -> elementwise p op args opname
      | None -> (
        match List.assoc_opt name linalg_elementwise with
        | Some opname -> elementwise p op args opname
        | None -> dispatch_hooks ctx op args)))

let rec bind_list ctx (vs : Ir.value array) i = function
  | [] -> ()
  | rv :: rest ->
    bind ctx vs.(i) rv;
    bind_list ctx vs (i + 1) rest

(* Hot path: called once per loop iteration of interpreted code, so it
   must not allocate beyond its result list. *)
let rec eval_block ctx (block : Ir.block) : Rtval.t list =
  let n = Ir.num_ops block in
  if n = 0 then []
  else begin
    for i = 0 to n - 2 do
      eval_op ctx (Ir.op_at block i)
    done;
    let last = Ir.op_at block (n - 1) in
    if Ir.is_terminator last then
      List.map (lookup ctx) (Array.to_list last.Ir.operands)
    else begin
      eval_op ctx last;
      []
    end
  end

and eval_region ctx (region : Ir.region) args : Rtval.t list =
  let block = Ir.entry_block region in
  if Array.length block.Ir.args <> List.length args then
    err "region arity mismatch: %d args for %d params" (List.length args)
      (Array.length block.Ir.args);
  bind_list ctx block.Ir.args 0 args;
  eval_block ctx block

(* The structural ops, whose regions the tree-walker evaluates itself;
   every other op goes to [apply]. *)
and eval_op ctx (op : Ir.op) : unit =
  let p = ctx.profile in
  p.Profile.launched_ops <- p.Profile.launched_ops + 1;
  let args = Array.map (lookup ctx) op.Ir.operands in
  let vals =
    match op.Ir.name with
    | "scf.for" ->
      let lb = i_arg op args 0 and ub = i_arg op args 1 and step = i_arg op args 2 in
      if step <= 0 then err "scf.for: non-positive step %d" step;
      let inits = Array.to_list (Array.sub args 3 (Array.length args - 3)) in
      let region = Ir.region op 0 in
      let rec iterate i acc =
        if i >= ub then acc
        else begin
          p.Profile.alu_ops <- p.Profile.alu_ops + 1 (* induction update/compare *);
          check_steps ctx "scf.for";
          let out = eval_region ctx region (Rtval.Int i :: acc) in
          iterate (i + step) out
        end
      in
      iterate lb inits
    | "scf.if" ->
      let c = Rtval.as_bool (arg op args 0) in
      let region_idx = if c then 0 else 1 in
      if region_idx >= Array.length op.Ir.regions then []
      else eval_region ctx (Ir.region op region_idx) []
    | "scf.parallel" ->
      let n_dims = Array.length args / 3 in
      let bounds =
        List.init n_dims (fun d ->
            (i_arg op args (3 * d), i_arg op args ((3 * d) + 1), i_arg op args ((3 * d) + 2)))
      in
      let region = Ir.region op 0 in
      let rec loop_dims acc = function
        | [] ->
          check_steps ctx "scf.parallel";
          ignore (eval_region ctx region (List.rev_map (fun i -> Rtval.Int i) acc))
        | (lb, ub, step) :: rest ->
          let i = ref lb in
          while !i < ub do
            loop_dims (!i :: acc) rest;
            i := !i + step
          done
      in
      loop_dims [] bounds;
      []
    | "func.call" -> (
      match ctx.modul with
      | None -> err "func.call outside a module context"
      | Some m ->
        let callee = Ir.str_attr op "callee" in
        check_steps ctx "func.call";
        let f = Func.find_func_exn m callee in
        (* same mutable env/profile, but watchdog messages from inside the
           callee name the callee *)
        eval_region { ctx with fname = callee } f.Func.body (Array.to_list args))
    | _ -> apply ctx op args
  in
  check_results op vals;
  bind_list ctx op.Ir.results 0 vals

(* ----- entry points ----- *)

let create_ctx ?(hooks = []) ?profile ?modul ?(fname = "<main>")
    ?(config = Config.default ()) () =
  let profile = match profile with Some p -> p | None -> Profile.create () in
  { env = Hashtbl.create 256; profile; hooks; modul; device = None; fname;
    max_steps = max 0 config.Config.max_steps; steps = ref 0;
    deadline = config.Config.deadline; cancel = config.Config.cancel;
    interp = config.Config.interp; adopt = false; scratch = None }

let run_func ?(hooks = []) ?profile ?modul ?config (f : Func.t)
    (args : Rtval.t list) : Rtval.t list * Profile.t =
  let ctx = create_ctx ~hooks ?profile ?modul ~fname:f.Func.fname ?config () in
  let results = eval_region ctx f.Func.body args in
  (results, ctx.profile)

let run_in_module ?(hooks = []) ?profile ?config (m : Func.modul) name args =
  let f = Func.find_func_exn m name in
  run_func ~hooks ?profile ~modul:m ?config f args
