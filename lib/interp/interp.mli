(** Reference interpreter for the CINM IR. Executes host-level dialects
    and the UPMEM ops a DPU lane runs itself directly; device ops
    ({!is_device_op}) are delegated to hooks installed by the
    simulators. Every executed op is accounted in a {!Profile.t}, from
    which the timing models derive simulated time. *)

open Cinm_ir

(** One DPU's kernel evaluation in the UPMEM machine: the executing DPU
    and tasklet (its tasklets run one after another on one lane) and the
    DPU's WRAM, so per-DPU execution touches no machine-global mutable
    state. The builtin lane ops read it. *)
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
      (** the DPU lane being simulated, [None] on the host. Carried in the
          context, not in the machine, so many DPUs can run at once on
          OCaml 5 domains. *)
  fname : string;  (** function being executed, for watchdog diagnostics *)
  max_steps : int;
      (** watchdog: abort once [steps] exceeds this (0 = unlimited);
          checked on loop back-edges and calls only *)
  steps : int ref;
      (** back-edges and calls taken so far; shared by [{ctx with ...}]
          copies, so give parallel device lanes a fresh ref *)
  deadline : float;
      (** absolute host time after which execution aborts with
          {!Cinm_support.Config.Cancelled} (0. = none); the clock is
          consulted only every 1024 watchdog steps *)
  cancel : bool Atomic.t;
      (** cooperative cancellation flag, polled at every watchdog site;
          [{ctx with ...}] lane copies share it, so cancelling a request
          cancels all its device lanes *)
  interp : string;
      (** per-request interpreter backend ("tree" | "compiled", "" =
          process default); consulted by [Compile.prepare] so machine
          hooks honor the request's choice without a global *)
  mutable adopt : bool;
      (** set by the compiled backend only while it dispatches a hook op
          whose tensor operand is owned and dead after the op (see
          [Compile.analyze]): the hook may keep that operand's storage
          instead of copying it *)
  scratch : Tensor.t list ref option;
      (** when set, [memref.alloc]/[upmem.wram_alloc] allocate from the
          {!Tensor.Arena} and record here for release after the launch;
          [None] (host execution) allocates normally *)
}

and hook = ctx -> Ir.op -> Rtval.t array -> Rtval.t list option
(** A hook receives the op's operand values and returns [Some results]
    when it implements the op, [None] to let the next hook (or the error
    path) handle it. Both backends offer it the device ops
    ({!is_device_op}); the compiled backend decides that when it compiles
    the op and feeds a region-free one straight from its register file.
    Names {!eval_op} does not know reach the hooks too. Hooks that
    evaluate the op's regions resolve free values through the context
    environment, which both backends populate before dispatching a
    region-carrying op. *)

exception Interp_error of string

(** Count one watchdog step (a loop back-edge or call) and raise
    {!Interp_error} when the context's budget is exhausted, naming the
    executing function, the op at which the budget tripped and the step
    count. Shared verbatim by both interpreter backends, which place it
    at the same sites — so the message is identical in both. The same
    sites enforce the context's deadline and cancellation flag, raising
    {!Cinm_support.Config.Cancelled} (not an {!Interp_error}) so server
    aborts are distinguishable from program failures. *)
val check_steps : ctx -> string -> unit

(** Does the context have a step budget, a deadline or a cancel flag,
    i.e. does {!check_steps} do more than one branch? *)
val watched : ctx -> bool

(** The builtin [upmem.mram_read] ([to_wram]) / [upmem.mram_write]:
    copy [count] contiguous elements between an MRAM memref and a WRAM
    memref at flat element offsets, then account one DMA transfer of
    [count] elements of the MRAM dtype.
    @raise Invalid_argument when either range is out of bounds, naming
    the DPU and tasklet of a lane context. *)
val dma : ctx -> to_wram:bool -> count:int -> Tensor.t -> Tensor.t -> int -> int -> unit

(** The out-of-bounds failure of {!dma} for the [what] ("MRAM" or
    "WRAM") range [[off, off + count)] of an [n]-element memref. *)
val dma_oob : ctx -> to_wram:bool -> string -> int -> int -> int -> 'a

(** Raise {!Interp_error} with a formatted message. *)
val err : ('a, unit, string, 'b) format4 -> 'a

(** Decode the "predicate" attribute of an [arith.cmpi] into a shared
    comparison closure (raises {!Interp_error} on unknown predicates). *)
val decode_cmpi_predicate : Ir.op -> int -> int -> bool

(** Integer dtype of a scalar-typed op result (Index widens to I64). *)
val scalar_result_dtype : Ir.op -> Types.dtype

(** Profile buckets for scalar integer binops, see {!account_int_binop}. *)
val bucket_alu : int

val bucket_mul : int
val bucket_div : int

(** Count one scalar integer binop in the given bucket. *)
val account_int_binop : Profile.t -> int -> unit

(** The bulk-op accounting of [eval_op]: [n] elementwise results (one ALU
    op, two loads, one store each) and [n] moved elements (one load, one
    store each). *)
val account_elementwise : Profile.t -> int -> unit

val account_move : Profile.t -> int -> unit

(** The [cinm.*] and [linalg.*] elementwise binops ([cinm.add], ...). *)
val is_elementwise : string -> bool

(** Allocation point of [memref.alloc]/[upmem.wram_alloc] under both
    backends: arena-recycled and recorded when the context has a
    [scratch] list, fresh {!Tensor.zeros} otherwise. *)
val alloc_tensor : ctx -> int array -> Types.dtype -> Tensor.t

(** Look up an SSA value's runtime binding.
    @raise Interp_error when unbound. *)
val lookup : ctx -> Ir.value -> Rtval.t

(** Dispatch [op] (with its operand values) to the context's hooks, first
    match wins. Shared by both backends so hook dispatch order is
    identical.
    @raise Interp_error ["no interpreter semantics for <name>"] when no
    hook implements it. *)
val dispatch_hooks : ctx -> Ir.op -> Rtval.t array -> Rtval.t list

(** Is [op] served by a machine hook? True for the ops of the [cnm],
    [cim], [upmem], [memristor], [cam] and [rtm] dialects, but for the
    UPMEM ops a DPU lane runs itself, which {!eval_op} implements:
    [mram_read], [mram_write], [wram_alloc], [wram_shared_alloc],
    [tasklet_id] and [barrier_wait]. *)
val is_device_op : Ir.op -> bool

val bind : ctx -> Ir.value -> Rtval.t -> unit

(** Evaluate a block; returns the operands of its terminator. *)
val eval_block : ctx -> Ir.block -> Rtval.t list

(** Evaluate a single-entry region with the given block-argument values. *)
val eval_region : ctx -> Ir.region -> Rtval.t list -> Rtval.t list

val eval_op : ctx -> Ir.op -> unit

val create_ctx :
  ?hooks:hook list ->
  ?profile:Profile.t ->
  ?modul:Func.modul ->
  ?fname:string ->
  ?config:Cinm_support.Config.t ->
  unit ->
  ctx

(** Run a function; returns its results and the accumulated profile.
    [config] (default: {!Cinm_support.Config.default}) supplies the
    watchdog step budget ([max_steps], 0 = unlimited), the deadline, the
    cancellation flag and the interpreter backend. *)
val run_func :
  ?hooks:hook list ->
  ?profile:Profile.t ->
  ?modul:Func.modul ->
  ?config:Cinm_support.Config.t ->
  Func.t ->
  Rtval.t list ->
  Rtval.t list * Profile.t

(** Run a named function of a module (callees resolvable via func.call). *)
val run_in_module :
  ?hooks:hook list ->
  ?profile:Profile.t ->
  ?config:Cinm_support.Config.t ->
  Func.modul ->
  string ->
  Rtval.t list ->
  Rtval.t list * Profile.t
