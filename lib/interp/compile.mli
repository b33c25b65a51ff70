(** Closure-compiling executor for the CINM IR.

    Compiles a region once into a tree of OCaml closures over a flat
    register file — every SSA value resolved to a fixed integer slot, op
    dispatch / binop selection / [arith.cmpi] predicate decode / attribute
    decoding all done at compile time — and executes it per launch with no
    hashtable on the hot path. A region's compiled unit is stored on its
    entry block ({!Cinm_ir.Ir.block_code}), so it is compiled on the
    block's first compiled run, shared read-only by every later run and
    every DPU-lane domain (each lane executes on a private register
    file), and freed with its module.

    Profile accounting is bit-identical to {!Interp}: natively compiled
    ops (and [func.call], whose callee runs compiled) replay the exact
    increments of their {!Interp.apply} case, fused loop nests
    ({!fused_loops}) add the same totals in bulk, every other region-free
    op (bulk tensor ops, device ops, malformed ops) runs through
    {!Interp.apply} straight off the register file, and a region-carrying
    op the compiler does not decode has its values staged into the
    context environment for the tree-walker. Which of these serves an op
    is decided when the op is compiled. The
    tree-walking interpreter remains the reference backend, selectable via
    [CINM_INTERP=tree|compiled] (default [tree]) or {!set_backend}. *)

open Cinm_ir

type backend = Tree | Compiled

(** The process default: the [interp] field of
    {!Cinm_support.Config.default} ([""] means [Tree]). *)
val backend : unit -> backend

(** Set the process default, i.e. the Config default's [interp]. *)
val set_backend : backend -> unit
val backend_of_string : string -> backend option
val backend_name : backend -> string

(** The backend an execution context asked for: its [interp] field when
    set (per-request choice, see {!Cinm_support.Config}), else the
    process default. @raise Invalid_argument on an unknown name. *)
val backend_of_ctx : Interp.ctx -> backend

(** The update ops of a region ([tensor.insert_slice], [tensor.insert],
    [cinm.merge_partial]) that compiled code runs in place, in program
    order: each one's destination is owned (no other live value reaches
    its storage) and dies at the update. Every other update copies its
    destination, like the tree-walker. DESIGN.md states the rule. *)
val in_place_ops : Ir.region -> Ir.op list

(** The storage compiled code returns to {!Tensor.Arena}, in program
    order: each op with the values whose storage goes back after it. A
    value is listed when it is owned and every use of it, at any depth,
    only reads it (no in-place update, yield, return, view or hook keeps
    its storage), and the op is the one of its defining block that holds
    its last use. Fresh tensor results take their storage from the arena.
    DESIGN.md states the rule. *)
val recycled_after : Ir.region -> (Ir.op * Ir.value list) list

(** The [tensor.insert_slice] ops of a region whose accumulator chain
    ([extract_slice] of the destination, [merge_partial], then this
    insert at the same offsets, adjacent in a nested block, the merge and
    the insert both in place) compiled code runs as one region update,
    in program order. DESIGN.md states the rule. *)
val merged_updates : Ir.region -> Ir.op list

(** The [scf.for] ops of a region's compiled unit that run as fused int
    programs (outermost nests and the loops nested in them), in program
    order. A nest runs fused when its body holds only int-class
    [arith] ops, rank-1/2 int [memref.load]/[memref.store] on memrefs
    defined outside it, the DMA ops and nested loops of the same kind;
    it still runs per-op on an entry where a memref is not an int payload
    of its static rank and dtype. A nested loop whose [arith.constant]
    bounds give one trip is listed too, though it runs inline in its
    parent's body. DESIGN.md states the accounting. *)
val fused_loops : Ir.region -> Ir.op list

(** The loops of {!fused_loops} that also have a strip form, in program
    order: innermost loops (once their one-trip loops are inlined) whose
    body is straight-line int arithmetic, compares, selects, loads,
    stores and count-1 [upmem.mram_read]s, carrying nothing but
    [arith.addi] reductions. Every load and store is at [iv +
    invariant], every memref the loop stores to is reached only at that
    store's index, and a one-word memref at an invariant index is
    either an [arith.addi] accumulator (load, add, store of one width)
    or the WRAM target of a count-1 [mram_read] at [iv + invariant],
    read only after it in the trip. Such a loop runs up to 64 trips per
    op dispatch while its strips pass their bounds checks, its payloads
    are distinct (checked once per nest entry), it steps by 1 and has at
    least 4 trips, and trip by trip from the first strip that does not.
    Under a watchdog, deadline or cancel flag a strip first counts its
    trips' steps ({!Interp.skip_steps}) and falls back when one of them
    would raise. Results, profiles and failures are the trip-by-trip
    ones. DESIGN.md states the rule. *)
val vector_loops : Ir.region -> Ir.op list

(** A region resolved for execution under the currently selected backend:
    either the region itself (tree) or its compiled code with its
    captured values resolved from the preparing context. *)
type prepared

(** Resolve [region] for execution. Under the compiled backend this
    takes the unit stored on the region's entry block (compiling and
    storing it on the block's first compiled run) and resolves its
    captured values from [ctx] once; the result may then be executed many
    times, concurrently, each call on its own register file.
    @raise Interp.Interp_error if a captured value is unbound in [ctx]. *)
val prepare : Interp.ctx -> Ir.region -> prepared

val is_compiled : prepared -> bool

(** Execute a prepared region with the given block-argument values;
    returns the operands of the terminator, like {!Interp.eval_region}. *)
val run : prepared -> Interp.ctx -> Rtval.t list -> Rtval.t list

(** [prepare] + [run] in one step, for single-shot region execution. *)
val run_region : Interp.ctx -> Ir.region -> Rtval.t list -> Rtval.t list

(** Process-wide counts of compiled-unit lookups since start: a [hit]
    found the unit on the block, a [miss] compiled it. Domain-safe; the
    daemon's [stats] endpoint exports them. *)
type cache_stats = { hits : int; misses : int }

val cache_stats : unit -> cache_stats

(** Free values of [op]'s nested regions: the values their entry blocks
    use but do not define, in order of first use ([op]'s own operands
    are not included). *)
val free_values : Ir.op -> Ir.value list

(** Run [f]'s body on [ctx] under the context's backend, its parameters
    bound to [args]; returns the operands of its terminator. The
    top-level ops run in program order on the one context, so they share
    its environment, hooks and watchdog budget. With [each], top-level
    op [i] runs as [each i run], where [run p] executes it with its
    profile accounting going to [p] instead of the context's (the hetero
    executor costs each op and collects the schedule events its device
    ops made). {!run_func} is this with no [each]. *)
val run_body :
  ?each:(int -> (Profile.t -> unit) -> unit) ->
  Interp.ctx ->
  Func.t ->
  Rtval.t list ->
  Rtval.t list

(** Backend-dispatching drop-in for {!Interp.run_func}. [config]
    (default: {!Cinm_support.Config.default}) supplies the backend choice
    (its [interp] field; [""] means {!backend}), the watchdog budget, the
    deadline and the cancellation flag. The watchdog diagnostic is
    identical under both backends. *)
val run_func :
  ?hooks:Interp.hook list ->
  ?profile:Profile.t ->
  ?modul:Func.modul ->
  ?config:Cinm_support.Config.t ->
  Func.t ->
  Rtval.t list ->
  Rtval.t list * Profile.t

(** Backend-dispatching drop-in for {!Interp.run_in_module}. *)
val run_in_module :
  ?hooks:Interp.hook list ->
  ?profile:Profile.t ->
  ?config:Cinm_support.Config.t ->
  Func.modul ->
  string ->
  Rtval.t list ->
  Rtval.t list * Profile.t
