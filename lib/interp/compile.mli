(** Closure-compiling executor for the CINM IR.

    Compiles a region once into a tree of OCaml closures over a flat
    register file — every SSA value resolved to a fixed integer slot, op
    dispatch / binop selection / [arith.cmpi] predicate decode / attribute
    decoding all done at compile time — and executes it per launch with no
    hashtable on the hot path. Compiled units are cached and shared
    read-only across DPU-lane domains; each lane executes on a private
    register file.

    Profile accounting is bit-identical to {!Interp}: natively compiled
    ops replay the exact increments of their [Interp.eval_op] case, and
    every op the compiler does not fully understand (bulk tensor ops,
    device ops handled by machine hooks, malformed ops) falls back to a
    closure that routes that single op through [Interp.eval_op]. The
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

(** A region resolved for execution under the currently selected backend:
    either the region itself (tree) or cached compiled code with its
    captured values resolved from the preparing context. *)
type prepared

(** Resolve [region] for execution. Under the compiled backend this
    compiles the unit (or fetches it from the cache) and resolves its
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

(** Drop all cached compiled units. Needed only if IR blocks are mutated
    after having been executed (block identity is the cache key). *)
val clear_cache : unit -> unit

(** Cumulative counters of the compiled-unit cache since process start
    (or the last {!clear_cache}, for [entries]). In a long-lived server
    the cache is cross-request state: these are exported through the
    daemon's [stats] endpoint. *)
type cache_stats = { hits : int; misses : int; evictions : int; entries : int }

val cache_stats : unit -> cache_stats

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
