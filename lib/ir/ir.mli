(** Core IR data structures: SSA values and operations with nested regions,
    mirroring MLIR's structure (paper §2.1). Ops are generic records
    identified by a dialect-qualified name; the dialect modules in
    [cinm_dialects] provide typed constructors on top.

    Blocks and regions store their contents in growable arrays so that
    appending — the hot operation of builders and conversion passes — is
    amortized O(1). Use the accessors ([block_ops], [iter_ops],
    [filter_ops_in_place], [blocks], ...) rather than the backing vectors. *)

module Vec = Cinm_support.Vec

(** What an executor derives from a block and keeps on it, so it lives
    and dies with the block: the closure compiler stores a region's
    compiled unit on its entry block. Extended by the executor; the IR
    never reads it, and a fresh block holds [No_code]. *)
type block_code = ..

type block_code += No_code

type value = { vid : int; ty : Types.t; mutable def : def }

and def =
  | Op_result of op * int
  | Block_arg of block * int

and op = {
  oid : int;
  name : string;  (** dialect-qualified, e.g. ["cinm.gemm"] *)
  mutable operands : value array;
  mutable results : value array;  (** set once at creation *)
  mutable attrs : (string * Attr.t) list;
  regions : region array;
  mutable parent : block option;
}

and block = {
  bid : int;
  mutable args : value array;  (** set once at creation *)
  ops : op Vec.t;  (** in execution order *)
  mutable parent_region : region option;
  mutable code : block_code;  (** executor state derived from this block *)
}

and region = { blocks : block Vec.t; mutable parent_op : op option }

(** {1 Construction} *)

val create_region : unit -> region
val create_block : ?arg_tys:Types.t list -> unit -> block
val add_block : region -> block -> unit

(** @raise Invalid_argument on an empty region. *)
val entry_block : region -> block

val num_blocks : region -> int

(** @raise Invalid_argument when the index is out of bounds. *)
val block_at : region -> int -> block

(** The blocks as a fresh list (O(n)); prefer [iter_blocks] on hot paths. *)
val blocks : region -> block list

val iter_blocks : (block -> unit) -> region -> unit

(** Replace a region's blocks wholesale, reparenting them. *)
val set_region_blocks : region -> block list -> unit

(** Create an op; one fresh result value is created per entry of
    [result_tys], and the regions' parent pointers are set. *)
val create_op :
  ?operands:value list ->
  ?result_tys:Types.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:region list ->
  string ->
  op

(** Append to the end of a block; amortized O(1). *)
val append_op : block -> op -> unit

(** {1 Block contents} *)

val num_ops : block -> int

(** @raise Invalid_argument when the index is out of bounds. *)
val op_at : block -> int -> op

(** The ops as a fresh list (O(n)); prefer [iter_ops]/[op_at] on hot paths. *)
val block_ops : block -> op list

val iter_ops : (op -> unit) -> block -> unit
val last_op : block -> op option
val clear_ops : block -> unit

(** Keep only the ops satisfying the predicate; returns [true] when
    anything was removed. *)
val filter_ops_in_place : (op -> bool) -> block -> bool

(** {1 Accessors} *)

val operand : op -> int -> value
val result : op -> int -> value
val num_operands : op -> int
val num_results : op -> int
val attr : op -> string -> Attr.t option

(** @raise Invalid_argument when the attribute is missing. *)
val attr_exn : op -> string -> Attr.t

val int_attr : op -> string -> int
val str_attr : op -> string -> string
val ints_attr : op -> string -> int array
val bool_attr : op -> string -> bool
val float_attr : op -> string -> float
val set_attr : op -> string -> Attr.t -> unit
val region : op -> int -> region

(** Whether [op] is a block terminator ([scf.yield], [func.return],
    [cim.yield], [cnm.terminator]); its operands are the block's results. *)
val is_terminator : op -> bool

(** The dialect prefix of an op name (["cinm.gemm"] -> ["cinm"]). *)
val dialect_of : op -> string

(** {1 Traversal} *)

(** Pre-order walk over an op and everything nested inside it. *)
val walk_op : (op -> unit) -> op -> unit

val walk_region : (op -> unit) -> region -> unit
val walk_block : (op -> unit) -> block -> unit

(** {1 Cloning} *)

module Vmap : Map.S with type key = int

(** Look a value up in a clone map, defaulting to the value itself. *)
val map_value : value Vmap.t -> value -> value

(** Deep-clone an op (operands remapped through the map); returns the clone
    and the map extended with original-result -> clone-result entries. *)
val clone_op : ?vmap:value Vmap.t -> op -> op * value Vmap.t

val clone_region : ?vmap:value Vmap.t -> region -> region * value Vmap.t
