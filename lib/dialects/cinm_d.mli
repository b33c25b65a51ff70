(** cinm dialect: the hardware-oblivious entry point of the CINM flow,
    implementing the full operation set of paper Table 1 plus the
    im2col/expand helpers of the convolution rewrite (Fig. 5) and the
    fused cinm.ew_expr produced by ew-fusion.

    Ops carry an optional "target" attribute ("cim" | "cnm" | "host") set
    by target selection (§3.2.2). *)

open Cinm_ir

(** Table 1's device-support matrix, consumed by target selection. *)
type support = { cim : bool; cnm : bool }

val op_support : (string * support) list
val support_of : string -> support option

(** The nine elementwise binops ([add] ... [xor]), without a dialect
    prefix: the one list the interpreter, fusion and the lowerings use. *)
val elementwise_binary : string list
val ensure : unit -> unit

(** An RPN expression (cinm.ew_expr / fused-scan encoding) as a tree:
    ["inK"] is input K, ["constC"] the literal C, and an op name combines
    the two values before it. Its post-order is the token order. *)
type 'op rpn = In of int | Const of int | Op of 'op * 'op rpn * 'op rpn

(** @raise Invalid_argument on malformed token streams. *)
val parse_rpn : string list -> string rpn

(** Evaluate an RPN expression over an abstract value domain, calling
    [input], [const] and [apply] in token order. The kernel generators
    build IR with it; the host kernels run {!parse_rpn}'s tree instead.
    @raise Invalid_argument on malformed token streams. *)
val eval_rpn :
  tokens:string list ->
  input:(int -> 'a) ->
  const:(int -> 'a) ->
  apply:(string -> 'a -> 'a -> 'a) ->
  'a

(** {1 Constructors} (Table 1 signatures) *)

val add : Builder.t -> Ir.value -> Ir.value -> Ir.value
val sub : Builder.t -> Ir.value -> Ir.value -> Ir.value
val mul : Builder.t -> Ir.value -> Ir.value -> Ir.value
val div : Builder.t -> Ir.value -> Ir.value -> Ir.value
val min_ : Builder.t -> Ir.value -> Ir.value -> Ir.value
val max_ : Builder.t -> Ir.value -> Ir.value -> Ir.value
val and_ : Builder.t -> Ir.value -> Ir.value -> Ir.value
val or_ : Builder.t -> Ir.value -> Ir.value -> Ir.value
val xor : Builder.t -> Ir.value -> Ir.value -> Ir.value
val not_ : Builder.t -> Ir.value -> Ir.value
val gemm : Builder.t -> Ir.value -> Ir.value -> Ir.value
val gemv : Builder.t -> Ir.value -> Ir.value -> Ir.value
val transpose : Builder.t -> Ir.value -> perms:int array -> Ir.value
val histogram : Builder.t -> Ir.value -> bins:int -> Ir.value
val majority : Builder.t -> Ir.value -> Ir.value

(** Returns (values, indices). *)
val topk : Builder.t -> Ir.value -> k:int -> Ir.value * Ir.value

(** [sim_search ~metric ~k db query]: (values, indices) of the [k] windows
    of [db] most similar to [query]. *)
val sim_search :
  Builder.t -> metric:string -> k:int -> Ir.value -> Ir.value -> Ir.value * Ir.value

val merge_partial : Builder.t -> op:string -> Ir.value -> Ir.value -> Ir.value
val pop_count : Builder.t -> Ir.value -> Ir.value
val reduce : Builder.t -> op:string -> Ir.value -> Ir.value
val scan : Builder.t -> op:string -> Ir.value -> Ir.value
val ew_expr : Builder.t -> tokens:string list -> Ir.value list -> Ir.value
val im2col : Builder.t -> Ir.value -> kh:int -> kw:int -> Ir.value
val expand : Builder.t -> Ir.value -> shape:int array -> Ir.value
