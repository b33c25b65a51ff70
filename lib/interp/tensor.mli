(** Runtime tensors: the data compiled programs compute on. Integer tensors
    use wrap-around semantics at their declared bit width (the paper's
    workloads are INT32). This module doubles as the reference host
    implementation of every compute op in the cinm/linalg dialects. *)

open Cinm_ir

(** Unboxed storage selected by dtype: [I] for i1/i32/i64 (explicit wrap on
    store), [I8]/[I16] for the narrow widths ([Bytes] accessors truncate on
    store and sign-extend on load — the wrap semantics for free), [F] for
    floats. *)
type payload = I of int array | I8 of Bytes.t | I16 of Bytes.t | F of float array

type t = { shape : int array; dtype : Types.dtype; data : payload }

val num_elements : t -> int
val is_int : t -> bool

(** Wrap an integer to the dtype's width, signed. *)
val wrap : Types.dtype -> int -> int

val zeros : int array -> Types.dtype -> t
val of_int_array : ?dtype:Types.dtype -> int array -> int array -> t
val of_float_array : ?dtype:Types.dtype -> int array -> float array -> t

(** [init shape f] builds an integer tensor with element [i] = [f i]
    (flattened index), wrapped to the dtype. *)
val init : ?dtype:Types.dtype -> int array -> (int -> int) -> t

(** [array_init n f] is [Array.init n f] without the minor collection
    [Array.init] runs for [n > 256] when [f 0] is young: the array starts
    out filled with a statically allocated tensor. *)
val array_init : int -> (int -> t) -> t array

(** A fresh tensor equal to its argument. Like every kernel below that
    returns fresh storage, it takes that storage from {!Arena}. *)
val copy : t -> t

(** Flat-index element access. *)
val get_int : t -> int -> int

val get_float : t -> int -> float
val set_int : t -> int -> int -> unit
val set_float : t -> int -> float -> unit

(** Multi-dimensional element access. *)
val get : t -> int array -> int

val set : t -> int array -> int -> unit
val get_f : t -> int array -> float
val set_f : t -> int array -> float -> unit
val to_int_array : t -> int array

(** Structural equality, dtype and shape first: same-data tensors of
    different dtypes are not equal. Float comparison is NaN-aware (NaNs
    compare equal positionally; [0.0] = [-0.0]). *)
val equal : t -> t -> bool

val to_string : ?max_elems:int -> t -> string

(** [blit src soff dst doff len] copies a contiguous flat range with the
    exact semantics of [set_int dst (doff+i) (get_int src (soff+i))];
    same-dtype integer payloads take a raw blit, everything else (floats,
    mismatches, out-of-range) falls back to that elementwise loop. *)
val blit : t -> int -> t -> int -> int -> unit

(** [blit_ints src soff dst doff len] copies [len] ints like [Array.blit]
    (overlapping ranges included) in a plain loop, without the write
    barrier [Array.blit] runs per element into a major-heap array. The
    caller checks bounds. *)
val blit_ints : int array -> int -> int array -> int -> int -> unit

(** [blit_strided src soff sstride dst doff len] copies
    [src.(soff + i*sstride)] to [dst.(doff + i)], same fallback rules as
    {!blit}. *)
val blit_strided : t -> int -> int -> t -> int -> int -> unit

(** {1 Element-wise} *)

(** Scalar integer semantics of a named binop ("add", "sub", "mul",
    "div", "rem", "min", "max", "and", "or", "xor", "shl", "shr"; division
    and remainder by zero give 0). For scalar callers only: the tensor
    kernels below ({!map2}, {!merge_region}, {!reduce}, {!scan},
    {!ew_expr}) match the op once per call and run a loop specialised to
    it on [int array] payloads.
    @raise Invalid_argument on unknown names. *)
val int_binop : string -> int -> int -> int

(** Float semantics of "add", "sub", "mul", "div", "min" and "max"; min and
    max are [Float.min]/[Float.max] (NaN wins, [-0.] below [0.]). *)
val float_binop : string -> float -> float -> float

val map2 : string -> t -> t -> t

(** [map2_in_place name a b] stores [map2 name a b] into [a]'s storage.
    Only for an [a] no other live value shares. *)
val map2_in_place : string -> t -> t -> unit

val map_not : t -> t

(** [ew_expr tokens inputs] evaluates the RPN expression of a
    [cinm.ew_expr] (or a fused scan's [pre_expr]) at every element of the
    inputs, into a fresh tensor with [inputs.(0)]'s shape and dtype. The
    tokens are parsed once, and each op runs over a row of elements at a
    time. Integer ops wrap their result to the dtype; constants enter
    unwrapped. Float dtypes use {!float_binop}.
    @raise Invalid_argument on a malformed expression or unknown op, when
    the inputs have elements. *)
val ew_expr : string list -> t array -> t

val fill_scalar : int array -> Types.dtype -> int -> t

(** [fill_float shape dtype v] is a float tensor with every element [v].
    @raise Invalid_argument on integer dtypes (use {!fill_scalar}). *)
val fill_float : int array -> Types.dtype -> float -> t

(** {1 Linear algebra} *)

(** [gemm ?batch ?ldb ~m ~n ~k a b c ~ldc]: the one MAC loop of dense
    contraction. For each [bt < batch] (default 1), with A_bt the
    row-major [m x k] block of [a] at [bt*m*k], B_bt the [k x n] block of
    [b] at [bt*k*ldb] with row stride [ldb] (default [n]) and C_bt the
    [m x n] block of [c] at [bt*m*ldc] with row stride [ldc]:
    C_bt <- A_bt B_bt, writing every element of C_bt. Integer results wrap
    to [c]'s dtype; float elements sum their products in ascending [p]
    from 0.0, so results are bit-identical to the naive loop.

    A product of at least 2^17 multiply-accumulates splits its
    [batch * m] output rows over the default {!Cinm_support.Pool} (at
    most 4 chunks per job, each a whole number of 4-row blocks); a
    smaller one, one with a 1-job pool, or one issued while the pool
    runs another loop (a DPU lane) runs inline. Every row is computed by
    the same arithmetic in any chunk, so results do not depend on the
    job count. *)
val gemm : ?batch:int -> ?ldb:int -> m:int -> n:int -> k:int -> t -> t -> t -> ldc:int -> unit

val matmul : t -> t -> t
val matvec : t -> t -> t

(** Integer dot product (wrapped to the dtype). For float tensors use
    {!dot_f} — this one truncates every element. *)
val dot : t -> t -> int

val dot_f : t -> t -> float
val conv_2d : t -> t -> t
val transpose : t -> int array -> t

(** {1 Reductions and analytics (cinm Table 1)} *)

(** Integer reduction (wrapped). For float tensors use {!reduce_f}. *)
val reduce : string -> t -> int

val reduce_f : string -> t -> float
val scan : string -> t -> t
val histogram : bins:int -> t -> t
val pop_count : t -> int

(** Bit-wise majority across all elements (the RTM majority op). *)
val majority : t -> t

(** Top-[k] values and their indices, best first: value descending, then
    index ascending (a stable descending sort's order). A size-[k] heap
    selects them in O(n log k) time and O(k) space.
    @raise Invalid_argument ["Tensor.topk: k > size"]. *)
val topk : k:int -> t -> t * t

(** Score every length-|query| window of [db] with the metric ("dot", "l2"
    or "hamming"; larger is more similar) and return the [k] best scores
    (wrapped to [db]'s dtype) and window offsets, in {!topk}'s order and
    time. Scores are ranked before they are wrapped. *)
val sim_search : metric:string -> k:int -> t -> t -> t * t

(** [window_scorer ~metric db query len] is the window score of
    {!sim_search}: applied to [off], the unwrapped score of
    [db.(off) .. db.(off + len - 1)] against [query.(0) .. query.(len - 1)].
    The metric is matched once, here; on [int array] payloads each metric
    has its own loop.
    @raise Invalid_argument on an unknown metric (here) or a window out of
    range (at the call). *)
val window_scorer : metric:string -> t -> t -> int -> int -> int

(** {1 Shape manipulation} *)

val reshape : t -> int array -> t
val pad : t -> low:int array -> high:int array -> t
val extract_slice : t -> offsets:int array -> sizes:int array -> t

(** Value semantics: a fresh tensor with [src] written at [offsets]. *)
val insert_slice : t -> t -> offsets:int array -> t

(** [write_slice src dst ~offsets] stores [insert_slice src dst ~offsets]
    into [dst]'s storage. Only for a [dst] no other live value shares. *)
val write_slice : t -> t -> offsets:int array -> unit

(** [merge_region name dst ~offsets src] stores
    [map2 name (extract_slice dst ~offsets ~sizes:src.shape) src] into
    that region of [dst] in one pass and returns [true] when the region is
    in bounds and both payloads are int arrays of one integer dtype or
    float arrays of one dtype;
    otherwise it touches nothing and returns [false]. Only for a [dst] no
    other live value shares. *)
val merge_region : string -> t -> offsets:int array -> t -> bool

val im2col : t -> kh:int -> kw:int -> t

(** Two-operand einsum, e.g. [einsum ~spec:"aebf,dfce->abcd" a b], as
    permute + one batched {!gemm} + permute. The reduction indices are
    flattened in sorted order, so each float element sums its products in
    the row-major order of its sorted reduction indices.
    @raise Invalid_argument on a spec {!Cinm_dialects.Linalg_d.plan_einsum}
    rejects or operands whose shapes do not fit it. *)
val einsum : spec:string -> t -> t -> t

(** {1 Arena}

    Free lists of recycled tensor storage, keyed by layout class and
    element count, shared process-wide (thread-safe). [alloc] is a drop-in
    for {!zeros} (recycled storage is zero-filled); [release] returns a
    tensor's storage to the arena — callers must guarantee the tensor is
    unreachable afterwards and release it at most once. Tensors of at
    most 256 elements bypass the arena (the minor heap serves them
    faster), and the pooled storage never exceeds 2 MB. *)
module Arena : sig
  val alloc : int array -> Types.dtype -> t

  (** [alloc] without the zero fill: recycled storage keeps its old
      contents. For results the caller overwrites entirely. *)
  val alloc_uninit : int array -> Types.dtype -> t

  val release : t -> unit

  (** Tensors of at most this many elements bypass the arena. *)
  val small : int

  (** Drop all pooled storage (tests). *)
  val clear : unit -> unit

  (** Free-list snapshot: number of (class, size) keys holding storage,
      total pooled payloads, and the largest single free list — the
      latter is bounded by {!max_per_key} at all times, which the
      concurrent churn test asserts. *)
  type stats = { keys : int; pooled : int; largest_pool : int }

  val stats : unit -> stats

  (** The per-key free-list cap. *)
  val max_per_key : unit -> int
end
