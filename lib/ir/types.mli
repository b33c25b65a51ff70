(** The type system of the CINM IR: MLIR's builtin shaped types plus the
    custom types of the cnm/cim dialects (paper Tables 2 and 3). *)

(** Element types. All of the paper's workloads use [I32]. *)
type dtype = I1 | I8 | I16 | I32 | I64 | F32 | F64

type t =
  | Index  (** loop induction variables, sizes *)
  | Scalar of dtype
  | Tensor of int array * dtype  (** immutable value-semantics tensor *)
  | MemRef of int array * dtype  (** mutable buffer reference *)
  | Workgroup of int array
      (** [!cnm.workgroup<AxB...>]: logical grid of processing units *)
  | Buffer of { shape : int array; dtype : dtype; level : int }
      (** [!cnm.buffer<shape x dtype, level l>]: opaque buffer shared
          across the last [l] workgroup dimensions (paper Fig. 7) *)
  | Token  (** async handle for cnm.wait / cim.barrier *)
  | Cim_id  (** handle of an acquired CIM accelerator *)
  | Func of t list * t list

val dtype_bits : dtype -> int
val dtype_bytes : dtype -> int
val is_float_dtype : dtype -> bool
val dtype_to_string : dtype -> string
val dtype_of_string : string -> dtype option

(** Render in the textual IR syntax, e.g. ["tensor<4x8xi32>"]. *)
val to_string : t -> string

(** Append the {!to_string} text of a type to a buffer. *)
val to_buffer : Buffer.t -> t -> unit

(** Append the decimal digits of an int ([string_of_int]) to a buffer
    without allocating. *)
val add_int : Buffer.t -> int -> unit

val equal : t -> t -> bool

(** Element count of a shaped (or scalar) type.
    @raise Invalid_argument on tokens/handles. *)
val num_elements : t -> int

(** Storage size of a shaped or scalar type.
    @raise Invalid_argument on workgroups/tokens/handles. *)
val size_in_bytes : t -> int

val element_dtype : t -> dtype option
val shape_of : t -> int array option
val rank : t -> int
val is_shaped : t -> bool

(** Tensor/memref duality used when lowering value semantics to buffers. *)
val to_memref : t -> t

val to_tensor : t -> t

(** Parse the syntax produced by {!to_string}; [None] on malformed input. *)
val of_string : string -> t option
