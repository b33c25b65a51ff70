(** linalg dialect: the device-independent front-end abstraction of the
    CINM flow (paper Fig. 3b) — named linear-algebra ops plus a
    generalized einsum for the contraction benchmarks. *)

open Cinm_ir

val matmul_verify : Ir.op -> (unit, string) result
val matvec_verify : Ir.op -> (unit, string) result
val conv_2d_verify : Ir.op -> (unit, string) result
val ensure : unit -> unit

val add : Builder.t -> Ir.value -> Ir.value -> Ir.value
val sub : Builder.t -> Ir.value -> Ir.value -> Ir.value
val mul : Builder.t -> Ir.value -> Ir.value -> Ir.value
val matmul : Builder.t -> Ir.value -> Ir.value -> Ir.value
val matvec : Builder.t -> Ir.value -> Ir.value -> Ir.value
val conv_2d : Builder.t -> Ir.value -> Ir.value -> Ir.value
val dot : Builder.t -> Ir.value -> Ir.value -> Ir.value
val fill : Builder.t -> Ir.value -> int array -> Types.dtype -> Ir.value
val transpose : Builder.t -> Ir.value -> perms:int array -> Ir.value
val reduce : Builder.t -> op:string -> Ir.value -> Ir.value
val broadcast : Builder.t -> Ir.value -> to_shape:int array -> Ir.value

(** Split an einsum spec into (lhs indices, rhs indices, out indices).
    @raise Invalid_argument on malformed specs. *)
val parse_einsum_spec : string -> string * string * string

(** Index classification of a two-operand einsum. *)
type einsum_plan = {
  batch_idx : char list;  (** in both inputs and the output, in A's order *)
  m_idx : char list;  (** in A and the output only, in A's order *)
  n_idx : char list;  (** in B and the output only, in B's order *)
  k_idx : char list;  (** in both inputs, not the output, in A's order *)
}

(** Why a spec is not a two-operand contraction. *)
type einsum_error =
  | Repeated_index of char * string  (** twice in one operand or in the output *)
  | Free_reduction of char  (** summed within one operand *)
  | Unbound_output of char  (** an output index in neither input *)

val einsum_error_message : einsum_error -> string

(** The one contraction classifier, shared by the host kernel
    ([Tensor.einsum]) and the device lowering ([linalg-to-cinm], which
    lowers only plans without batch indices). *)
val plan_einsum : string -> string -> string -> (einsum_plan, einsum_error) result

val einsum : Builder.t -> spec:string -> Ir.value -> Ir.value -> Ir.value
