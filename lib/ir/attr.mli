(** Compile-time attributes attached to operations (MLIR-style). *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Ints of int array
  | Floats of float array
  | Strs of string list
  | Ty of Types.t
  | List of t list

val to_string : t -> string

(** Structural equality with floats compared by bit pattern, so [0.0]
    and [-0.0] differ and a NaN equals itself. *)
val equal : t -> t -> bool

(** Typed accessors; the [string] argument is the attribute name, used in
    the error message.
    @raise Invalid_argument on a schema mismatch. *)

val get_int : string -> t -> int
val get_str : string -> t -> string
val get_ints : string -> t -> int array
val get_bool : string -> t -> bool
val get_float : string -> t -> float
val get_ty : string -> t -> Types.t
