(** Functions and modules: the top-level containers of the IR. A function
    owns a single region whose entry block arguments are its parameters;
    the body ends with [func.return]. *)

type t = {
  fname : string;
  arg_tys : Types.t list;
  result_tys : Types.t list;
  body : Ir.region;
  mutable fattrs : (string * Attr.t) list;
}

type modul = { mutable funcs : t list }

val create : name:string -> arg_tys:Types.t list -> result_tys:Types.t list -> t
val entry_block : t -> Ir.block
val params : t -> Ir.value list
val param : t -> int -> Ir.value
val fn_type : t -> Types.t
val create_module : unit -> modul
val add_func : modul -> t -> unit
val find_func : modul -> string -> t option

(** @raise Invalid_argument when no function has that name. *)
val find_func_exn : modul -> string -> t

(** Pre-order walk over every op in the function body. *)
val walk : (Ir.op -> unit) -> t -> unit

(** Replace the function's body in place (used by conversions that rebuild
    whole functions). *)
val replace_body : t -> Ir.region -> unit

(** Deep copy; mutating the clone leaves the original untouched. *)
val clone : t -> t

(** Deep copy of every function, in order. *)
val clone_module : modul -> modul
