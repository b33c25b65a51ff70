(** Dialect registry: dialects are logical groups of operations with per-op
    structural verifiers (paper §2.1). Backs the verifier, the parser's
    sanity checks, and the documentation tooling. *)

type op_def = {
  op_name : string;  (** fully qualified, e.g. ["cnm.scatter"] *)
  summary : string;
  verify : Ir.op -> (unit, string) result;
}

type t = { dname : string; description : string; mutable ops : op_def list }

(** Idempotent: returns the existing dialect when re-registered. *)
val register : name:string -> description:string -> t

val no_verify : Ir.op -> (unit, string) result

(** Register an op in a dialect; [op_name] is qualified with the dialect
    name unless it already contains a ['.']. *)
val add_op :
  ?verify:(Ir.op -> (unit, string) result) -> summary:string -> t -> string -> op_def

val find_op : string -> op_def option
val find_dialect : string -> t option
val all_dialects : unit -> t list
val ops_of : t -> op_def list

(** {1 Verifier combinators}

    Verification runs after every pass, so the helpers format their
    message only when the check fails. [expect] takes a prebuilt message:
    pass it a literal, and write a check whose message needs formatting
    as [if cond then ok else Error (...)]. *)

val ok : (unit, string) result
val expect : bool -> string -> (unit, string) result
val expect_operands : Ir.op -> int -> (unit, string) result
val expect_results : Ir.op -> int -> (unit, string) result
val expect_regions : Ir.op -> int -> (unit, string) result
val ( >>= ) : (unit, string) result -> (unit -> (unit, string) result) -> (unit, string) result
val expect_attr : Ir.op -> string -> (unit, string) result
val expect_operand_type : Ir.op -> int -> Types.t -> (unit, string) result
val expect_shaped_operand : Ir.op -> int -> (unit, string) result
val expect_same_type : Ir.op -> int -> int -> (unit, string) result
