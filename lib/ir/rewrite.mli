(** Pattern-based dialect conversion: the rewriting engine behind every
    lowering in the CINM pipeline (paper §3.2). A conversion rebuilds
    function bodies op by op; each op is offered to the patterns in order,
    and unmatched ops are cloned with remapped operands (their nested
    regions converted recursively). *)

type env = (int, Ir.value) Hashtbl.t

type ctx = {
  b : Builder.t;
  env : env;
  patterns : pattern list;
  hits : int array;
      (** per-pattern match counts ([[||]] when nobody is counting) *)
}

and action =
  | Replace of Ir.value list
      (** the op was rewritten; these values replace its results *)
  | Erase  (** drop the op (it must have no used results) *)

and pattern = ctx -> Ir.op -> action option

(** Map an original value to its converted counterpart (identity if none). *)
val lookup : ctx -> Ir.value -> Ir.value

(** Converted operand [i] of an original op. *)
val operand : ctx -> Ir.op -> int -> Ir.value

val operands : ctx -> Ir.op -> Ir.value list
val bind : ctx -> Ir.value -> Ir.value -> unit

(** Record the replacement values for an op's results.
    @raise Invalid_argument on an arity mismatch. *)
val bind_results : ctx -> Ir.op -> Ir.value list -> unit

(** Offer one op to the patterns at the current insertion point; an
    unmatched op is cloned with remapped operands and recursively
    converted regions. *)
val convert_op : ctx -> Ir.op -> unit

(** Convert a function (module) in place. When [hits] is given (one slot
    per pattern), slot [i] is incremented every time pattern [i] fires —
    the pass manager uses this for per-pattern rewrite statistics. *)
val apply_to_func : ?hits:int array -> patterns:pattern list -> Func.t -> unit
val apply_to_module : ?hits:int array -> patterns:pattern list -> Func.modul -> unit
