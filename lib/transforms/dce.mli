(** Dead code elimination for pure, region-free ops (to fixpoint). *)

(** Delete the ops [removable] accepts whose results are all unused,
    repeating until nothing changes; [true] when anything was removed.
    Blocks are edited in place. *)
val sweep : removable:(Cinm_ir.Ir.op -> bool) -> Cinm_ir.Func.t -> bool

val run_on_func : Cinm_ir.Func.t -> unit
val pass : Cinm_ir.Pass.t
