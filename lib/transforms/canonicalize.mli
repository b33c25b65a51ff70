(** Canonicalization: constant folding of scalar arith ops and per-block
    CSE of pure, region-free ops, as two rewrite patterns followed by
    DCE. *)

val run_on_func : Cinm_ir.Func.t -> unit
val pass : Cinm_ir.Pass.t
