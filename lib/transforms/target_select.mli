(** Target selection at the cinm level (paper §3.2.2): annotates each cinm
    op with a "target" attribute ("cim" | "cnm" | "host") that subsequent
    lowerings dispatch on, by the paper's greedy policy. Cost-model
    placement across devices is the heterogeneous partitioner's job
    ({!Partition}). *)

type policy = {
  forced_target : string option;  (** [None] = automatic *)
  cim_gemm_threshold : int;
      (** min(m, k) of a matmul-like op's first operand at or above which
          it prefers the crossbar *)
}

val default_policy : policy
val run_on_func : policy -> Cinm_ir.Func.t -> unit
val pass : ?policy:policy -> unit -> Cinm_ir.Pass.t
