(** linalg -> cinm conversion (paper §3.2.2): maps linalg named ops onto
    the cinm op set (Table 1); convolutions are rewritten as
    im2col + gemm + expand (Fig. 5) and pure tensor contractions as
    transpose + reshape + gemm (the OCC algorithm). Unconvertible ops stay
    and run on the host. *)

val pass : Cinm_ir.Pass.t
