(** cinm -> cnm lowering (paper §3.2.3, Fig. 6a): rewrites cinm compute ops
    annotated target = "cnm" into workgroup allocation and scatter /
    launch / gather sequences with tiling. GEMMs chunk the M dimension
    across the PUs (Fig. 9 rectangular tiling) with the stationary operand
    broadcast once into a DPU-shared buffer; reduce / scan / histogram /
    topk / sim_search get their multi-launch decompositions. The emitted
    cnm.launch carries a kernel descriptor attribute that cnm-to-upmem
    regenerates device-aware kernels from. *)

open Cinm_ir

type options = {
  dpus : int;
      (** upper bound on a workgroup's DPUs: a GEMM or elementwise launch
          takes the fewest that cover its rows with every tasklet busy,
          so it pads less than one DPU's worth of rows *)
  tasklets : int;  (** tasklets of every DPU a launch uses *)
  optimize : bool;  (** cinm-opt: WRAM-aware kernel style + interchange *)
  max_rows_per_launch : int;  (** bound on per-PU rows per launch *)
}

val default_options : options

(** A zero constant of the given element dtype ([arith.constant] with a
    float or integer payload as appropriate). *)
val const_zero : Builder.t -> Types.dtype -> Ir.value

(** An integer literal materialized at the element dtype ([constant_f]
    with the converted value for float dtypes). *)
val const_of_int : Builder.t -> Types.dtype -> int -> Ir.value

(** Scalar form of a named cinm binop, dispatched on the operand dtype
    (float operands take the f-suffixed arith ops).
    @raise Invalid_argument on unknown names. *)
val scalar_binop : Builder.t -> string -> Ir.value -> Ir.value -> Ir.value

val pass : ?options:options -> unit -> Pass.t
