(** Data distribution between a host tensor and per-PU buffers; the map
    names match the cnm.scatter attribute. *)

(** [scatter ~map t per_pu] fills each buffer from [t]:
    - ["block"]: contiguous chunks in PU order;
    - ["cyclic"]: element [i] goes to PU [i mod pus];
    - ["broadcast"]: every buffer gets a copy of [t];
    - ["overlap"]: block distribution with [halo] elements shared between
      neighbouring buffers (sliding-window kernels).
    @raise Invalid_argument on an unknown map or empty buffer array. *)
val scatter : ?halo:int -> map:string -> Tensor.t -> Tensor.t array -> unit

(** Concatenate per-PU buffers back into a tensor (inverse of ["block"]),
    whose storage comes from {!Tensor.Arena}. *)
val gather : Tensor.t array -> result_shape:int array -> dtype:Cinm_ir.Types.dtype -> Tensor.t
