(** Device cost models (paper §3.3): analytic estimates derived from the
    simulator constants, which the heterogeneous partitioner compares to
    place each cinm op. *)

(** Estimated seconds for one op on a device; [None] when the device's
    model does not cover the op. *)
type t = Cinm_ir.Ir.op -> float option

(** Bytes/s the host stages data at between devices (calibrated to the
    upmem simulator's scatter/gather DMA). *)
val host_bw : float

(** Memristor crossbar of [rows] x [cols] tiles: [cinm.gemm]/[cinm.gemv]. *)
val cim : rows:int -> cols:int -> t

(** UPMEM grid of [dpus] DPUs, with per-MAC / per-element cycle costs
    calibrated to the interpreted-kernel simulator. *)
val cnm : dpus:int -> t

(** CAM similarity search / RTM popcount (constants mirror the cam_sim
    defaults): [cinm.sim_search] and [cinm.pop_count]. *)
val cam : t

(** The orchestrating in-order host core: every op with a shape. *)
val host : t
