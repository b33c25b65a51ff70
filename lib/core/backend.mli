(** Compilation targets of the CINM flow (the paper's §4.1.2
    configurations). *)

type upmem_config = {
  ranks : int;  (** DIMM ranks; DPUs scale as ranks * dimms * dpus_per_dimm *)
  dimms : int;
  dpus_per_dimm : int;
      (** 128 on the real machine; benchmarks may scale this down so the
          functional simulation stays tractable — ratios are preserved *)
  tasklets : int;
  optimize : bool;  (** cinm-opt-nd: WRAM-aware tiling + loop interchange *)
  max_rows_per_launch : int;
}

type cim_config = {
  rows : int;
  cols : int;
  tiles : int;
  input_chunk : int;  (** rows of A streamed per cim.execute *)
  min_writes : bool;  (** cim-min-writes: loop interchange *)
  parallel : bool;  (** cim-parallel: tile-level loop unrolling *)
}

type t =
  | Host_xeon  (** cpu-opt: vectorized/parallel host baseline *)
  | Host_arm  (** the in-order ARM baseline of the OCC/gem5 setup *)
  | Upmem of upmem_config
  | Cim of cim_config
  | Hetero of upmem_config * cim_config
      (** partitioned across UPMEM + memristor + CAM + host simultaneously,
          its schedule recorded by {!Stream_exec} *)

val default_upmem :
  ?ranks:int ->
  ?dimms:int ->
  ?dpus_per_dimm:int ->
  ?tasklets:int ->
  ?optimize:bool ->
  ?max_rows_per_launch:int ->
  unit ->
  upmem_config

val default_cim :
  ?rows:int ->
  ?cols:int ->
  ?tiles:int ->
  ?input_chunk:int ->
  ?min_writes:bool ->
  ?parallel:bool ->
  unit ->
  cim_config

(** [Hetero] with default device configs; [ranks]/[dimms]/[dpus_per_dimm]
    size the UPMEM side. *)
val default_hetero :
  ?ranks:int -> ?dimms:int -> ?dpus_per_dimm:int -> unit -> t

val to_string : t -> string
