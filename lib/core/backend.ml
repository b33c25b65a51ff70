(* Compilation targets of the CINM flow (paper §4.1.2's configurations). *)

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
  input_chunk : int;
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
          its schedule recorded by Stream_exec *)

let default_upmem ?(ranks = 1) ?(dimms = 16) ?(dpus_per_dimm = 128) ?(tasklets = 16)
    ?(optimize = false) ?(max_rows_per_launch = 64) () =
  { ranks; dimms; dpus_per_dimm; tasklets; optimize; max_rows_per_launch }

let default_cim ?(rows = 64) ?(cols = 64) ?(tiles = 4) ?(input_chunk = 128)
    ?(min_writes = false) ?(parallel = false) () =
  { rows; cols; tiles; input_chunk; min_writes; parallel }

let default_hetero ?ranks ?dimms ?dpus_per_dimm () =
  Hetero (default_upmem ?ranks ?dimms ?dpus_per_dimm (), default_cim ())

let to_string = function
  | Host_xeon -> "cpu-opt"
  | Host_arm -> "arm"
  | Upmem c ->
    Printf.sprintf "upmem-%dd%s%s" c.dimms
      (if c.ranks > 1 then Printf.sprintf "-%dr" c.ranks else "")
      (if c.optimize then "-opt" else "")
  | Cim c ->
    Printf.sprintf "cim%s%s"
      (if c.min_writes then "-min-writes" else "")
      (if c.parallel then "-parallel" else "")
  | Hetero (u, _) ->
    if u.ranks > 1 then Printf.sprintf "hetero-%dr" u.ranks else "hetero"
