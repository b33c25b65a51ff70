(* Device cost models (paper §3.3): one analytic estimate per device,
   derived from the simulator constants. The heterogeneous partitioner
   builds one set per plan from the backend geometry and compares the
   candidate devices of each cinm op with it. The paper leaves model
   development to future work but provides the mechanism — as do we. *)

open Cinm_ir

type t = Ir.op -> float option

(* Host staging bandwidth, calibrated to the upmem simulator's measured
   scatter/gather DMA (~3 GB/s across the DIMM interface). *)
let host_bw = 3e9

let gemm_dims op =
  if (op.Ir.name <> "cinm.gemm" && op.Ir.name <> "cinm.gemv") || Ir.num_operands op < 2
  then None
  else
    match
      (Types.shape_of (Ir.operand op 0).Ir.ty, Types.shape_of (Ir.operand op 1).Ir.ty)
    with
    | Some [| m; k |], Some [| _; n |] when op.Ir.name = "cinm.gemm" -> Some (m, k, n)
    | Some [| m; k |], Some [| _ |] when op.Ir.name = "cinm.gemv" -> Some (m, k, 1)
    | _ -> None

let elements op =
  if Ir.num_operands op = 0 then 0
  else match Types.shape_of (Ir.operand op 0).Ir.ty with
    | Some shape -> Cinm_support.Util.product_of_shape shape
    | None -> 0

(* Crossbar model: MVM rows at 100 ns each, plus programming of each
   K x N tile once at 500 ns per row. *)
let cim ~rows ~cols op =
  match gemm_dims op with
  | Some (m, k, n) ->
    let k_tiles = Cinm_support.Util.ceil_div k rows in
    let n_tiles = Cinm_support.Util.ceil_div n cols in
    let program = float_of_int (k_tiles * n_tiles * rows) *. 500e-9 in
    let compute = float_of_int (m * k_tiles * n_tiles) *. 100e-9 in
    Some (program +. compute)
  | None -> None

(* UPMEM model: op throughput across all DPUs at 350 MHz plus host
   transfers. The per-MAC / per-element costs are calibrated to the
   interpreted-kernel simulator (~190 and ~25 DPU cycles measured on
   mm/va). *)
let cnm ~dpus op =
  let n = elements op in
  if n = 0 then None
  else
    let work_cycles =
      match gemm_dims op with
      | Some (m, k, n') -> float_of_int (m * k * n') *. 190.0
      | None -> float_of_int n *. 25.0
    in
    let transfer = float_of_int (n * 4) /. host_bw in
    Some ((work_cycles /. (350e6 *. float_of_int dpus)) +. transfer)

(* CAM/RTM model (C4CAM/PIRM-class): a similarity search programs the
   database rows once (200 ns each), then each of the k results costs one
   10 ns parallel search; a popcount shifts the data into 64 RTM tracks
   (1 ns per shift) and issues 2 ns transverse reads over every bit-plane,
   8 domains per read. Constants mirror the cam_sim defaults. *)
let cam op =
  match op.Ir.name with
  | "cinm.sim_search" -> (
    (* the database's windows become CAM entries (cinm_to_cam): a
       flat [n] database with an [m] query programs n-m+1 rows *)
    let entries =
      match
        ( Types.shape_of (Ir.operand op 0).Ir.ty,
          Types.shape_of (Ir.operand op 1).Ir.ty )
      with
      | Some [| n |], Some [| m |] when n >= m -> Some (n - m + 1)
      | Some [| entries; _ |], _ -> Some entries
      | _ -> None
    in
    match entries with
    | Some entries ->
      let k = match Ir.attr op "k" with Some (Attr.Int k) -> k | _ -> 1 in
      Some ((float_of_int entries *. 200e-9) +. (float_of_int k *. 10e-9))
    | None -> None)
  | "cinm.pop_count" ->
    let n = elements op in
    if n = 0 then None
    else
      let tracks = 64 in
      let domains = Cinm_support.Util.ceil_div n tracks in
      let shifts = 32 * n / tracks in
      let reads = int_of_float (ceil (32.0 *. float_of_int domains /. 8.0)) in
      Some ((float_of_int shifts *. 1e-9) +. (float_of_int reads *. 2e-9))
  | _ -> None

(* Host model: the orchestrating in-order ARM core of the OCC setup, at
   ~4 cycles per multiply-accumulate (0.5 GMAC/s), not the standalone
   Xeon baseline. *)
let host op =
  let work =
    match gemm_dims op with
    | Some (m, k, n) -> float_of_int (m * k * n)
    | None -> (
      match op.Ir.name with
      | "cinm.sim_search" -> (
        (* scoring every window costs windows x query-width MACs,
           matching the interpreter's accounting *)
        match
          ( Types.shape_of (Ir.operand op 0).Ir.ty,
            Types.shape_of (Ir.operand op 1).Ir.ty )
        with
        | Some dbs, Some qs ->
          let n = Cinm_support.Util.product_of_shape dbs in
          let m = Cinm_support.Util.product_of_shape qs in
          (* hamming scoring is xor + popcount per element, ~3x the
             cycles of a multiply-accumulate on a scalar core *)
          let per_elt =
            match Ir.attr op "metric" with
            | Some (Attr.Str "hamming") -> 3.0
            | _ -> 1.0
          in
          float_of_int (max 1 (n - m + 1) * m) *. per_elt
        | _ -> 0.0)
      | _ -> float_of_int (elements op))
  in
  if work = 0.0 then None else Some (work /. 0.5e9)
