(* Statistics of one memristor-accelerator run. The write count is the
   headline metric of the paper's cim-min-writes optimization (Fig. 10:
   7x fewer writes); tile-parallel phases shorten compute_s. *)

(* The time buckets sit in a float-only record, whose fields OCaml stores
   unboxed: accounting an op allocates nothing, where a float field of
   a mixed record boxes on every update. *)
type time = {
  mutable program_s : float;  (** crossbar programming (NVM writes) *)
  mutable compute_s : float;  (** analog MVM phases *)
  mutable io_s : float;  (** digital staging / read-out / host transfers *)
  mutable makespan_s : float;
      (** event-clock end time: tile-parallel phases overlap, unlike the
          serialized program/compute/io sums above *)
}

type t = {
  time : time;
  mutable cells_written : int;
  mutable store_ops : int;  (** store_tile calls *)
  mutable mvms : int;  (** input vectors driven through tiles *)
  mutable macs : int;  (** multiply-accumulates [gemm_tile] computed *)
  mutable energy_j : float;
  mutable endurance_writes : int array;  (** per-tile write cycles *)
  mutable stuck_cells : int;  (** crossbar cells clamped by stuck-at faults *)
  mutable calibrations : int;  (** write-verify passes for tile gain drift *)
}

let create ~tiles =
  {
    time = { program_s = 0.0; compute_s = 0.0; io_s = 0.0; makespan_s = 0.0 };
    cells_written = 0;
    store_ops = 0;
    mvms = 0;
    macs = 0;
    energy_j = 0.0;
    endurance_writes = Array.make tiles 0;
    stuck_cells = 0;
    calibrations = 0;
  }

(* End-to-end accelerator time: the event-clock makespan when the program
   released the device, else the serialized sum. *)
let total_s s =
  let t = s.time in
  if t.makespan_s > 0.0 then t.makespan_s else t.program_s +. t.compute_s +. t.io_s

let to_string s =
  let faults =
    if s.stuck_cells = 0 && s.calibrations = 0 then ""
    else Printf.sprintf " stuck=%d calibrations=%d" s.stuck_cells s.calibrations
  in
  Printf.sprintf
    "total=%.3fus (program=%.3f compute=%.3f io=%.3f) stores=%d cells=%d mvms=%d energy=%.3fuJ%s"
    (1e6 *. total_s s) (1e6 *. s.time.program_s) (1e6 *. s.time.compute_s) (1e6 *. s.time.io_s)
    s.store_ops s.cells_written s.mvms (1e6 *. s.energy_j) faults
