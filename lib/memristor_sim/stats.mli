(** Statistics of one memristor-accelerator run. The write count is the
    headline metric of the cim-min-writes optimization (Fig. 10). *)

(** The time buckets, in a float-only record (unboxed fields, so
    accounting an op allocates nothing). *)
type time = {
  mutable program_s : float;  (** crossbar programming (NVM writes) *)
  mutable compute_s : float;  (** analog MVM *)
  mutable io_s : float;  (** digital staging / read-out *)
  mutable makespan_s : float;  (** event-clock end time (tiles overlap) *)
}

type t = {
  time : time;
  mutable cells_written : int;
  mutable store_ops : int;
  mutable mvms : int;
  mutable macs : int;  (** multiply-accumulates [gemm_tile] computed *)
  mutable energy_j : float;
  mutable endurance_writes : int array;  (** per-tile write cycles *)
  mutable stuck_cells : int;  (** crossbar cells clamped by stuck-at faults *)
  mutable calibrations : int;  (** write-verify passes for tile gain drift *)
}

val create : tiles:int -> t

(** Event-clock makespan when set (device released), else the serial sum. *)
val total_s : t -> float

val to_string : t -> string
