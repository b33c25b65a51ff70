(** Execution report of one compiled benchmark run. *)

type t = {
  backend : string;
  total_s : float;
  host_s : float;  (** host-side orchestration (interpreted profile) *)
  device_s : float;
  breakdown : (string * float) list;  (** named sub-phases, seconds *)
  energy_j : float;
  counters : (string * int) list;  (** e.g. crossbar writes, DPU launches *)
  tracks : Cinm_support.Schedule.track list;
      (** per-machine simulated-time tracks (compute/dma busy and idle
          under the overlapped schedule); non-empty only for backends run
          through the hetero schedule recorder *)
}

val total_ms : t -> float

(** A named counter's value, 0 when absent. *)
val counter : t -> string -> int

val to_string : t -> string
