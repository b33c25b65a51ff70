(** Memristive crossbar accelerator simulator: interpreter hooks for the
    memristor dialect. Weights are programmed into tiles (slow,
    endurance-limited NVM writes), staged inputs stream through as analog
    MVMs, results come back through the ADCs.

    Timing is an event-clock model: the digital interface (programming,
    input staging) is serialized on an io clock; each tile has its own
    ready clock, so MVMs on distinct tiles overlap — which is where the
    cim-parallel unrolling gets its speedup. The run's makespan is the
    latest clock at release.

    With a {!Cinm_support.Fault} plan installed the crossbars are
    non-ideal: stuck-at-0/1 cells clamp programmed conductances (changing
    results — this fault is not hidden), and tiles with conductance gain
    outside 1% tolerance pay a write-verify calibration pass after every
    store (accounted in io time and {!Stats.t.calibrations}; results are
    unaffected, the digital periphery rescales). *)

open Cinm_ir
open Cinm_interp

(** A clock in a float-only record: its field is stored unboxed, so
    advancing it allocates nothing. *)
type clock = { mutable at : float }

type tile
type device

type t = {
  config : Config.t;
  stats : Stats.t;
  devices : (int, device) Hashtbl.t;
  mutable next : int;
  io : clock;  (** the serialized digital interface's clock *)
  faults : Cinm_support.Fault.plan option;
  mutable trace_pid : int;
      (** the machine's {!Cinm_support.Trace} device pid; [0] until the
          first event is emitted with tracing on. Spans sit directly on
          the simulator's event clocks: programming and MVMs on per-tile
          ["tile<k>"] tracks, digital-interface staging on ["io"], plus
          stuck-cell/calibration fault events. Span durations equal the
          stats-bucket increments (cat ["program"]/["mvm"]/["io"]), so
          {!Cinm_support.Trace.device_total} reproduces them bit for
          bit. *)
}

val create : ?faults:Cinm_support.Fault.plan option -> Config.t -> t
(** [faults] defaults to {!Cinm_support.Fault.default} (the [CINM_FAULTS]
    plan, if any); pass [~faults:None] to force ideal crossbars. *)

(** The interpreter hook implementing memristor.*. Programs that exceed the
    configured tile count/geometry, or compute on unprogrammed tiles,
    raise [Invalid_argument]. It accounts into {!t.stats} and keeps no
    schedule-event log: the hetero schedule recorder wraps it and costs
    each tile store, copy and GEMM by the increment of the serial busy sum
    [program_s +. compute_s +. io_s]. *)
val hook : t -> Interp.hook

(** Return every live device's tile storage to the {!Tensor.Arena}, for
    the end of a run (devices the program never released). MVM results are
    fresh tensors, so host results never alias tile storage. *)
val recycle : t -> unit

val run : t -> Func.t -> Rtval.t list -> Rtval.t list * Stats.t
