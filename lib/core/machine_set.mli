(** The simulators one run drives, chosen by backend: none for the host
    backends, the UPMEM machine for [Upmem], the memristor crossbar plus
    the CAM/RTM machine for [Cim], and all three for [Hetero]. {!create} is
    the only code in the library that builds a simulator. Hooks,
    recycling and report fragments iterate over the set in the fixed
    order upmem, memristor, cam. *)

type t = {
  upmem : Cinm_upmem_sim.Machine.t option;
  memristor : Cinm_memristor_sim.Machine.t option;
  cam : Cinm_cam_sim.Cam_machine.t option;
}

(** UPMEM simulator configuration corresponding to a backend config. *)
val upmem_sim_config : Backend.upmem_config -> Cinm_upmem_sim.Config.t

(** The machines [backend] needs, under the fault plan [faults] ([None] =
    fault-free); [upmem] replaces the UPMEM geometry derived from the
    backend, for callers that run hand-tuned simulator configurations. *)
val create :
  faults:Cinm_support.Fault.plan option ->
  ?upmem:Cinm_upmem_sim.Config.t ->
  Backend.t ->
  t

(** The machines' interpreter hooks, in dispatch order. *)
val hooks : t -> Cinm_interp.Interp.hook list

(** Release device buffers to the tensor arena once the run is over. *)
val recycle : t -> unit

(** One simulator's contribution to a report, read from its stats. *)
type fragment = {
  device_s : float;
  energy_j : float;
  breakdown : (string * float) list;
  counters : (string * int) list;
}

(** One fragment per machine in the set, in set order. *)
val fragments : t -> fragment list
