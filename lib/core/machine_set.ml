(* The simulators one run drives, chosen by backend. [create] is the one
   place in the library that builds a simulator; hooks, recycling and
   report fragments iterate over whatever the set holds, always in the
   order upmem, memristor, cam. *)

module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim
module Camsim = Cinm_cam_sim

type t = {
  upmem : Usim.Machine.t option;
  memristor : Msim.Machine.t option;
  cam : Camsim.Cam_machine.t option;
}

let upmem_sim_config (c : Backend.upmem_config) =
  {
    (Usim.Config.default ~ranks:c.Backend.ranks ~dimms:c.Backend.dimms ()) with
    Usim.Config.dpus_per_dimm = c.Backend.dpus_per_dimm;
  }

let create ~faults ?upmem (backend : Backend.t) =
  let upmem_machine u =
    Some (Usim.Machine.create ~faults (Option.value upmem ~default:(upmem_sim_config u)))
  in
  let crossbar (c : Backend.cim_config) =
    Some
      (Msim.Machine.create ~faults
         {
           (Msim.Config.default ~tiles:c.Backend.tiles ()) with
           Msim.Config.rows = c.Backend.rows;
           cols = c.Backend.cols;
         })
  in
  let cam () = Some (Camsim.Cam_machine.create (Camsim.Cam_machine.default_config ())) in
  match backend with
  | Backend.Host_xeon | Backend.Host_arm -> { upmem = None; memristor = None; cam = None }
  | Backend.Upmem u -> { upmem = upmem_machine u; memristor = None; cam = None }
  | Backend.Cim c -> { upmem = None; memristor = crossbar c; cam = cam () }
  | Backend.Hetero (u, c) ->
    { upmem = upmem_machine u; memristor = crossbar c; cam = cam () }

let hooks ms =
  List.filter_map Fun.id
    [
      Option.map Usim.Machine.hook ms.upmem;
      Option.map Msim.Machine.hook ms.memristor;
      Option.map Camsim.Cam_machine.hook ms.cam;
    ]

(* The machines die with the run and gathers copy out of device buffers,
   so their storage can recycle through the arena; MVM and CAM results
   were fresh allocations. *)
let recycle ms =
  Option.iter Usim.Machine.recycle ms.upmem;
  Option.iter Msim.Machine.recycle ms.memristor

type fragment = {
  device_s : float;
  energy_j : float;
  breakdown : (string * float) list;
  counters : (string * int) list;
}

let upmem_fragment (m : Usim.Machine.t) =
  let s = m.Usim.Machine.stats in
  {
    device_s = Usim.Stats.total_s s;
    energy_j = s.Usim.Stats.energy_j;
    breakdown =
      [
        ("cpu->dpu", s.Usim.Stats.host_to_device_s);
        ("kernel", s.Usim.Stats.kernel_s);
        ("dpu->cpu", s.Usim.Stats.device_to_host_s);
      ];
    counters =
      [
        ("launches", s.Usim.Stats.launches);
        ("dpu_instructions", s.Usim.Stats.dpu_instructions);
        ("dma_bytes", s.Usim.Stats.dma_bytes);
        ("transferred_bytes", s.Usim.Stats.transferred_bytes);
      ]
      (* only surfaced under an active fault plan, keeping fault-free
         reports byte-identical to the pre-fault-model ones *)
      @
      if s.Usim.Stats.retries = 0 && s.Usim.Stats.failed_dpus = 0 then []
      else
        [ ("retries", s.Usim.Stats.retries); ("failed_dpus", s.Usim.Stats.failed_dpus) ];
  }

let memristor_fragment (m : Msim.Machine.t) =
  let s = m.Msim.Machine.stats in
  {
    device_s = Msim.Stats.total_s s;
    energy_j = s.Msim.Stats.energy_j;
    breakdown =
      [
        ("program", s.Msim.Stats.time.program_s);
        ("mvm", s.Msim.Stats.time.compute_s);
        ("io", s.Msim.Stats.time.io_s);
      ];
    counters =
      [
        ("crossbar_writes", s.Msim.Stats.store_ops);
        ("cells_written", s.Msim.Stats.cells_written);
        ("mvms", s.Msim.Stats.mvms);
      ];
  }

let cam_fragment (m : Camsim.Cam_machine.t) =
  let s = m.Camsim.Cam_machine.stats in
  {
    device_s = s.Camsim.Cam_machine.busy_s;
    energy_j = s.Camsim.Cam_machine.energy_j;
    breakdown = [];
    counters =
      [
        ("cam_searches", s.Camsim.Cam_machine.cam_searches);
        ("rtm_reads", s.Camsim.Cam_machine.rtm_reads);
      ];
  }

let fragments ms =
  List.filter_map Fun.id
    [
      Option.map upmem_fragment ms.upmem;
      Option.map memristor_fragment ms.memristor;
      Option.map cam_fragment ms.cam;
    ]
