(** CAM (C4CAM/X-TIME-class parallel search) and RTM (PIRM-class
    transverse-read popcount) simulators — the CIM device classes of the
    paper's taxonomy beyond crossbars. *)

open Cinm_ir
open Cinm_interp

type config = {
  cam_entries : int;
  cam_width : int;
  t_search : float;  (** s per parallel search (match + priority encode) *)
  t_write_entry : float;
  e_search : float;
  e_write_entry : float;
  rtm_tracks : int;
  rtm_domains : int;
  tr_distance : float;  (** domains sensed per transverse read *)
  t_shift : float;
  t_transverse_read : float;
  e_transverse_read : float;
}

val default_config : unit -> config

type stats = {
  mutable cam_searches : int;
  mutable cam_entries_written : int;
  mutable rtm_reads : int;
  mutable busy_s : float;
  mutable energy_j : float;
}

type t = {
  config : config;
  stats : stats;
  devices : (int, entry) Hashtbl.t;
  mutable next : int;
}

and entry

val create : config -> t

(** Interpreter hook implementing cam.* and rtm.*. Capacity violations and
    compute-before-program raise [Invalid_argument]. It accounts into
    {!t.stats} and keeps no schedule-event log: the hetero schedule
    recorder wraps it and costs each entry write, search, RTM write and
    popcount by the increment of [busy_s]. *)
val hook : t -> Interp.hook

val run : t -> Func.t -> Rtval.t list -> Rtval.t list * stats
