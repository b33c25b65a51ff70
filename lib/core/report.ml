(* Execution report of one compiled benchmark run: simulated time split by
   phase, energy, and the device counters the evaluation tracks. *)

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

let total_ms r = 1e3 *. r.total_s

let counter r name = List.assoc_opt name r.counters |> Option.value ~default:0

let to_string r =
  let breakdown =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%.4gms" k (1e3 *. v)) r.breakdown)
  in
  let counters =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counters)
  in
  Printf.sprintf "%-18s total=%.4gms (host=%.4g dev=%.4g) energy=%.4gmJ [%s] {%s}"
    r.backend (total_ms r) (1e3 *. r.host_s) (1e3 *. r.device_s) (1e3 *. r.energy_j)
    breakdown counters
