(** Simulated-time schedule merge for heterogeneous multi-device runs.

    The hetero schedule recorder logs one {!ev} per timed device
    operation around each machine's hook and groups them into {!node}s
    (one per top-level op, with the op-level dependency DAG);
    {!summarize} replays them twice — once strictly sequentially, once
    overlapped (independent per-machine channels, buffer RAW hazards, a
    two-deep double-buffering window for host->device transfers) —
    yielding the sequential sum, the critical-path makespan and
    per-machine busy/idle tracks. The merge is a pure function of the
    events: byte-identical for any host job count. *)

type kind =
  | Dma_in  (** host -> device transfer (scatter, input staging) *)
  | Compute  (** device-side work (kernel, MVM, search) *)
  | Dma_out  (** device -> host transfer (gather, result read-out) *)
  | Host  (** host-side orchestration between device ops *)

type ev = {
  chan : string;  (** engine within the machine; one channel serializes *)
  kind : kind;
  dur_s : float;
  bufs : int list;  (** machine-local buffer ids (RAW/WAR carriers) *)
  label : string;
}

type node = {
  n_id : int;
  n_deps : int list;  (** ids of earlier nodes this op waits on *)
  n_events : (string * ev) list;  (** (machine, event), in emission order *)
}

type track = {
  tr_machine : string;
  tr_compute_s : float;
  tr_dma_s : float;
  tr_idle_s : float;
}

type summary = {
  e2e_s : float;  (** overlapped (critical-path) end-to-end time *)
  seq_s : float;  (** sequential single-stream sum of the same events *)
  max_channel_busy_s : float;  (** busiest engine; lower bound on [e2e_s] *)
  tracks : track list;  (** per machine, in first-appearance order *)
}

val host_machine : string

(** The host-orchestration event of one node, on the shared "cpu" channel. *)
val host_event : float -> string * ev

(** One placed event of the overlapped replay. *)
type placed = {
  p_node : int;
  p_machine : string;
  p_chan : string;
  p_kind : kind;
  p_label : string;
  p_start_s : float;
  p_finish_s : float;
}

(** The overlapped replay's placed events, in issue order. *)
val timeline : node list -> placed list

val summarize : node list -> summary
