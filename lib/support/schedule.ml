(* Simulated-time schedule merge for heterogeneous multi-device runs.

   The hetero recorder logs one event per timed device operation
   (scatter, kernel launch, gather, crossbar program, CAM search, ...)
   around each machine's hook, groups them per top-level op and feeds
   them here together with the op-level dependency DAG. The
   merge then replays the same events under two disciplines:

   - sequential: every event waits for the previous one — the end-to-end
     time is the plain sum of all durations, matching what the one-stream
     driver reports today;
   - overlapped: events only wait for (a) their op's dependencies, (b)
     their channel (each machine exposes independent h2d / kernel / d2h
     engines, so DMA overlaps compute), (c) the buffers they touch (RAW:
     a kernel cannot start before its scatter landed), and (d) a
     double-buffering window: a host->device transfer may run ahead of
     the compute stream by at most [dma_depth] kernels, modelling the
     two staging buffers of a double-buffered DMA engine.

   Both disciplines replay the *same* events in the *same* per-machine
   order, so the merge is a pure function of the logs: simulated numbers
   are bit-identical for any host job count, and the overlapped makespan
   is by construction >= every single channel's busy time and <= the
   sequential sum. *)

type kind =
  | Dma_in  (** host -> device transfer (scatter, input staging) *)
  | Compute  (** device-side work (kernel, MVM, search) *)
  | Dma_out  (** device -> host transfer (gather, result read-out) *)
  | Host  (** host-side orchestration/compute between device ops *)

type ev = {
  chan : string;  (** engine within the machine; events on one channel serialize *)
  kind : kind;
  dur_s : float;
  bufs : int list;  (** machine-local buffer ids this event touches (RAW/WAR) *)
  label : string;
}

(** One schedulable unit: a top-level op with its dependencies (indices of
    earlier nodes) and the (machine, event) pairs it emitted, in emission
    order. The host work of the op is just another event (machine "cpu"). *)
type node = {
  n_id : int;
  n_deps : int list;
  n_events : (string * ev) list;
}

type track = {
  tr_machine : string;
  tr_compute_s : float;
  tr_dma_s : float;
  tr_idle_s : float;  (** overlapped makespan minus this machine's busy time *)
}

type summary = {
  e2e_s : float;  (** overlapped (critical-path) end-to-end simulated time *)
  seq_s : float;  (** sequential single-stream sum of the same events *)
  max_channel_busy_s : float;  (** busiest single engine; lower bound on e2e_s *)
  tracks : track list;  (** per machine, in first-appearance order *)
}

let host_machine = "cpu"

let host_event dur_s =
  (host_machine, { chan = "cpu"; kind = Host; dur_s; bufs = []; label = "host" })

(* One placed event of the overlapped replay, for timeline inspection. *)
type placed = {
  p_node : int;
  p_machine : string;
  p_chan : string;
  p_kind : kind;
  p_label : string;
  p_start_s : float;
  p_finish_s : float;
}

(* Staging buffers per machine: a host->device transfer may run ahead of
   the compute stream by at most this many kernels (double buffering). *)
let dma_depth = 2

(* Replay the event logs under one discipline; returns the makespan.

   The overlapped replay is event-driven: every node whose dependencies
   have fully retired exposes its next unissued event, and the feasible
   event with the earliest start is placed (ties broken by node id, then
   emission order — a pure function of the logs). Issue order is by
   *readiness*, not program order, so a node that became ready early is
   never head-of-line blocked on a shared channel by a later-listed node
   that started late; intra-node emission order and per-channel
   serialization still hold, and the makespan stays bounded by the
   sequential sum (every start is a max over already-placed finishes). *)
let makespan ?record ~overlap (nodes : node list) =
  let channel_free : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
  let buf_avail : (string * int, float) Hashtbl.t = Hashtbl.create 64 in
  (* per machine: finish times of its Compute events, in issue order *)
  let compute_ends : (string, float Vec.t) Hashtbl.t = Hashtbl.create 8 in
  let total_end = ref 0.0 in
  let place (n : node) ((mach, e) : string * ev) start =
    let fin = start +. e.dur_s in
    (match record with
    | Some vec ->
      Vec.push vec
        {
          p_node = n.n_id;
          p_machine = mach;
          p_chan = e.chan;
          p_kind = e.kind;
          p_label = e.label;
          p_start_s = start;
          p_finish_s = fin;
        }
    | None -> ());
    Hashtbl.replace channel_free (mach, e.chan) fin;
    List.iter (fun b -> Hashtbl.replace buf_avail (mach, b) fin) e.bufs;
    if e.kind = Compute then begin
      let ends =
        match Hashtbl.find_opt compute_ends mach with
        | Some v -> v
        | None ->
          let v = Vec.create () in
          Hashtbl.replace compute_ends mach v;
          v
      in
      Vec.push ends fin
    end;
    if fin > !total_end then total_end := fin;
    fin
  in
  if not overlap then begin
    (* single stream: every event waits for the previous one *)
    let op_finish = Hashtbl.create 64 in
    let prev_end = ref 0.0 in
    List.iter
      (fun n ->
        let ready =
          List.fold_left
            (fun acc d ->
              match Hashtbl.find_opt op_finish d with
              | Some t -> Float.max acc t
              | None -> acc)
            0.0 n.n_deps
        in
        let nf = ref ready in
        List.iter
          (fun ev ->
            let fin = place n ev (Float.max ready !prev_end) in
            prev_end := fin;
            if fin > !nf then nf := fin)
          n.n_events;
        Hashtbl.replace op_finish n.n_id !nf)
      nodes;
    !total_end
  end
  else begin
    let arr = Array.of_list nodes in
    let n_nodes = Array.length arr in
    let events = Array.map (fun n -> Array.of_list n.n_events) arr in
    let next_ev = Array.make n_nodes 0 in
    let pos_of_id = Hashtbl.create (max 1 n_nodes) in
    Array.iteri (fun i n -> Hashtbl.replace pos_of_id n.n_id i) arr;
    let node_finish = Array.make n_nodes 0.0 in
    let retired = Array.make n_nodes false in
    (* ready time of node i, or None while some dependency is unretired *)
    let ready_time i =
      let ok = ref true and t = ref 0.0 in
      List.iter
        (fun d ->
          match Hashtbl.find_opt pos_of_id d with
          | Some j ->
            if retired.(j) then t := Float.max !t node_finish.(j)
            else ok := false
          | None -> ())
        arr.(i).n_deps;
      if !ok then Some !t else None
    in
    (* event-less nodes retire the moment their dependencies have *)
    let rec retire_eventless () =
      let changed = ref false in
      Array.iteri
        (fun i _ ->
          if (not retired.(i)) && next_ev.(i) >= Array.length events.(i) then
            match ready_time i with
            | Some t ->
              node_finish.(i) <- Float.max node_finish.(i) t;
              retired.(i) <- true;
              changed := true
            | None -> ())
        arr;
      if !changed then retire_eventless ()
    in
    retire_eventless ();
    let remaining = ref 0 in
    Array.iter (fun evs -> remaining := !remaining + Array.length evs) events;
    while !remaining > 0 do
      let best = ref None in
      Array.iteri
        (fun i _ ->
          if (not retired.(i)) && next_ev.(i) < Array.length events.(i) then
            match ready_time i with
            | None -> ()
            | Some ready ->
              let mach, e = events.(i).(next_ev.(i)) in
              let s = ref ready in
              (match Hashtbl.find_opt channel_free (mach, e.chan) with
              | Some t -> s := Float.max !s t
              | None -> ());
              List.iter
                (fun b ->
                  match Hashtbl.find_opt buf_avail (mach, b) with
                  | Some t -> s := Float.max !s t
                  | None -> ())
                e.bufs;
              (* double buffering: the k-th upcoming kernel's input may
                 stage while kernels k-1 .. k-dma_depth+1 run, but not
                 before kernel k-dma_depth retired its buffers *)
              (if e.kind = Dma_in then
                 match Hashtbl.find_opt compute_ends mach with
                 | Some ends when Vec.length ends >= dma_depth ->
                   s :=
                     Float.max !s (Vec.get ends (Vec.length ends - dma_depth))
                 | _ -> ());
              (match !best with
              | Some (_, bs) when bs <= !s -> ()
              | _ -> best := Some (i, !s)))
        arr;
      match !best with
      | Some (i, s) ->
        let fin = place arr.(i) events.(i).(next_ev.(i)) s in
        node_finish.(i) <- Float.max node_finish.(i) fin;
        next_ev.(i) <- next_ev.(i) + 1;
        decr remaining;
        if next_ev.(i) >= Array.length events.(i) then begin
          retired.(i) <- true;
          retire_eventless ()
        end
      | None ->
        (* malformed DAG (a dep that never retires): place whatever is
           left in program order so the replay always terminates *)
        Array.iteri
          (fun i _ ->
            while next_ev.(i) < Array.length events.(i) do
              let fin = place arr.(i) events.(i).(next_ev.(i)) !total_end in
              node_finish.(i) <- Float.max node_finish.(i) fin;
              next_ev.(i) <- next_ev.(i) + 1;
              decr remaining
            done;
            retired.(i) <- true)
          arr
    done;
    !total_end
  end

(* The overlapped replay's placed events, in issue order: who ran what,
   when, on which engine. Feeds trace output and the scheduling tests. *)
let timeline (nodes : node list) =
  let vec = Vec.create () in
  ignore (makespan ~record:vec ~overlap:true nodes);
  Vec.to_list vec

let summarize (nodes : node list) =
  let e2e_s = makespan ~overlap:true nodes in
  let seq_s = makespan ~overlap:false nodes in
  (* per-machine busy buckets and per-channel busy sums, in order *)
  let order = Vec.create () in
  let busy : (string, float * float) Hashtbl.t = Hashtbl.create 8 in
  let chan_busy : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun n ->
      List.iter
        (fun (mach, e) ->
          if not (Hashtbl.mem busy mach) then begin
            Vec.push order mach;
            Hashtbl.replace busy mach (0.0, 0.0)
          end;
          let c, d = Hashtbl.find busy mach in
          (match e.kind with
          | Compute | Host -> Hashtbl.replace busy mach (c +. e.dur_s, d)
          | Dma_in | Dma_out -> Hashtbl.replace busy mach (c, d +. e.dur_s));
          let prev =
            Option.value ~default:0.0 (Hashtbl.find_opt chan_busy (mach, e.chan))
          in
          Hashtbl.replace chan_busy (mach, e.chan) (prev +. e.dur_s))
        n.n_events)
    nodes;
  let max_channel_busy_s =
    Hashtbl.fold (fun _ t acc -> Float.max t acc) chan_busy 0.0
  in
  let tracks =
    List.map
      (fun mach ->
        let c, d = Hashtbl.find busy mach in
        {
          tr_machine = mach;
          tr_compute_s = c;
          tr_dma_s = d;
          tr_idle_s = Float.max 0.0 (e2e_s -. c -. d);
        })
      (Vec.to_list order)
  in
  { e2e_s; seq_s; max_channel_busy_s; tracks }
