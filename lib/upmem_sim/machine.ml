(* UPMEM machine simulator. Provides interpreter hooks for the upmem
   dialect: kernels lowered by the compiler are *executed* per (DPU,
   tasklet) on real data, and their per-DPU execution profiles drive the
   timing model.

   Timing model (calibrated against the PrIM characterization):
   - DPU pipeline: with T resident tasklets, aggregate issue rate is
     min(1, T/11) instructions/cycle; a tasklet's "instructions" are the
     weighted scalar ops its kernel executed.
   - MRAM<->WRAM DMA: fixed setup cost per transfer plus bytes at
     [dma_bytes_per_cycle]; the DMA engine is serialized per DPU.
   - Host transfers: parallel across active DIMMs.
   - Kernel time of a launch is the max over DPUs (the host waits for the
     slowest DPU), plus a fixed dispatch overhead.

   Fault model (see Cinm_support.Fault): workgroups carry a
   logical->physical DPU map so permanently-failed DPUs can be masked out
   at allocation (the UPMEM SDK's rank-report behavior) and remapped to
   spares when a DPU exhausts its launch retries. Transient launch
   failures happen *before* the kernel touches device memory, so a
   retried launch executes the kernel exactly once per logical DPU and
   numeric results are identical to a fault-free run; only the accounting
   (retries, backoff time, remap restaging) changes. All fault decisions
   are host-side pure functions of (seed, site), so stats stay
   byte-identical for any --jobs count. *)

open Cinm_ir
open Cinm_interp
module Fault = Cinm_support.Fault
module Trace = Cinm_support.Trace

type wg = {
  wg_shape : int array; (* [dpus; tasklets] *)
  phys : int array; (* logical DPU -> physical DPU (identity when fault-free) *)
  mutable wg_mram : int; (* bytes of MRAM this workgroup allocated per DPU *)
}

type buffer = {
  per_pu : Tensor.t array;  (** one tensor per buffer at its level *)
  dtype : Types.dtype;
  level : int;
}

type entry = Wg of wg | Buf of buffer

(* A kernel failure on one lane, surfaced deterministically: the parallel
   launch captures per-DPU outcomes and re-raises the failure of the
   lowest-numbered DPU, independent of domain scheduling. *)
exception Dpu_failed of { dpu : int; launch : int; message : string }

(* Raised when a fault plan has permanently failed more physical DPUs
   than the workgroup can spare, so allocation is impossible even after
   cross-rank spill. Distinct from [Dpu_failed]/[Invalid_argument] so
   the driver can degrade this case (and only this case) to the host. *)
exception Insufficient_capacity of string

let () =
  Printexc.register_printer (function
    | Dpu_failed { dpu; launch; message } ->
      Some (Printf.sprintf "Dpu_failed (DPU %d, launch %d): %s" dpu launch message)
    | Insufficient_capacity msg -> Some ("Insufficient_capacity: " ^ msg)
    | _ -> None)

(* Dispatch attempts per (launch, DPU) before declaring the DPU dead. *)
let max_attempts = 4

type t = {
  config : Config.t;
  stats : Stats.t;
  entries : (int, entry) Hashtbl.t;
  mutable next : int;
  mutable mram_used_per_dpu : int;  (** bytes of MRAM allocated per DPU *)
  faults : Fault.plan option;
  mutable launch_seq : int;  (** fault-site id of the next launch *)
  mutable scatter_seq : int;  (** fault-site id of the next scatter *)
  spare_cursors : int array;
      (** per rank: next physical DPU to try as a spare — spares never
          cross rank boundaries, so each rank is its own fault domain *)
  masked : (int, unit) Hashtbl.t;
      (** permanently-failed physical DPUs already counted in stats *)
  mutable trace_pid : int;
      (** this machine's trace process id; 0 until tracing first sees it *)
  lanes : Profile.t;  (** every lane profile of every launch, summed *)
}

let create ?(faults = Fault.default ()) config =
  {
    config;
    stats = Stats.create ();
    entries = Hashtbl.create 32;
    next = 0;
    mram_used_per_dpu = 0;
    faults;
    launch_seq = 0;
    scatter_seq = 0;
    spare_cursors =
      (let rd = Config.rank_dpus config in
       let per_rank = rd + max 2 (rd / 4) in
       Array.init config.Config.ranks (fun r -> (r * per_rank) + per_rank - 1));
    masked = Hashtbl.create 8;
    trace_pid = 0;
    lanes = Profile.create ();
  }

(* ----- tracing -----

   Every device-clock event below is emitted from the *host* side of the
   simulation (accounting code, fault pre-pass), never from pool worker
   domains, so the device track is bit-identical for any --jobs count.
   The device clock position is the stats total: each accounting bucket
   increment emits exactly one span whose [dur] is the increment, so
   folding span durations in emission order reproduces the stats fields
   bit for bit. Reports read the stats; the fold is a view of them,
   asserted by test_trace. *)

let tracing m =
  Trace.enabled ()
  && begin
       if m.trace_pid = 0 then
         m.trace_pid <-
           Trace.new_device
             (if m.config.Config.ranks > 1 then
                Printf.sprintf "upmem %d ranks (%d DPUs)" m.config.Config.ranks
                  (Config.total_dpus m.config)
              else
                Printf.sprintf "upmem rank (%d DPUs)" (Config.total_dpus m.config));
       true
     end

let dev_now m = Stats.total_s m.stats

let register m e =
  let id = m.next in
  m.next <- m.next + 1;
  Hashtbl.replace m.entries id e;
  Rtval.Handle id

let find_wg m rv =
  match Hashtbl.find_opt m.entries (Rtval.as_handle rv) with
  | Some (Wg w) -> w
  | _ -> invalid_arg "Upmem machine: expected workgroup handle"

let find_buf m rv =
  match Hashtbl.find_opt m.entries (Rtval.as_handle rv) with
  | Some (Buf b) -> b
  | _ -> invalid_arg "Upmem machine: expected buffer handle"

(* ----- fault plumbing ----- *)

let perm_failed m p =
  match m.faults with
  | None -> false
  | Some plan -> Fault.dpu_failed plan ~dpu:p

let note_masked m p =
  if not (Hashtbl.mem m.masked p) then begin
    Hashtbl.replace m.masked p ();
    m.stats.Stats.failed_dpus <- m.stats.Stats.failed_dpus + 1
  end

(* The rank is over-provisioned: like real DIMMs — whose SDK exposes the
   healthy subset of more physical DPUs than the nominal count — the
   machine has a pool of spare physical DPUs above [total_dpus] that
   masking and remapping draw from. Physical identity only feeds the
   fault hash; the timing model keeps using the workgroup's logical
   shape. *)
(* Physical ids are sharded per rank: rank r owns the id range
   [r * per_rank_phys, (r+1) * per_rank_phys), each rank carrying its own
   spares above its nominal DPUs. Masking, remapping and the fault hash
   all work on these per-rank ranges, so a failure in one rank never
   touches another rank's DPUs or spares. *)
let per_rank_phys m =
  let rd = Config.rank_dpus m.config in
  rd + max 2 (rd / 4)

let phys_total m = m.config.Config.ranks * per_rank_phys m

let rank_of m p = min (m.config.Config.ranks - 1) (p / per_rank_phys m)

(* The physical home of logical DPU [d] on a fault-free machine: identity
   within its rank's shard. Single-rank machines keep the plain identity
   map, bit-identical to the pre-multi-rank model. *)
let home_phys m d =
  let rd = Config.rank_dpus m.config in
  ((d / rd) * per_rank_phys m) + (d mod rd)

(* Assign physical DPUs to a workgroup, skipping permanently-failed ones
   (the SDK masks them out of the rank at allocation). Logical DPUs shard
   contiguously across ranks and prefer their home rank; when a rank's
   shard has too many masked DPUs, allocation spills to the lowest rank
   that still has healthy spares (trading the home rank's DMA locality
   for availability, like the SDK's any-rank allocation). Only a machine
   that is genuinely out of healthy DPUs fails — with
   {!Insufficient_capacity}, which the driver maps to a host fallback.
   Fault-free machines keep the per-rank identity map — and, like before
   this fault layer existed, no physical capacity bound is enforced for
   them. *)
let assign_phys m ~dpus =
  match m.faults with
  | Some plan when plan.Fault.rates.Fault.dpu_fail > 0.0 ->
    let rd = Config.rank_dpus m.config in
    let per_rank = per_rank_phys m in
    let ranks = m.config.Config.ranks in
    let phys = Array.make dpus 0 in
    (* per-rank scan pointer over the rank's physical shard *)
    let ptr = Array.init ranks (fun r -> r * per_rank) in
    (* next healthy physical DPU in rank [r]'s shard, masking failures
       in passing; [None] when the shard is exhausted *)
    let next_in r =
      let hi = (r + 1) * per_rank in
      while ptr.(r) < hi && perm_failed m ptr.(r) do
        note_masked m ptr.(r);
        ptr.(r) <- ptr.(r) + 1
      done;
      if ptr.(r) < hi then Some ptr.(r) else None
    in
    for d = 0 to dpus - 1 do
      let home = min (ranks - 1) (d / rd) in
      let pick =
        match next_in home with
        | Some p -> Some p
        | None ->
          let rec scan r =
            if r >= ranks then None
            else match next_in r with Some p -> Some p | None -> scan (r + 1)
          in
          scan 0
      in
      match pick with
      | Some p ->
        phys.(d) <- p;
        ptr.(p / per_rank) <- p + 1
      | None ->
        raise
          (Insufficient_capacity
             (Printf.sprintf
                "upmem.alloc_dpus: %d DPUs requested but only %d of %d \
                 physical DPUs are healthy"
                dpus d (phys_total m)))
    done;
    phys
  | _ when m.config.Config.ranks > 1 -> Array.init dpus (home_phys m)
  | _ -> Array.init dpus (fun d -> d)

(* A spare physical DPU for remapping, scanning down from the top of the
   failed DPU's own rank so spares don't collide with the low DPUs
   workgroups occupy — and never leave the rank's fault domain. *)
let take_spare m (w : wg) ~rank =
  let lo = rank * per_rank_phys m in
  let in_wg p = Array.exists (fun q -> q = p) w.phys in
  let rec scan p =
    if p < lo then
      invalid_arg
        "upmem.launch: no spare DPUs left to replace a permanently-failed DPU"
    else if perm_failed m p then begin
      note_masked m p;
      scan (p - 1)
    end
    else if in_wg p then scan (p - 1)
    else p
  in
  let s = scan m.spare_cursors.(rank) in
  m.spare_cursors.(rank) <- s - 1;
  s

(* Host-side fault pre-pass of one launch, run sequentially in DPU order
   (=> deterministic for any job count). For each logical DPU, count the
   transient dispatch failures the plan injects; each one costs a capped
   exponential backoff plus a re-dispatch. A DPU that fails all
   [max_attempts] attempts is declared dead: its work is remapped to a
   spare physical DPU and its MRAM re-staged (accounted in [remap_s]).
   All of this happens before the kernel runs, so the kernel still
   executes exactly once per logical DPU. *)
let prepass_faults m (w : wg) ~launch =
  match m.faults with
  | Some plan when plan.Fault.rates.Fault.dpu_transient > 0.0 ->
    let c = m.config in
    let trc = tracing m in
    let t0 = dev_now m in
    let remap0 = m.stats.Stats.remap_s in
    let retry_t = ref 0.0 in
    for d = 0 to w.wg_shape.(0) - 1 do
      let a = ref 0 in
      while
        !a < max_attempts
        && Fault.launch_transient plan ~launch ~dpu:w.phys.(d) ~attempt:!a
      do
        incr a
      done;
      let failed = !a in
      let redispatches = min failed (max_attempts - 1) in
      if redispatches > 0 then begin
        m.stats.Stats.retries <- m.stats.Stats.retries + redispatches;
        (* the fault shows up as an instant on the failing DPU's own lane *)
        if trc then
          Trace.instant ~cat:"fault"
            ~args:
              [ ("launch", Trace.Int launch);
                ("phys_dpu", Trace.Int w.phys.(d));
                ("failed_attempts", Trace.Int failed) ]
            ~clock:Trace.Device ~pid:m.trace_pid
            ~track:(Printf.sprintf "dpu%d" d)
            ~ts:(t0 +. !retry_t) "transient-fault";
        for i = 0 to redispatches - 1 do
          let backoff = min (2.0 ** float_of_int i) 64.0 in
          retry_t :=
            !retry_t +. (c.Config.launch_overhead_s *. (1.0 +. backoff))
        done
      end;
      if failed >= max_attempts then begin
        (* retries exhausted: treat as a permanent failure and remap to a
           spare of the same rank (per-rank fault domains) *)
        let spare = take_spare m w ~rank:(rank_of m w.phys.(d)) in
        let old = w.phys.(d) in
        w.phys.(d) <- spare;
        m.stats.Stats.failed_dpus <- m.stats.Stats.failed_dpus + 1;
        let remap_t =
          (float_of_int w.wg_mram /. c.Config.host_to_mram_bw)
          +. c.Config.launch_overhead_s
        in
        if trc then
          Trace.complete ~cat:"remap"
            ~args:
              [ ("launch", Trace.Int launch);
                ("dead_phys_dpu", Trace.Int old);
                ("spare_phys_dpu", Trace.Int spare);
                ("restaged_bytes", Trace.Int w.wg_mram) ]
            ~clock:Trace.Device ~pid:m.trace_pid
            ~track:(Printf.sprintf "dpu%d" d)
            ~ts:(t0 +. !retry_t +. (m.stats.Stats.remap_s -. remap0))
            ~dur:remap_t "remap";
        m.stats.Stats.remap_s <- m.stats.Stats.remap_s +. remap_t
      end
    done;
    (* one span whose dur is exactly the kernel_s increment: the
       trace-derived kernel bucket stays bit-identical to the stats *)
    if trc && !retry_t > 0.0 then
      Trace.complete ~cat:"kernel"
        ~args:[ ("launch", Trace.Int launch) ]
        ~clock:Trace.Device ~pid:m.trace_pid ~track:"rank" ~ts:t0
        ~dur:!retry_t "retry-backoff";
    m.stats.Stats.kernel_s <- m.stats.Stats.kernel_s +. !retry_t
  | _ -> ()

(* ----- timing ----- *)

let active_dimms m (w : wg) =
  let dpus = w.wg_shape.(0) in
  min
    (m.config.Config.ranks * m.config.Config.dimms)
    (Cinm_support.Util.ceil_div dpus m.config.Config.dpus_per_dimm)

let host_transfer m (w : wg) ~bytes ~to_device =
  let c = m.config in
  let bw = if to_device then c.Config.host_to_mram_bw else c.Config.mram_to_host_bw in
  let dimms = max 1 (active_dimms m w) in
  let t = float_of_int bytes /. (bw *. float_of_int dimms) in
  if tracing m then
    Trace.complete
      ~cat:(if to_device then "cpu->dpu" else "dpu->cpu")
      ~args:[ ("bytes", Trace.Int bytes); ("dimms", Trace.Int dimms) ]
      ~clock:Trace.Device ~pid:m.trace_pid ~track:"xfer" ~ts:(dev_now m) ~dur:t
      (if to_device then "scatter" else "gather");
  if to_device then m.stats.Stats.host_to_device_s <- m.stats.Stats.host_to_device_s +. t
  else m.stats.Stats.device_to_host_s <- m.stats.Stats.device_to_host_s +. t;
  m.stats.Stats.transferred_bytes <- m.stats.Stats.transferred_bytes + bytes;
  m.stats.Stats.energy_j <-
    m.stats.Stats.energy_j +. (float_of_int bytes *. c.Config.energy_per_host_byte)

(* Weighted instruction count of a tasklet's execution profile. *)
let instr_cycles (c : Config.t) (p : Profile.t) =
  (float_of_int p.Profile.alu_ops *. c.Config.cycles_alu)
  +. (float_of_int p.Profile.mul_ops *. c.Config.cycles_mul)
  +. (float_of_int p.Profile.div_ops *. c.Config.cycles_div)
  +. (float_of_int (p.Profile.loads + p.Profile.stores) *. c.Config.cycles_mem)
  +. (float_of_int p.Profile.barriers *. 100.0)

let dma_cycles (c : Config.t) (p : Profile.t) =
  (float_of_int p.Profile.dma_transfers *. c.Config.dma_setup_cycles)
  +. (float_of_int p.Profile.dma_bytes /. c.Config.dma_bytes_per_cycle)

(* Account a launch: [profiles.(d)] is the profile of DPU d, its
   [tasklets] tasklets summed. Every cycle weight is an integer or a
   power-of-two fraction, so a DPU's summed profile costs exactly what its
   tasklets' profiles cost one by one. Returns the kernel time. *)
let account_launch m ~launch ~tasklets (profiles : Profile.t array) =
  let c = m.config in
  let stall_factor =
    max 1.0 (float_of_int c.Config.pipeline_tasklets /. float_of_int (max 1 tasklets))
  in
  let trc = tracing m in
  let t0 = dev_now m in
  let max_dpu_cycles = ref 0.0 in
  let total_instr = ref 0.0 in
  let total_dma_bytes = ref 0 in
  Array.iteri
    (fun d p ->
      Profile.add ~into:m.lanes p;
      let compute = instr_cycles c p and dma = dma_cycles c p in
      total_instr := !total_instr +. compute;
      total_dma_bytes := !total_dma_bytes + p.Profile.dma_bytes;
      let cycles = (compute *. stall_factor) +. dma in
      if cycles > !max_dpu_cycles then max_dpu_cycles := cycles;
      (* per-DPU lane spans: the launch as this DPU experienced it —
         compute then its serialized DMA engine. cat "lane"/"lane-dma" is
         excluded from bucket totals; the rank-level "kernel" span below
         carries the accounted time. *)
      if trc then begin
        let track = Printf.sprintf "dpu%d" d in
        let compute_s = compute *. stall_factor /. c.Config.freq_hz in
        let dma_s = dma /. c.Config.freq_hz in
        Trace.complete ~cat:"lane"
          ~args:
            [ ("launch", Trace.Int launch);
              ("tasklets", Trace.Int tasklets);
              ("compute_cycles", Trace.Float compute);
              ("stall_factor", Trace.Float stall_factor) ]
          ~clock:Trace.Device ~pid:m.trace_pid ~track ~ts:t0 ~dur:compute_s
          (Printf.sprintf "launch%d:compute" launch);
        if dma_s > 0.0 then
          Trace.complete ~cat:"lane-dma"
            ~args:
              [ ("launch", Trace.Int launch);
                ("dma_cycles", Trace.Float dma) ]
            ~clock:Trace.Device ~pid:m.trace_pid ~track
            ~ts:(t0 +. compute_s) ~dur:dma_s
            (Printf.sprintf "launch%d:dma" launch)
      end)
    profiles;
  let kernel_t = (!max_dpu_cycles /. c.Config.freq_hz) +. c.Config.launch_overhead_s in
  if trc then
    Trace.complete ~cat:"kernel"
      ~args:
        [ ("launch", Trace.Int launch);
          ("dpus", Trace.Int (Array.length profiles));
          ("max_dpu_cycles", Trace.Float !max_dpu_cycles) ]
      ~clock:Trace.Device ~pid:m.trace_pid ~track:"rank" ~ts:t0 ~dur:kernel_t
      (Printf.sprintf "launch%d" launch);
  m.stats.Stats.kernel_s <- m.stats.Stats.kernel_s +. kernel_t;
  m.stats.Stats.launches <- m.stats.Stats.launches + 1;
  m.stats.Stats.dpu_instructions <-
    m.stats.Stats.dpu_instructions + int_of_float !total_instr;
  m.stats.Stats.dma_bytes <- m.stats.Stats.dma_bytes + !total_dma_bytes;
  m.stats.Stats.energy_j <-
    m.stats.Stats.energy_j
    +. (!total_instr *. c.Config.energy_per_instr)
    +. (float_of_int !total_dma_bytes *. c.Config.energy_per_dma_byte);
  kernel_t

let hook (m : t) : Interp.hook =
 fun ctx op ops ->
  match op.Ir.name with
  | "upmem.alloc_dpus" -> (
    match (Ir.result op 0).Ir.ty with
    | Types.Workgroup shape ->
      let phys = assign_phys m ~dpus:shape.(0) in
      if tracing m then
        Trace.instant ~cat:"alloc"
          ~args:
            [ ("dpus", Trace.Int shape.(0));
              ("tasklets", Trace.Int shape.(1));
              ("masked_dpus", Trace.Int (Hashtbl.length m.masked)) ]
          ~clock:Trace.Device ~pid:m.trace_pid ~track:"rank" ~ts:(dev_now m)
          "alloc_dpus";
      Some [ register m (Wg { wg_shape = shape; phys; wg_mram = 0 }) ]
    | _ -> invalid_arg "upmem.alloc_dpus: bad result type")
  | "cnm.alloc" | "upmem.alloc" -> (
    let op0 = ops.(0) in
    let w = find_wg m op0 in
    match (Ir.result op 0).Ir.ty with
    | Types.Buffer { shape; dtype; level } ->
      let n = Cinm_dialects.Cnm_d.buffers_at_level w.wg_shape level in
      (* capacity: each DPU hosts its share of this buffer's instances *)
      let dpus = w.wg_shape.(0) in
      let bytes =
        Cinm_support.Util.product_of_shape shape * Types.dtype_bytes dtype
        * Cinm_support.Util.ceil_div n dpus
      in
      w.wg_mram <- w.wg_mram + bytes;
      m.mram_used_per_dpu <- m.mram_used_per_dpu + bytes;
      if m.mram_used_per_dpu > m.config.Config.mram_bytes then
        invalid_arg
          (Printf.sprintf
             "upmem machine: MRAM exhausted (%d B allocated per DPU, %d B available)"
             m.mram_used_per_dpu m.config.Config.mram_bytes);
      let per_pu = Tensor.array_init n (fun _ -> Tensor.Arena.alloc shape dtype) in
      if tracing m then
        Trace.instant ~cat:"alloc"
          ~args:
            [ ("bytes_per_dpu", Trace.Int bytes);
              ("level", Trace.Int level);
              ("buffers", Trace.Int n) ]
          ~clock:Trace.Device ~pid:m.trace_pid ~track:"rank" ~ts:(dev_now m)
          "alloc_buffer";
      Some [ register m (Buf { per_pu; dtype; level }) ]
    | _ -> invalid_arg "upmem buffer alloc: bad result type")
  | "upmem.scatter" ->
    let tensor = Rtval.as_tensor (ops.(0)) in
    let buf = find_buf m (ops.(1)) in
    let w = find_wg m (ops.(2)) in
    let halo = match Ir.attr op "halo" with Some (Attr.Int h) -> h | _ -> 0 in
    Distrib.scatter ~halo ~map:(Ir.str_attr op "map") tensor buf.per_pu;
    let scatter = m.scatter_seq in
    m.scatter_seq <- m.scatter_seq + 1;
    (match m.faults with
    | Some plan when plan.Fault.rates.Fault.mram_bitflip > 0.0 ->
      (* MRAM write-path bit flips: corrupt the scattered per-PU data.
         Unlike transients/remaps these DO change device data — they model
         the failure the retry layer cannot hide. *)
      Array.iteri
        (fun pu t ->
          for elem = 0 to Tensor.num_elements t - 1 do
            match Fault.element_bitflip plan ~scatter ~pu ~elem with
            | Some bit ->
              Tensor.set_int t elem (Tensor.get_int t elem lxor (1 lsl bit));
              if tracing m then
                Trace.instant ~cat:"fault"
                  ~args:
                    [ ("scatter", Trace.Int scatter);
                      ("pu", Trace.Int pu);
                      ("elem", Trace.Int elem);
                      ("bit", Trace.Int bit) ]
                  ~clock:Trace.Device ~pid:m.trace_pid ~track:"xfer"
                  ~ts:(dev_now m) "mram-bitflip"
            | None -> ()
          done)
        buf.per_pu
    | _ -> ());
    host_transfer m w
      ~bytes:(Tensor.num_elements tensor * Types.dtype_bytes tensor.Tensor.dtype)
      ~to_device:true;
    Some [ Rtval.Token ]
  | "upmem.gather" -> (
    let buf = find_buf m (ops.(0)) in
    let w = find_wg m (ops.(1)) in
    match Types.shape_of (Ir.result op 0).Ir.ty with
    | Some result_shape ->
      let out = Distrib.gather buf.per_pu ~result_shape ~dtype:buf.dtype in
      host_transfer m w
        ~bytes:(Tensor.num_elements out * Types.dtype_bytes out.Tensor.dtype)
        ~to_device:false;
      Some [ Rtval.Tensor out; Rtval.Token ]
    | None -> invalid_arg "upmem.gather: unshaped result")
  | "upmem.launch" ->
    let w = find_wg m (ops.(0)) in
    let dpus = w.wg_shape.(0) and tasklets = w.wg_shape.(1) in
    let n_buffers = Ir.num_operands op - 1 in
    let bufs = Array.init n_buffers (fun i -> find_buf m (ops.(i + 1))) in
    let region = Ir.region op 0 in
    let launch = m.launch_seq in
    m.launch_seq <- m.launch_seq + 1;
    prepass_faults m w ~launch;
    (* One kernel evaluation per (DPU, tasklet), DPUs in parallel across
       the domain pool — as on hardware, where all DPUs run concurrently.
       Tasklets of one DPU run one after another on the DPU's lane (they
       share its WRAM) and account into the DPU's profile. Each DPU writes
       only its own profile and buffer instances, and the accounting below
       runs on the host in DPU order, so results and stats are identical
       for any job count. *)
    let profiles = Array.init dpus (fun _ -> Profile.create ()) in
    (* Kernel failures are captured per DPU and re-raised in DPU order
       below — never propagated from inside the pool, whose "first
       exception wins" is scheduling-dependent. *)
    let outcomes : string option array = Array.make dpus None in
    let wram_highwater = Array.make dpus 0 in
    let pool = Cinm_support.Pool.default () in
    let parallel = Cinm_support.Pool.jobs pool > 1 && dpus > 1 in
    (* Resolve the kernel once per launch: under the compiled backend this
       compiles (or fetches from cache) a closure tree whose captures are
       already bound, shared read-only by every lane below — each lane then
       executes on its own register file and only needs a small scratch
       environment for the ops it hands to the tree-walker. *)
    let prep = Compile.prepare ctx region in
    let compiled = Compile.is_compiled prep in
    Cinm_support.Pool.run pool dpus (fun d ->
        (* Tree backend: per-DPU snapshot of the host bindings — kernels may
           capture values defined outside the launch region, and each
           evaluation also binds the region's own values. Sequential runs
           reuse the host table directly; rebinding is harmless there and
           the copy is pure overhead on every launch. *)
        let env =
          if compiled then Hashtbl.create 16
          else if parallel then Hashtbl.copy ctx.Interp.env
          else ctx.Interp.env
        in
        let lane =
          { Interp.dpu = d; tasklet = 0; wram = Hashtbl.create 16; wram_used = 0;
            wram_bytes = m.config.Config.wram_bytes }
        in
        (* launch-scoped allocations ([memref.alloc] inside the kernel and
           this DPU's shared-WRAM buffers) recycle through the arena: they
           cannot escape the launch — kernel results are discarded and
           stores copy elements — so they are released wholesale once the
           DPU's tasklets are done. *)
        let scratch = ref [] in
        (* Kernels run builtins only: no hook is entered from a lane. The
           watchdog counter is the lane's own (lanes run on parallel
           domains and must not race on the host's ref), reset for each
           tasklet. *)
        let inner =
          { ctx with
            Interp.env;
            hooks = [];
            profile = profiles.(d);
            device = Some lane;
            steps = ref 0;
            scratch = Some scratch;
          }
        in
        (try
           for tid = 0 to tasklets - 1 do
             let pu = (d * tasklets) + tid in
             let args =
               Array.to_list
                 (Array.map
                    (fun b ->
                      let idx =
                        Cinm_dialects.Cnm_d.buffer_index_of_pu w.wg_shape b.level pu
                      in
                      Rtval.Memref b.per_pu.(idx))
                    bufs)
             in
             lane.Interp.tasklet <- tid;
             inner.Interp.steps := 0;
             ignore (Compile.run prep inner args)
           done
         with e -> outcomes.(d) <- Some (Printexc.to_string e));
        List.iter Tensor.Arena.release !scratch;
        Hashtbl.iter (fun _ t -> Tensor.Arena.release t) lane.Interp.wram;
        wram_highwater.(d) <- lane.Interp.wram_used);
    (* surface the lowest-DPU failure deterministically *)
    (let fail = ref None in
     for d = dpus - 1 downto 0 do
       match outcomes.(d) with
       | Some message -> fail := Some (d, message)
       | None -> ()
     done;
     match !fail with
     | Some (dpu, message) -> raise (Dpu_failed { dpu; launch; message })
     | None -> ());
    Array.iter
      (fun hw ->
        if hw > m.stats.Stats.max_wram_used then m.stats.Stats.max_wram_used <- hw)
      wram_highwater;
    ignore (account_launch m ~launch ~tasklets profiles);
    Some [ Rtval.Token ]
  | "upmem.free_dpus" ->
    (* the workgroup's buffers die with it: release *its* MRAM accounting
       (not the whole machine's — another workgroup may still be alive).
       Unknown or doubly-freed handles are ignored. *)
    (match ops.(0) with
    | Rtval.Handle id -> (
      match Hashtbl.find_opt m.entries id with
      | Some (Wg w) ->
        m.mram_used_per_dpu <- m.mram_used_per_dpu - w.wg_mram;
        if tracing m then
          Trace.instant ~cat:"alloc"
            ~args:[ ("freed_bytes_per_dpu", Trace.Int w.wg_mram) ]
            ~clock:Trace.Device ~pid:m.trace_pid ~track:"rank"
            ~ts:(dev_now m) "free_dpus";
        w.wg_mram <- 0
      | _ -> ())
    | _ -> ());
    Some []
  | "cnm.wait" -> Some []
  | _ -> None

(* Return every device buffer's storage to the arena, at the end of a
   run. Callers must guarantee no live value aliases device memory —
   gathers copy out, so host results never do. *)
let recycle m =
  Hashtbl.iter
    (fun _ e ->
      match e with Buf b -> Array.iter Tensor.Arena.release b.per_pu | Wg _ -> ())
    m.entries;
  Hashtbl.reset m.entries

(* Run a host function on this machine; returns results and stats. *)
let run m (f : Func.t) args =
  let results, _profile = Compile.run_func ~hooks:[ hook m ] f args in
  (results, m.stats)
