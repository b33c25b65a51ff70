(* Memristive crossbar accelerator simulator. Interpreter hooks for the
   memristor dialect: weights are programmed into tiles (slow, endurance-
   limited NVM writes), staged inputs stream through the tiles as analog
   MVMs, results come back through the ADCs.

   Timing is an event-clock model: the digital interface (weight
   programming, input staging) is serialized on the [io] clock; each tile
   has its own [ready] clock, so MVMs issued to distinct tiles overlap.
   This is how the paper's cim-parallel unrolling gains its speedup: the
   unrolled loop round-robins executes across tiles. The run's makespan is
   the latest clock at release. *)

open Cinm_ir
open Cinm_interp
module Fault = Cinm_support.Fault
module Trace = Cinm_support.Trace

(* A clock in a float-only record: its field is stored unboxed, so
   advancing it allocates nothing (a float field of a mixed record boxes
   on every update). *)
type clock = { mutable at : float }

type tile = {
  mutable weights : Tensor.t option;
  mutable live : int;
      (** the programmed weights' live column count: every column after
          them is zero in every row (see [live_columns]) *)
  mutable staged_input : Tensor.t option;
  ready : clock;
}

type device = { tiles : tile array }

type t = {
  config : Config.t;
  stats : Stats.t;
  devices : (int, device) Hashtbl.t;
  mutable next : int;
  io : clock;
  faults : Fault.plan option;
  mutable trace_pid : int;
}

let create ?(faults = Fault.default ()) config =
  {
    config;
    stats = Stats.create ~tiles:config.Config.tiles;
    devices = Hashtbl.create 4;
    next = 0;
    io = { at = 0.0 };
    faults;
    trace_pid = 0;
  }

(* Tracing: this simulator already runs on real event clocks, so spans sit
   directly on them — tile activity (programming, MVMs) on its own
   "tile<k>" track at the tile's clock, digital-interface activity on the
   "io" track at the [io] clock. Span durations equal the stats-bucket
   increments (cat "program" -> program_s, "mvm" -> compute_s, "io" ->
   io_s), added in emission order, so [Trace.device_total] reproduces the
   buckets bit for bit. The interpreter driving these hooks is
   sequential: determinism needs no further care here. *)

let tracing m =
  Trace.enabled ()
  && begin
       if m.trace_pid = 0 then
         m.trace_pid <-
           Trace.new_device
             (Printf.sprintf "memristor accelerator (%d tiles)"
                m.config.Config.tiles);
       true
     end

let tile_track k = Printf.sprintf "tile%d" k

let fresh_tile () = { weights = None; live = 0; staged_input = None; ready = { at = 0.0 } }

let find_device m rv =
  match Hashtbl.find_opt m.devices (Rtval.as_handle rv) with
  | Some d -> d
  | None -> invalid_arg "Memristor machine: unknown device handle"

let tile_of d op =
  let k = Ir.int_attr op "tile" in
  if k < 0 || k >= Array.length d.tiles then
    invalid_arg (Printf.sprintf "Memristor machine: tile %d out of range" k);
  (k, d.tiles.(k))

let makespan m d =
  Array.fold_left (fun acc t -> Float.max acc t.ready.at) m.io.at d.tiles

let tensor_bytes (t : Tensor.t) =
  Tensor.num_elements t * Types.dtype_bytes t.Tensor.dtype

(* Tile-resident staging data (programmed weights, staged inputs) is owned
   exclusively by its tile, so the copies recycle through the arena: a
   replaced or released copy returns its storage for the next one. *)
let stage_copy (t : Tensor.t) =
  let c = Tensor.Arena.alloc_uninit t.Tensor.shape t.Tensor.dtype in
  Tensor.blit t 0 c 0 (Tensor.num_elements t);
  c

let release_opt = function Some t -> Tensor.Arena.release t | None -> ()

(* The live columns of programmed integer weights: those up to the last
   one with a nonzero cell. A GEMM over the zero columns after them adds
   nothing, so [gemm_tile] computes only the live ones. *)
let live_columns (w : Tensor.t) =
  let rows = w.Tensor.shape.(0) and cols = w.Tensor.shape.(1) in
  if not (Tensor.is_int w) then cols
  else begin
    let live = ref 0 in
    for i = 0 to rows - 1 do
      let j = ref (cols - 1) in
      while !j >= !live && Tensor.get_int w ((i * cols) + !j) = 0 do
        decr j
      done;
      live := max !live (!j + 1)
    done;
    !live
  end

let release_tiles d =
  Array.iter
    (fun tile ->
      release_opt tile.weights;
      tile.weights <- None;
      release_opt tile.staged_input;
      tile.staged_input <- None)
    d.tiles

let hook (m : t) : Interp.hook =
 fun ctx op ops ->
  let operand i = ops.(i) in
  let c = m.config in
  match op.Ir.name with
  | "memristor.alloc" ->
    let tiles = Ir.int_attr op "tiles" in
    if tiles > c.Config.tiles then
      invalid_arg
        (Printf.sprintf "memristor.alloc: %d tiles requested, %d available" tiles
           c.Config.tiles);
    let id = m.next in
    m.next <- m.next + 1;
    Hashtbl.replace m.devices id { tiles = Array.init tiles (fun _ -> fresh_tile ()) };
    Some [ Rtval.Handle id ]
  | "memristor.store_tile" ->
    let d = find_device m (operand 0) in
    let k, tile = tile_of d op in
    let w = Rtval.as_tensor (operand 1) in
    (match w.Tensor.shape with
    | [| r; cc |] when r <= c.Config.rows && cc <= c.Config.cols -> ()
    | _ ->
      invalid_arg
        (Printf.sprintf "memristor.store_tile: weights %s exceed %dx%d crossbar"
           (Cinm_support.Util.shape_to_string w.Tensor.shape)
           c.Config.rows c.Config.cols));
    let stored = stage_copy w in
    let stuck_before = m.stats.Stats.stuck_cells in
    (* Device non-ideality, applied to the *programmed* conductances.
       Stuck-at cells clamp to off (0) / on (1) conductance regardless of
       the written weight; the stuck set is a stable property of the
       physical tile (same (tile, cell) sites every run for a seed). *)
    (match m.faults with
    | Some plan
      when plan.Fault.rates.Fault.stuck0 > 0.0
           || plan.Fault.rates.Fault.stuck1 > 0.0 ->
      let cc = w.Tensor.shape.(1) in
      for i = 0 to Tensor.num_elements w - 1 do
        (* cell id is the element's physical position in the crossbar *)
        let cell = ((i / cc) * c.Config.cols) + (i mod cc) in
        match Fault.stuck_cell plan ~tile:k ~cell with
        | Some v ->
          Tensor.set_int stored i v;
          m.stats.Stats.stuck_cells <- m.stats.Stats.stuck_cells + 1
        | None -> ()
      done
    | _ -> ());
    release_opt tile.weights;
    tile.weights <- Some stored;
    tile.live <- live_columns stored;
    let rows = w.Tensor.shape.(0) in
    let cells = Tensor.num_elements w in
    let t_prog = float_of_int rows *. c.Config.t_write_row in
    let start = Float.max m.io.at tile.ready.at in
    if tracing m then begin
      Trace.complete ~cat:"program"
        ~args:
          [ ("rows", Trace.Int rows);
            ("cells", Trace.Int cells);
            ("write_cycle", Trace.Int (m.stats.Stats.endurance_writes.(k) + 1)) ]
        ~clock:Trace.Device ~pid:m.trace_pid ~track:(tile_track k) ~ts:start
        ~dur:t_prog "program";
      if m.stats.Stats.stuck_cells > stuck_before then
        Trace.instant ~cat:"fault"
          ~args:
            [ ("stuck_cells", Trace.Int (m.stats.Stats.stuck_cells - stuck_before)) ]
          ~clock:Trace.Device ~pid:m.trace_pid ~track:(tile_track k) ~ts:start
          "stuck-cells"
    end;
    m.io.at <- start +. t_prog;
    tile.ready.at <- m.io.at;
    (* Gain variation is calibrated out by a write-verify read-out pass
       after programming: the result data is unaffected (the digital
       periphery rescales), but the pass costs one MVM per programmed row
       on the serialized digital interface. *)
    (match m.faults with
    | Some plan when plan.Fault.rates.Fault.gain_var > 0.0 ->
      let gain = Fault.tile_gain plan ~tile:k in
      if Float.abs (gain -. 1.0) > 0.01 then begin
        let t_cal = float_of_int rows *. c.Config.t_mvm in
        if tracing m then
          Trace.complete ~cat:"io"
            ~args:[ ("gain", Trace.Float gain); ("rows", Trace.Int rows) ]
            ~clock:Trace.Device ~pid:m.trace_pid ~track:(tile_track k)
            ~ts:m.io.at ~dur:t_cal "calibrate";
        m.io.at <- m.io.at +. t_cal;
        tile.ready.at <- m.io.at;
        m.stats.Stats.time.io_s <- m.stats.Stats.time.io_s +. t_cal;
        m.stats.Stats.calibrations <- m.stats.Stats.calibrations + 1;
        m.stats.Stats.energy_j <- m.stats.Stats.energy_j +. c.Config.e_mvm
      end
    | _ -> ());
    m.stats.Stats.time.program_s <- m.stats.Stats.time.program_s +. t_prog;
    m.stats.Stats.cells_written <- m.stats.Stats.cells_written + cells;
    m.stats.Stats.store_ops <- m.stats.Stats.store_ops + 1;
    m.stats.Stats.endurance_writes.(k) <- m.stats.Stats.endurance_writes.(k) + 1;
    m.stats.Stats.energy_j <-
      m.stats.Stats.energy_j +. (float_of_int cells *. c.Config.e_write_cell);
    Some []
  | "memristor.copy_tile" ->
    let d = find_device m (operand 0) in
    let k, tile = tile_of d op in
    let input = Rtval.as_tensor (operand 1) in
    (match input.Tensor.shape with
    | [| _m; kk |] when kk <= c.Config.rows -> ()
    | _ -> invalid_arg "memristor.copy_tile: input must be (M x rows<=crossbar)");
    release_opt tile.staged_input;
    (* compiled code hands over an input nothing else reaches ([adopt]);
       anything else is copied *)
    tile.staged_input <- Some (if ctx.Interp.adopt then input else stage_copy input);
    let bytes = tensor_bytes input in
    let t_stage = float_of_int bytes *. c.Config.t_input_stage_per_byte in
    if tracing m then
      Trace.complete ~cat:"io"
        ~args:[ ("tile", Trace.Int k); ("bytes", Trace.Int bytes) ]
        ~clock:Trace.Device ~pid:m.trace_pid ~track:"io" ~ts:m.io.at
        ~dur:t_stage "stage";
    (* the DAC registers are double-buffered: staging occupies only the
       shared digital interface; the tile just cannot consume the new
       input before it has arrived *)
    m.io.at <- m.io.at +. t_stage;
    tile.ready.at <- Float.max tile.ready.at m.io.at;
    m.stats.Stats.time.io_s <- m.stats.Stats.time.io_s +. t_stage;
    m.stats.Stats.energy_j <-
      m.stats.Stats.energy_j +. (float_of_int bytes *. c.Config.e_io_byte);
    Some []
  | "memristor.gemm_tile" -> (
    let d = find_device m (operand 0) in
    let k, tile = tile_of d op in
    match (tile.staged_input, tile.weights) with
    | Some input, Some w ->
      let vectors, depth, cols =
        match (input.Tensor.shape, w.Tensor.shape) with
        | [| vectors; depth |], [| depth'; cols |] when depth = depth' -> (vectors, depth, cols)
        | _ -> invalid_arg "Tensor.matmul: shape mismatch"
      in
      (* the MVMs of the live columns of integer inputs; the rest of
         every row is 0 *)
      let n = if Tensor.is_int input then tile.live else cols in
      let alloc = if n < cols then Tensor.Arena.alloc else Tensor.Arena.alloc_uninit in
      let out = alloc [| vectors; cols |] input.Tensor.dtype in
      Tensor.gemm ~m:vectors ~n ~k:depth ~ldb:cols input w out ~ldc:cols;
      if tracing m then
        Trace.complete ~cat:"mvm"
          ~args:[ ("vectors", Trace.Int vectors) ]
          ~clock:Trace.Device ~pid:m.trace_pid ~track:(tile_track k)
          ~ts:tile.ready.at
          ~dur:(float_of_int vectors *. c.Config.t_mvm)
          "mvm";
      (* the MVM runs on the tile alone; distinct tiles overlap *)
      tile.ready.at <- tile.ready.at +. (float_of_int vectors *. c.Config.t_mvm);
      m.stats.Stats.time.compute_s <-
        m.stats.Stats.time.compute_s +. (float_of_int vectors *. c.Config.t_mvm);
      m.stats.Stats.mvms <- m.stats.Stats.mvms + vectors;
      m.stats.Stats.macs <- m.stats.Stats.macs + (vectors * n * depth);
      m.stats.Stats.energy_j <-
        m.stats.Stats.energy_j +. (float_of_int vectors *. c.Config.e_mvm);
      Some [ Rtval.Tensor out ]
    | _ -> invalid_arg "memristor.gemm_tile: tile has no staged input or weights")
  | "memristor.read_result" ->
    invalid_arg "memristor.read_result: results are returned by gemm_tile in this flow"
  | "memristor.barrier" ->
    let d = find_device m (operand 0) in
    m.io.at <- makespan m d;
    if tracing m then
      Trace.instant ~cat:"io" ~clock:Trace.Device ~pid:m.trace_pid ~track:"io"
        ~ts:m.io.at "barrier";
    Some []
  | "memristor.release" ->
    let d = find_device m (operand 0) in
    if tracing m then
      Trace.instant ~cat:"io"
        ~args:[ ("makespan_us", Trace.Float (1e6 *. makespan m d)) ]
        ~clock:Trace.Device ~pid:m.trace_pid ~track:"io" ~ts:(makespan m d)
        "release";
    m.stats.Stats.time.makespan_s <- Float.max m.stats.Stats.time.makespan_s (makespan m d);
    release_tiles d;
    Hashtbl.remove m.devices (Rtval.as_handle (operand 0));
    Some []
  | _ -> None

(* Return every live device's tile storage to the arena, at the end of a
   run (devices the program never released). MVM results are fresh
   tensors, so host results never alias tile storage. *)
let recycle m =
  Hashtbl.iter (fun _ d -> release_tiles d) m.devices;
  Hashtbl.reset m.devices

let run m (f : Func.t) args =
  let results, _ = Compile.run_func ~hooks:[ hook m ] f args in
  (results, m.stats)
