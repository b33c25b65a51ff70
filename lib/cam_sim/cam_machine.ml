(* CAM and RTM logic-CIM simulators: the remaining CIM device classes of
   the paper's taxonomy (Fig. 1: CAM-based CIM, logic CIM). Both are small
   fixed-function engines, so one module hosts both machines.

   CAM timing (C4CAM/X-TIME-class TCAM/ACAM): programming costs one write
   per entry row; a search evaluates all match lines in parallel in one
   cycle-ish latency regardless of entry count; the priority encoder
   returns the best matches.

   RTM timing (PIRM-class): data shifts into nanowire tracks; a transverse
   read senses [tr_distance] domains of every track at once, so a
   population count takes domains/tr_distance reads. *)

open Cinm_ir
open Cinm_interp

type config = {
  (* CAM *)
  cam_entries : int;
  cam_width : int;
  t_search : float;  (** s per parallel search (match + priority encode) *)
  t_write_entry : float;  (** s per programmed entry row *)
  e_search : float;  (** J per search (all match lines switch) *)
  e_write_entry : float;
  (* RTM *)
  rtm_tracks : int;
  rtm_domains : int;  (** per track *)
  tr_distance : float;  (** domains sensed per transverse read *)
  t_shift : float;  (** s per domain shifted during writes *)
  t_transverse_read : float;
  e_transverse_read : float;
}

let default_config () =
  {
    cam_entries = 4096;
    cam_width = 64;
    t_search = 10e-9;
    t_write_entry = 200e-9;
    e_search = 5e-9;
    e_write_entry = 50e-12;
    rtm_tracks = 64;
    rtm_domains = 64;
    tr_distance = 8.0;
    t_shift = 1e-9;
    t_transverse_read = 2e-9;
    e_transverse_read = 10e-12;
  }

type stats = {
  mutable cam_searches : int;
  mutable cam_entries_written : int;
  mutable rtm_reads : int;
  mutable busy_s : float;
  mutable energy_j : float;
}

type cam_device = { mutable cam_data : Tensor.t option; d_entries : int; d_width : int }

type rtm_device = { mutable rtm_data : Tensor.t option; d_tracks : int; d_domains : int }

type entry = Cam of cam_device | Rtm of rtm_device

type t = {
  config : config;
  stats : stats;
  devices : (int, entry) Hashtbl.t;
  mutable next : int;
}

let create config =
  {
    config;
    stats = { cam_searches = 0; cam_entries_written = 0; rtm_reads = 0; busy_s = 0.0; energy_j = 0.0 };
    devices = Hashtbl.create 4;
    next = 0;
  }

let register m e =
  let id = m.next in
  m.next <- m.next + 1;
  Hashtbl.replace m.devices id e;
  Rtval.Handle id

let find_cam m rv =
  match Hashtbl.find_opt m.devices (Rtval.as_handle rv) with
  | Some (Cam d) -> d
  | _ -> invalid_arg "CAM machine: expected CAM handle"

let find_rtm m rv =
  match Hashtbl.find_opt m.devices (Rtval.as_handle rv) with
  | Some (Rtm d) -> d
  | _ -> invalid_arg "CAM machine: expected RTM handle"

let hook (m : t) : Interp.hook =
 fun _ctx op ops ->
  let operand i = ops.(i) in
  let c = m.config in
  match op.Ir.name with
  (* ----- CAM ----- *)
  | "cam.alloc" ->
    let entries = Ir.int_attr op "entries" and width = Ir.int_attr op "width" in
    if entries > c.cam_entries || width > c.cam_width then
      invalid_arg
        (Printf.sprintf "cam.alloc: %dx%d exceeds the %dx%d array" entries width
           c.cam_entries c.cam_width);
    Some [ register m (Cam { cam_data = None; d_entries = entries; d_width = width }) ]
  | "cam.write_entries" ->
    let d = find_cam m (operand 0) in
    let data = Rtval.as_tensor (operand 1) in
    (match data.Tensor.shape with
    | [| e; w |] when e <= d.d_entries && w = d.d_width -> ()
    | _ -> invalid_arg "cam.write_entries: shape does not match the allocated array");
    d.cam_data <- Some (Tensor.copy data);
    let rows = data.Tensor.shape.(0) in
    m.stats.cam_entries_written <- m.stats.cam_entries_written + rows;
    m.stats.busy_s <- m.stats.busy_s +. (float_of_int rows *. c.t_write_entry);
    m.stats.energy_j <- m.stats.energy_j +. (float_of_int rows *. c.e_write_entry);
    Some []
  | "cam.search_best" -> (
    let d = find_cam m (operand 0) in
    let query = Rtval.as_tensor (operand 1) in
    let k = Ir.int_attr op "k" and metric = Ir.str_attr op "metric" in
    match d.cam_data with
    | None -> invalid_arg "cam.search_best: no entries programmed"
    | Some data ->
      let entries = data.Tensor.shape.(0) and width = data.Tensor.shape.(1) in
      (* entry [i] is the window of the flat entry array at [i * width] *)
      let score = Tensor.window_scorer ~metric data query width in
      let scores = Tensor.init [| entries |] (fun i -> score (i * width)) in
      let _, indices = Tensor.topk ~k scores in
      (* one parallel search per query; the priority encoder walks k deep *)
      m.stats.cam_searches <- m.stats.cam_searches + 1;
      m.stats.busy_s <- m.stats.busy_s +. (float_of_int k *. c.t_search);
      m.stats.energy_j <- m.stats.energy_j +. (float_of_int k *. c.e_search);
      Some [ Rtval.Tensor indices ])
  | "cam.release" ->
    Hashtbl.remove m.devices (Rtval.as_handle (operand 0));
    Some []
  (* ----- RTM ----- *)
  | "rtm.alloc" ->
    let tracks = Ir.int_attr op "tracks" and domains = Ir.int_attr op "domains" in
    if tracks > c.rtm_tracks || domains > c.rtm_domains then
      invalid_arg "rtm.alloc: exceeds the available tracks/domains";
    Some [ register m (Rtm { rtm_data = None; d_tracks = tracks; d_domains = domains }) ]
  | "rtm.write" ->
    let d = find_rtm m (operand 0) in
    let data = Rtval.as_tensor (operand 1) in
    let n = Tensor.num_elements data in
    if n > d.d_tracks * d.d_domains then invalid_arg "rtm.write: data exceeds track capacity";
    d.rtm_data <- Some (Tensor.copy data);
    (* shifting dominates RTM writes *)
    m.stats.busy_s <-
      m.stats.busy_s +. (float_of_int (32 * n / max 1 d.d_tracks) *. c.t_shift);
    Some []
  | "rtm.pop_count" -> (
    let d = find_rtm m (operand 0) in
    match d.rtm_data with
    | None -> invalid_arg "rtm.pop_count: no data written"
    | Some data ->
      let result = Tensor.pop_count data in
      (* 32 bit-planes, domains/tr_distance transverse reads each *)
      let reads =
        int_of_float
          (ceil (32.0 *. float_of_int d.d_domains /. m.config.tr_distance))
      in
      m.stats.rtm_reads <- m.stats.rtm_reads + reads;
      m.stats.busy_s <- m.stats.busy_s +. (float_of_int reads *. c.t_transverse_read);
      m.stats.energy_j <- m.stats.energy_j +. (float_of_int reads *. c.e_transverse_read);
      Some [ Rtval.Int result ])
  | "rtm.release" ->
    Hashtbl.remove m.devices (Rtval.as_handle (operand 0));
    Some []
  | _ -> None

let run m (f : Func.t) args =
  let results, _ = Compile.run_func ~hooks:[ hook m ] f args in
  (results, m.stats)
