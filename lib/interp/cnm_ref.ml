(* Reference (functional, untimed) executor for the paradigm-level cnm and
   cim dialects. Used as interpreter hooks to check that the cinm-to-cnm /
   cinm-to-cim lowerings preserve program semantics, independently of any
   device timing model. The device simulators provide their own hooks with
   the same data semantics plus time/energy accounting. *)

open Cinm_ir

type workgroup = { wg_shape : int array }

type buffer = {
  per_pu : Tensor.t array;  (** one tensor per buffer at this level *)
  buf_shape : int array;
  dtype : Types.dtype;
  level : int;
}

type cim_device = { mutable written : Tensor.t option; mutable last_result : Tensor.t option }

type entry = Wg of workgroup | Buf of buffer | Cim of cim_device

type state = { entries : (int, entry) Hashtbl.t; mutable next : int }

let create_state () = { entries = Hashtbl.create 32; next = 0 }

let register st e =
  let id = st.next in
  st.next <- st.next + 1;
  Hashtbl.replace st.entries id e;
  Rtval.Handle id

let find st id =
  match Hashtbl.find_opt st.entries id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Cnm_ref: unknown handle %d" id)

let find_wg st rv =
  match find st (Rtval.as_handle rv) with
  | Wg wg -> wg
  | _ -> invalid_arg "Cnm_ref: expected workgroup handle"

let find_buf st rv =
  match find st (Rtval.as_handle rv) with
  | Buf b -> b
  | _ -> invalid_arg "Cnm_ref: expected buffer handle"

let find_cim st rv =
  match find st (Rtval.as_handle rv) with
  | Cim d -> d
  | _ -> invalid_arg "Cnm_ref: expected CIM device handle"

let n_pus wg = Cinm_support.Util.product_of_shape wg.wg_shape

let gather_tensor (buf : buffer) (_wg : workgroup) ~result_shape =
  Distrib.gather buf.per_pu ~result_shape ~dtype:buf.dtype

(* The hook. [on_launch] is called once per launch with the per-PU profile
   list; the default ignores it (reference semantics are untimed). *)
let hook ?(on_launch = fun (_ : Profile.t list) -> ()) (st : state) : Interp.hook =
 fun ctx op ops ->
  let operand i = ops.(i) in
  match op.Ir.name with
  | "cnm.workgroup" -> (
    match (Ir.result op 0).Ir.ty with
    | Types.Workgroup shape -> Some [ register st (Wg { wg_shape = shape }) ]
    | _ -> invalid_arg "cnm.workgroup: bad result type")
  | "cnm.alloc" -> (
    let wg = find_wg st (operand 0) in
    match (Ir.result op 0).Ir.ty with
    | Types.Buffer { shape; dtype; level } ->
      let n = Cinm_dialects.Cnm_d.buffers_at_level wg.wg_shape level in
      let per_pu = Tensor.array_init n (fun _ -> Tensor.zeros shape dtype) in
      Some [ register st (Buf { per_pu; buf_shape = shape; dtype; level }) ]
    | _ -> invalid_arg "cnm.alloc: bad result type")
  | "cnm.scatter" ->
    let t = Rtval.as_tensor (operand 0) in
    let buf = find_buf st (operand 1) in
    let halo = match Ir.attr op "halo" with Some (Attr.Int h) -> h | _ -> 0 in
    Distrib.scatter ~halo ~map:(Ir.str_attr op "map") t buf.per_pu;
    Some [ Rtval.Token ]
  | "cnm.gather" -> (
    let buf = find_buf st (operand 0) in
    let wg = find_wg st (operand 1) in
    match Types.shape_of (Ir.result op 0).Ir.ty with
    | Some result_shape ->
      Some [ Rtval.Tensor (gather_tensor buf wg ~result_shape); Rtval.Token ]
    | None -> invalid_arg "cnm.gather: unshaped result")
  | "cnm.launch" ->
    let wg = find_wg st (operand 0) in
    let n_buffers = Ir.num_operands op - 1 in
    let bufs = List.init n_buffers (fun i -> find_buf st (operand (i + 1))) in
    let region = Ir.region op 0 in
    (* compile once, execute per PU (PUs are sequential here, so they can
       share the context's environment and predicate cache) *)
    let prep = Compile.prepare ctx region in
    let profiles = ref [] in
    (* kernel-local allocations cannot escape the launch (results are
       discarded, stores copy elements), so they recycle via the arena *)
    let scratch = ref [] in
    for p = 0 to n_pus wg - 1 do
      let args =
        List.map
          (fun b ->
            let idx = Cinm_dialects.Cnm_d.buffer_index_of_pu wg.wg_shape b.level p in
            Rtval.Memref b.per_pu.(idx))
          bufs
      in
      let profile = Profile.create () in
      (* fresh watchdog counter per PU, matching the per-lane budget the
         UPMEM machine gives its tasklets *)
      let inner =
        { ctx with Interp.profile = profile; steps = ref 0; scratch = Some scratch }
      in
      ignore (Compile.run prep inner args);
      profiles := profile :: !profiles
    done;
    List.iter Tensor.Arena.release !scratch;
    on_launch (List.rev !profiles);
    Some [ Rtval.Token ]
  | "cnm.wait" -> Some []
  (* ----- cim reference semantics ----- *)
  | "cim.acquire" -> Some [ register st (Cim { written = None; last_result = None }) ]
  | "cim.write" ->
    let d = find_cim st (operand 0) in
    d.written <- Some (Rtval.as_tensor (operand 1));
    Some []
  | "cim.execute" ->
    let d = find_cim st (operand 0) in
    let inputs = List.init (Ir.num_operands op - 1) (fun i -> operand (i + 1)) in
    let results = Compile.run_region ctx (Ir.region op 0) inputs in
    (match results with
    | [ Rtval.Tensor t ] -> d.last_result <- Some t
    | _ -> ());
    Some results
  | "cim.read" -> (
    let d = find_cim st (operand 0) in
    match d.last_result with
    | Some t -> Some [ Rtval.Tensor t ]
    | None -> invalid_arg "cim.read: no result available")
  | "cim.barrier" -> Some []
  | "cim.release" ->
    Hashtbl.remove st.entries (Rtval.as_handle (operand 0));
    Some []
  | _ -> None
