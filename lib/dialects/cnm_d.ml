(* cnm dialect: abstraction over compute-near-memory architectures (paper
   §3.2.3, Table 2). A workgroup is a logical grid of processing units with
   tree-shaped memory; buffers are opaque and only materialize as memrefs
   inside the launch body. *)

open Cinm_ir

let dialect =
  Dialect.register ~name:"cnm" ~description:"compute-near-memory paradigm abstraction"

let _ =
  Dialect.add_op dialect "workgroup" ~summary:"allocate a workgroup grid (Table 2)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 0 >>= fun () ->
      expect_results op 1 >>= fun () ->
      match (Ir.result op 0).Ir.ty with
      | Types.Workgroup _ -> Ok ()
      | _ -> Error "cnm.workgroup: result must be !cnm.workgroup")

let _ =
  Dialect.add_op dialect "alloc" ~summary:"allocate an opaque per-PU buffer (Table 2)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      match ((Ir.operand op 0).Ir.ty, (Ir.result op 0).Ir.ty) with
      | Types.Workgroup _, Types.Buffer _ -> Ok ()
      | _ -> Error "cnm.alloc: (workgroup) -> buffer")

let scatter_maps = [ "block"; "broadcast"; "cyclic"; "overlap" ]

(* Buffer level semantics (paper Fig. 7): a level-l buffer is shared across
   the last l dimensions of the workgroup. For !cnm.workgroup<DxT>,
   level 0 = one buffer per (dpu, tasklet) PU; level 1 = one per DPU. *)
let buffers_at_level wg_shape level =
  let rank = Array.length wg_shape in
  if level < 0 || level > rank then
    invalid_arg (Printf.sprintf "cnm: buffer level %d out of range for rank %d" level rank);
  let n = ref 1 in
  for d = 0 to rank - 1 - level do
    n := !n * wg_shape.(d)
  done;
  !n

(* PU linear index -> buffer index for a given level. *)
let buffer_index_of_pu wg_shape level pu =
  let rank = Array.length wg_shape in
  let shared = ref 1 in
  for d = rank - level to rank - 1 do
    shared := !shared * wg_shape.(d)
  done;
  pu / !shared

let _ =
  Dialect.add_op dialect "scatter"
    ~summary:"distribute a tensor into per-PU buffers (Table 2)" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 3 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "map" >>= fun () ->
      expect (List.mem (Ir.str_attr op "map") scatter_maps) "cnm.scatter: unknown map"
      >>= fun () ->
      match
        ((Ir.operand op 0).Ir.ty, (Ir.operand op 1).Ir.ty, (Ir.operand op 2).Ir.ty)
      with
      | Types.Tensor (tshape, tdt), Types.Buffer { shape; dtype; level }, Types.Workgroup wg
        ->
        expect (tdt = dtype) "cnm.scatter: dtype mismatch" >>= fun () ->
        let per_buf = Cinm_support.Util.product_of_shape shape in
        let total = Cinm_support.Util.product_of_shape tshape in
        let bufs = buffers_at_level wg level in
        (match Ir.str_attr op "map" with
        | "broadcast" ->
          expect (total = per_buf) "cnm.scatter broadcast: tensor must equal buffer size"
        | "overlap" ->
          expect_attr op "halo" >>= fun () ->
          let halo = Ir.int_attr op "halo" in
          expect
            (total = ((per_buf - halo) * bufs) + halo)
            "cnm.scatter overlap: tensor size must be bufs*(per_buf-halo)+halo"
        | _ ->
          if total = per_buf * bufs then ok
          else
            Error
              (Printf.sprintf
                 "cnm.scatter: tensor elements (%d) must equal buffers (%d) x buffer (%d)"
                 total bufs per_buf))
      | _ -> Error "cnm.scatter: (tensor, buffer, workgroup) -> token")

let _ =
  Dialect.add_op dialect "gather" ~summary:"copy per-PU buffers back to a tensor (Table 2)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 2 >>= fun () ->
      expect_results op 2 >>= fun () ->
      match ((Ir.operand op 0).Ir.ty, (Ir.operand op 1).Ir.ty, (Ir.result op 0).Ir.ty) with
      | Types.Buffer { shape; dtype; level }, Types.Workgroup wg, Types.Tensor (tshape, tdt)
        ->
        expect (tdt = dtype) "cnm.gather: dtype mismatch" >>= fun () ->
        expect
          (Cinm_support.Util.product_of_shape tshape
          = Cinm_support.Util.product_of_shape shape * buffers_at_level wg level)
          "cnm.gather: tensor size must equal buffers x buffer size"
      | _ -> Error "cnm.gather: (buffer, workgroup) -> (tensor, token)")

let _ =
  Dialect.add_op dialect "launch" ~summary:"launch workgroup execution (Table 2)"
    ~verify:(fun op ->
      let open Dialect in
      expect_regions op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "n_inputs" >>= fun () ->
      expect (Ir.num_operands op >= 1) "cnm.launch: missing workgroup" >>= fun () ->
      (match (Ir.operand op 0).Ir.ty with
      | Types.Workgroup _ -> Ok ()
      | _ -> Error "cnm.launch: operand 0 must be a workgroup")
      >>= fun () ->
      let n_buffers = Ir.num_operands op - 1 in
      let body = Ir.entry_block (Ir.region op 0) in
      expect
        (Array.length body.Ir.args = n_buffers)
        "cnm.launch: body must take one memref per buffer"
      >>= fun () ->
      let ok = ref (Ok ()) in
      Array.iteri
        (fun i (arg : Ir.value) ->
          match ((Ir.operand op (i + 1)).Ir.ty, arg.Ir.ty) with
          | Types.Buffer { shape; dtype; _ }, Types.MemRef (mshape, mdt)
            when shape = mshape && dtype = mdt ->
            ()
          | _ ->
            ok :=
              Error
                (Printf.sprintf
                   "cnm.launch: body arg %d must be the memref form of buffer operand" i))
        body.Ir.args;
      !ok >>= fun () ->
      match Ir.last_op body with
      | Some last when last.Ir.name = "cnm.terminator" -> Ok ()
      | _ -> Error "cnm.launch: body must end with cnm.terminator")

let _ =
  Dialect.add_op dialect "wait" ~summary:"synchronize on tokens (Table 2)"
    ~verify:(fun op ->
      let open Dialect in
      expect_results op 0 >>= fun () ->
      let ok = ref (Ok ()) in
      Array.iter
        (fun (v : Ir.value) ->
          if not (Types.equal v.Ir.ty Types.Token) then
            ok := Error "cnm.wait: operands must be tokens")
        op.Ir.operands;
      !ok)

let _ =
  Dialect.add_op dialect "terminator" ~summary:"launch body terminator"
    ~verify:(fun op -> Dialect.expect_results op 0)

let ensure () = ignore dialect

(* ----- constructors ----- *)

let workgroup b ~shape ~physical_dims =
  Builder.build1 b "cnm.workgroup"
    ~attrs:[ ("physical_dims", Attr.Strs physical_dims) ]
    ~result_tys:[ Types.Workgroup shape ]

let alloc b wg ~shape ~dtype ~level =
  Builder.build1 b "cnm.alloc" ~operands:[ wg ]
    ~result_tys:[ Types.Buffer { shape; dtype; level } ]

let scatter b ?halo tensor buffer wg ~map =
  let attrs =
    ("map", Attr.Str map)
    :: (match halo with Some h -> [ ("halo", Attr.Int h) ] | None -> [])
  in
  Builder.build1 b "cnm.scatter" ~operands:[ tensor; buffer; wg ] ~attrs
    ~result_tys:[ Types.Token ]

let gather b buffer wg ~result_shape =
  let dtype =
    match buffer.Ir.ty with
    | Types.Buffer { dtype; _ } -> dtype
    | _ -> invalid_arg "Cnm_d.gather: not a buffer"
  in
  let op =
    Builder.build b "cnm.gather" ~operands:[ buffer; wg ]
      ~result_tys:[ Types.Tensor (result_shape, dtype); Types.Token ]
  in
  (Ir.result op 0, Ir.result op 1)

let terminator b = Builder.build0 b "cnm.terminator"

(* [body] receives a builder and the memref views of [ins @ outs]. *)
let launch b wg ~ins ~outs (body : Builder.t -> Ir.value array -> unit) =
  let buffers = ins @ outs in
  let memref_ty (v : Ir.value) =
    match v.Ir.ty with
    | Types.Buffer { shape; dtype; _ } -> Types.MemRef (shape, dtype)
    | _ -> invalid_arg "Cnm_d.launch: operand is not a buffer"
  in
  let region =
    Builder.build_region ~arg_tys:(List.map memref_ty buffers) (fun bb args ->
        body bb args;
        terminator bb)
  in
  Builder.build1 b "cnm.launch"
    ~operands:(wg :: buffers)
    ~attrs:[ ("n_inputs", Attr.Int (List.length ins)) ]
    ~regions:[ region ] ~result_tys:[ Types.Token ]

let wait b tokens = Builder.build0 b "cnm.wait" ~operands:tokens
