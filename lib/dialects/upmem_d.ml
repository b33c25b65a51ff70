(* upmem device dialect (paper §3.2.5): exposes the UPMEM architecture —
   DPUs grouped in DIMMs, tasklets, explicit WRAM staging via MRAM<->WRAM
   DMA, and tasklet barriers. The cnm-to-upmem conversion materializes
   these device concepts; the upmem simulator executes them. *)

open Cinm_ir

let dialect =
  Dialect.register ~name:"upmem" ~description:"UPMEM DPU device dialect"

let _ =
  Dialect.add_op dialect "alloc_dpus" ~summary:"allocate a DPU grid" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 0 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "dimms" >>= fun () ->
      match (Ir.result op 0).Ir.ty with
      | Types.Workgroup [| _dpus; _tasklets |] -> Ok ()
      | _ -> Error "upmem.alloc_dpus: result must be !cnm.workgroup<dpus x tasklets>")

let _ =
  Dialect.add_op dialect "scatter" ~summary:"host -> MRAM transfer" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 3 >>= fun () ->
      expect_results op 1 >>= fun () -> expect_attr op "map")

let _ =
  Dialect.add_op dialect "gather" ~summary:"MRAM -> host transfer" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 2 >>= fun () -> expect_results op 2)

let _ =
  Dialect.add_op dialect "launch" ~summary:"launch the per-tasklet kernel on all DPUs"
    ~verify:(fun op ->
      let open Dialect in
      expect_regions op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "tasklets" >>= fun () ->
      expect_attr op "n_inputs" >>= fun () ->
      expect (Ir.num_operands op >= 1) "upmem.launch: missing workgroup")

let _ =
  Dialect.add_op dialect "free_dpus" ~summary:"release the DPU grid" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () -> expect_results op 0)

(* --- ops used inside the launch body (the DPU kernel) --- *)

let _ =
  Dialect.add_op dialect "tasklet_id" ~summary:"id of the executing tasklet"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 0 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect
        (Types.equal (Ir.result op 0).Ir.ty Types.Index)
        "upmem.tasklet_id: result must be index")

let _ =
  Dialect.add_op dialect "wram_alloc" ~summary:"allocate a WRAM scratchpad buffer"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 0 >>= fun () ->
      expect_results op 1 >>= fun () ->
      match (Ir.result op 0).Ir.ty with
      | Types.MemRef _ -> Ok ()
      | _ -> Error "upmem.wram_alloc: result must be a memref")

let _ =
  Dialect.add_op dialect "wram_shared_alloc"
    ~summary:"WRAM buffer shared by all tasklets of a DPU" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 0 >>= fun () ->
      expect_results op 1 >>= fun () ->
      match (Ir.result op 0).Ir.ty with
      | Types.MemRef _ -> Ok ()
      | _ -> Error "upmem.wram_shared_alloc: result must be a memref")

let _ =
  Dialect.add_op dialect "alloc" ~summary:"per-PU MRAM buffer (device form of cnm.alloc)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      match (Ir.result op 0).Ir.ty with
      | Types.Buffer _ -> Ok ()
      | _ -> Error "upmem.alloc: result must be a buffer")

(* mram_read/mram_write copy [count] contiguous elements between an MRAM
   memref and a WRAM memref, with dynamic element offsets on both sides:
   (mram, wram, mram_offset, wram_offset) + attrs {count}. *)
let dma_verify op =
  let open Dialect in
  expect_operands op 4 >>= fun () ->
  expect_results op 0 >>= fun () ->
  expect_attr op "count" >>= fun () ->
  if
    Types.equal (Ir.operand op 2).Ir.ty Types.Index
    && Types.equal (Ir.operand op 3).Ir.ty Types.Index
  then ok
  else Error (op.Ir.name ^ ": offsets must be index")

let _ = Dialect.add_op dialect "mram_read" ~summary:"DMA MRAM -> WRAM" ~verify:dma_verify
let _ = Dialect.add_op dialect "mram_write" ~summary:"DMA WRAM -> MRAM" ~verify:dma_verify

let _ =
  Dialect.add_op dialect "barrier_wait" ~summary:"barrier across the DPU's tasklets"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 0 >>= fun () -> expect_results op 0)

let ensure () = ignore dialect

(* ----- constructors ----- *)

let alloc_dpus b ~dimms ~dpus ~tasklets =
  Builder.build1 b "upmem.alloc_dpus"
    ~attrs:[ ("dimms", Attr.Int dimms) ]
    ~result_tys:[ Types.Workgroup [| dpus; tasklets |] ]

let scatter b ?halo tensor buffer wg ~map =
  let attrs =
    ("map", Attr.Str map)
    :: (match halo with Some h -> [ ("halo", Attr.Int h) ] | None -> [])
  in
  Builder.build1 b "upmem.scatter" ~operands:[ tensor; buffer; wg ] ~attrs
    ~result_tys:[ Types.Token ]

let gather b buffer wg ~result_shape =
  let dtype =
    match buffer.Ir.ty with
    | Types.Buffer { dtype; _ } -> dtype
    | _ -> invalid_arg "Upmem_d.gather"
  in
  let op =
    Builder.build b "upmem.gather" ~operands:[ buffer; wg ]
      ~result_tys:[ Types.Tensor (result_shape, dtype); Types.Token ]
  in
  (Ir.result op 0, Ir.result op 1)

let launch b wg ~tasklets ~ins ~outs (body : Builder.t -> Ir.value array -> unit) =
  let buffers = ins @ outs in
  let memref_ty (v : Ir.value) =
    match v.Ir.ty with
    | Types.Buffer { shape; dtype; _ } -> Types.MemRef (shape, dtype)
    | _ -> invalid_arg "Upmem_d.launch: operand is not a buffer"
  in
  let region =
    Builder.build_region ~arg_tys:(List.map memref_ty buffers) (fun bb args ->
        body bb args;
        Builder.build0 bb "cnm.terminator")
  in
  Builder.build1 b "upmem.launch"
    ~operands:(wg :: buffers)
    ~attrs:[ ("n_inputs", Attr.Int (List.length ins)); ("tasklets", Attr.Int tasklets) ]
    ~regions:[ region ] ~result_tys:[ Types.Token ]

let free_dpus b wg = Builder.build0 b "upmem.free_dpus" ~operands:[ wg ]

let tasklet_id b = Builder.build1 b "upmem.tasklet_id" ~result_tys:[ Types.Index ]

let wram_alloc b shape dt =
  Builder.build1 b "upmem.wram_alloc" ~result_tys:[ Types.MemRef (shape, dt) ]

let wram_shared_alloc b shape dt =
  Builder.build1 b "upmem.wram_shared_alloc" ~result_tys:[ Types.MemRef (shape, dt) ]

let alloc b wg ~shape ~dtype ~level =
  Builder.build1 b "upmem.alloc" ~operands:[ wg ]
    ~result_tys:[ Types.Buffer { shape; dtype; level } ]

let mram_read b ~mram ~wram ~mram_off ~wram_off ~count =
  Builder.build0 b "upmem.mram_read" ~operands:[ mram; wram; mram_off; wram_off ]
    ~attrs:[ ("count", Attr.Int count) ]

let mram_write b ~wram ~mram ~mram_off ~wram_off ~count =
  Builder.build0 b "upmem.mram_write" ~operands:[ mram; wram; mram_off; wram_off ]
    ~attrs:[ ("count", Attr.Int count) ]

let barrier_wait b = Builder.build0 b "upmem.barrier_wait"
