(* memristor device dialect (paper §3.2.5): interface to memristive
   crossbar accelerators, extending the OCC flow. Weights are programmed
   into a crossbar tile ([store_tile], slow NVM writes); inputs stream
   through the tile ([gemm_tile], constant-time analog MVM per row);
   results come back through the ADCs ([read_result]). *)

open Cinm_ir

let dialect =
  Dialect.register ~name:"memristor"
    ~description:"memristive crossbar device dialect (OCC-derived)"

let is_id (v : Ir.value) = Types.equal v.Ir.ty Types.Cim_id

let with_tile_attr op =
  let open Dialect in
  expect_attr op "tile" >>= fun () ->
  if is_id (Ir.operand op 0) then ok else Error (op.Ir.name ^ ": operand 0 must be !cim.id")

let _ =
  Dialect.add_op dialect "alloc" ~summary:"acquire a crossbar accelerator"
    ~verify:(fun op ->
      let open Dialect in
      expect_results op 1 >>= fun () ->
      expect_attr op "rows" >>= fun () ->
      expect_attr op "cols" >>= fun () ->
      expect_attr op "tiles" >>= fun () ->
      expect (is_id (Ir.result op 0)) "memristor.alloc: result must be !cim.id")

let _ =
  Dialect.add_op dialect "store_tile" ~summary:"program weights into a tile (NVM write)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 2 >>= fun () ->
      expect_results op 0 >>= fun () -> with_tile_attr op)

let _ =
  Dialect.add_op dialect "copy_tile" ~summary:"copy input buffer to a tile's DAC registers"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 2 >>= fun () ->
      expect_results op 0 >>= fun () -> with_tile_attr op)

let _ =
  Dialect.add_op dialect "gemm_tile"
    ~summary:"analog MVM of the staged input against the tile's weights"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "tile" >>= fun () ->
      expect (is_id (Ir.operand op 0)) "memristor.gemm_tile: operand 0 must be !cim.id")

let _ =
  Dialect.add_op dialect "read_result" ~summary:"read tile output through the ADCs"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect (is_id (Ir.operand op 0)) "memristor.read_result: operand 0 must be !cim.id")

let _ =
  Dialect.add_op dialect "barrier" ~summary:"wait for in-flight tile operations"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () -> expect_results op 0)

let _ =
  Dialect.add_op dialect "release" ~summary:"release the accelerator" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () -> expect_results op 0)

let ensure () = ignore dialect

(* ----- constructors ----- *)

let alloc b ~rows ~cols ~tiles =
  Builder.build1 b "memristor.alloc"
    ~attrs:
      [ ("rows", Attr.Int rows); ("cols", Attr.Int cols); ("tiles", Attr.Int tiles) ]
    ~result_tys:[ Types.Cim_id ]

let store_tile b id ~tile weights =
  Builder.build0 b "memristor.store_tile" ~operands:[ id; weights ]
    ~attrs:[ ("tile", Attr.Int tile) ]

let copy_tile b id ~tile input =
  Builder.build0 b "memristor.copy_tile" ~operands:[ id; input ]
    ~attrs:[ ("tile", Attr.Int tile) ]

let gemm_tile b id ~tile ~result_ty =
  Builder.build1 b "memristor.gemm_tile" ~operands:[ id ]
    ~attrs:[ ("tile", Attr.Int tile) ]
    ~result_tys:[ result_ty ]

let read_result b id ~result_ty =
  Builder.build1 b "memristor.read_result" ~operands:[ id ] ~result_tys:[ result_ty ]

let barrier b id = Builder.build0 b "memristor.barrier" ~operands:[ id ]

let release b id = Builder.build0 b "memristor.release" ~operands:[ id ]
