(* tensor dialect: value-semantics tensor creation and slicing, the glue
   between linalg kernels and the tiling transformations (paper §3.2.6). *)

open Cinm_ir

let dialect = Dialect.register ~name:"tensor" ~description:"tensor creation and slicing"

let shaped_result op =
  let open Dialect in
  expect_results op 1 >>= fun () ->
  if Types.is_shaped (Ir.result op 0).Ir.ty then ok
  else Error (op.Ir.name ^ ": result must be shaped")

let _ =
  Dialect.add_op dialect "empty" ~summary:"uninitialized tensor" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 0 >>= fun () -> shaped_result op)

let _ =
  Dialect.add_op dialect "splat" ~summary:"tensor filled with one scalar" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () -> shaped_result op)

let _ =
  Dialect.add_op dialect "extract_slice" ~summary:"extract a rectangular sub-tensor"
    ~verify:(fun op ->
      let open Dialect in
      expect_results op 1 >>= fun () ->
      expect_attr op "sizes" >>= fun () ->
      expect_shaped_operand op 0 >>= fun () ->
      let sizes = Ir.ints_attr op "sizes" in
      match Types.shape_of (Ir.result op 0).Ir.ty with
      | Some shape ->
        expect (shape = sizes) "tensor.extract_slice: result shape must equal sizes"
      | None -> Error "tensor.extract_slice: result must be shaped")

let _ =
  Dialect.add_op dialect "insert_slice" ~summary:"insert a sub-tensor into a tensor"
    ~verify:(fun op ->
      let open Dialect in
      expect (Ir.num_operands op >= 2) "tensor.insert_slice: needs src and dst"
      >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "offsets" >>= fun () ->
      expect
        (Types.equal (Ir.operand op 1).Ir.ty (Ir.result op 0).Ir.ty)
        "tensor.insert_slice: result type must match destination type")

let _ =
  Dialect.add_op dialect "extract" ~summary:"extract one element" ~verify:(fun op ->
      let open Dialect in
      expect_results op 1 >>= fun () ->
      expect_shaped_operand op 0 >>= fun () ->
      expect
        (Ir.num_operands op = 1 + Types.rank (Ir.operand op 0).Ir.ty)
        "tensor.extract: needs one index per dimension")

let _ =
  Dialect.add_op dialect "insert" ~summary:"insert one element (value semantics)"
    ~verify:(fun op ->
      let open Dialect in
      expect_results op 1 >>= fun () ->
      expect_shaped_operand op 1 >>= fun () ->
      expect
        (Ir.num_operands op = 2 + Types.rank (Ir.operand op 1).Ir.ty)
        "tensor.insert: needs one index per dimension")

let _ =
  Dialect.add_op dialect "reshape" ~summary:"reinterpret tensor shape" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect
        (Types.num_elements (Ir.operand op 0).Ir.ty = Types.num_elements (Ir.result op 0).Ir.ty)
        "tensor.reshape: element count must be preserved")

let _ =
  Dialect.add_op dialect "pad" ~summary:"zero-pad a tensor" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "low" >>= fun () -> expect_attr op "high")

let ensure () = ignore dialect

(* ----- constructors ----- *)

let empty b shape dt =
  Builder.build1 b "tensor.empty" ~result_tys:[ Types.Tensor (shape, dt) ]

let splat b scalar shape dt =
  Builder.build1 b "tensor.splat" ~operands:[ scalar ]
    ~result_tys:[ Types.Tensor (shape, dt) ]

(* Static offsets/sizes as attributes; dynamic offsets as index operands
   (one per dimension, used by tiled loops). *)
let extract_slice b src ~offsets ~sizes ~dyn_offsets =
  let dt =
    match Types.element_dtype src.Ir.ty with
    | Some dt -> dt
    | None -> invalid_arg "tensor.extract_slice: source not shaped"
  in
  Builder.build1 b "tensor.extract_slice"
    ~operands:(src :: dyn_offsets)
    ~attrs:[ ("offsets", Attr.Ints offsets); ("sizes", Attr.Ints sizes) ]
    ~result_tys:[ Types.Tensor (sizes, dt) ]

let insert_slice b src dst ~offsets ~dyn_offsets =
  Builder.build1 b "tensor.insert_slice"
    ~operands:(src :: dst :: dyn_offsets)
    ~attrs:[ ("offsets", Attr.Ints offsets) ]
    ~result_tys:[ dst.Ir.ty ]

let extract b src indices =
  let dt =
    match Types.element_dtype src.Ir.ty with
    | Some dt -> dt
    | None -> invalid_arg "tensor.extract: source not shaped"
  in
  Builder.build1 b "tensor.extract" ~operands:(src :: indices)
    ~result_tys:[ Types.Scalar dt ]

let insert b scalar dst indices =
  Builder.build1 b "tensor.insert" ~operands:(scalar :: dst :: indices)
    ~result_tys:[ dst.Ir.ty ]

let reshape b src new_shape =
  let dt = Option.get (Types.element_dtype src.Ir.ty) in
  Builder.build1 b "tensor.reshape" ~operands:[ src ]
    ~attrs:[ ("shape", Attr.Ints new_shape) ]
    ~result_tys:[ Types.Tensor (new_shape, dt) ]

let pad b src ~low ~high =
  let shape = Option.get (Types.shape_of src.Ir.ty) in
  let dt = Option.get (Types.element_dtype src.Ir.ty) in
  let new_shape = Array.mapi (fun i d -> d + low.(i) + high.(i)) shape in
  Builder.build1 b "tensor.pad" ~operands:[ src ]
    ~attrs:[ ("low", Attr.Ints low); ("high", Attr.Ints high) ]
    ~result_tys:[ Types.Tensor (new_shape, dt) ]
