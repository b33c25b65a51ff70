(* arith dialect: scalar integer/float arithmetic and comparisons.
   Mirrors MLIR's arith; the subset used by the CINM lowering pipeline. *)

open Cinm_ir

let same_operands_and_result op =
  let open Dialect in
  expect_operands op 2 >>= fun () ->
  expect_results op 1 >>= fun () ->
  expect_same_type op 0 1 >>= fun () ->
  if Types.equal (Ir.operand op 0).Ir.ty (Ir.result op 0).Ir.ty then ok
  else Error (op.Ir.name ^ ": result type must match operand type")

let dialect = Dialect.register ~name:"arith" ~description:"scalar arithmetic"

let binary_ops =
  [ "addi"; "subi"; "muli"; "divsi"; "remsi"; "minsi"; "maxsi"; "andi"; "ori"; "xori";
    "shli"; "shrsi"; "addf"; "subf"; "mulf"; "divf"; "minf"; "maxf" ]

let () =
  List.iter
    (fun name ->
      ignore
        (Dialect.add_op dialect name ~summary:("scalar " ^ name)
           ~verify:same_operands_and_result))
    binary_ops

let _ =
  Dialect.add_op dialect "constant" ~summary:"compile-time scalar constant"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 0 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "value")

let _ =
  Dialect.add_op dialect "cmpi" ~summary:"integer comparison"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 2 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "predicate" >>= fun () ->
      expect_same_type op 0 1 >>= fun () ->
      expect
        (Types.equal (Ir.result op 0).Ir.ty (Types.Scalar Types.I1))
        "arith.cmpi: result must be i1")

let _ =
  Dialect.add_op dialect "select" ~summary:"ternary select"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 3 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_operand_type op 0 (Types.Scalar Types.I1) >>= fun () ->
      expect_same_type op 1 2)

let _ =
  Dialect.add_op dialect "index_cast" ~summary:"cast between index and integer"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () -> expect_results op 1)

let ensure () = ignore dialect

(* ----- constructors ----- *)

let constant b ?(ty = Types.Scalar Types.I32) v =
  Builder.build1 b "arith.constant" ~attrs:[ ("value", Attr.Int v) ] ~result_tys:[ ty ]

let constant_f b ?(ty = Types.Scalar Types.F32) v =
  Builder.build1 b "arith.constant" ~attrs:[ ("value", Attr.Float v) ] ~result_tys:[ ty ]

let const_index b v = constant b ~ty:Types.Index v

let binop b name x y =
  Builder.build1 b ("arith." ^ name) ~operands:[ x; y ] ~result_tys:[ x.Ir.ty ]

let addi b x y = binop b "addi" x y
let subi b x y = binop b "subi" x y
let muli b x y = binop b "muli" x y
let divsi b x y = binop b "divsi" x y
let remsi b x y = binop b "remsi" x y
let minsi b x y = binop b "minsi" x y
let maxsi b x y = binop b "maxsi" x y
let andi b x y = binop b "andi" x y
let ori b x y = binop b "ori" x y
let xori b x y = binop b "xori" x y
let shli b x y = binop b "shli" x y
let shrsi b x y = binop b "shrsi" x y
let addf b x y = binop b "addf" x y
let subf b x y = binop b "subf" x y
let mulf b x y = binop b "mulf" x y
let divf b x y = binop b "divf" x y
let minf b x y = binop b "minf" x y
let maxf b x y = binop b "maxf" x y

type cmp_pred = Eq | Ne | Slt | Sle | Sgt | Sge

let pred_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"

let pred_of_string = function
  | "eq" -> Eq
  | "ne" -> Ne
  | "slt" -> Slt
  | "sle" -> Sle
  | "sgt" -> Sgt
  | "sge" -> Sge
  | s -> invalid_arg ("arith.cmpi: unknown predicate " ^ s)

let cmpi b pred x y =
  Builder.build1 b "arith.cmpi" ~operands:[ x; y ]
    ~attrs:[ ("predicate", Attr.Str (pred_to_string pred)) ]
    ~result_tys:[ Types.Scalar Types.I1 ]

let select b c x y =
  Builder.build1 b "arith.select" ~operands:[ c; x; y ] ~result_tys:[ x.Ir.ty ]

let index_cast b v ~to_ty =
  Builder.build1 b "arith.index_cast" ~operands:[ v ] ~result_tys:[ to_ty ]
