(* cinm -> scf host lowering (paper §3.2.5 "Low-level dialects"): cinm ops
   that stay on the host are lowered to scf loop nests over tensor
   elements, the form that would continue to the llvm dialect in the
   paper's flow. The reference interpreter can execute cinm ops directly,
   so this pass is optional in the driver pipelines — it exists for
   completeness, for the cinm_opt tool, and as the model of host code for
   the LoC accounting.

   Applies to ops whose "target" attribute is "host" or absent. *)

open Cinm_ir
open Cinm_dialects

let is_host_target op =
  match Ir.attr op "target" with
  | Some (Attr.Str "host") | None -> true
  | _ -> false

let shape_of (v : Ir.value) = Option.get (Types.shape_of v.Ir.ty)
let dtype_of (v : Ir.value) = Option.get (Types.element_dtype v.Ir.ty)

(* Elementwise over flattened operands, value semantics:
   for i { out = tensor.insert (f a[i] b[i]) out [i] } *)
let lower_elementwise b ~opname x y =
  let shape = shape_of x in
  let dt = dtype_of x in
  let n = Cinm_support.Util.product_of_shape shape in
  let x1 = Cinm_d.expand b x ~shape:[| n |] in
  let y1 = Cinm_d.expand b y ~shape:[| n |] in
  let init = Builder.build1 b "tensor.empty" ~result_tys:[ Types.Tensor ([| n |], dt) ] in
  let c0 = Arith.const_index b 0 in
  let c1 = Arith.const_index b 1 in
  let cn = Arith.const_index b n in
  let out =
    Scf_d.for_ b ~lb:c0 ~ub:cn ~step:c1 ~init:[ init ] (fun bb i iters ->
        let a = Tensor_d.extract bb x1 [ i ] in
        let c = Tensor_d.extract bb y1 [ i ] in
        [ Tensor_d.insert bb (Cinm_to_cnm.scalar_binop bb opname a c) iters.(0) [ i ] ])
  in
  Cinm_d.expand b (List.hd out) ~shape

let lower_gemm b x y =
  let dt = dtype_of x in
  let m, k_dim =
    match shape_of x with [| m; k |] -> (m, k) | _ -> invalid_arg "cinm-to-scf gemm"
  in
  let n = (shape_of y).(1) in
  let init = Builder.build1 b "tensor.empty" ~result_tys:[ Types.Tensor ([| m; n |], dt) ] in
  let c0 = Arith.const_index b 0 in
  let c1 = Arith.const_index b 1 in
  let cm = Arith.const_index b m in
  let ck = Arith.const_index b k_dim in
  let cn = Arith.const_index b n in
  let zero = Cinm_to_cnm.const_zero b dt in
  let out =
    Scf_d.for_ b ~lb:c0 ~ub:cm ~step:c1 ~init:[ init ] (fun bb i iters ->
        let row =
          Scf_d.for_ bb ~lb:c0 ~ub:cn ~step:c1 ~init:[ iters.(0) ] (fun bb j iters ->
              let acc =
                Scf_d.for_ bb ~lb:c0 ~ub:ck ~step:c1 ~init:[ zero ] (fun bb k iters ->
                    let a = Tensor_d.extract bb x [ i; k ] in
                    let c = Tensor_d.extract bb y [ k; j ] in
                    [ Cinm_to_cnm.scalar_binop bb "add" iters.(0)
                        (Cinm_to_cnm.scalar_binop bb "mul" a c) ])
              in
              [ Tensor_d.insert bb (List.hd acc) iters.(0) [ i; j ] ])
        in
        [ List.hd row ])
  in
  List.hd out

let lower_reduce b ~opname x =
  let shape = shape_of x in
  let n = Cinm_support.Util.product_of_shape shape in
  let x1 = Cinm_d.expand b x ~shape:[| n |] in
  let c0 = Arith.const_index b 0 in
  let c1 = Arith.const_index b 1 in
  let cn = Arith.const_index b n in
  let first = Tensor_d.extract b x1 [ c0 ] in
  let out =
    Scf_d.for_ b ~lb:c1 ~ub:cn ~step:c1 ~init:[ first ] (fun bb i iters ->
        [ Cinm_to_cnm.scalar_binop bb opname iters.(0) (Tensor_d.extract bb x1 [ i ]) ])
  in
  List.hd out

let pattern : Rewrite.pattern =
 fun ctx op ->
  if Ir.dialect_of op <> "cinm" || not (is_host_target op) then None
  else begin
    let b = ctx.Rewrite.b in
    let opd i = Rewrite.operand ctx op i in
    let base = String.sub op.Ir.name 5 (String.length op.Ir.name - 5) in
    match base with
    | _ when List.mem base Cinm_d.elementwise_binary ->
      Some (Rewrite.Replace [ lower_elementwise b ~opname:base (opd 0) (opd 1) ])
    | "gemm" -> Some (Rewrite.Replace [ lower_gemm b (opd 0) (opd 1) ])
    | "gemv" ->
      let x = opd 1 in
      let k_dim = (shape_of x).(0) in
      let m = (shape_of (opd 0)).(0) in
      let x_mat = Cinm_d.expand b x ~shape:[| k_dim; 1 |] in
      let res = lower_gemm b (opd 0) x_mat in
      Some (Rewrite.Replace [ Cinm_d.expand b res ~shape:[| m |] ])
    | "reduce" ->
      Some (Rewrite.Replace [ lower_reduce b ~opname:(Ir.str_attr op "op") (opd 0) ])
    | _ -> None
  end

let pass = Pass.of_patterns ~name:"cinm-to-scf" [ pattern ]
