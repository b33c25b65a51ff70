(* linalg -> cinm conversion (paper §3.2.2): maps linalg named ops onto the
   cinm operation set (Table 1), canonicalizing kernels without a direct
   counterpart:
   - convolutions are rewritten as im2col + gemm + expand (paper Fig. 5);
   - tensor contractions (einsum) are rewritten as transpose + reshape +
     gemm + reshape + transpose, the OCC contraction-to-GEMM algorithm.
   Operators that cannot be converted stay in their original dialect and
   later run on the host. *)

open Cinm_ir
open Cinm_dialects

let elementwise =
  List.map
    (fun n -> ("linalg." ^ n, "cinm." ^ n))
    [ "add"; "sub"; "mul"; "div"; "min"; "max" ]

let elementwise_pattern : Rewrite.pattern =
 fun ctx op ->
  match List.assoc_opt op.Ir.name elementwise with
  | Some cinm_name ->
    let x = Rewrite.operand ctx op 0 and y = Rewrite.operand ctx op 1 in
    Some (Rewrite.Replace [ Builder.build1 ctx.Rewrite.b cinm_name ~operands:[ x; y ] ~result_tys:[ x.Ir.ty ] ])
  | None -> None

let matmul_pattern : Rewrite.pattern =
 fun ctx op ->
  match op.Ir.name with
  | "linalg.matmul" ->
    Some
      (Rewrite.Replace
         [ Cinm_d.gemm ctx.Rewrite.b (Rewrite.operand ctx op 0) (Rewrite.operand ctx op 1) ])
  | "linalg.matvec" ->
    Some
      (Rewrite.Replace
         [ Cinm_d.gemv ctx.Rewrite.b (Rewrite.operand ctx op 0) (Rewrite.operand ctx op 1) ])
  | "linalg.dot" ->
    let b = ctx.Rewrite.b in
    let x = Rewrite.operand ctx op 0 and y = Rewrite.operand ctx op 1 in
    let prod = Cinm_d.mul b x y in
    Some (Rewrite.Replace [ Cinm_d.reduce b ~op:"add" prod ])
  | "linalg.transpose" ->
    Some
      (Rewrite.Replace
         [
           Cinm_d.transpose ctx.Rewrite.b (Rewrite.operand ctx op 0)
             ~perms:(Ir.ints_attr op "perms");
         ])
  | "linalg.reduce" ->
    Some
      (Rewrite.Replace
         [
           Cinm_d.reduce ctx.Rewrite.b ~op:(Ir.str_attr op "op")
             (Rewrite.operand ctx op 0);
         ])
  | _ -> None

(* Convolution -> im2col + gemm + expand (paper Fig. 5). *)
let conv_pattern : Rewrite.pattern =
 fun ctx op ->
  match op.Ir.name with
  | "linalg.conv_2d" -> (
    let b = ctx.Rewrite.b in
    let img = Rewrite.operand ctx op 0 and kernel = Rewrite.operand ctx op 1 in
    match (Types.shape_of img.Ir.ty, Types.shape_of kernel.Ir.ty) with
    | Some [| h; w |], Some [| kh; kw |] ->
      let cols = Cinm_d.im2col b img ~kh ~kw in
      let kvec = Cinm_d.expand b kernel ~shape:[| kh * kw; 1 |] in
      let mm = Cinm_d.gemm b cols kvec in
      let out = Cinm_d.expand b mm ~shape:[| h - kh + 1; w - kw + 1 |] in
      Some (Rewrite.Replace [ out ])
    | _ -> None)
  | _ -> None

(* ----- contraction-to-GEMM rewriting ----- *)

let chars s = List.init (String.length s) (String.get s)

let perm_to target source =
  Array.of_list
    (List.map
       (fun c ->
         match String.index_opt source c with
         | Some i -> i
         | None -> invalid_arg "einsum perm: index not found")
       (chars target))

let is_identity_perm perms = Array.for_all2 ( = ) perms (Array.init (Array.length perms) Fun.id)

let maybe_transpose b v perms =
  if is_identity_perm perms then v else Cinm_d.transpose b v ~perms

let einsum_pattern : Rewrite.pattern =
 fun ctx op ->
  match op.Ir.name with
  | "linalg.einsum" -> (
    let spec = Ir.str_attr op "spec" in
    let a_idx, b_idx, out_idx = Linalg_d.parse_einsum_spec spec in
    match Linalg_d.plan_einsum a_idx b_idx out_idx with
    | Error _ | Ok { batch_idx = _ :: _; _ } -> None (* not a pure contraction: host *)
    | Ok { m_idx; n_idx; k_idx; batch_idx = [] } ->
      let b = ctx.Rewrite.b in
      let va = Rewrite.operand ctx op 0 and vb = Rewrite.operand ctx op 1 in
      let a_shape = Option.get (Types.shape_of va.Ir.ty) in
      let b_shape = Option.get (Types.shape_of vb.Ir.ty) in
      let dim_of idx_str shape c =
        match String.index_opt idx_str c with
        | Some i -> shape.(i)
        | None -> invalid_arg "einsum dim"
      in
      let str_of l = String.init (List.length l) (List.nth l) in
      let prod idx_str shape l =
        List.fold_left (fun acc c -> acc * dim_of idx_str shape c) 1 l
      in
      let m = prod a_idx a_shape m_idx in
      let k = prod a_idx a_shape k_idx in
      let n = prod b_idx b_shape n_idx in
      (* A -> (M..., K...) -> [M, K] *)
      let a_t = maybe_transpose b va (perm_to (str_of (m_idx @ k_idx)) a_idx) in
      let a_mat = Cinm_d.expand b a_t ~shape:[| m; k |] in
      (* B -> (K..., N...) -> [K, N] *)
      let b_t = maybe_transpose b vb (perm_to (str_of (k_idx @ n_idx)) b_idx) in
      let b_mat = Cinm_d.expand b b_t ~shape:[| k; n |] in
      let mm = Cinm_d.gemm b a_mat b_mat in
      (* [M, N] -> (M..., N...) -> out order *)
      let mn_idx = str_of (m_idx @ n_idx) in
      let mn_shape =
        Array.of_list
          (List.map (fun c ->
               if List.mem c m_idx then dim_of a_idx a_shape c else dim_of b_idx b_shape c)
             (m_idx @ n_idx))
      in
      let expanded = Cinm_d.expand b mm ~shape:mn_shape in
      let final = maybe_transpose b expanded (perm_to out_idx mn_idx) in
      Some (Rewrite.Replace [ final ]))
  | _ -> None

let patterns = [ elementwise_pattern; matmul_pattern; conv_pattern; einsum_pattern ]

let pass = Pass.of_patterns ~name:"linalg-to-cinm" patterns
