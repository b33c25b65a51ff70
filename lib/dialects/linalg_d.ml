(* linalg dialect: the device-independent front-end abstraction of the CINM
   flow (paper Fig. 3b). Value-semantics named ops; the subset needed by
   the paper's benchmarks plus a generalized einsum for contractions. *)

open Cinm_ir

let dialect = Dialect.register ~name:"linalg" ~description:"linear algebra named ops"

let elementwise_verify = Arith.same_operands_and_result

let matmul_verify op =
  let open Dialect in
  expect_operands op 2 >>= fun () ->
  expect_results op 1 >>= fun () ->
  match
    ( Types.shape_of (Ir.operand op 0).Ir.ty,
      Types.shape_of (Ir.operand op 1).Ir.ty,
      Types.shape_of (Ir.result op 0).Ir.ty )
  with
  | Some [| m; k |], Some [| k'; n |], Some [| m'; n' |] ->
    expect (k = k' && m = m' && n = n') "linalg.matmul: dimension mismatch"
  | _ -> Error "linalg.matmul: operands must be rank-2"

let matvec_verify op =
  let open Dialect in
  expect_operands op 2 >>= fun () ->
  expect_results op 1 >>= fun () ->
  match
    ( Types.shape_of (Ir.operand op 0).Ir.ty,
      Types.shape_of (Ir.operand op 1).Ir.ty,
      Types.shape_of (Ir.result op 0).Ir.ty )
  with
  | Some [| m; n |], Some [| n' |], Some [| m' |] ->
    expect (n = n' && m = m') "linalg.matvec: dimension mismatch"
  | _ -> Error "linalg.matvec: operand ranks must be (2, 1)"

let conv_2d_verify op =
  let open Dialect in
  expect_operands op 2 >>= fun () ->
  expect_results op 1 >>= fun () ->
  match
    ( Types.shape_of (Ir.operand op 0).Ir.ty,
      Types.shape_of (Ir.operand op 1).Ir.ty,
      Types.shape_of (Ir.result op 0).Ir.ty )
  with
  | Some [| h; w |], Some [| kh; kw |], Some [| oh; ow |] ->
    expect
      (oh = h - kh + 1 && ow = w - kw + 1)
      "linalg.conv_2d: output shape must be (H-Kh+1)x(W-Kw+1)"
  | _ -> Error "linalg.conv_2d: operands must be rank-2"

let binary_elementwise = [ "add"; "sub"; "mul"; "div"; "min"; "max" ]

let () =
  List.iter
    (fun name ->
      ignore
        (Dialect.add_op dialect name
           ~summary:("elementwise " ^ name)
           ~verify:elementwise_verify))
    binary_elementwise

let _ = Dialect.add_op dialect "matmul" ~summary:"matrix-matrix product" ~verify:matmul_verify
let _ = Dialect.add_op dialect "matvec" ~summary:"matrix-vector product" ~verify:matvec_verify
let _ = Dialect.add_op dialect "conv_2d" ~summary:"2D convolution" ~verify:conv_2d_verify

let _ =
  Dialect.add_op dialect "dot" ~summary:"vector dot product" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 2 >>= fun () ->
      expect_results op 1 >>= fun () -> expect_same_type op 0 1)

let _ =
  Dialect.add_op dialect "fill" ~summary:"fill tensor with scalar" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () -> expect_results op 1)

let _ =
  Dialect.add_op dialect "transpose" ~summary:"permute dimensions" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "perms" >>= fun () ->
      let perms = Ir.ints_attr op "perms" in
      expect
        (Array.length perms = Types.rank (Ir.operand op 0).Ir.ty)
        "linalg.transpose: perms rank mismatch")

let _ =
  Dialect.add_op dialect "reduce" ~summary:"reduce all elements with a monoid"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () -> expect_attr op "op")

let _ =
  Dialect.add_op dialect "broadcast" ~summary:"broadcast a vector along new leading dims"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      match
        (Types.shape_of (Ir.operand op 0).Ir.ty, Types.shape_of (Ir.result op 0).Ir.ty)
      with
      | Some src, Some dst ->
        let n = Array.length src and m = Array.length dst in
        expect
          (m > n && Array.sub dst (m - n) n = src)
          "linalg.broadcast: source must be a suffix of the result shape"
      | _ -> Error "linalg.broadcast: shaped operands required")

(* ----- einsum specs ----- *)

(* Parse an einsum spec into (input index strings, output index string). *)
let parse_einsum_spec spec =
  match String.index_opt spec '-' with
  | Some i when i + 1 < String.length spec && spec.[i + 1] = '>' ->
    let lhs = String.sub spec 0 i in
    let out = String.sub spec (i + 2) (String.length spec - i - 2) in
    (match String.split_on_char ',' lhs with
    | [ a; b2 ] -> (a, b2, out)
    | _ -> invalid_arg ("einsum: bad spec " ^ spec))
  | _ -> invalid_arg ("einsum: bad spec " ^ spec)

type einsum_plan = {
  batch_idx : char list;
  m_idx : char list;
  n_idx : char list;
  k_idx : char list;
}

type einsum_error =
  | Repeated_index of char * string
  | Free_reduction of char
  | Unbound_output of char

let einsum_error_message = function
  | Repeated_index (c, where) -> Printf.sprintf "index '%c' repeated in %s" c where
  | Free_reduction c -> Printf.sprintf "index '%c' is summed within one operand" c
  | Unbound_output c -> Printf.sprintf "output index '%c' is in neither input" c

(* The one contraction classifier: the host kernel ([Tensor.einsum]) and
   the device lowering ([Linalg_to_cinm]) both read it. *)
let plan_einsum a_idx b_idx out_idx =
  let chars s = List.init (String.length s) (String.get s) in
  let a = chars a_idx and b = chars b_idx and out = chars out_idx in
  let repeated where l =
    List.find_map
      (fun c ->
        if List.length (List.filter (Char.equal c) l) > 1 then Some (Repeated_index (c, where))
        else None)
      l
  in
  let in_a c = List.mem c a and in_b c = List.mem c b and in_out c = List.mem c out in
  match
    List.find_map Fun.id
      [
        repeated "the first operand" a;
        repeated "the second operand" b;
        repeated "the output" out;
        List.find_map (fun c -> if in_a c || in_b c then None else Some (Unbound_output c)) out;
        List.find_map
          (fun c -> if in_out c || (in_a c && in_b c) then None else Some (Free_reduction c))
          (a @ b);
      ]
  with
  | Some e -> Error e
  | None ->
    Ok
      {
        batch_idx = List.filter (fun c -> in_b c && in_out c) a;
        m_idx = List.filter (fun c -> in_out c && not (in_b c)) a;
        n_idx = List.filter (fun c -> in_out c && not (in_a c)) b;
        k_idx = List.filter (fun c -> in_b c && not (in_out c)) a;
      }

(* Generalized tensor contraction in Einstein notation, e.g. the paper's
   contrl: spec = "aebf,dfce->abcd" (§4.1.1). Verified to everything the
   host kernel needs: a classified spec, ranks, and one extent per
   index. *)
let einsum_verify op =
  let open Dialect in
  expect_operands op 2 >>= fun () ->
  expect_results op 1 >>= fun () ->
  expect_attr op "spec" >>= fun () ->
  match parse_einsum_spec (Ir.str_attr op "spec") with
  | exception Invalid_argument _ -> Error "linalg.einsum: spec must be 'A,B->C'"
  | a, b, out -> (
    match plan_einsum a b out with
    | Error e -> Error ("linalg.einsum: " ^ einsum_error_message e)
    | Ok _ -> (
      match
        ( Types.shape_of (Ir.operand op 0).Ir.ty,
          Types.shape_of (Ir.operand op 1).Ir.ty,
          Types.shape_of (Ir.result op 0).Ir.ty )
      with
      | Some sa, Some sb, Some so
        when Array.length sa = String.length a
             && Array.length sb = String.length b
             && Array.length so = String.length out ->
        let extents = Hashtbl.create 8 in
        let mismatch = ref None in
        List.iter
          (fun (idx, shape) ->
            String.iteri
              (fun i c ->
                match Hashtbl.find_opt extents c with
                | Some d when d <> shape.(i) && !mismatch = None ->
                  mismatch := Some (c, d, shape.(i))
                | Some _ -> ()
                | None -> Hashtbl.replace extents c shape.(i))
              idx)
          [ (a, sa); (b, sb); (out, so) ];
        (match !mismatch with
        | Some (c, d, d') ->
          Error (Printf.sprintf "linalg.einsum: index '%c' has extents %d and %d" c d d')
        | None -> Ok ())
      | _ -> Error "linalg.einsum: spec ranks must match operand/result ranks"))

let _ = Dialect.add_op dialect "einsum" ~summary:"einsum contraction" ~verify:einsum_verify

let ensure () = ignore dialect

(* ----- constructors ----- *)

let binop b name x y =
  Builder.build1 b ("linalg." ^ name) ~operands:[ x; y ] ~result_tys:[ x.Ir.ty ]

let add b x y = binop b "add" x y
let sub b x y = binop b "sub" x y
let mul b x y = binop b "mul" x y

let matmul b x y =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  match (Types.shape_of x.Ir.ty, Types.shape_of y.Ir.ty) with
  | Some [| m; _k |], Some [| _; n |] ->
    Builder.build1 b "linalg.matmul" ~operands:[ x; y ]
      ~result_tys:[ Types.Tensor ([| m; n |], dt) ]
  | _ -> invalid_arg "Linalg_d.matmul: rank-2 operands required"

let matvec b x y =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  match Types.shape_of x.Ir.ty with
  | Some [| m; _n |] ->
    Builder.build1 b "linalg.matvec" ~operands:[ x; y ]
      ~result_tys:[ Types.Tensor ([| m |], dt) ]
  | _ -> invalid_arg "Linalg_d.matvec: rank-2 matrix required"

let conv_2d b img kernel =
  let dt = Option.get (Types.element_dtype img.Ir.ty) in
  match (Types.shape_of img.Ir.ty, Types.shape_of kernel.Ir.ty) with
  | Some [| h; w |], Some [| kh; kw |] ->
    Builder.build1 b "linalg.conv_2d" ~operands:[ img; kernel ]
      ~result_tys:[ Types.Tensor ([| h - kh + 1; w - kw + 1 |], dt) ]
  | _ -> invalid_arg "Linalg_d.conv_2d: rank-2 operands required"

let dot b x y =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  Builder.build1 b "linalg.dot" ~operands:[ x; y ] ~result_tys:[ Types.Scalar dt ]

let fill b scalar shape dt =
  Builder.build1 b "linalg.fill" ~operands:[ scalar ]
    ~result_tys:[ Types.Tensor (shape, dt) ]

let transpose b x ~perms =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  let shape = Option.get (Types.shape_of x.Ir.ty) in
  let out_shape = Array.map (fun p -> shape.(p)) perms in
  Builder.build1 b "linalg.transpose" ~operands:[ x ]
    ~attrs:[ ("perms", Attr.Ints perms) ]
    ~result_tys:[ Types.Tensor (out_shape, dt) ]

let reduce b ~op:red_op x =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  Builder.build1 b "linalg.reduce" ~operands:[ x ]
    ~attrs:[ ("op", Attr.Str red_op) ]
    ~result_tys:[ Types.Scalar dt ]

let broadcast b x ~to_shape =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  Builder.build1 b "linalg.broadcast" ~operands:[ x ]
    ~result_tys:[ Types.Tensor (to_shape, dt) ]

let einsum b ~spec x y =
  let a_idx, b_idx, out_idx = parse_einsum_spec spec in
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  let a_shape = Option.get (Types.shape_of x.Ir.ty) in
  let b_shape = Option.get (Types.shape_of y.Ir.ty) in
  let dim_of c =
    match String.index_opt a_idx c with
    | Some i -> a_shape.(i)
    | None -> (
      match String.index_opt b_idx c with
      | Some i -> b_shape.(i)
      | None -> invalid_arg ("einsum: output index not found: " ^ String.make 1 c))
  in
  let out_shape = Array.init (String.length out_idx) (fun i -> dim_of out_idx.[i]) in
  Builder.build1 b "linalg.einsum" ~operands:[ x; y ]
    ~attrs:[ ("spec", Attr.Str spec) ]
    ~result_tys:[ Types.Tensor (out_shape, dt) ]
