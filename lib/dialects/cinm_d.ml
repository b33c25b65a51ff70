(* cinm dialect: the hardware-oblivious entry point of the CINM flow.
   Implements the full operation set of paper Table 1, plus the im2col /
   expand helpers used by the convolution-to-GEMM rewrite (paper Fig. 5).

   Ops carry an optional "target" attribute ("cim" | "cnm" | "host") set by
   the target-selection pass (§3.2.2). *)

open Cinm_ir

let dialect =
  Dialect.register ~name:"cinm"
    ~description:"hardware-oblivious compute-in/near-memory abstraction"

(* Table 1: which paradigm supports which op. Used by target selection. *)
type support = { cim : bool; cnm : bool }

let op_support : (string * support) list =
  [
    ("cinm.add", { cim = true; cnm = true });
    ("cinm.sub", { cim = true; cnm = true });
    ("cinm.mul", { cim = true; cnm = true });
    ("cinm.div", { cim = false; cnm = true });
    ("cinm.min", { cim = true; cnm = true });
    ("cinm.max", { cim = true; cnm = true });
    ("cinm.and", { cim = true; cnm = true });
    ("cinm.or", { cim = true; cnm = true });
    ("cinm.xor", { cim = true; cnm = true });
    ("cinm.not", { cim = true; cnm = true });
    ("cinm.gemv", { cim = true; cnm = true });
    ("cinm.gemm", { cim = true; cnm = true });
    ("cinm.transpose", { cim = false; cnm = true });
    ("cinm.histogram", { cim = false; cnm = true });
    ("cinm.majority", { cim = false; cnm = true });
    ("cinm.topk", { cim = false; cnm = true });
    ("cinm.sim_search", { cim = true; cnm = true });
    ("cinm.merge_partial", { cim = true; cnm = true });
    ("cinm.pop_count", { cim = true; cnm = false });
    ("cinm.reduce", { cim = false; cnm = true });
    ("cinm.scan", { cim = false; cnm = true });
    ("cinm.im2col", { cim = false; cnm = true });
    ("cinm.expand", { cim = false; cnm = true });
  ]

let support_of name = List.assoc_opt name op_support

let elementwise_binary = [ "add"; "sub"; "mul"; "div"; "min"; "max"; "and"; "or"; "xor" ]

let () =
  List.iter
    (fun name ->
      ignore
        (Dialect.add_op dialect name
           ~summary:("element-wise " ^ name ^ " (Table 1)")
           ~verify:Arith.same_operands_and_result))
    elementwise_binary

let _ =
  Dialect.add_op dialect "not" ~summary:"element-wise bitwise not (Table 1)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect
        (Types.equal (Ir.operand op 0).Ir.ty (Ir.result op 0).Ir.ty)
        "cinm.not: result type must match operand")

let _ =
  Dialect.add_op dialect "gemm" ~summary:"matrix-matrix product (Table 1)"
    ~verify:Linalg_d.matmul_verify

let _ =
  Dialect.add_op dialect "gemv" ~summary:"matrix-vector product (Table 1)"
    ~verify:Linalg_d.matvec_verify

let _ =
  Dialect.add_op dialect "transpose" ~summary:"transposition (Table 1)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () -> expect_attr op "perms")

let _ =
  Dialect.add_op dialect "histogram" ~summary:"histogram (Table 1)" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "bins" >>= fun () ->
      match Types.shape_of (Ir.result op 0).Ir.ty with
      | Some [| k |] -> expect (k = Ir.int_attr op "bins") "cinm.histogram: result dim <> bins"
      | _ -> Error "cinm.histogram: result must be rank-1")

let _ =
  Dialect.add_op dialect "majority" ~summary:"bit-wise majority (Table 1)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () -> expect_results op 1)

let _ =
  Dialect.add_op dialect "topk" ~summary:"k largest values & indices (Table 1)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 2 >>= fun () ->
      expect_attr op "k" >>= fun () ->
      match
        (Types.shape_of (Ir.result op 0).Ir.ty, Types.shape_of (Ir.result op 1).Ir.ty)
      with
      | Some [| k0 |], Some [| k1 |] ->
        let k = Ir.int_attr op "k" in
        expect (k0 = k && k1 = k) "cinm.topk: result dims must equal k"
      | _ -> Error "cinm.topk: results must be rank-1")

let _ =
  Dialect.add_op dialect "sim_search"
    ~summary:"k most similar values & indices with a metric (Table 1)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 2 >>= fun () ->
      expect_results op 2 >>= fun () ->
      expect_attr op "metric" >>= fun () -> expect_attr op "k")

let _ =
  Dialect.add_op dialect "merge_partial"
    ~summary:"merge partial results of a hardware op (Table 1)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 2 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "op" >>= fun () -> expect_same_type op 0 1)

let _ =
  Dialect.add_op dialect "pop_count" ~summary:"count 1s in a bit vector (Table 1)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () -> expect_results op 1)

let _ =
  Dialect.add_op dialect "reduce" ~summary:"monoid reduction (Table 1)" ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () -> expect_attr op "op")

let _ =
  Dialect.add_op dialect "scan" ~summary:"inclusive scan (Table 1)" ~verify:(fun op ->
      let open Dialect in
      (* a fused scan (pre_expr attribute, set by ew-fusion) takes the
         elementwise chain's leaves as operands *)
      (if Ir.attr op "pre_expr" = None then expect_operands op 1
       else expect (Ir.num_operands op >= 1) "cinm.scan: needs at least one operand")
      >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect_attr op "op" >>= fun () ->
      expect
        (Types.equal (Ir.operand op 0).Ir.ty (Ir.result op 0).Ir.ty)
        "cinm.scan: result type must match operand")

let _ =
  Dialect.add_op dialect "im2col" ~summary:"image-to-column rewrite of conv (Fig. 5)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () -> expect_attr op "kernel")

let _ =
  Dialect.add_op dialect "expand" ~summary:"reshape GEMM result to conv output (Fig. 5)"
    ~verify:(fun op ->
      let open Dialect in
      expect_operands op 1 >>= fun () ->
      expect_results op 1 >>= fun () ->
      expect
        (Types.num_elements (Ir.operand op 0).Ir.ty
        = Types.num_elements (Ir.result op 0).Ir.ty)
        "cinm.expand: element count must be preserved")

(* Fused elementwise expression (paper §2.4: compilers can fuse operations
   to reduce data movement, unlike device libraries). The "expr" attribute
   is an RPN token list over the operands: "inK" pushes operand K's
   element, "constC" pushes the literal C, and an op name combines the two
   top-of-stack values. Produced by the ew-fusion pass. *)
let _ =
  Dialect.add_op dialect "ew_expr" ~summary:"fused element-wise expression"
    ~verify:(fun op ->
      let open Dialect in
      expect_results op 1 >>= fun () ->
      expect_attr op "expr" >>= fun () ->
      expect (Ir.num_operands op >= 1) "cinm.ew_expr: needs at least one input"
      >>= fun () ->
      let ok = ref (Ok ()) in
      Array.iter
        (fun (v : Ir.value) ->
          if not (Types.equal v.Ir.ty (Ir.result op 0).Ir.ty) then
            ok := Error "cinm.ew_expr: all operands must match the result type")
        op.Ir.operands;
      !ok)

(* An RPN expression (cinm.ew_expr / fused-scan encoding) as a tree: its
   post-order is the token order. *)
type 'op rpn = In of int | Const of int | Op of 'op * 'op rpn * 'op rpn

let parse_rpn (tokens : string list) : string rpn =
  let stack =
    List.fold_left
      (fun stack tok ->
        if String.length tok > 2 && String.sub tok 0 2 = "in" then
          In (int_of_string (String.sub tok 2 (String.length tok - 2))) :: stack
        else if String.length tok > 5 && String.sub tok 0 5 = "const" then
          Const (int_of_string (String.sub tok 5 (String.length tok - 5))) :: stack
        else
          match stack with
          | rhs :: lhs :: rest -> Op (tok, lhs, rhs) :: rest
          | _ -> invalid_arg "cinm.ew_expr: malformed RPN")
      [] tokens
  in
  match stack with
  | [ v ] -> v
  | _ -> invalid_arg "cinm.ew_expr: RPN does not reduce to one value"

(* Evaluation over an abstract value domain, in token order; the kernel
   generators build IR with it. *)
let eval_rpn ~(tokens : string list) ~(input : int -> 'a) ~(const : int -> 'a)
    ~(apply : string -> 'a -> 'a -> 'a) : 'a =
  let rec go = function
    | In k -> input k
    | Const c -> const c
    | Op (name, l, r) ->
      let a = go l in
      let b = go r in
      apply name a b
  in
  go (parse_rpn tokens)

let ensure () = ignore dialect

(* ----- constructors ----- *)

let binop b name x y =
  Builder.build1 b ("cinm." ^ name) ~operands:[ x; y ] ~result_tys:[ x.Ir.ty ]

let add b x y = binop b "add" x y
let sub b x y = binop b "sub" x y
let mul b x y = binop b "mul" x y
let div b x y = binop b "div" x y
let min_ b x y = binop b "min" x y
let max_ b x y = binop b "max" x y
let and_ b x y = binop b "and" x y
let or_ b x y = binop b "or" x y
let xor b x y = binop b "xor" x y

let not_ b x = Builder.build1 b "cinm.not" ~operands:[ x ] ~result_tys:[ x.Ir.ty ]

let gemm b x y =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  match (Types.shape_of x.Ir.ty, Types.shape_of y.Ir.ty) with
  | Some [| m; _ |], Some [| _; n |] ->
    Builder.build1 b "cinm.gemm" ~operands:[ x; y ]
      ~result_tys:[ Types.Tensor ([| m; n |], dt) ]
  | _ -> invalid_arg "Cinm_d.gemm"

let gemv b x y =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  match Types.shape_of x.Ir.ty with
  | Some [| m; _ |] ->
    Builder.build1 b "cinm.gemv" ~operands:[ x; y ]
      ~result_tys:[ Types.Tensor ([| m |], dt) ]
  | _ -> invalid_arg "Cinm_d.gemv"

let transpose b x ~perms =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  let shape = Option.get (Types.shape_of x.Ir.ty) in
  let out_shape = Array.map (fun p -> shape.(p)) perms in
  Builder.build1 b "cinm.transpose" ~operands:[ x ]
    ~attrs:[ ("perms", Attr.Ints perms) ]
    ~result_tys:[ Types.Tensor (out_shape, dt) ]

let histogram b x ~bins =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  Builder.build1 b "cinm.histogram" ~operands:[ x ]
    ~attrs:[ ("bins", Attr.Int bins) ]
    ~result_tys:[ Types.Tensor ([| bins |], dt) ]

let majority b x =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  Builder.build1 b "cinm.majority" ~operands:[ x ] ~result_tys:[ Types.Tensor ([| 1 |], dt) ]

let topk b x ~k =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  let op =
    Builder.build b "cinm.topk" ~operands:[ x ]
      ~attrs:[ ("k", Attr.Int k) ]
      ~result_tys:[ Types.Tensor ([| k |], dt); Types.Tensor ([| k |], Types.I32) ]
  in
  (Ir.result op 0, Ir.result op 1)

let sim_search b ~metric ~k db query =
  let dt = Option.get (Types.element_dtype db.Ir.ty) in
  let op =
    Builder.build b "cinm.sim_search" ~operands:[ db; query ]
      ~attrs:[ ("metric", Attr.Str metric); ("k", Attr.Int k) ]
      ~result_tys:[ Types.Tensor ([| k |], dt); Types.Tensor ([| k |], Types.I32) ]
  in
  (Ir.result op 0, Ir.result op 1)

let merge_partial b ~op:merge_op x y =
  Builder.build1 b "cinm.merge_partial" ~operands:[ x; y ]
    ~attrs:[ ("op", Attr.Str merge_op) ]
    ~result_tys:[ x.Ir.ty ]

let pop_count b x =
  Builder.build1 b "cinm.pop_count" ~operands:[ x ] ~result_tys:[ Types.Scalar Types.I32 ]

let reduce b ~op:red_op x =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  Builder.build1 b "cinm.reduce" ~operands:[ x ]
    ~attrs:[ ("op", Attr.Str red_op) ]
    ~result_tys:[ Types.Scalar dt ]

let scan b ~op:scan_op x =
  Builder.build1 b "cinm.scan" ~operands:[ x ]
    ~attrs:[ ("op", Attr.Str scan_op) ]
    ~result_tys:[ x.Ir.ty ]

let ew_expr b ~tokens inputs =
  match inputs with
  | [] -> invalid_arg "Cinm_d.ew_expr: no inputs"
  | first :: _ ->
    Builder.build1 b "cinm.ew_expr" ~operands:inputs
      ~attrs:[ ("expr", Attr.Strs tokens) ]
      ~result_tys:[ first.Ir.ty ]

(* im2col of a HxW image for a KhxKw kernel: ((H-Kh+1)*(W-Kw+1)) x (Kh*Kw). *)
let im2col b img ~kh ~kw =
  let dt = Option.get (Types.element_dtype img.Ir.ty) in
  match Types.shape_of img.Ir.ty with
  | Some [| h; w |] ->
    let rows = (h - kh + 1) * (w - kw + 1) in
    Builder.build1 b "cinm.im2col" ~operands:[ img ]
      ~attrs:[ ("kernel", Attr.Ints [| kh; kw |]) ]
      ~result_tys:[ Types.Tensor ([| rows; kh * kw |], dt) ]
  | _ -> invalid_arg "Cinm_d.im2col"

let expand b x ~shape =
  let dt = Option.get (Types.element_dtype x.Ir.ty) in
  Builder.build1 b "cinm.expand" ~operands:[ x ]
    ~attrs:[ ("shape", Attr.Ints shape) ]
    ~result_tys:[ Types.Tensor (shape, dt) ]
