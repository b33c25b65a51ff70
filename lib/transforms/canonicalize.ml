(* Canonicalization: constant folding of scalar arith ops and common
   subexpression elimination of pure, region-free ops, as two rewrite
   patterns followed by DCE. Run after lowering passes to clean up the
   index arithmetic and duplicate constants the kernel generators emit.

   CSE is per-block (ops in nested regions only see their own block's
   memo), so isolated-from-above regions (cnm.launch bodies) can never
   capture a value hoisted across their boundary. *)

open Cinm_ir

let foldable =
  [ "arith.addi"; "arith.subi"; "arith.muli"; "arith.divsi"; "arith.remsi";
    "arith.minsi"; "arith.maxsi"; "arith.andi"; "arith.ori"; "arith.xori" ]

(* integer semantics of the fold (independent of the interpreter lib) *)
let fold_scalar name a b =
  match name with
  | "arith.addi" -> a + b
  | "arith.subi" -> a - b
  | "arith.muli" -> a * b
  | "arith.divsi" -> if b = 0 then 0 else a / b
  | "arith.remsi" -> if b = 0 then 0 else a mod b
  | "arith.minsi" -> min a b
  | "arith.maxsi" -> max a b
  | "arith.andi" -> a land b
  | "arith.ori" -> a lor b
  | "arith.xori" -> a lxor b
  | other -> invalid_arg ("canonicalize: fold " ^ other)

(* Fold results must wrap to the result width, or non-congruent ops
   (min/max/div) downstream would see different values than the wrapped
   runtime semantics. *)
let wrap_to_result (op : Ir.op) x =
  match (Ir.result op 0).Ir.ty with
  | Types.Scalar dt when not (Types.is_float_dtype dt) && dt <> Types.I64 ->
    let bits = Types.dtype_bits dt in
    let m = x land ((1 lsl bits) - 1) in
    if m >= 1 lsl (bits - 1) then m - (1 lsl bits) else m
  | _ -> x

(* Fold an integer binop whose converted operands are both constants
   into a fresh constant; a folded result feeds the next fold through the
   driver's env, so chains collapse in one run. *)
let fold ctx (op : Ir.op) =
  if not (List.mem op.Ir.name foldable) then None
  else
    match
      ( Transform_util.constant_of (Rewrite.operand ctx op 0),
        Transform_util.constant_of (Rewrite.operand ctx op 1) )
    with
    | Some a, Some b ->
      let value =
        wrap_to_result op
          (fold_scalar op.Ir.name (wrap_to_result op a) (wrap_to_result op b))
      in
      Some
        (Rewrite.Replace
           [ Builder.build1 ctx.Rewrite.b "arith.constant"
               ~attrs:[ ("value", Attr.Int value) ]
               ~result_tys:[ (Ir.result op 0).Ir.ty ] ])
    | _ -> None

(* What makes two ops the same computation. The op's original parent
   block keeps CSE per block; operands are converted values, so earlier
   merges make later ops match. Attributes compare with [Attr.equal]
   (floats by bit pattern: 0.0 and -0.0 stay apart). *)
module Key = struct
  type t = {
    block : int;
    name : string;
    operands : int list;
    attrs : (string * Attr.t) list;  (** sorted by name *)
    result_tys : Types.t list;
  }

  let equal a b =
    a.block = b.block && a.name = b.name && a.operands = b.operands
    && List.equal (fun (k, x) (l, y) -> k = l && Attr.equal x y) a.attrs b.attrs
    && List.equal Types.equal a.result_tys b.result_tys

  let hash = Hashtbl.hash
end

module Memo = Hashtbl.Make (Key)

let cse_eligible (op : Ir.op) =
  Array.length op.Ir.regions = 0
  && Array.length op.Ir.results > 0
  &&
  match Ir.dialect_of op with
  | "arith" -> true
  | "tensor" -> op.Ir.name <> "tensor.empty" (* distinct buffers on purpose *)
  | _ -> false

let cse memo ctx (op : Ir.op) =
  match op.Ir.parent with
  | Some block when cse_eligible op -> (
    let key =
      { Key.block = block.Ir.bid;
        name = op.Ir.name;
        operands = List.map (fun (v : Ir.value) -> v.Ir.vid) (Rewrite.operands ctx op);
        attrs = List.sort (fun (a, _) (b, _) -> String.compare a b) op.Ir.attrs;
        result_tys = Array.to_list (Array.map (fun (v : Ir.value) -> v.Ir.ty) op.Ir.results) }
    in
    match Memo.find_opt memo key with
    | Some (prior : Ir.op) ->
      Some (Rewrite.Replace (Array.to_list (Array.map (Rewrite.lookup ctx) prior.Ir.results)))
    | None ->
      Memo.add memo key op;
      None)
  | _ -> None

let run_on_func (f : Func.t) =
  Rewrite.apply_to_func ~patterns:[ fold; cse (Memo.create 64) ] f;
  Dce.run_on_func f

let pass =
  Pass.create ~name:"canonicalize" (fun m -> List.iter run_on_func m.Func.funcs)
