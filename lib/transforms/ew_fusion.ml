(* Elementwise fusion at the cinm level (paper §2.4: "libraries use kernels
   as-is, while compilers like ours, if the device supports it, can fuse
   operations to reduce the data movement").

   A chain of cinm elementwise ops whose intermediate results have a
   single use is folded into one cinm.ew_expr carrying the chain as an RPN
   expression; tensor.splat constants become literals. The subsequent
   cinm-to-cnm lowering then emits a single launch for the whole chain
   instead of one launch (with full scatter/gather traffic) per op. *)

open Cinm_ir

let fusable_names = List.map (fun n -> "cinm." ^ n) Cinm_dialects.Cinm_d.elementwise_binary

let opname_of op = String.sub op.Ir.name 5 (String.length op.Ir.name - 5)

let is_fusable (op : Ir.op) =
  List.mem op.Ir.name fusable_names
  &&
  match Ir.attr op "target" with
  | Some (Attr.Str "cnm") | None -> true
  | _ -> false

let splat_constant (v : Ir.value) =
  match v.Ir.def with
  | Ir.Op_result (op, 0) when op.Ir.name = "tensor.splat" ->
    Transform_util.constant_of (Ir.operand op 0)
  | _ -> None

(* Count uses of every value in the function. *)
let use_counts (f : Func.t) =
  let counts = Hashtbl.create 256 in
  Func.walk
    (fun op ->
      Array.iter
        (fun (v : Ir.value) ->
          Hashtbl.replace counts v.Ir.vid
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v.Ir.vid)))
        op.Ir.operands)
    f;
  counts

(* Map from value id to its unique consumer, when there is exactly one. *)
let sole_consumers (f : Func.t) =
  let consumers = Hashtbl.create 256 in
  Func.walk
    (fun op ->
      Array.iter
        (fun (v : Ir.value) ->
          match Hashtbl.find_opt consumers v.Ir.vid with
          | None -> Hashtbl.replace consumers v.Ir.vid (Some op)
          | Some _ -> Hashtbl.replace consumers v.Ir.vid None)
        op.Ir.operands)
    f;
  consumers

let is_cnm_scan (op : Ir.op) =
  op.Ir.name = "cinm.scan"
  && Ir.attr op "pre_expr" = None
  && match Ir.attr op "target" with Some (Attr.Str "cnm") -> true | _ -> false

let run_on_func (f : Func.t) =
  let counts = use_counts f in
  let consumers = sole_consumers f in
  let uses (v : Ir.value) = Option.value ~default:0 (Hashtbl.find_opt counts v.Ir.vid) in
  (* Build the RPN for a value; [leaves] accumulates non-constant inputs. *)
  let rec rpn_of (leaves : Ir.value list ref) (v : Ir.value) ~is_root : string list =
    match splat_constant v with
    | Some c -> [ "const" ^ string_of_int c ]
    | None -> (
      match v.Ir.def with
      | Ir.Op_result (op, 0) when is_fusable op && (is_root || uses v = 1) ->
        let lhs = rpn_of leaves (Ir.operand op 0) ~is_root:false in
        let rhs = rpn_of leaves (Ir.operand op 1) ~is_root:false in
        lhs @ rhs @ [ opname_of op ]
      | _ ->
        (* leaf input: reuse the index if this value is already a leaf *)
        let rec index i = function
          | [] ->
            leaves := !leaves @ [ v ];
            i
          | (w : Ir.value) :: _ when w.Ir.vid = v.Ir.vid -> i
          | _ :: rest -> index (i + 1) rest
        in
        [ "in" ^ string_of_int (index 0 !leaves) ])
  in
  (* A chain root: a fusable op whose result is NOT consumed by another
     fusable op with a single use of it (i.e. not in the middle of a
     chain), and which actually has something to fuse. *)
  let consumed_by_fusable = Hashtbl.create 64 in
  Func.walk
    (fun op ->
      if is_fusable op then
        Array.iter
          (fun (v : Ir.value) ->
            if uses v = 1 then Hashtbl.replace consumed_by_fusable v.Ir.vid ())
          op.Ir.operands)
    f;
  (* Roots fuse only in the function's top-level blocks; the driver
     converts the rest (and redirects the root's uses) unchanged. *)
  let top_level (op : Ir.op) =
    match op.Ir.parent with
    | Some { Ir.parent_region = Some r; _ } -> r == f.Func.body
    | _ -> false
  in
  let fuse ctx (op : Ir.op) =
    let is_root =
      top_level op && is_fusable op
      && not (Hashtbl.mem consumed_by_fusable (Ir.result op 0).Ir.vid)
    in
    let worth_fusing =
      is_root
      && Array.exists
           (fun (v : Ir.value) ->
             splat_constant v <> None
             ||
             match v.Ir.def with
             | Ir.Op_result (d, 0) -> is_fusable d && uses v = 1
             | _ -> false)
           op.Ir.operands
    in
    if not worth_fusing then None
    else begin
      let leaves = ref [] in
      let tokens = rpn_of leaves (Ir.result op 0) ~is_root:true in
      if !leaves = [] then None
        (* every operand folded to a splat literal: a pure-constant
           expression has no tensor inputs to carry, and ew_expr
           requires at least one — leave it for the canonicalizer *)
      else
      (* if the chain feeds exactly one cnm scan, fold it into the
         scan (PrIM-style fused predicate + prefix sum); the driver
         converts the edited scan when it reaches it *)
      let scan_consumer =
        match Hashtbl.find_opt consumers (Ir.result op 0).Ir.vid with
        | Some (Some c) when is_cnm_scan c -> Some c
        | _ -> None
      in
      match scan_consumer with
      | Some scan_op ->
        scan_op.Ir.operands <- Array.of_list !leaves;
        Ir.set_attr scan_op "pre_expr" (Attr.Strs tokens);
        None (* root becomes dead; DCE removes it *)
      | None ->
        let fused =
          Builder.build1 ctx.Rewrite.b "cinm.ew_expr"
            ~operands:(List.map (Rewrite.lookup ctx) !leaves)
            ~result_tys:[ (Ir.result op 0).Ir.ty ]
            ~attrs:
              (("expr", Attr.Strs tokens)
              :: (match Ir.attr op "target" with
                 | Some t -> [ ("target", t) ]
                 | None -> []))
        in
        Some (Rewrite.Replace [ fused ])
    end
  in
  Rewrite.apply_to_func ~patterns:[ fuse ] f

let pass =
  Pass.create ~name:"cinm-ew-fusion" (fun m ->
      List.iter run_on_func m.Func.funcs;
      List.iter Dce.run_on_func m.Func.funcs)
