(* IR verifier: op registration, per-op structural invariants (delegated to
   dialect op definitions), and SSA scoping/dominance within the single
   block-per-region structure the CINM pipeline uses. *)

type error = { in_func : string; message : string }

let error_to_string e = Printf.sprintf "in @%s: %s" e.in_func e.message

let verify_op_registered (op : Ir.op) =
  match Dialect.find_op op.Ir.name with
  | Some def -> def.Dialect.verify op
  | None -> Error (Printf.sprintf "unregistered operation %S" op.Ir.name)

(* Walk a region with a scope of visible value ids. Regions may capture
   values that dominate their parent op (MLIR semantics), except for ops
   that are [isolated_from_above] (cnm.launch bodies must only reference
   their block arguments, cf. paper Section 3.2.3). *)
let isolated_from_above = [ "cnm.launch"; "upmem.launch" ]

(* One walk over a function. [scope] holds the ids visible at the current
   op: a block adds its arguments and each op's results as it goes and
   removes them when it ends ([add]/[remove] stack, so a shadowed id
   stays visible outside). Errors accumulate newest first. *)
module Scope = Hashtbl.Make (Int)

type walk = { mutable fname : string; mutable errs : error list }

let report w message = w.errs <- { in_func = w.fname; message } :: w.errs

let rec verify_region w scope (region : Ir.region) =
  Ir.iter_blocks (verify_block w scope) region

and verify_block w scope (block : Ir.block) =
  let bind (v : Ir.value) = Scope.add scope v.Ir.vid () in
  let unbind (v : Ir.value) = Scope.remove scope v.Ir.vid in
  Array.iter bind block.Ir.args;
  Ir.iter_ops
    (fun op ->
      verify_op w scope op;
      Array.iter bind op.Ir.results)
    block;
  Ir.iter_ops (fun op -> Array.iter unbind op.Ir.results) block;
  Array.iter unbind block.Ir.args

and verify_op w scope (op : Ir.op) =
  (match verify_op_registered op with Ok () -> () | Error m -> report w m);
  Array.iter
    (fun (v : Ir.value) ->
      if not (Scope.mem scope v.Ir.vid) then
        report w
          (Printf.sprintf "%s: operand %%%d (%s) does not dominate its use" op.Ir.name
             v.Ir.vid (Types.to_string v.Ir.ty)))
    op.Ir.operands;
  if Array.length op.Ir.regions > 0 then begin
    let inner =
      if List.mem op.Ir.name isolated_from_above then Scope.create 16 else scope
    in
    Array.iter (verify_region w inner) op.Ir.regions
  end

let verify_funcs funcs =
  let w = { fname = ""; errs = [] } in
  (* every walk leaves the scope empty again *)
  let scope = Scope.create 64 in
  List.iter
    (fun (f : Func.t) ->
      w.fname <- f.Func.fname;
      (* The entry block args must match the declared parameter types. *)
      let entry = Func.entry_block f in
      let actual = Array.to_list (Array.map (fun (v : Ir.value) -> v.Ir.ty) entry.Ir.args) in
      if actual <> f.Func.arg_tys then report w "entry block args do not match signature";
      verify_region w scope f.Func.body)
    funcs;
  List.rev w.errs

let verify_func f = verify_funcs [ f ]

let verify_module (m : Func.modul) = verify_funcs m.Func.funcs

exception Verification_failed of string

let verify_module_exn m =
  match verify_module m with
  | [] -> ()
  | errs ->
    raise (Verification_failed (String.concat "\n" (List.map error_to_string errs)))
