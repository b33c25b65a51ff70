(* Dead code elimination for pure, region-free ops. Runs to fixpoint;
   used after fusion folds elementwise chains into cinm.ew_expr ops,
   leaving the original chain dead. The sweep itself takes the rule for
   which ops may go, so the reducer reuses it with a looser one. *)

open Cinm_ir

let pure_dialects = [ "arith"; "tensor"; "linalg"; "tosa"; "cinm" ]

let is_removable (op : Ir.op) =
  Array.length op.Ir.regions = 0
  && Array.length op.Ir.results > 0
  && List.mem (Ir.dialect_of op) pure_dialects

let sweep ~removable (f : Func.t) =
  let once () =
    let used = Hashtbl.create 256 in
    Func.walk
      (fun op ->
        Array.iter (fun (v : Ir.value) -> Hashtbl.replace used v.Ir.vid ()) op.Ir.operands)
      f;
    let keep op =
      (not (removable op))
      || Array.exists (fun (v : Ir.value) -> Hashtbl.mem used v.Ir.vid) op.Ir.results
    in
    let removed = ref false in
    let rec prune_region (region : Ir.region) =
      Ir.iter_blocks
        (fun block ->
          if Ir.filter_ops_in_place keep block then removed := true;
          Ir.iter_ops (fun op -> Array.iter prune_region op.Ir.regions) block)
        region
    in
    prune_region f.Func.body;
    !removed
  in
  let changed = once () in
  if changed then while once () do () done;
  changed

let run_on_func f = ignore (sweep ~removable:is_removable f)

let pass = Pass.create ~name:"dce" (fun m -> List.iter run_on_func m.Func.funcs)
