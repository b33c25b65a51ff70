(* Shared helpers for transformations that splice region bodies around
   (inlining for loop unrolling, kernel regeneration fallbacks, ...). *)

open Cinm_ir

(* The set of value ids defined inside a region (block args and op
   results, transitively). *)
let defined_in_region (region : Ir.region) =
  let ids = Hashtbl.create 64 in
  let add (v : Ir.value) = Hashtbl.replace ids v.Ir.vid () in
  Ir.iter_blocks
    (fun (block : Ir.block) ->
      Array.iter add block.Ir.args;
      Ir.walk_block (fun op -> Array.iter add op.Ir.results) block)
    region;
  ids

(* Clone the ops of [region]'s entry block at the builder's insertion
   point, substituting the block arguments with [args]; values captured
   from outside the region are passed through [remap] (needed when the
   surrounding function is being rebuilt by a conversion). Returns the
   mapped operands of the terminator (and drops the terminator itself). *)
let inline_body ?(remap = fun (v : Ir.value) -> v) bb (region : Ir.region)
    (args : Ir.value list) : Ir.value list =
  let entry = Ir.entry_block region in
  if Array.length entry.Ir.args <> List.length args then
    invalid_arg "Transform_util.inline_body: arity mismatch";
  let vmap = ref Ir.Vmap.empty in
  (* remap free references first *)
  let inside = defined_in_region region in
  Ir.walk_region
    (fun op ->
      Array.iter
        (fun (v : Ir.value) ->
          if (not (Hashtbl.mem inside v.Ir.vid)) && not (Ir.Vmap.mem v.Ir.vid !vmap)
          then begin
            let w = remap v in
            if w != v then vmap := Ir.Vmap.add v.Ir.vid w !vmap
          end)
        op.Ir.operands)
    region;
  List.iteri
    (fun i v -> vmap := Ir.Vmap.add entry.Ir.args.(i).Ir.vid v !vmap)
    args;
  let result = ref [] in
  Ir.iter_ops
    (fun (op : Ir.op) ->
      if Ir.is_terminator op then
        result :=
          Array.to_list op.Ir.operands |> List.map (fun v -> Ir.map_value !vmap v)
      else begin
        let op', vmap' = Ir.clone_op ~vmap:!vmap op in
        vmap := vmap';
        Builder.insert bb op'
      end)
    entry;
  !result

(* Resolve a value to its integer constant if it is defined by an
   arith.constant. *)
let constant_of (v : Ir.value) : int option =
  match v.Ir.def with
  | Ir.Op_result (op, 0) when op.Ir.name = "arith.constant" -> (
    match Ir.attr op "value" with Some (Attr.Int i) -> Some i | _ -> None)
  | _ -> None
