(* Delta-debugging IR reducer (the mlir-reduce analogue): given a module
   and an "interestingness" predicate (typically: a pass pipeline still
   fails with the same diagnostic class), greedily shrink the module while
   the predicate holds.

   Moves, applied in rounds until a fixpoint:
     1. drop whole functions;
     2. ddmin-style chunked replacement of ops by fresh constants of the
        same result types (chunk sizes n/2, n/4, ..., 1), rewiring uses —
        this also deletes whole region bodies when the op owning the
        region goes;
     3. ddmin-style chunked operand forwarding: a single-result op whose
        result type matches an operand is bypassed (uses rewired to the
        operand) — collapses live accumulator chains constant
        replacement cannot shorten;
     4. rewrite operands to fresh constants, decoupling def-use chains so
        the producers die in the cleanup sweep;
     5. delete value-producing ops whose results are unused (the DCE
        sweep with a looser rule);
     6. textually halve tensor/memref/workgroup shape dimensions.

   Moves 2-4 are rewrite patterns: one driver run per candidate, whose
   env redirects every use of a replaced value.

   Every move is built on a deep clone of the current best module and
   accepted only if the clone is still interesting, so an invalid or
   diagnostic-changing mutation is simply rejected — moves do not need to
   preserve validity themselves. *)

open Cinm_ir
module Log = Cinm_support.Log
module Dce = Cinm_transforms.Dce

type stats = {
  rounds : int;
  candidates : int;
  accepted : int;
  ops_before : int;
  ops_after : int;
}

let count_ops = Pass.count_ops

(* A fresh op producing a trivial value of [ty], or [None] when the type
   has no constant form (tokens, handles, workgroups, ...). *)
let materialize (ty : Types.t) : Ir.op option =
  match ty with
  | Types.Scalar d when Types.is_float_dtype d ->
    Some
      (Ir.create_op ~attrs:[ ("value", Attr.Float 0.) ] ~result_tys:[ ty ]
         "arith.constant")
  | Types.Index | Types.Scalar _ ->
    Some
      (Ir.create_op ~attrs:[ ("value", Attr.Int 0) ] ~result_tys:[ ty ]
         "arith.constant")
  | Types.Tensor _ -> Some (Ir.create_op ~result_tys:[ ty ] "tensor.empty")
  | Types.MemRef _ -> Some (Ir.create_op ~result_tys:[ ty ] "memref.alloc")
  | _ -> None

let is_trivial_def (v : Ir.value) =
  match v.Ir.def with
  | Ir.Op_result (d, _) -> (
    match d.Ir.name with
    | "arith.constant" | "tensor.empty" | "memref.alloc" -> true
    | _ -> false)
  | Ir.Block_arg _ -> true

(* Pre-order op array of a function body; deterministic, so indices
   computed on one clone address the same ops on any other clone. *)
let ops_of (f : Func.t) : Ir.op array =
  let acc = ref [] in
  Func.walk (fun op -> acc := op :: !acc) f;
  Array.of_list (List.rev !acc)

(* The chunk moves: for an op they apply to, the rewrite that replaces
   it, run as a pattern by the driver (which redirects every use). *)
type move = Ir.op -> (Rewrite.ctx -> Rewrite.action) option

let insert_result (ctx : Rewrite.ctx) (c : Ir.op) =
  Builder.insert ctx.Rewrite.b c;
  Ir.result c 0

(* Replace [op] by fresh constants for each of its results (this also
   drops the regions it owns). Not for terminators or ops with an
   unmaterializable result type. *)
let to_constants : move =
 fun op ->
  let consts =
    List.filter_map (fun (r : Ir.value) -> materialize r.Ir.ty) (Array.to_list op.Ir.results)
  in
  if Ir.is_terminator op || List.length consts <> Array.length op.Ir.results then None
  else Some (fun ctx -> Rewrite.Replace (List.map (insert_result ctx) consts))

(* Bypass [op]: its single result's uses take a same-typed operand and
   the op goes. The workhorse for chains like acc' = add(acc, c), where
   every link is live so constant replacement never shrinks the path, but
   forwarding acc through removes a link (and the sweep then reaps the
   now-unused c). Dominance is preserved: the operand is defined before
   [op], so it is in scope at every use of the result. *)
let forward_operand : move =
 fun op ->
  if Ir.is_terminator op || Array.length op.Ir.results <> 1 then None
  else
    let r = op.Ir.results.(0) in
    Array.find_opt (fun (v : Ir.value) -> Types.equal v.Ir.ty r.Ir.ty) op.Ir.operands
    |> Option.map (fun v ctx -> Rewrite.Replace [ Rewrite.lookup ctx v ])

(* Give each non-trivial operand of [op] a fresh constant built just
   before it, decoupling the def-use chain so the producer can die in the
   sweep. The original op is discarded once the driver has converted it,
   so retargeting its operands here only changes what its clone reads. *)
let decoupled (v : Ir.value) = if is_trivial_def v then None else materialize v.Ir.ty

let decouple_operands ctx (op : Ir.op) =
  Array.iteri
    (fun j v ->
      Option.iter (fun c -> op.Ir.operands.(j) <- insert_result ctx c) (decoupled v))
    op.Ir.operands;
  None

(* Delete value-producing non-terminators none of whose results are used,
   to a fixpoint. Result-less (side-effecting) ops are left alone — the
   chunk move handles those. *)
let sweep_unused =
  Dce.sweep ~removable:(fun op ->
      (not (Ir.is_terminator op)) && Array.length op.Ir.results > 0)

(* Halve every shape dimension appearing in the textual IR: a maximal
   digit run preceded by '<' or 'x' and followed by 'x' is a leading/
   middle dim; dtype digits (i32, f64) are preceded by a letter and so
   untouched. Semantic fallout (attr/shape mismatches) is caught by the
   predicate rejecting the candidate. *)
let halve_shapes_text txt : string option =
  let n = String.length txt in
  let buf = Buffer.create n in
  let changed = ref false in
  let i = ref 0 in
  while !i < n do
    let c = txt.[!i] in
    Buffer.add_char buf c;
    incr i;
    if c = '<' || c = 'x' then begin
      let s = !i in
      while !i < n && txt.[!i] >= '0' && txt.[!i] <= '9' do
        incr i
      done;
      let run = String.sub txt s (!i - s) in
      if run <> "" && !i < n && txt.[!i] = 'x' then begin
        let d = int_of_string run in
        if d > 1 then begin
          changed := true;
          Buffer.add_string buf (string_of_int ((d + 1) / 2))
        end
        else Buffer.add_string buf run
      end
      else Buffer.add_string buf run
    end
  done;
  if !changed then Some (Buffer.contents buf) else None

let reduce ?(max_rounds = 16) ~interesting (m0 : Func.modul) :
    Func.modul * stats =
  let ops_before = count_ops m0 in
  let candidates = ref 0 and accepted = ref 0 in
  let best = ref (Func.clone_module m0) in
  let best_ops = ref ops_before in
  let try_candidate ~allow_equal c =
    incr candidates;
    let n = count_ops c in
    if (n < !best_ops || (allow_equal && n = !best_ops)) && interesting c then begin
      best := c;
      best_ops := n;
      incr accepted;
      true
    end
    else false
  in
  let rounds = ref 0 in
  let progress = ref true in
  while !progress && !rounds < max_rounds do
    progress := false;
    incr rounds;
    (* move 1: drop whole functions *)
    let fi = ref 0 in
    while !fi < List.length !best.Func.funcs && List.length !best.Func.funcs > 1 do
      let c = Func.clone_module !best in
      c.Func.funcs <- List.filteri (fun i _ -> i <> !fi) c.Func.funcs;
      if try_candidate ~allow_equal:false c then progress := true else incr fi
    done;
    (* moves 2 + 3: ddmin chunks of a per-op rewrite, per function; a
       chunk is one driver run whose pattern fires on the chunk's ops *)
    let ddmin_pass (move : move) =
      for fi = 0 to List.length !best.Func.funcs - 1 do
        let fun_ops () = Array.length (ops_of (List.nth !best.Func.funcs fi)) in
        let chunk = ref (max 1 (fun_ops () / 2)) in
        while !chunk >= 1 do
          let pos = ref 0 in
          while !pos < fun_ops () do
            let c = Func.clone_module !best in
            let f = List.nth c.Func.funcs fi in
            let ops = ops_of f in
            let picked = Hashtbl.create !chunk in
            for k = !pos to min (Array.length ops - 1) (!pos + !chunk - 1) do
              Option.iter (Hashtbl.replace picked ops.(k).Ir.oid) (move ops.(k))
            done;
            let any = Hashtbl.length picked > 0 in
            if any then begin
              let pattern ctx (op : Ir.op) =
                Option.map (fun rewrite -> rewrite ctx) (Hashtbl.find_opt picked op.Ir.oid)
              in
              Rewrite.apply_to_func ~patterns:[ pattern ] f;
              ignore (sweep_unused f)
            end;
            if any && try_candidate ~allow_equal:false c then progress := true
            else pos := !pos + !chunk
          done;
          chunk := !chunk / 2
        done
      done
    in
    ddmin_pass to_constants;
    ddmin_pass forward_operand;
    (* move 4: decouple all operand chains at once, then sweep *)
    (let c = Func.clone_module !best in
     let any = ref false in
     List.iter
       (fun f ->
         let decouplable (op : Ir.op) =
           Array.exists (fun v -> Option.is_some (decoupled v)) op.Ir.operands
         in
         if Array.exists decouplable (ops_of f) then begin
           any := true;
           Rewrite.apply_to_func ~patterns:[ decouple_operands ] f
         end;
         if !any then ignore (sweep_unused f))
       c.Func.funcs;
     if !any && try_candidate ~allow_equal:false c then progress := true);
    (* move 5: sweep-only candidate *)
    (let c = Func.clone_module !best in
     let any = List.exists (fun b -> b) (List.map sweep_unused c.Func.funcs) in
     if any && try_candidate ~allow_equal:false c then progress := true);
    (* move 6: halve shapes until they stop parsing or stop helping *)
    let shrinking = ref true in
    while !shrinking do
      shrinking := false;
      match halve_shapes_text (Printer.module_to_string !best) with
      | None -> ()
      | Some txt -> (
        match Parser.parse_module_text txt with
        | exception Parser.Parse_error _ -> ()
        | c ->
          if try_candidate ~allow_equal:true c then begin
            progress := true;
            shrinking := true
          end)
    done;
    Log.debug "reduce: round %d done, %d ops (%d candidates, %d accepted)"
      !rounds !best_ops !candidates !accepted
  done;
  ( !best,
    {
      rounds = !rounds;
      candidates = !candidates;
      accepted = !accepted;
      ops_before;
      ops_after = !best_ops;
    } )
