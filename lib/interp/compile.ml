(* Closure-compiling executor: a one-shot pass over a kernel's IR that
   resolves every SSA value to a fixed slot in a register file and
   specializes each op into an OCaml closure — name dispatch, binop
   selection, cmpi predicate decode and attribute decoding all happen once
   at compile time instead of once per evaluated op. The resulting closure
   tree is cached per kernel and shared read-only across DPU-lane domains;
   every lane executes it on a private register file, so the parallel
   launch path needs no per-lane copy of the interpreter environment.

   The register file is *split by static type*: values whose IR type is
   [index] or a non-i1 integer scalar live in a flat [int array] (the
   "int frame"); everything else — tensors, memrefs, handles, floats,
   i1 (whose runtime representation may be [Rtval.Bool]) — lives in an
   [Rtval.t array] (the "gen frame"). A slot id encodes its frame in its
   sign: [s >= 0] indexes the gen frame, [s < 0] indexes the int frame at
   [-1 - s]. Integer arithmetic, comparisons, loop induction and the
   rank-1/2 load/store fast paths then run *monomorphic*: unboxed ints in,
   unboxed ints out, no [Rtval.Int] allocation, no payload-variant
   dispatch (integer tensors are accessed through their raw [int array]
   payload after one explicit bounds check), and wrap-at-width
   specialized per result dtype at compile time.

   Parity contract: compiled execution must be *bit-identical* to the
   tree-walking interpreter — same results, same [Profile] increments
   (the timing models are pure folds over the profile, so identical
   counters mean identical stats, reports and traces). Two mechanisms
   enforce this:

   - every natively compiled op replays the exact accounting of its
     [Interp.eval_op] case (one [launched_ops] per dispatched op, the
     same bucket increments in the same places);
   - any op the native compiler does not fully understand — unknown
     names, bulk tensor ops, device ops handled by machine hooks, or any
     op whose attribute/shape decoding fails — falls back to a generic
     closure that routes the single op through [Interp.eval_op]
     unchanged (operands and nested-region free values are staged from
     the register file into the context environment first, results are
     read back after). The fallback also preserves the tree-walker's
     runtime errors: a malformed op only fails when executed, not at
     compile time.

   The unit of compilation is one region (a function body or a launch
   kernel). Structured control flow ([scf.for] / [scf.if] /
   [scf.parallel]) is compiled inline into the same register file — the
   SSA dominance rules make slot aliasing safe, with the one exception of
   loop-carried values, which go through scratch slots on yield because a
   yield operand may itself be an iteration argument. *)

open Cinm_ir
module Config = Cinm_support.Config
module Trace = Cinm_support.Trace

(* ----- backend selection ----- *)

type backend = Tree | Compiled

let backend_of_string s =
  match String.lowercase_ascii s with
  | "tree" -> Some Tree
  | "compiled" -> Some Compiled
  | _ -> None

let backend_name = function Tree -> "tree" | Compiled -> "compiled"

let backend_of_string_exn s =
  match backend_of_string s with
  | Some b -> b
  | None ->
    invalid_arg
      (Printf.sprintf "CINM_INTERP=%s: unknown interpreter backend (tree|compiled)" s)

(* The process default is the Config default's [interp] (CINM_INTERP);
   [set_backend] writes it there, so there is one source of truth. *)
let backend () =
  match (Config.default ()).Config.interp with
  | "" -> Tree
  | s -> backend_of_string_exn s

let set_backend b = Config.update_default (fun c -> { c with Config.interp = backend_name b })

(* The backend a given execution context asked for: its [interp] field
   when set (per-request choice carried on the context, so even machine
   hooks deep inside a launch honor it), else the process default. *)
let backend_of_ctx (ctx : Interp.ctx) =
  match ctx.Interp.interp with "" -> backend () | s -> backend_of_string_exn s

(* ----- compiled code ----- *)

(* One compiled op: reads/writes the two frames, accounts into the
   context's profile, and may call hooks through the context. *)
type instr = Interp.ctx -> Rtval.t array -> int array -> unit

type code = {
  ngen : int;  (** gen-frame ([Rtval.t]) slot count *)
  nint : int;  (** int-frame (unboxed [int]) slot count *)
  arg_slots : int array;  (** slots of the entry block's parameters *)
  cap_values : Ir.value array;
      (** free values of the unit (defined outside the compiled region);
          resolved from the launching context once per launch *)
  cap_slots : int array;
  body : instr array;
  term_slots : int array;  (** slots of the terminator's operands *)
}

(* Raised by native op compilers to hand the op to the generic fallback.
   Must be raised before the op's structure has been committed to slots in
   any way the fallback could not reproduce (slot allocation itself is
   idempotent, so partial [use_slot]/[def_slot] calls are harmless). *)
exception Punt

type cstate = {
  mutable ngen : int;
  mutable nint : int;
  slots : (int, int) Hashtbl.t;  (** vid -> encoded slot *)
  mutable caps : (Ir.value * int) list;  (** reverse order of first use *)
  in_place : (int, unit) Hashtbl.t;  (** oids of updates that write in place *)
}

(* A value lives in the int frame iff its static type guarantees its
   runtime representation is [Rtval.Int]. i1 stays in the gen frame: the
   tree-walker represents cmpi results as [Rtval.Bool], and that identity
   must survive pass-through ops (select, yields, returns). *)
let int_class (v : Ir.value) =
  match v.Ir.ty with
  | Types.Index | Types.Scalar (Types.I8 | Types.I16 | Types.I32 | Types.I64) -> true
  | _ -> false

let new_gen st =
  let s = st.ngen in
  st.ngen <- s + 1;
  s

let new_int st =
  let k = st.nint in
  st.nint <- k + 1;
  -1 - k

let new_slot st (v : Ir.value) = if int_class v then new_int st else new_gen st

(* Slot of a value being read. A value never defined inside the unit is a
   capture: it gets a slot filled from the host environment at launch. *)
let use_slot st (v : Ir.value) =
  match Hashtbl.find_opt st.slots v.Ir.vid with
  | Some s -> s
  | None ->
    let s = new_slot st v in
    Hashtbl.add st.slots v.Ir.vid s;
    st.caps <- (v, s) :: st.caps;
    s

(* Slot of a value being defined. Ops are compiled in program order, so in
   well-formed SSA the definition is the first sighting and gets a fresh
   slot. *)
let def_slot st (v : Ir.value) =
  match Hashtbl.find_opt st.slots v.Ir.vid with
  | Some s -> s
  | None ->
    let s = new_slot st v in
    Hashtbl.add st.slots v.Ir.vid s;
    s

(* Bind a value to an existing slot (scf.for results alias the iteration
   argument slots, which hold the final loop-carried values on exit). *)
let alias_slot st (v : Ir.value) slot = Hashtbl.replace st.slots v.Ir.vid slot

let nop_instr : instr = fun _ _ _ -> ()
let rt_true = Rtval.Bool true
let rt_false = Rtval.Bool false

(* ----- frame access (slot ids are compile-time constants, bounds are
   guaranteed by construction, so accesses are unsafe) ----- *)

let geti (gf : Rtval.t array) (iframe : int array) s =
  if s >= 0 then Rtval.as_int (Array.unsafe_get gf s)
  else Array.unsafe_get iframe (-1 - s)

let getf (gf : Rtval.t array) (iframe : int array) s =
  if s >= 0 then Rtval.as_float (Array.unsafe_get gf s)
  else float_of_int (Array.unsafe_get iframe (-1 - s))

let getb (gf : Rtval.t array) (iframe : int array) s =
  if s >= 0 then Rtval.as_bool (Array.unsafe_get gf s)
  else Array.unsafe_get iframe (-1 - s) <> 0

(* Read a slot as an [Rtval.t]; int slots materialize as [Rtval.Int] (the
   representation the tree-walker binds for every int-class value). *)
let get_rt (gf : Rtval.t array) (iframe : int array) s =
  if s >= 0 then Array.unsafe_get gf s else Rtval.Int (Array.unsafe_get iframe (-1 - s))

let set_rt (gf : Rtval.t array) (iframe : int array) s rv =
  if s >= 0 then Array.unsafe_set gf s rv
  else Array.unsafe_set iframe (-1 - s) (Rtval.as_int rv)

(* Store an int result: unboxed into an int slot, boxed into a gen slot. *)
let seti (gf : Rtval.t array) (iframe : int array) s v =
  if s >= 0 then Array.unsafe_set gf s (Rtval.Int v)
  else Array.unsafe_set iframe (-1 - s) v

(* Slot-to-slot copy (loop-carried values, branch yields, select). *)
let move (gf : Rtval.t array) (iframe : int array) dst src =
  if dst >= 0 then Array.unsafe_set gf dst (get_rt gf iframe src)
  else Array.unsafe_set iframe (-1 - dst) (geti gf iframe src)

(* Free values of [op]'s nested regions: operands used under the op's
   entry blocks (the only blocks the interpreter ever evaluates) that are
   not defined inside the op. The generic fallback stages these into the
   context environment so hooks can tree-walk the op's regions. *)
let free_values (op : Ir.op) : Ir.value list =
  if Array.length op.Ir.regions = 0 then []
  else begin
    let defined = Hashtbl.create 64 in
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    let rec go_region r =
      if Ir.num_blocks r > 0 then begin
        let b = Ir.entry_block r in
        Array.iter (fun (v : Ir.value) -> Hashtbl.replace defined v.Ir.vid ()) b.Ir.args;
        for i = 0 to Ir.num_ops b - 1 do
          Array.iter
            (fun (v : Ir.value) -> Hashtbl.replace defined v.Ir.vid ())
            (Ir.op_at b i).Ir.results
        done;
        for i = 0 to Ir.num_ops b - 1 do
          let o = Ir.op_at b i in
          Array.iter
            (fun (v : Ir.value) ->
              if (not (Hashtbl.mem defined v.Ir.vid)) && not (Hashtbl.mem seen v.Ir.vid)
              then begin
                Hashtbl.add seen v.Ir.vid ();
                acc := v :: !acc
              end)
            o.Ir.operands;
          Array.iter go_region o.Ir.regions
        done
      end
    in
    Array.iter go_region op.Ir.regions;
    List.rev !acc
  end

(* ----- ownership: which tensor updates may write in place ----- *)

(* The tree-walker gives tensors value semantics: [tensor.insert_slice],
   [tensor.insert] and [cinm.merge_partial] return fresh storage and leave
   their destination as it was. Compiled code may instead write into the
   destination when nothing can observe the difference: the destination
   is *owned* (no other live value reaches its storage) and the update is
   its *last use*. Both are decided here, once per unit, from the IR.

   A value is owned when
   - an op of the [fresh_result] allow-list produced it, or
   - it is an [scf.for] iteration argument, or the matching loop result,
     whose init is owned and dies at the loop and whose yielded value is
     owned and dies at the yield.
   Nothing else is: function and region arguments, captures, constants,
   hook and call results, views that share a payload ([tensor.reshape],
   [cinm.expand]), [arith.select] and [scf.if] results.

   An op is a value's last use when it sits in the value's defining block
   and every other use of the value, counted through nested regions, is a
   [copying_read] earlier in that block. The block rule keeps a loop from
   updating, on its second trip, a value defined outside it. *)

(* Ops whose tensor results are always fresh storage. *)
let fresh_result name =
  Interp.is_elementwise name
  ||
  match name with
  | "tensor.empty" | "tensor.extract_slice" | "tensor.pad" | "tensor.insert_slice"
  | "tensor.insert" | "cinm.merge_partial" | "cinm.not" | "tosa.add" | "cinm.gemm"
  | "linalg.matmul" | "tosa.matmul" | "cinm.gemv" | "linalg.matvec" ->
    true
  | _ -> false

(* The operand an update op writes into when it runs in place. *)
let update_dest = function
  | "tensor.insert_slice" | "tensor.insert" -> Some 1
  | "cinm.merge_partial" -> Some 0
  | _ -> None

(* Reads that copy out of their operand 0 and keep no reference to it. *)
let copying_read = function "tensor.extract_slice" | "tensor.extract" -> true | _ -> false

(* The yield of an [scf.for] that carries values and that [compile_for]
   compiles natively. *)
let for_yield (op : Ir.op) =
  let n_res = Array.length op.Ir.results in
  if
    op.Ir.name <> "scf.for" || n_res = 0
    || Ir.num_operands op <> n_res + 3
    || Array.length op.Ir.regions <> 1
    || Ir.num_blocks op.Ir.regions.(0) = 0
  then None
  else
    let body = Ir.entry_block op.Ir.regions.(0) in
    match Ir.last_op body with
    | Some y
      when Array.length body.Ir.args = n_res + 1
           && Interp.is_terminator y
           && Array.length y.Ir.operands = n_res ->
      Some (body, y)
    | _ -> None

(* One use of a value, seen from the value's defining block: [user] is the
   op of that block, at index [at], that performs it; [operand] is the
   operand position when the value is [user]'s own operand, -1 when the
   use sits in one of [user]'s nested regions (or, with [at = max_int],
   outside the defining block's scope). *)
type site = { user : Ir.op; at : int; operand : int }

type producer = Fresh | Carried of Ir.op * int  (** scf.for, carried index *)

(* [owned v] and [last_use v u pos] (is [u], using [v] as its operand
   [pos], the last use of [v]?) over the values and ops of [region]. *)
let ownership (region : Ir.region) =
  let def_block = Hashtbl.create 64 (* vid -> bid *) in
  let op_pos = Hashtbl.create 64 (* oid -> (bid, index) *) in
  let producers = Hashtbl.create 64 (* vid -> producer *) in
  let loops = ref [] (* (scf.for, yield, carried index) *) in
  let rec defs (r : Ir.region) =
    Ir.iter_blocks
      (fun b ->
        Array.iter (fun (v : Ir.value) -> Hashtbl.replace def_block v.Ir.vid b.Ir.bid) b.Ir.args;
        for i = 0 to Ir.num_ops b - 1 do
          let op = Ir.op_at b i in
          Hashtbl.replace op_pos op.Ir.oid (b.Ir.bid, i);
          Array.iter (fun (v : Ir.value) -> Hashtbl.replace def_block v.Ir.vid b.Ir.bid) op.Ir.results;
          if fresh_result op.Ir.name then
            Array.iter (fun (v : Ir.value) -> Hashtbl.replace producers v.Ir.vid Fresh) op.Ir.results;
          (match for_yield op with
          | Some (body, y) ->
            Array.iteri
              (fun k (v : Ir.value) ->
                Hashtbl.replace producers v.Ir.vid (Carried (op, k));
                Hashtbl.replace producers body.Ir.args.(k + 1).Ir.vid (Carried (op, k));
                loops := (op, y, k) :: !loops)
              op.Ir.results
          | None -> ());
          Array.iter defs op.Ir.regions
        done)
      r
  in
  defs region;
  let sites = Hashtbl.create 64 (* vid -> site list *) in
  let add (v : Ir.value) s =
    Hashtbl.replace sites v.Ir.vid (s :: Option.value ~default:[] (Hashtbl.find_opt sites v.Ir.vid))
  in
  (* [scope]: (bid, op, index) of the op being walked and of every op
     enclosing it, innermost first *)
  let rec uses scope (r : Ir.region) =
    Ir.iter_blocks
      (fun b ->
        for i = 0 to Ir.num_ops b - 1 do
          let op = Ir.op_at b i in
          let scope = (b.Ir.bid, op, i) :: scope in
          Array.iteri
            (fun k (v : Ir.value) ->
              match Hashtbl.find_opt def_block v.Ir.vid with
              | None -> () (* a capture *)
              | Some bid ->
                let rec find operand = function
                  | [] -> add v { user = op; at = max_int; operand = -1 }
                  | (b', user, at) :: rest ->
                    if b' = bid then add v { user; at; operand } else find (-1) rest
                in
                find k scope)
            op.Ir.operands;
          Array.iter (uses scope) op.Ir.regions
        done)
      r
  in
  uses [] region;
  let last_use (v : Ir.value) (u : Ir.op) pos =
    match (Hashtbl.find_opt def_block v.Ir.vid, Hashtbl.find_opt op_pos u.Ir.oid) with
    | Some bid, Some (ubid, uat) when bid = ubid ->
      List.for_all
        (fun s ->
          if s.user.Ir.oid = u.Ir.oid then s.operand = pos
          else s.operand = 0 && s.at < uat && copying_read s.user.Ir.name)
        (Option.value ~default:[] (Hashtbl.find_opt sites v.Ir.vid))
    | _ -> false
  in
  (* carried values start presumed owned and are struck off until the rule
     holds for every survivor (nested loops presume each other) *)
  let carried = Hashtbl.create 16 in
  List.iter (fun (f, _, k) -> Hashtbl.replace carried (f.Ir.oid, k) true) !loops;
  let owned (v : Ir.value) =
    match Hashtbl.find_opt producers v.Ir.vid with
    | Some Fresh -> true
    | Some (Carried (f, k)) -> Hashtbl.find carried (f.Ir.oid, k)
    | None -> false
  in
  let rec settle () =
    let changed = ref false in
    List.iter
      (fun (f, y, k) ->
        let init = f.Ir.operands.(k + 3) and out = y.Ir.operands.(k) in
        if
          Hashtbl.find carried (f.Ir.oid, k)
          && not (owned init && last_use init f (k + 3) && owned out && last_use out y k)
        then begin
          Hashtbl.replace carried (f.Ir.oid, k) false;
          changed := true
        end)
      !loops;
    if !changed then settle ()
  in
  settle ();
  (owned, last_use)

(* The update ops of [region] that may write in place, in program order. *)
let in_place_ops (region : Ir.region) : Ir.op list =
  let updates = ref [] in
  Ir.walk_region
    (fun op ->
      match update_dest op.Ir.name with
      | Some pos when pos < Ir.num_operands op && Ir.num_results op = 1 ->
        updates := (op, pos) :: !updates
      | _ -> ())
    region;
  (* most units (every DPU kernel) update nothing: skip the analysis *)
  if !updates = [] then []
  else begin
    let owned, last_use = ownership region in
    List.rev
      (List.filter_map
         (fun ((u : Ir.op), pos) ->
           let d = u.Ir.operands.(pos) in
           if owned d && last_use d u pos then Some u else None)
         !updates)
  end

(* ----- the generic fallback ----- *)

(* Route one op through [Interp.eval_op]: stage its operands (and the free
   values of its nested regions) from the register file into the context
   environment, evaluate, read the results back into their slots. This is
   bit-identical to the tree-walker by construction — the same code runs,
   including all profile accounting, hook dispatch and error behavior. *)
let compile_generic st (op : Ir.op) : instr =
  let operand_binds =
    Array.map (fun (v : Ir.value) -> (v.Ir.vid, use_slot st v)) op.Ir.operands
  in
  let free_binds =
    Array.of_list
      (List.map (fun (v : Ir.value) -> (v.Ir.vid, use_slot st v)) (free_values op))
  in
  let result_binds =
    Array.map (fun (v : Ir.value) -> (v.Ir.vid, def_slot st v)) op.Ir.results
  in
  (* Tree-walk through [Interp.eval_op]: stage operands and free values
     into the environment, evaluate, read the results back into slots. *)
  let slow ctx gf iframe =
    let env = ctx.Interp.env in
    Array.iter (fun (vid, s) -> Hashtbl.replace env vid (get_rt gf iframe s)) operand_binds;
    Array.iter (fun (vid, s) -> Hashtbl.replace env vid (get_rt gf iframe s)) free_binds;
    Interp.eval_op ctx op;
    Array.iter
      (fun (vid, s) ->
        match Hashtbl.find_opt env vid with
        | Some rv -> set_rt gf iframe s rv
        | None -> Interp.err "%s: result %%%d not bound" op.Ir.name vid)
      result_binds
  in
  if Array.length op.Ir.regions > 0 then slow
  else begin
    (* Region-free op: hooks only need the operand values, so try them
       straight off the register file — no environment staging, which is
       the dominant cost of the per-element device ops (mram_read/write)
       kernels execute by the million. Builtin ops never reach hooks
       ([Interp.eval_op] dispatches them by name first), so a [None] here
       means the op is either builtin-generic or an error — both handled
       by the slow path. The [launched_ops] bookkeeping mirrors [eval_op]:
       counted before dispatch, uncounted again if we fall through (the
       slow path's [eval_op] re-counts). *)
    let operand_slots = Array.map snd operand_binds in
    let result_slots = Array.map snd result_binds in
    let n_operands = Array.length operand_slots in
    fun ctx gf iframe ->
      match ctx.Interp.hooks with
      | [] -> slow ctx gf iframe
      | _ -> (
        let ops = Array.make n_operands Rtval.Token in
        for i = 0 to n_operands - 1 do
          Array.unsafe_set ops i
            (get_rt gf iframe (Array.unsafe_get operand_slots i))
        done;
        let p = ctx.Interp.profile in
        p.Profile.launched_ops <- p.Profile.launched_ops + 1;
        match Interp.dispatch_hooks ctx op ops with
        | Some [] ->
          (* the common per-element device ops (DMA, barriers) produce no
             results: return without touching the register file *)
          if Array.length result_slots <> 0 then
            Interp.err "%s: produced 0 values for %d results" op.Ir.name
              (Array.length result_slots)
        | Some vals ->
          let n = List.length vals in
          if n <> Array.length result_slots then
            Interp.err "%s: produced %d values for %d results" op.Ir.name n
              (Array.length result_slots);
          List.iteri
            (fun i rv -> set_rt gf iframe (Array.unsafe_get result_slots i) rv)
            vals
        | None ->
          p.Profile.launched_ops <- p.Profile.launched_ops - 1;
          slow ctx gf iframe)
  end

(* ----- native op compilers ----- *)

(* Same table as the literal dispatch cases of [Interp.eval_op]. *)
let int_binop_spec : string -> (int * (int -> int -> int)) option = function
  | "arith.addi" -> Some (Interp.bucket_alu, ( + ))
  | "arith.subi" -> Some (Interp.bucket_alu, ( - ))
  | "arith.muli" -> Some (Interp.bucket_mul, ( * ))
  | "arith.divsi" -> Some (Interp.bucket_div, Tensor.int_binop "div")
  | "arith.remsi" -> Some (Interp.bucket_div, Tensor.int_binop "rem")
  | "arith.minsi" -> Some (Interp.bucket_alu, min)
  | "arith.maxsi" -> Some (Interp.bucket_alu, max)
  | "arith.andi" -> Some (Interp.bucket_alu, ( land ))
  | "arith.ori" -> Some (Interp.bucket_alu, ( lor ))
  | "arith.xori" -> Some (Interp.bucket_alu, ( lxor ))
  | "arith.shli" -> Some (Interp.bucket_alu, ( lsl ))
  | "arith.shrsi" -> Some (Interp.bucket_alu, ( asr ))
  | _ -> None

let float_binop_fn : string -> (float -> float -> float) option = function
  | "arith.addf" -> Some ( +. )
  | "arith.subf" -> Some ( -. )
  | "arith.mulf" -> Some ( *. )
  | "arith.divf" -> Some ( /. )
  | "arith.minf" -> Some Float.min
  | "arith.maxf" -> Some Float.max
  | _ -> None

let rec compile_op st (op : Ir.op) : instr =
  match compile_native st op with
  | Some i -> i
  | None -> compile_generic st op
  | exception (Punt | Interp.Interp_error _ | Invalid_argument _ | Not_found | Failure _)
    ->
    (* decode failed: let the tree-walker raise (or not) at runtime *)
    compile_generic st op

and compile_native st (op : Ir.op) : instr option =
  match op.Ir.name with
  | "arith.constant" -> Some (compile_constant st op)
  | "arith.cmpi" -> Some (compile_cmpi st op)
  | "arith.select" -> Some (compile_select st op)
  | "arith.index_cast" -> Some (compile_index_cast st op)
  | "scf.for" -> Some (compile_for st op)
  | "scf.if" -> Some (compile_if st op)
  | "scf.parallel" -> Some (compile_parallel st op)
  | "memref.alloc" | "upmem.wram_alloc" -> Some (compile_alloc st op)
  | "memref.load" | "tensor.extract" -> Some (compile_indexed_load st op)
  | "memref.store" -> Some (compile_store st op)
  | "tensor.insert_slice" when Hashtbl.mem st.in_place op.Ir.oid ->
    Some (compile_insert_slice st op)
  | "tensor.insert" when Hashtbl.mem st.in_place op.Ir.oid -> Some (compile_insert st op)
  | "cinm.merge_partial" when Hashtbl.mem st.in_place op.Ir.oid ->
    Some (compile_merge_partial st op)
  | name -> (
    match int_binop_spec name with
    | Some (bucket, f) -> Some (compile_int_bin st op bucket f)
    | None -> (
      match float_binop_fn name with
      | Some f -> Some (compile_float_bin st op f)
      | None -> None))

and compile_constant st op =
  match Ir.attr_exn op "value" with
  | Attr.Int i ->
    let n = Tensor.wrap (Interp.scalar_result_dtype op) i in
    let r = def_slot st op.Ir.results.(0) in
    if r < 0 then begin
      let ri = -1 - r in
      fun ctx _gf iframe ->
        let p = ctx.Interp.profile in
        p.Profile.launched_ops <- p.Profile.launched_ops + 1;
        Array.unsafe_set iframe ri n
    end
    else begin
      (* i1 constants stay in the gen frame as the shared [Rtval.Int] the
         tree-walker would bind *)
      let rv = Rtval.Int n in
      fun ctx gf _iframe ->
        let p = ctx.Interp.profile in
        p.Profile.launched_ops <- p.Profile.launched_ops + 1;
        Array.unsafe_set gf r rv
    end
  | Attr.Float f ->
    let rv = Rtval.Float f in
    let r = def_slot st op.Ir.results.(0) in
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      set_rt gf iframe r rv
  | _ -> raise Punt

and compile_int_bin st op bucket f =
  let dt = Interp.scalar_result_dtype op in
  let a = use_slot st op.Ir.operands.(0) in
  let b = use_slot st op.Ir.operands.(1) in
  let r = def_slot st op.Ir.results.(0) in
  if a < 0 && b < 0 && r < 0 then begin
    (* fully monomorphic: unboxed operands, unboxed result, wrap
       specialized on the result dtype — zero allocation *)
    let ai = -1 - a and bi = -1 - b and ri = -1 - r in
    match dt with
    | Types.I64 ->
      fun ctx _gf iframe ->
        let p = ctx.Interp.profile in
        p.Profile.launched_ops <- p.Profile.launched_ops + 1;
        Interp.account_int_binop p bucket;
        Array.unsafe_set iframe ri
          (f (Array.unsafe_get iframe ai) (Array.unsafe_get iframe bi))
    | _ ->
      let bits = Types.dtype_bits dt in
      let mask = (1 lsl bits) - 1
      and half = 1 lsl (bits - 1)
      and full = 1 lsl bits in
      fun ctx _gf iframe ->
        let p = ctx.Interp.profile in
        p.Profile.launched_ops <- p.Profile.launched_ops + 1;
        Interp.account_int_binop p bucket;
        let v = f (Array.unsafe_get iframe ai) (Array.unsafe_get iframe bi) land mask in
        Array.unsafe_set iframe ri (if v >= half then v - full else v)
  end
  else
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      Interp.account_int_binop p bucket;
      seti gf iframe r (Tensor.wrap dt (f (geti gf iframe a) (geti gf iframe b)))

and compile_float_bin st op f =
  let a = use_slot st op.Ir.operands.(0) in
  let b = use_slot st op.Ir.operands.(1) in
  let r = def_slot st op.Ir.results.(0) in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    p.Profile.alu_ops <- p.Profile.alu_ops + 1;
    set_rt gf iframe r (Rtval.Float (f (getf gf iframe a) (getf gf iframe b)))

and compile_cmpi st op =
  let pred = Interp.decode_cmpi_predicate op in
  let a = use_slot st op.Ir.operands.(0) in
  let b = use_slot st op.Ir.operands.(1) in
  let r = def_slot st op.Ir.results.(0) in
  if a < 0 && b < 0 && r >= 0 then begin
    let ai = -1 - a and bi = -1 - b in
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let av = Array.unsafe_get iframe ai and bv = Array.unsafe_get iframe bi in
      p.Profile.alu_ops <- p.Profile.alu_ops + 1;
      Array.unsafe_set gf r (if pred av bv then rt_true else rt_false)
  end
  else
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let av = geti gf iframe a and bv = geti gf iframe b in
      p.Profile.alu_ops <- p.Profile.alu_ops + 1;
      set_rt gf iframe r (if pred av bv then rt_true else rt_false)

and compile_select st op =
  let c = use_slot st op.Ir.operands.(0) in
  let t = use_slot st op.Ir.operands.(1) in
  let e = use_slot st op.Ir.operands.(2) in
  let r = def_slot st op.Ir.results.(0) in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    p.Profile.alu_ops <- p.Profile.alu_ops + 1;
    move gf iframe r (if getb gf iframe c then t else e)

and compile_index_cast st op =
  let a = use_slot st op.Ir.operands.(0) in
  let r = def_slot st op.Ir.results.(0) in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    seti gf iframe r (geti gf iframe a)

and compile_alloc st op =
  match (Ir.result op 0).Ir.ty with
  | Types.MemRef (shape, dt) ->
    let r = def_slot st op.Ir.results.(0) in
    fun ctx gf _iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      Array.unsafe_set gf r (Rtval.Memref (Interp.alloc_tensor ctx shape dt))
  | _ -> raise Punt

(* memref.load / tensor.extract. Ranks 1 and 2 are specialized to flat
   indexing with the bounds checks of [Util.linearize] inlined (same
   failure message) and, when every scalar involved is int-class, direct
   unboxed access to integer payloads — no [Rtval] boxing, no payload
   dispatch on the fast path. Other ranks build the index array per access
   like the tree-walker does. *)
and compile_indexed_load st op =
  let n_idx = Ir.num_operands op - 1 in
  if n_idx < 0 then raise Punt;
  (* float elements take the generic path: the specializations below are
     unboxed-int throughout *)
  (match (Ir.result op 0).Ir.ty with
  | Types.Scalar dt when Types.is_float_dtype dt -> raise Punt
  | _ -> ());
  let m_s = use_slot st op.Ir.operands.(0) in
  let idx_s = Array.init n_idx (fun i -> use_slot st op.Ir.operands.(i + 1)) in
  let r = def_slot st op.Ir.results.(0) in
  match idx_s with
  | [| i0 |] when m_s >= 0 && i0 < 0 && r < 0 ->
    let i0i = -1 - i0 and ri = -1 - r in
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let m = Rtval.as_tensor (Array.unsafe_get gf m_s) in
      let i = Array.unsafe_get iframe i0i in
      p.Profile.loads <- p.Profile.loads + 1;
      Array.unsafe_set iframe ri
        (let shape = m.Tensor.shape in
         if Array.length shape = 1 then begin
           if i < 0 || i >= Array.unsafe_get shape 0 then
             invalid_arg "Util.linearize: out of bounds";
           match m.Tensor.data with
           | Tensor.I a -> Array.unsafe_get a i
           | _ -> Tensor.get_int m i
         end
         else Tensor.get m [| i |])
  | [| i0 |] ->
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let m = Rtval.as_tensor (get_rt gf iframe m_s) in
      let i = geti gf iframe i0 in
      p.Profile.loads <- p.Profile.loads + 1;
      seti gf iframe r
        (if Array.length m.Tensor.shape = 1 then begin
           if i < 0 || i >= m.Tensor.shape.(0) then
             invalid_arg "Util.linearize: out of bounds";
           Tensor.get_int m i
         end
         else Tensor.get m [| i |])
  | [| i0; i1 |] when m_s >= 0 && i0 < 0 && i1 < 0 && r < 0 ->
    let i0i = -1 - i0 and i1i = -1 - i1 and ri = -1 - r in
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let m = Rtval.as_tensor (Array.unsafe_get gf m_s) in
      let a = Array.unsafe_get iframe i0i in
      let b = Array.unsafe_get iframe i1i in
      p.Profile.loads <- p.Profile.loads + 1;
      Array.unsafe_set iframe ri
        (let shape = m.Tensor.shape in
         if Array.length shape = 2 then begin
           if
             a < 0
             || a >= Array.unsafe_get shape 0
             || b < 0
             || b >= Array.unsafe_get shape 1
           then invalid_arg "Util.linearize: out of bounds";
           let flat = (a * Array.unsafe_get shape 1) + b in
           match m.Tensor.data with
           | Tensor.I arr -> Array.unsafe_get arr flat
           | _ -> Tensor.get_int m flat
         end
         else Tensor.get m [| a; b |])
  | [| i0; i1 |] ->
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let m = Rtval.as_tensor (get_rt gf iframe m_s) in
      let a = geti gf iframe i0 in
      let b = geti gf iframe i1 in
      p.Profile.loads <- p.Profile.loads + 1;
      seti gf iframe r
        (let shape = m.Tensor.shape in
         if Array.length shape = 2 then begin
           if a < 0 || a >= shape.(0) || b < 0 || b >= shape.(1) then
             invalid_arg "Util.linearize: out of bounds";
           Tensor.get_int m ((a * shape.(1)) + b)
         end
         else Tensor.get m [| a; b |])
  | _ ->
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let m = Rtval.as_tensor (get_rt gf iframe m_s) in
      let idx = Array.map (fun s -> geti gf iframe s) idx_s in
      p.Profile.loads <- p.Profile.loads + 1;
      seti gf iframe r (Tensor.get m idx)

and compile_store st op =
  let n_idx = Ir.num_operands op - 2 in
  if n_idx < 0 then raise Punt;
  (match op.Ir.operands.(0).Ir.ty with
  | Types.Scalar dt when Types.is_float_dtype dt -> raise Punt
  | _ -> ());
  let v_s = use_slot st op.Ir.operands.(0) in
  let m_s = use_slot st op.Ir.operands.(1) in
  let idx_s = Array.init n_idx (fun i -> use_slot st op.Ir.operands.(i + 2)) in
  match idx_s with
  | [| i0 |] when m_s >= 0 && v_s < 0 && i0 < 0 ->
    let vi = -1 - v_s and i0i = -1 - i0 in
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let v = Array.unsafe_get iframe vi in
      let m = Rtval.as_tensor (Array.unsafe_get gf m_s) in
      let i = Array.unsafe_get iframe i0i in
      p.Profile.stores <- p.Profile.stores + 1;
      let shape = m.Tensor.shape in
      if Array.length shape = 1 then begin
        if i < 0 || i >= Array.unsafe_get shape 0 then
          invalid_arg "Util.linearize: out of bounds";
        match m.Tensor.data with
        | Tensor.I a -> Array.unsafe_set a i (Tensor.wrap m.Tensor.dtype v)
        | _ -> Tensor.set_int m i v
      end
      else Tensor.set m [| i |] v
  | [| i0 |] ->
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let v = geti gf iframe v_s in
      let m = Rtval.as_tensor (get_rt gf iframe m_s) in
      let i = geti gf iframe i0 in
      p.Profile.stores <- p.Profile.stores + 1;
      if Array.length m.Tensor.shape = 1 then begin
        if i < 0 || i >= m.Tensor.shape.(0) then
          invalid_arg "Util.linearize: out of bounds";
        Tensor.set_int m i v
      end
      else Tensor.set m [| i |] v
  | [| i0; i1 |] when m_s >= 0 && v_s < 0 && i0 < 0 && i1 < 0 ->
    let vi = -1 - v_s and i0i = -1 - i0 and i1i = -1 - i1 in
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let v = Array.unsafe_get iframe vi in
      let m = Rtval.as_tensor (Array.unsafe_get gf m_s) in
      let a = Array.unsafe_get iframe i0i in
      let b = Array.unsafe_get iframe i1i in
      p.Profile.stores <- p.Profile.stores + 1;
      let shape = m.Tensor.shape in
      if Array.length shape = 2 then begin
        if
          a < 0
          || a >= Array.unsafe_get shape 0
          || b < 0
          || b >= Array.unsafe_get shape 1
        then invalid_arg "Util.linearize: out of bounds";
        let flat = (a * Array.unsafe_get shape 1) + b in
        match m.Tensor.data with
        | Tensor.I arr -> Array.unsafe_set arr flat (Tensor.wrap m.Tensor.dtype v)
        | _ -> Tensor.set_int m flat v
      end
      else Tensor.set m [| a; b |] v
  | [| i0; i1 |] ->
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let v = geti gf iframe v_s in
      let m = Rtval.as_tensor (get_rt gf iframe m_s) in
      let a = geti gf iframe i0 in
      let b = geti gf iframe i1 in
      p.Profile.stores <- p.Profile.stores + 1;
      let shape = m.Tensor.shape in
      if Array.length shape = 2 then begin
        if a < 0 || a >= shape.(0) || b < 0 || b >= shape.(1) then
          invalid_arg "Util.linearize: out of bounds";
        Tensor.set_int m ((a * shape.(1)) + b) v
      end
      else Tensor.set m [| a; b |] v
  | _ ->
    fun ctx gf iframe ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let v = geti gf iframe v_s in
      let m = Rtval.as_tensor (get_rt gf iframe m_s) in
      let idx = Array.map (fun s -> geti gf iframe s) idx_s in
      p.Profile.stores <- p.Profile.stores + 1;
      Tensor.set m idx v

(* The in-place forms of the three update ops (see [in_place_ops]):
   the same operand reads, errors and profile increments as their
   [Interp.eval_op] case, but the result is the destination itself,
   written in place, instead of an updated copy. *)
and compile_insert_slice st op =
  let offsets = Ir.ints_attr op "offsets" in
  let n_dyn = Ir.num_operands op - 2 in
  (* a dynamic-offset count that is not the rank fails in the tree-walker
     at runtime: let it *)
  if n_dyn <> 0 && n_dyn <> Array.length offsets then raise Punt;
  let src_s = use_slot st op.Ir.operands.(0) in
  let dst_s = use_slot st op.Ir.operands.(1) in
  let dyn_s = Array.init n_dyn (fun i -> use_slot st op.Ir.operands.(i + 2)) in
  let r = def_slot st op.Ir.results.(0) in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let src = Rtval.as_tensor (get_rt gf iframe src_s) in
    let dv = get_rt gf iframe dst_s in
    let dst = Rtval.as_tensor dv in
    let offsets =
      if n_dyn = 0 then offsets
      else Array.mapi (fun i off -> off + geti gf iframe dyn_s.(i)) offsets
    in
    Interp.account_move p (Tensor.num_elements src);
    Tensor.write_slice src dst ~offsets;
    set_rt gf iframe r dv

and compile_insert st op =
  let v_s = use_slot st op.Ir.operands.(0) in
  let dst_s = use_slot st op.Ir.operands.(1) in
  let idx_s = Array.init (Ir.num_operands op - 2) (fun i -> use_slot st op.Ir.operands.(i + 2)) in
  let r = def_slot st op.Ir.results.(0) in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let dv = get_rt gf iframe dst_s in
    let dst = Rtval.as_tensor dv in
    let idx = Array.map (fun s -> geti gf iframe s) idx_s in
    p.Profile.stores <- p.Profile.stores + 1;
    if Types.is_float_dtype dst.Tensor.dtype then Tensor.set_f dst idx (getf gf iframe v_s)
    else Tensor.set dst idx (geti gf iframe v_s);
    set_rt gf iframe r dv

and compile_merge_partial st op =
  let binop = Ir.str_attr op "op" in
  let a_s = use_slot st op.Ir.operands.(0) in
  let b_s = use_slot st op.Ir.operands.(1) in
  let r = def_slot st op.Ir.results.(0) in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let av = get_rt gf iframe a_s in
    let a = Rtval.as_tensor av in
    let b = Rtval.as_tensor (get_rt gf iframe b_s) in
    Interp.account_elementwise p (Tensor.num_elements a);
    Tensor.map2_in_place binop a b;
    set_rt gf iframe r av

(* Compile a block's ops in program order (order matters: a definition
   must claim its slot before any use, otherwise the use would be
   misclassified as a capture). Returns the instruction sequence and, when
   the block ends in a terminator, the slots of the terminator's operands
   (the block's results). Terminators are not instructions — exactly like
   [Interp.eval_block], they are never dispatched or accounted. *)
and compile_block st (block : Ir.block) : instr array * int array option =
  let n = Ir.num_ops block in
  if n = 0 then ([||], None)
  else begin
    let last = Ir.op_at block (n - 1) in
    if Interp.is_terminator last then begin
      let body = Array.make (n - 1) nop_instr in
      for i = 0 to n - 2 do
        body.(i) <- compile_op st (Ir.op_at block i)
      done;
      let ts = Array.map (fun v -> use_slot st v) last.Ir.operands in
      (body, Some ts)
    end
    else begin
      let body = Array.make n nop_instr in
      for i = 0 to n - 1 do
        body.(i) <- compile_op st (Ir.op_at block i)
      done;
      (body, None)
    end
  end

and compile_for st op =
  if Ir.num_operands op < 3 || Array.length op.Ir.regions <> 1 then raise Punt;
  let n_res = Array.length op.Ir.results in
  if Ir.num_operands op <> n_res + 3 then raise Punt;
  let block = Ir.entry_block op.Ir.regions.(0) in
  if Array.length block.Ir.args <> n_res + 1 then raise Punt;
  (* the loop-carried arity must be consistent, else the tree-walker's
     per-iteration region evaluation raises — let it *)
  let nops = Ir.num_ops block in
  (if nops = 0 then begin if n_res <> 0 then raise Punt end
   else
     let last = Ir.op_at block (nops - 1) in
     if Interp.is_terminator last then begin
       if Array.length last.Ir.operands <> n_res then raise Punt
     end
     else if n_res <> 0 then raise Punt);
  let lb_s = use_slot st op.Ir.operands.(0) in
  let ub_s = use_slot st op.Ir.operands.(1) in
  let step_s = use_slot st op.Ir.operands.(2) in
  let init_s = Array.init n_res (fun i -> use_slot st op.Ir.operands.(i + 3)) in
  let iv_s = def_slot st block.Ir.args.(0) in
  let iter_s = Array.init n_res (fun i -> def_slot st block.Ir.args.(i + 1)) in
  let body, term = compile_block st block in
  let yield_s = match term with Some a -> a | None -> [||] in
  (* a yield operand may be an iteration argument (slot permutation), so
     loop-carried values go through scratch slots of the matching class *)
  let scratch =
    Array.map (fun y -> if y >= 0 then new_gen st else new_int st) yield_s
  in
  Array.iteri (fun i v -> alias_slot st v iter_s.(i)) op.Ir.results;
  let nb = Array.length body in
  let ny = Array.length yield_s in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let lb = geti gf iframe lb_s
    and ub = geti gf iframe ub_s
    and step = geti gf iframe step_s in
    if step <= 0 then Interp.err "scf.for: non-positive step %d" step;
    for k = 0 to n_res - 1 do
      move gf iframe iter_s.(k) init_s.(k)
    done;
    let i = ref lb in
    while !i < ub do
      p.Profile.alu_ops <- p.Profile.alu_ops + 1 (* induction update/compare *);
      Interp.check_steps ctx "scf.for";
      seti gf iframe iv_s !i;
      for j = 0 to nb - 1 do
        body.(j) ctx gf iframe
      done;
      for k = 0 to ny - 1 do
        move gf iframe scratch.(k) yield_s.(k)
      done;
      for k = 0 to ny - 1 do
        move gf iframe iter_s.(k) scratch.(k)
      done;
      i := !i + step
    done

and compile_if st op =
  if Ir.num_operands op < 1 then raise Punt;
  let n_res = Array.length op.Ir.results in
  let nregions = Array.length op.Ir.regions in
  (* a missing branch yields no values; fine only for a result-less op *)
  if n_res > 0 && nregions < 2 then raise Punt;
  let check_branch ri =
    if ri < nregions then begin
      let block = Ir.entry_block op.Ir.regions.(ri) in
      if Array.length block.Ir.args <> 0 then raise Punt;
      let nops = Ir.num_ops block in
      if nops = 0 then begin if n_res <> 0 then raise Punt end
      else
        let last = Ir.op_at block (nops - 1) in
        if Interp.is_terminator last then begin
          if Array.length last.Ir.operands <> n_res then raise Punt
        end
        else if n_res <> 0 then raise Punt
    end
  in
  check_branch 0;
  check_branch 1;
  let c_s = use_slot st op.Ir.operands.(0) in
  let compile_branch ri =
    if ri >= nregions then None
    else begin
      let body, term = compile_block st (Ir.entry_block op.Ir.regions.(ri)) in
      let ys = match term with Some a -> a | None -> [||] in
      Some (body, ys)
    end
  in
  let then_b = compile_branch 0 in
  let else_b = compile_branch 1 in
  let res_s = Array.map (fun v -> def_slot st v) op.Ir.results in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let c = getb gf iframe c_s in
    match if c then then_b else else_b with
    | None -> ()
    | Some (body, ys) ->
      for j = 0 to Array.length body - 1 do
        body.(j) ctx gf iframe
      done;
      for k = 0 to Array.length ys - 1 do
        move gf iframe res_s.(k) ys.(k)
      done

and compile_parallel st op =
  if Array.length op.Ir.results <> 0 then raise Punt;
  if Array.length op.Ir.regions <> 1 then raise Punt;
  let n_dims = Ir.num_operands op / 3 in
  let block = Ir.entry_block op.Ir.regions.(0) in
  if Array.length block.Ir.args <> n_dims then raise Punt;
  let lb_s = Array.init n_dims (fun d -> use_slot st op.Ir.operands.(3 * d)) in
  let ub_s = Array.init n_dims (fun d -> use_slot st op.Ir.operands.((3 * d) + 1)) in
  let st_s = Array.init n_dims (fun d -> use_slot st op.Ir.operands.((3 * d) + 2)) in
  let arg_s = Array.map (fun v -> def_slot st v) block.Ir.args in
  let body, _term = compile_block st block in
  let nb = Array.length body in
  fun ctx gf iframe ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let lb = Array.map (fun s -> geti gf iframe s) lb_s in
    let ub = Array.map (fun s -> geti gf iframe s) ub_s in
    let step = Array.map (fun s -> geti gf iframe s) st_s in
    (* no per-iteration accounting, exactly like the tree-walker *)
    let rec go d =
      if d = n_dims then begin
        Interp.check_steps ctx "scf.parallel";
        for j = 0 to nb - 1 do
          body.(j) ctx gf iframe
        done
      end
      else begin
        let i = ref lb.(d) in
        while !i < ub.(d) do
          seti gf iframe arg_s.(d) !i;
          go (d + 1);
          i := !i + step.(d)
        done
      end
    in
    go 0

(* ----- unit compilation, cache, execution ----- *)

let compile_unit (region : Ir.region) : code =
  let st =
    {
      ngen = 0;
      nint = 0;
      slots = Hashtbl.create 64;
      caps = [];
      in_place = Hashtbl.create 8;
    }
  in
  List.iter (fun (op : Ir.op) -> Hashtbl.replace st.in_place op.Ir.oid ()) (in_place_ops region);
  let block = Ir.entry_block region in
  let arg_slots = Array.map (fun v -> def_slot st v) block.Ir.args in
  let body, term = compile_block st block in
  let term_slots = match term with Some a -> a | None -> [||] in
  let caps = Array.of_list (List.rev st.caps) in
  {
    ngen = st.ngen;
    nint = st.nint;
    arg_slots;
    cap_values = Array.map fst caps;
    cap_slots = Array.map snd caps;
    body;
    term_slots;
  }

(* Compiled units cached by the entry block's identity. Hooks are not part
   of the key: compiled closures resolve hooks through the executing
   context at runtime, so the same code serves any hook stack. The cache
   is mutex-protected — kernels are compiled once and then shared
   read-only across all DPU-lane domains. In a long-lived server the cache
   is cross-request state (a request re-running a cached module hits it),
   so it carries hit/miss/eviction counters and a size cap: at
   [max_cache_entries] the table is bulk-reset (block ids are dense and
   never reused, so there is no better victim order than "everything";
   re-compilation is cheap relative to execution). *)
let cache : (int, code) Hashtbl.t = Hashtbl.create 64
let cache_mutex = Mutex.create ()
let max_cache_entries = 1024

type cache_stats = { hits : int; misses : int; evictions : int; entries : int }

let stats_hits = ref 0
let stats_misses = ref 0
let stats_evictions = ref 0

let cache_stats () =
  Mutex.lock cache_mutex;
  let s =
    {
      hits = !stats_hits;
      misses = !stats_misses;
      evictions = !stats_evictions;
      entries = Hashtbl.length cache;
    }
  in
  Mutex.unlock cache_mutex;
  s

let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Mutex.unlock cache_mutex

let get_code (region : Ir.region) : code =
  let key = (Ir.entry_block region).Ir.bid in
  (* codegen wall time on a miss, observed after the mutex is released
     so the metrics registry is never entered with the cache lock held *)
  let miss_s = ref (-1.0) in
  let code =
    Mutex.lock cache_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock cache_mutex)
      (fun () ->
        match Hashtbl.find_opt cache key with
        | Some c ->
          incr stats_hits;
          c
        | None ->
          incr stats_misses;
          if Hashtbl.length cache >= max_cache_entries then begin
            stats_evictions := !stats_evictions + Hashtbl.length cache;
            Hashtbl.reset cache
          end;
          let t0 = if Trace.Metrics.enabled () then Unix.gettimeofday () else 0.0 in
          let c = compile_unit region in
          if t0 > 0.0 then miss_s := Unix.gettimeofday () -. t0;
          Hashtbl.add cache key c;
          c)
  in
  if !miss_s >= 0.0 && Trace.Metrics.enabled () then begin
    Trace.Metrics.incr "cinm_codegen_regions_total";
    Trace.Metrics.observe "cinm_codegen_seconds" !miss_s
  end;
  code

let exec (code : code) ctx (caps : Rtval.t array) (args : Rtval.t list) : Rtval.t list =
  let n_args = List.length args in
  if Array.length code.arg_slots <> n_args then
    Interp.err "region arity mismatch: %d args for %d params" n_args
      (Array.length code.arg_slots);
  let gf = Array.make code.ngen Rtval.Token in
  let iframe = Array.make code.nint 0 in
  Array.iteri (fun i rv -> set_rt gf iframe code.cap_slots.(i) rv) caps;
  List.iteri (fun i rv -> set_rt gf iframe code.arg_slots.(i) rv) args;
  let body = code.body in
  for j = 0 to Array.length body - 1 do
    body.(j) ctx gf iframe
  done;
  Array.to_list (Array.map (fun s -> get_rt gf iframe s) code.term_slots)

(* ----- launch API ----- *)

type prepared =
  | Tree_region of Ir.region
  | Compiled_code of code * Rtval.t array

(* Resolve a region to something executable under the selected backend.
   For the compiled backend this compiles (or fetches) the unit and
   resolves its captured values from the launching context once — the
   result is shared read-only across lanes, each of which executes on its
   own register file. *)
let prepare ctx (region : Ir.region) : prepared =
  match backend_of_ctx ctx with
  | Tree -> Tree_region region
  | Compiled ->
    let code = get_code region in
    Compiled_code (code, Array.map (fun v -> Interp.lookup ctx v) code.cap_values)

let is_compiled = function Compiled_code _ -> true | Tree_region _ -> false

let run prep ctx args =
  match prep with
  | Tree_region region -> Interp.eval_region ctx region args
  | Compiled_code (code, caps) -> exec code ctx caps args

let run_region ctx region args = run (prepare ctx region) ctx args

(* ----- entry points (drop-in for Interp.run_func / run_in_module) ----- *)

let run_func ?(hooks = []) ?profile ?modul ?(config = Config.default ()) (f : Func.t)
    (args : Rtval.t list) : Rtval.t list * Profile.t =
  let ctx = Interp.create_ctx ~hooks ?profile ?modul ~fname:f.Func.fname ~config () in
  match backend_of_ctx ctx with
  | Tree ->
    let results = Interp.eval_region ctx f.Func.body args in
    (results, ctx.Interp.profile)
  | Compiled ->
    let code = get_code f.Func.body in
    let caps = Array.map (fun v -> Interp.lookup ctx v) code.cap_values in
    let results = exec code ctx caps args in
    (results, ctx.Interp.profile)

let run_in_module ?(hooks = []) ?profile ?config (m : Func.modul) name args =
  let f = Func.find_func_exn m name in
  run_func ~hooks ?profile ~modul:m ?config f args
