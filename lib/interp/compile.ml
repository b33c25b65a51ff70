(* Closure-compiling executor: a one-shot pass over a kernel's IR that
   resolves every SSA value to a fixed slot in a register file and
   specializes each op into an OCaml closure — name dispatch, binop
   selection, cmpi predicate decode and attribute decoding all happen once
   at compile time instead of once per evaluated op. The resulting closure
   tree is stored on the kernel's entry block and shared read-only across
   DPU-lane domains; every lane executes it on a private register file,
   so the parallel launch path needs no per-lane copy of the interpreter
   environment.

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
   counters mean identical stats, reports and traces), same errors.
   Three mechanisms enforce this:

   - every natively compiled op replays the exact accounting of its
     [Interp.eval_op] case (one [launched_ops] per dispatched op, the
     same bucket increments in the same places);
   - a fused loop nest (see "fused loop nests" below) accounts in bulk
     but to the same totals: each loop execution adds its completed
     trips times a per-trip delta derived from the same per-op
     increments, plus its branch entries times their cost; when an op
     raises, it adds exactly the part of the failing trip the
     tree-walker had counted (a load or store counts before its bounds
     check, a DMA after its copy), raises the same message, and polls
     [Interp.check_steps] once per trip like the tree-walker's loop;
   - an op the native compiler does not fully understand takes one of
     two paths, chosen when it is compiled: a region-free device op
     ([Interp.is_device_op]) calls the machine hooks straight off the
     register file through [Interp.dispatch_hooks], as [Interp.eval_op]
     does; every other op — unknown names, bulk tensor ops,
     region-carrying device ops, or any op whose attribute/shape
     decoding fails — goes through a generic closure that routes the
     single op through [Interp.eval_op] unchanged (operands and
     nested-region free values are staged from the register file into
     the context environment first, results are read back after). Both
     preserve the tree-walker's runtime errors: a malformed op only
     fails when executed, not at compile time.

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

(* One compiled op: reads/writes the frames — gen, int, and the payload
   frame through which fused loop nests reach their memrefs' raw
   [int array]s — accounts into the context's profile, and may call hooks
   through the context. *)
type instr = Interp.ctx -> Rtval.t array -> int array -> int array array -> unit

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
  npay : int;  (** payload-frame size: the most memrefs of one fused nest *)
  fused : Ir.op list;  (** the [scf.for] ops that run fused *)
  strips : Ir.op list;  (** those of them with a strip form *)
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
  merges : (int, Ir.op * Ir.op) Hashtbl.t;
      (** extract_slice oid -> its merge_partial and insert_slice, run as
          one region update *)
  adopt : (int, unit) Hashtbl.t;  (** oids of hook ops that keep their operand *)
  recycle : (int, Ir.value list) Hashtbl.t;
      (** oid -> values whose storage returns to the arena after the op *)
  mutable in_nest : bool;  (** compiling the per-op form of a fused nest *)
  mutable npay : int;
  mutable fused : Ir.op list;
  mutable strips : Ir.op list;
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

let nop_instr : instr = fun _ _ _ _ -> ()
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

(* ----- ownership: in-place updates and recycled storage ----- *)

(* The tree-walker gives tensors value semantics: [tensor.insert_slice],
   [tensor.insert] and [cinm.merge_partial] return fresh storage and leave
   their destination as it was, and every bulk result is a fresh
   allocation the GC reclaims. Compiled code may instead write into the
   destination, and hand storage back to {!Tensor.Arena} for the next
   fresh result, when nothing can observe the difference. Both are
   decided here, once per unit, from the IR.

   A value is *owned* (no other live value reaches its storage) when
   - an op of the [fresh_result] allow-list produced it, or
   - it is an [scf.for] iteration argument, or the matching loop result,
     whose init is owned and dies at the loop and whose yielded value is
     owned and dies at the yield.
   Nothing else is: function and region arguments, captures, constants,
   hook and call results (but [memristor.gemm_tile]'s), views that share
   a payload ([tensor.reshape], [cinm.expand]), [arith.select] and
   [scf.if] results.

   An update writes in place when its destination is owned and the
   update is its *last use*: the update sits in the value's defining
   block and every other use of the value, counted through nested
   regions, is a [copying_read] earlier in that block. The block rule
   keeps a loop from updating, on its second trip, a value defined
   outside it.

   Two more rules follow from the same facts.
   - An accumulator chain [e = extract_slice acc[off]; m =
     merge_partial(e, p); insert_slice m into acc[off]], three adjacent
     ops of a nested block whose merge and insert both run in place and
     whose [e] and [m] have no other use, runs as one region update
     [acc[off] op= p] ({!Tensor.merge_region}): the slice is never
     materialized. Not in a unit's entry block, whose ops [exec ~each]
     accounts one by one.
   - A hook op of [adopts] whose tensor operand is owned and dies at the
     op keeps that operand's storage instead of copying it (the
     crossbar's staged input); compiled code tells the hook through
     [ctx.adopt].

   An owned tensor the arena would keep (over [Tensor.Arena.small]
   elements) is *recycled* when every use of it, at any depth, is
   [reads_only] (so no update or hook takes its storage over, and no
   yield, return or view keeps it): compiled code returns its storage to
   the arena after the op of its defining block that holds its last use.
   Fresh results take their storage from the arena, so what a unit
   returns it draws again. *)

(* Ops whose tensor results are always fresh storage. Their kernels, and
   the memristor and UPMEM hooks, take that storage from the arena. *)
let fresh_result name =
  Interp.is_elementwise name
  ||
  match name with
  | "tensor.empty" | "tensor.extract_slice" | "tensor.pad" | "tensor.insert_slice"
  | "tensor.insert" | "cinm.merge_partial" | "cinm.not" | "tosa.add" | "cinm.gemm"
  | "linalg.matmul" | "tosa.matmul" | "cinm.gemv" | "linalg.matvec"
  | "memristor.gemm_tile" | "upmem.gather" ->
    true
  | _ -> false

(* The operand an update op writes into when it runs in place. *)
let update_dest = function
  | "tensor.insert_slice" | "tensor.insert" -> Some 1
  | "cinm.merge_partial" -> Some 0
  | _ -> None

(* Reads that copy out of their operand 0 and keep no reference to it. *)
let copying_read = function "tensor.extract_slice" | "tensor.extract" -> true | _ -> false

(* The hook operand a hook may keep instead of copying: the input a
   crossbar tile stages. *)
let adopts name pos = name = "memristor.copy_tile" && pos = 1

(* Does [op] only read its tensor operand [pos]: no result shares its
   storage and nothing keeps a reference past the op? [takes]: the op
   runs in place or adopts (see [analyze]). An update's destination is
   read only when the update copies it. The two memristor hooks copy what
   they stage into a tile, unless the tile adopts it. *)
let reads_only (op : Ir.op) pos ~takes =
  match op.Ir.name with
  | "tensor.extract_slice" | "tensor.extract" | "tensor.pad" | "cinm.not" -> pos = 0
  | "tensor.insert_slice" -> pos = 0 || (pos = 1 && not takes)
  | "tensor.insert" -> pos = 1 && not takes
  | "cinm.merge_partial" -> pos = 1 || (pos = 0 && not takes)
  | "memristor.store_tile" -> pos = 1
  | "memristor.copy_tile" -> pos = 1 && not takes
  | "upmem.scatter" -> pos = 0
  | "tosa.add" | "cinm.gemm" | "linalg.matmul" | "tosa.matmul" | "cinm.gemv"
  | "linalg.matvec" ->
    pos <= 1
  | name -> pos <= 1 && Interp.is_elementwise name

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
           && Ir.is_terminator y
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

(* What compiled code does differently from the tree-walker in one unit:
   the update ops that write in place, in program order; the accumulator
   chains that run as one region update (extract_slice, merge_partial,
   insert_slice); the hook ops that adopt their operand; and the values
   whose storage goes back to the arena after each op. *)
type plan = {
  in_place : Ir.op list;
  merges : (Ir.op * Ir.op * Ir.op) list;
  adopt : Ir.op list;
  recycle : (Ir.op * Ir.value list) list;
}

let empty_plan = { in_place = []; merges = []; adopt = []; recycle = [] }

(* A tensor the arena would keep: smaller ones bypass it, so releasing
   them gains nothing. *)
let pooled (v : Ir.value) =
  match v.Ir.ty with
  | Types.Tensor (shape, _) -> Array.fold_left ( * ) 1 shape > Tensor.Arena.small
  | _ -> false

let analyze (region : Ir.region) =
  let def_block = Hashtbl.create 64 (* vid -> bid *) in
  let op_pos = Hashtbl.create 64 (* oid -> (bid, index) *) in
  let producers = Hashtbl.create 64 (* vid -> producer *) in
  let candidates = ref [] (* pooled values with a producer, reverse program order *) in
  let updates = ref [] (* (update op, destination operand) *) in
  let hooks = ref [] (* ops with an [adopts] operand 1 *) in
  let loops = ref [] (* (scf.for, yield, carried index) *) in
  let produce (v : Ir.value) p =
    Hashtbl.replace producers v.Ir.vid p;
    if pooled v then candidates := v :: !candidates
  in
  let rec defs (r : Ir.region) =
    Ir.iter_blocks
      (fun b ->
        Array.iter (fun (v : Ir.value) -> Hashtbl.replace def_block v.Ir.vid b.Ir.bid) b.Ir.args;
        for i = 0 to Ir.num_ops b - 1 do
          let op = Ir.op_at b i in
          Hashtbl.replace op_pos op.Ir.oid (b.Ir.bid, i);
          Array.iter (fun (v : Ir.value) -> Hashtbl.replace def_block v.Ir.vid b.Ir.bid) op.Ir.results;
          if fresh_result op.Ir.name then Array.iter (fun v -> produce v Fresh) op.Ir.results;
          (match update_dest op.Ir.name with
          | Some pos when pos < Ir.num_operands op && Ir.num_results op = 1 ->
            updates := (op, pos) :: !updates
          | _ -> ());
          if adopts op.Ir.name 1 && Ir.num_operands op = 2 then hooks := op :: !hooks;
          (match for_yield op with
          | Some (body, y) ->
            Array.iteri
              (fun k v ->
                produce v (Carried (op, k));
                produce body.Ir.args.(k + 1) (Carried (op, k));
                loops := (op, y, k) :: !loops)
              op.Ir.results
          | None -> ());
          Array.iter defs op.Ir.regions
        done)
      r
  in
  defs region;
  let sites = Hashtbl.create 64 (* vid -> site list *) in
  let readers = Hashtbl.create 64 (* pooled vid -> (op, operand) list, at any depth *) in
  let add tbl (v : Ir.value) s =
    Hashtbl.replace tbl v.Ir.vid (s :: Option.value ~default:[] (Hashtbl.find_opt tbl v.Ir.vid))
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
                if pooled v then add readers v (op, k);
                let rec find operand = function
                  | [] -> add sites v { user = op; at = max_int; operand = -1 }
                  | (b', user, at) :: rest ->
                    if b' = bid then add sites v { user; at; operand } else find (-1) rest
                in
                find k scope)
            op.Ir.operands;
          Array.iter (uses scope) op.Ir.regions
        done)
      r
  in
  uses [] region;
  let sites_of (v : Ir.value) = Option.value ~default:[] (Hashtbl.find_opt sites v.Ir.vid) in
  let last_use (v : Ir.value) (u : Ir.op) pos =
    match (Hashtbl.find_opt def_block v.Ir.vid, Hashtbl.find_opt op_pos u.Ir.oid) with
    | Some bid, Some (ubid, uat) when bid = ubid ->
      List.for_all
        (fun s ->
          if s.user.Ir.oid = u.Ir.oid then s.operand = pos
          else s.operand = 0 && s.at < uat && copying_read s.user.Ir.name)
        (sites_of v)
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
  let in_place =
    List.rev
      (List.filter_map
         (fun ((u : Ir.op), pos) ->
           let d = u.Ir.operands.(pos) in
           if owned d && last_use d u pos then Some u else None)
         !updates)
  in
  let adopt =
    List.filter
      (fun (u : Ir.op) -> owned u.Ir.operands.(1) && last_use u.Ir.operands.(1) u 1)
      !hooks
  in
  let writes = Hashtbl.create 8 in
  List.iter (fun (u : Ir.op) -> Hashtbl.replace writes u.Ir.oid ()) (in_place @ adopt);
  (* accumulator chains, found from their insert_slice *)
  let entry = (Ir.entry_block region).Ir.bid in
  let only_use (v : Ir.value) (u : Ir.op) =
    match sites_of v with [ s ] -> s.user == u && s.operand = 0 | _ -> false
  in
  let merges =
    List.filter_map
      (fun (ins : Ir.op) ->
        match ins.Ir.operands.(0).Ir.def with
        | Op_result (mp, 0) when ins.Ir.name = "tensor.insert_slice" -> (
          match mp.Ir.operands.(0).Ir.def with
          | Op_result (e, 0)
            when mp.Ir.name = "cinm.merge_partial"
                 && e.Ir.name = "tensor.extract_slice"
                 && Hashtbl.mem writes mp.Ir.oid
                 && Hashtbl.mem writes ins.Ir.oid
                 && only_use e.Ir.results.(0) mp
                 && only_use mp.Ir.results.(0) ins
                 && Array.length e.Ir.operands = Array.length ins.Ir.operands - 1
                 && e.Ir.operands.(0) == ins.Ir.operands.(1)
                 && Array.for_all2 ( == )
                      (Array.sub e.Ir.operands 1 (Array.length e.Ir.operands - 1))
                      (Array.sub ins.Ir.operands 2 (Array.length ins.Ir.operands - 2))
                 && Ir.attr e "offsets" = Ir.attr ins "offsets" -> (
            match (Hashtbl.find_opt op_pos e.Ir.oid, Hashtbl.find_opt op_pos ins.Ir.oid) with
            | Some (b, i), Some (b', i') when b = b' && b <> entry && i' = i + 2 ->
              Some (e, mp, ins)
            | _ -> None)
          | _ -> None)
        | _ -> None)
      in_place
  in
  (* the op of the defining block after which [v] is dead, when every use
     is inside that block's scope *)
  let last_site v =
    match sites_of v with
    | [] -> None
    | ss when List.exists (fun s -> s.at = max_int) ss -> None
    | s :: ss -> Some (List.fold_left (fun a b -> if b.at > a.at then b else a) s ss).user
  in
  let recycle = Hashtbl.create 16 (* oid -> (op, values) *) in
  (* a chain's slice and merged value are never materialized *)
  let unbound =
    List.concat_map
      (fun ((e : Ir.op), (mp : Ir.op), _) -> [ e.Ir.results.(0); mp.Ir.results.(0) ])
      merges
  in
  List.iter
    (fun v ->
      if owned v && not (List.memq v unbound) then
        match last_site v with
        | Some (op : Ir.op)
          when List.for_all
                 (fun ((u : Ir.op), pos) ->
                   reads_only u pos ~takes:(Hashtbl.mem writes u.Ir.oid))
                 (Option.value ~default:[] (Hashtbl.find_opt readers v.Ir.vid)) ->
          let vs = match Hashtbl.find_opt recycle op.Ir.oid with Some (_, l) -> l | None -> [] in
          Hashtbl.replace recycle op.Ir.oid (op, v :: vs)
        | _ -> ())
    (List.rev !candidates);
  let order = ref [] in
  if Hashtbl.length recycle > 0 then
    Ir.walk_region
      (fun (op : Ir.op) ->
        match Hashtbl.find_opt recycle op.Ir.oid with
        | Some (_, vs) -> order := (op, List.rev vs) :: !order
        | None -> ())
      region;
  { in_place; merges; adopt; recycle = List.rev !order }

(* Only units with an update op or a fresh result the arena would keep
   run the analysis: most units (every DPU kernel, most small host
   functions) have neither. *)
let plan (region : Ir.region) : plan =
  let needed = ref false in
  Ir.walk_region
    (fun op ->
      if
        update_dest op.Ir.name <> None
        || (Array.exists pooled op.Ir.results && fresh_result op.Ir.name)
      then needed := true)
    region;
  if !needed then analyze region else empty_plan

let in_place_ops region = (plan region).in_place

let recycled_after region = (plan region).recycle

let merged_updates region = List.map (fun (_, _, ins) -> ins) (plan region).merges

(* ----- the generic fallback ----- *)

(* An op the native compilers leave alone runs one of two ways, chosen
   here once. A region-free device op ([Interp.is_device_op]) goes to the
   hooks straight off the register file, with no environment staged; its
   [launched_ops] count and its error when no hook answers are
   [Interp.eval_op]'s. Every other op goes through [Interp.eval_op]
   itself: its operands (and the free values of its nested regions) are
   staged from the register file into the context environment, and its
   results read back into their slots. Both are bit-identical to the
   tree-walker by construction: the same code runs, including all
   profile accounting and error behavior. *)
let compile_generic (st : cstate) (op : Ir.op) : instr =
  let operand_slots = Array.map (use_slot st) op.Ir.operands in
  let free_binds =
    Array.of_list
      (List.map (fun (v : Ir.value) -> (v.Ir.vid, use_slot st v)) (free_values op))
  in
  let result_slots = Array.map (def_slot st) op.Ir.results in
  if Interp.is_device_op op && Array.length op.Ir.regions = 0 then begin
    let n_operands = Array.length operand_slots in
    let adopt = Hashtbl.mem st.adopt op.Ir.oid in
    fun ctx gf iframe _pf ->
      let ops = Array.make n_operands Rtval.Token in
      for i = 0 to n_operands - 1 do
        Array.unsafe_set ops i (get_rt gf iframe (Array.unsafe_get operand_slots i))
      done;
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      ctx.Interp.adopt <- adopt;
      let vals =
        try Interp.dispatch_hooks ctx op ops
        with e ->
          ctx.Interp.adopt <- false;
          raise e
      in
      ctx.Interp.adopt <- false;
      let n = List.length vals in
      if n <> Array.length result_slots then
        Interp.err "%s: produced %d values for %d results" op.Ir.name n
          (Array.length result_slots);
      List.iteri (fun i rv -> set_rt gf iframe (Array.unsafe_get result_slots i) rv) vals
  end
  else
    fun ctx gf iframe _pf ->
      let env = ctx.Interp.env in
      Array.iteri
        (fun i s -> Hashtbl.replace env op.Ir.operands.(i).Ir.vid (get_rt gf iframe s))
        operand_slots;
      Array.iter (fun (vid, s) -> Hashtbl.replace env vid (get_rt gf iframe s)) free_binds;
      Interp.eval_op ctx op;
      Array.iteri
        (fun i s ->
          let vid = op.Ir.results.(i).Ir.vid in
          match Hashtbl.find_opt env vid with
          | Some rv -> set_rt gf iframe s rv
          | None -> Interp.err "%s: result %%%d not bound" op.Ir.name vid)
        result_slots

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

(* ----- fused loop nests ----- *)

(* An [scf.for] nest whose body holds only int-class scalar arithmetic,
   compares and selects, [scf.if], rank-1/2 loads and stores on int
   memrefs defined outside the nest, DMA, and nested loops of the same
   kind runs as one fused program. Its loops are plain OCaml loops over
   the int frame; each memref is bound once per nest entry to its raw
   [int array] in the payload frame; i1 values, which never leave the
   nest, live in int slots of their own as 0/1. A nest whose memrefs are
   not, on entry, [Tensor.I] payloads of the static rank and dtype runs
   its per-op closures instead.

   Accounting. A loop execution makes one profile update: its completed
   trips times the per-trip delta of its body's unconditional ops (fixed
   at compile time), plus, for each [scf.if] branch in the body, the
   branch's cost times the times it was entered (counted in an int slot).
   A raised exception adds what the tree-walker had counted in the
   failing trip: [l_fail.(pc + 1)], fixed at compile time, for a raise at
   body op [pc] (-1: in the step check). A branch counts as complete from
   its entry, so the entries of ops inside a branch subtract the part of
   it not yet run. *)

(* One memref of a nest: its gen-frame slot and static type; a rank-2
   memref also binds its dims to two int-frame slots on entry. *)
type fmem = { m_slot : int; m_rank : int; m_dtype : Types.dtype; m_dim0 : int; m_dim1 : int }

(* Strips. An innermost loop whose body is straight-line (no branch, loop
   or DMA) and carries nothing but int [arith.addi] reductions also has a
   strip form: each op runs over up to [strip_width] trips at a time.
   Operands live in the executing domain's bank (an [int array]): a
   vector of [strip_width] words per varying value, one cell per
   loop-invariant one. An operand is a bank offset and a mask, [t land
   mask] picking trip [t]'s word: [strip_width - 1] for a vector, 0 for a
   cell, so one loop per op serves vector and scalar operands alike.
   Offsets named [row], [off], [d0], [d1] are cells; -1 means none (rank
   1, or a bare induction variable). *)
type vbin = Badd | Bsub | Bmul | Bmin | Bmax | Band | Bior | Bxor | Bshl | Bshr
          | Beq | Bne | Blt | Ble | Bgt | Bge

type vop =
  | Vbin of { k : vbin; d : int; a : int; am : int; b : int; bm : int; s : int }
  | Vsel of { d : int; c : int; cm : int; t : int; tm : int; e : int; em : int }
  | Viota of { d : int; off : int }  (** [iv + off] as data *)
  | Vload of { d : int; m : int; row : int; d0 : int; d1 : int; off : int }
      (** [m[row][iv + off]], contiguous over the strip *)
  | Vstore of { v : int; vm : int; m : int; row : int; d0 : int; d1 : int; off : int; s : int }
  | Vsum of { it : int; v : int; vm : int; s : int }
      (** adds a strip's words to the carried int-frame slot [it] *)

type strip = {
  s_words : int;  (** bank words the loop uses *)
  s_entry : int array;  (** (int-frame slot, cell) pairs read on loop entry *)
  s_consts : int array;  (** (value, cell) pairs set on loop entry *)
  s_ops : vop array;  (** the per-strip program *)
  s_checks : vop array;  (** its loads and stores, bounds-checked per strip *)
  s_stored : int array;  (** payload indices the loop stores to *)
  s_mems : int array;  (** every payload index it reaches *)
}

let strip_width = 64

(* Fewer trips run faster one by one: a strip loop's entry (cells, the
   payload check) costs about what three trips of dispatch do. *)
let min_strip_trips = 4

(* One op of a fused program. Scalar operands are int-frame indices,
   memrefs payload-frame indices; [s] is the sign-extension shift that
   wraps a result to its width (0 for 64 bits and for i1, whose operands
   are 0/1 already). Branches and their yields are inlined: [Fif] jumps
   to [else_pc] on a zero condition, [Fjump] ends a then-branch. *)
type fop =
  | Fconst of { d : int; v : int }
  | Fmove of { d : int; a : int }
  | Fadd of { d : int; a : int; b : int; s : int }
  | Fsub of { d : int; a : int; b : int; s : int }
  | Fmul of { d : int; a : int; b : int; s : int }
  | Fmin of { d : int; a : int; b : int; s : int }
  | Fmax of { d : int; a : int; b : int; s : int }
  | Fand of { d : int; a : int; b : int; s : int }
  | Fior of { d : int; a : int; b : int; s : int }
  | Fxor of { d : int; a : int; b : int; s : int }
  | Fshl of { d : int; a : int; b : int; s : int }
  | Fshr of { d : int; a : int; b : int; s : int }
  | Feq of { d : int; a : int; b : int }
  | Fne of { d : int; a : int; b : int }
  | Flt of { d : int; a : int; b : int }
  | Fle of { d : int; a : int; b : int }
  | Fgt of { d : int; a : int; b : int }
  | Fge of { d : int; a : int; b : int }
  | Fselect of { d : int; c : int; t : int; e : int }
  | Fload1 of { d : int; m : int; i : int }
  | Fload2 of { d : int; m : int; d0 : int; d1 : int; i : int; j : int }
  | Fstore1 of { v : int; m : int; i : int; s : int }
  | Fstore2 of { v : int; m : int; d0 : int; d1 : int; i : int; j : int; s : int }
  | Fdma of { to_wram : bool; mram : int; wram : int; moff : int; woff : int; count : int }
  | Fif of { c : int; mutable else_pc : int; then_n : int; else_n : int }
  | Fjump of { mutable target : int }
  | Floop of nest

and nest = {
  l_lb : int;
  l_ub : int;
  l_step : int;
  l_iv : int;
  l_inits : int array;
  l_iters : int array;  (** the loop's results alias these *)
  l_yields : int array;
  l_scratch : int array;  (** staging for a carry of several values *)
  l_body : fop array;
  l_trip : Profile.t;  (** what one completed trip adds, branches aside *)
  l_fail : Profile.t array;  (** what a trip that raised at [pc] had added *)
  l_branch_n : int array;  (** int slots counting branch entries *)
  l_branch_cost : Profile.t array;  (** what one entry of that branch adds *)
  l_strip : strip option;
}

(* ----- the recogniser (allocates nothing, so a rejected loop costs
   compile time only the walk) ----- *)

(* Int memrefs whose payload is [Tensor.I]: their rank, or 0. *)
let int_memref_rank (v : Ir.value) =
  match v.Ir.ty with
  | Types.MemRef (shape, (Types.I32 | Types.I64)) -> Array.length shape
  | _ -> 0

let same_elements (a : Ir.value) (b : Ir.value) =
  match (a.Ir.ty, b.Ir.ty) with Types.MemRef (_, x), Types.MemRef (_, y) -> x = y | _ -> false

let is_i1 (v : Ir.value) = match v.Ir.ty with Types.Scalar Types.I1 -> true | _ -> false

let rec op_within (root : Ir.op) (op : Ir.op) =
  match op.Ir.parent with
  | Some { Ir.parent_region = Some { Ir.parent_op = Some p; _ }; _ } ->
    p == root || op_within root p
  | _ -> false

(* A scalar a fused program can hold: int-class, or an i1 defined in the
   nest (so nothing outside sees its 0/1 representation). *)
let fusable_scalar root (v : Ir.value) =
  int_class v
  || is_i1 v
     && match v.Ir.def with Ir.Op_result (op, _) -> op_within root op | Ir.Block_arg _ -> false

let rec fusable_scalars root (vs : Ir.value array) k =
  k >= Array.length vs || (fusable_scalar root vs.(k) && fusable_scalars root vs (k + 1))

let fused_binop = function
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.minsi" | "arith.maxsi" | "arith.shli"
  | "arith.shrsi" ->
    1
  | "arith.andi" | "arith.ori" | "arith.xori" -> 2 (* also on i1 *)
  | _ -> 0

let attr_matches (op : Ir.op) name f =
  match List.assoc name op.Ir.attrs with a -> f a | exception Not_found -> false

let int_value = function Attr.Int _ -> true | _ -> false

let cmpi_pred = function
  | Attr.Str ("eq" | "ne" | "slt" | "sle" | "sgt" | "sge") -> true
  | _ -> false

(* Ops [i, n) of [b] are fusable. *)
let rec fusable_ops root b i n =
  i >= n || (fusable_op root (Ir.op_at b i) && fusable_ops root b (i + 1) n)

(* A block with [n_res] results ending in an [scf.yield] of them, or in
   no terminator when it has none, whose ops are fusable. *)
and fusable_block root (b : Ir.block) n_res =
  let n = Ir.num_ops b in
  if n = 0 then n_res = 0
  else
    let last = Ir.op_at b (n - 1) in
    if Ir.is_terminator last then
      last.Ir.name = "scf.yield"
      && Array.length last.Ir.operands = n_res
      && fusable_scalars root last.Ir.operands 0
      && fusable_ops root b 0 (n - 1)
    else n_res = 0 && fusable_ops root b 0 n

and fusable_for root (op : Ir.op) =
  let n_res = Array.length op.Ir.results in
  op.Ir.name = "scf.for"
  && Array.length op.Ir.regions = 1
  && Ir.num_blocks op.Ir.regions.(0) > 0
  && Ir.num_operands op = n_res + 3
  && Array.for_all int_class op.Ir.operands
  && Array.for_all int_class op.Ir.results
  &&
  let b = Ir.entry_block op.Ir.regions.(0) in
  Array.length b.Ir.args = n_res + 1
  && Array.for_all int_class b.Ir.args
  && fusable_block root b n_res

and fusable_branch root (op : Ir.op) ri =
  let n_res = Array.length op.Ir.results in
  if ri >= Array.length op.Ir.regions then n_res = 0
  else
    Ir.num_blocks op.Ir.regions.(ri) > 0
    &&
    let b = Ir.entry_block op.Ir.regions.(ri) in
    Array.length b.Ir.args = 0 && fusable_block root b n_res

and fusable_op root (op : Ir.op) =
  let nops = Ir.num_operands op and nres = Array.length op.Ir.results in
  match op.Ir.name with
  | "scf.for" -> fusable_for root op
  | "scf.if" ->
    nops = 1
    && fusable_scalar root op.Ir.operands.(0)
    && Array.for_all int_class op.Ir.results
    && Array.length op.Ir.regions <= 2
    && fusable_branch root op 0 && fusable_branch root op 1
  | _ when Array.length op.Ir.regions > 0 -> false
  | "arith.constant" ->
    nres = 1 && fusable_scalar root op.Ir.results.(0) && attr_matches op "value" int_value
  | "arith.index_cast" ->
    nops = 1 && nres = 1 && int_class op.Ir.operands.(0) && int_class op.Ir.results.(0)
  | "arith.cmpi" ->
    nops = 2 && nres = 1 && is_i1 op.Ir.results.(0)
    && fusable_scalars root op.Ir.operands 0
    && attr_matches op "predicate" cmpi_pred
  | "arith.select" ->
    nops = 3 && nres = 1 && fusable_scalar root op.Ir.operands.(0)
    && (if is_i1 op.Ir.results.(0) then fusable_i1s root op.Ir.operands 1
        else int_class op.Ir.results.(0) && fusable_ints op.Ir.operands 1)
  | "memref.load" ->
    let r = if nops > 0 then int_memref_rank op.Ir.operands.(0) else 0 in
    (r = 1 || r = 2) && nops = r + 1 && nres = 1
    && Array.for_all int_class op.Ir.results
    && fusable_ints op.Ir.operands 1
  | "memref.store" ->
    let r = if nops > 1 then int_memref_rank op.Ir.operands.(1) else 0 in
    (r = 1 || r = 2) && nops = r + 2 && nres = 0 && int_class op.Ir.operands.(0)
    && fusable_ints op.Ir.operands 2
  | "upmem.mram_read" | "upmem.mram_write" ->
    nops = 4 && nres = 0
    && int_memref_rank op.Ir.operands.(0) > 0
    && int_memref_rank op.Ir.operands.(1) > 0
    && same_elements op.Ir.operands.(0) op.Ir.operands.(1)
    && fusable_ints op.Ir.operands 2
    && attr_matches op "count" int_value
  | name -> (
    nops = 2 && nres = 1
    &&
    match fused_binop name with
    | 0 -> false
    | k when int_class op.Ir.results.(0) ->
      fusable_ints op.Ir.operands 0 || (k = 2 && fusable_i1s root op.Ir.operands 0)
    | k -> k = 2 && is_i1 op.Ir.results.(0) && fusable_i1s root op.Ir.operands 0)

and fusable_ints (vs : Ir.value array) k =
  k >= Array.length vs || (int_class vs.(k) && fusable_ints vs (k + 1))

(* i1 values made in the nest hold 0/1, as the tree-walker's [Bool]s and
   wrapped i1 [Int]s do. *)
and fusable_i1s root (vs : Ir.value array) k =
  k >= Array.length vs
  || (is_i1 vs.(k) && fusable_scalar root vs.(k) && fusable_i1s root vs (k + 1))

let fusable_nest op = fusable_for op op

(* ----- fused program compilation ----- *)

type fstate = {
  fst : cstate;
  mutable mem_ids : (int * int) list;  (** memref vid -> payload-frame index *)
  mutable mems : fmem list;  (** reverse index order *)
  i1_slots : (int, int) Hashtbl.t;  (** i1 vid -> int-frame index *)
  mutable loops : Ir.op list;
  mutable strips : Ir.op list;  (** the loops with a strip form *)
  mutable words : int;  (** the most bank words one of them uses *)
}

(* One loop body being compiled: ops and their failure entries (relative
   to the start of the body until [fuse_nest] adds the induction step),
   in reverse, and the branches met so far. *)
type fbuf = {
  mutable code : (fop * Profile.t) list;
  mutable len : int;
  mutable branches : (int * Profile.t) list;
}

(* Int-frame index of a value the per-op compile placed, or of a fused
   i1 value. *)
let fslot fs (v : Ir.value) =
  match Hashtbl.find_opt fs.fst.slots v.Ir.vid with
  | Some s when s < 0 -> -1 - s
  | _ -> (
    match Hashtbl.find_opt fs.i1_slots v.Ir.vid with Some k -> k | None -> raise Punt)

(* Int-frame index for a result: i1 results get a fresh slot. *)
let fdef fs (v : Ir.value) =
  if int_class v then fslot fs v
  else begin
    let k = -1 - new_int fs.fst in
    Hashtbl.replace fs.i1_slots v.Ir.vid k;
    k
  end

(* The payload-frame index of a memref, and its binding. *)
let fmem fs (v : Ir.value) =
  match List.assoc_opt v.Ir.vid fs.mem_ids with
  | Some k -> (k, List.nth fs.mems (List.length fs.mems - 1 - k))
  | None ->
    let m_slot =
      match Hashtbl.find_opt fs.fst.slots v.Ir.vid with Some s when s >= 0 -> s | _ -> raise Punt
    in
    let m_dtype = match v.Ir.ty with Types.MemRef (_, dt) -> dt | _ -> raise Punt in
    let m_rank = int_memref_rank v in
    let m_dim0, m_dim1 =
      if m_rank = 2 then (-1 - new_int fs.fst, -1 - new_int fs.fst) else (0, 0)
    in
    let k = List.length fs.mems in
    let mm = { m_slot; m_rank; m_dtype; m_dim0; m_dim1 } in
    fs.mems <- mm :: fs.mems;
    fs.mem_ids <- (v.Ir.vid, k) :: fs.mem_ids;
    (k, mm)

let wrap_shift = function Types.I64 | Types.I1 -> 0 | dt -> 63 - Types.dtype_bits dt

let cost ?(alu = 0) ?(mul = 0) ?(loads = 0) ?(stores = 0) ?(dma = 0) ?(dma_bytes = 0)
    ?(launched = 1) () =
  {
    (Profile.create ()) with
    Profile.alu_ops = alu;
    mul_ops = mul;
    loads;
    stores;
    dma_transfers = dma;
    dma_bytes;
    launched_ops = launched;
  }

let emit buf f entry =
  buf.code <- (f, entry) :: buf.code;
  buf.len <- buf.len + 1

(* Add [delta] to the failure entries of the ops emitted since [start]. *)
let shift buf start delta =
  List.iteri (fun k (_, e) -> if k < buf.len - start then Profile.add ~into:e delta) buf.code

(* ----- the strip form of an innermost loop ----- *)

let vbin_of = function
  | Fadd { d; a; b; s } -> Some (Badd, d, a, b, s)
  | Fsub { d; a; b; s } -> Some (Bsub, d, a, b, s)
  | Fmul { d; a; b; s } -> Some (Bmul, d, a, b, s)
  | Fmin { d; a; b; s } -> Some (Bmin, d, a, b, s)
  | Fmax { d; a; b; s } -> Some (Bmax, d, a, b, s)
  | Fand { d; a; b; s } -> Some (Band, d, a, b, s)
  | Fior { d; a; b; s } -> Some (Bior, d, a, b, s)
  | Fxor { d; a; b; s } -> Some (Bxor, d, a, b, s)
  | Fshl { d; a; b; s } -> Some (Bshl, d, a, b, s)
  | Fshr { d; a; b; s } -> Some (Bshr, d, a, b, s)
  | Feq { d; a; b } -> Some (Beq, d, a, b, 0)
  | Fne { d; a; b } -> Some (Bne, d, a, b, 0)
  | Flt { d; a; b } -> Some (Blt, d, a, b, 0)
  | Fle { d; a; b } -> Some (Ble, d, a, b, 0)
  | Fgt { d; a; b } -> Some (Bgt, d, a, b, 0)
  | Fge { d; a; b } -> Some (Bge, d, a, b, 0)
  | _ -> None

(* The int-frame slots a straight-line fused op reads, and the one it
   sets (-1: none). *)
let fop_slots f =
  match vbin_of f with
  | Some (_, d, a, b, _) -> ([ a; b ], d)
  | None -> (
    match f with
    | Fconst { d; _ } -> ([], d)
    | Fmove { d; a } -> ([ a ], d)
    | Fselect { d; c; t; e } -> ([ c; t; e ], d)
    | Fload1 { d; i; _ } -> ([ i ], d)
    | Fload2 { d; d0; d1; i; j; _ } -> ([ d0; d1; i; j ], d)
    | Fstore1 { v; i; _ } -> ([ v; i ], -1)
    | Fstore2 { v; d0; d1; i; j; _ } -> ([ v; d0; d1; i; j ], -1)
    | _ -> raise Exit)

(* How the strip form holds a value: in a cell, set on loop entry (a
   loop-invariant value or a constant); in a vector; or as [iv + off] for
   a cell [off] (-1: the induction variable itself), which indexes
   contiguously. *)
type vkind = Cell of int | Vec of int | Aff of int

(* The strip form of a loop body, or None. Eligible: straight-line ops;
   each carried value is an [arith.addi] of itself and another value,
   used nowhere else, whose result only feeds the yield (wrapped addition
   is associative, so summing a strip at a time gives the same bits);
   loads and stores index [iv + invariant] (the last index, for rank 2,
   under an invariant row); and every access to a memref the loop stores
   to is at that store's own index, so the trips touch disjoint words of
   it. *)
let strip_of (body : fop array) ~iv ~(iters : int array) ~(yields : int array) =
  let words = ref 0 in
  let take n =
    let o = !words in
    words := o + n;
    o
  in
  let kinds : (int, vkind) Hashtbl.t = Hashtbl.create 16 in
  let set = Hashtbl.replace kinds in
  let entry = ref [] and consts = ref [] and ops = ref [] in
  let accesses = ref [] (* (payload, stores, (row, off)) *) in
  let iotas = Hashtbl.create 4 in
  match
    let slots = Array.map fop_slots body in
    let loop_set = Hashtbl.create 16 in
    Array.iter (fun (_, d) -> Hashtbl.replace loop_set d ()) slots;
    Hashtbl.replace loop_set iv ();
    Array.iter (fun s -> Hashtbl.replace loop_set s ()) iters;
    let uses s =
      Array.fold_left (fun n (rs, _) -> n + List.length (List.filter (( = ) s) rs)) 0 slots
      + Array.fold_left (fun n y -> if y = s then n + 1 else n) 0 yields
    in
    (* body index -> (carried slot, addend) of each reduction *)
    let reductions =
      List.init (Array.length iters) (fun k ->
          let it = iters.(k) and y = yields.(k) in
          let pc =
            match Array.find_index (fun (_, d) -> d = y) slots with
            | Some pc -> pc
            | None -> raise Exit
          in
          match body.(pc) with
          | Fadd { a; b; s; _ } when (a = it) <> (b = it) && uses it = 1 && uses y = 1 ->
            (pc, (it, (if a = it then b else a), s))
          | _ -> raise Exit)
    in
    set iv (Aff (-1));
    let kind s =
      match Hashtbl.find_opt kinds s with
      | Some k -> k
      | None ->
        (* set by the loop but not yet: a carried value *)
        if Hashtbl.mem loop_set s then raise Exit;
        let c = take 1 in
        entry := (s, c) :: !entry;
        set s (Cell c);
        Cell c
    in
    let cell s = match kind s with Cell c -> c | _ -> raise Exit in
    let vmask = strip_width - 1 in
    (* a value used as data: its operand and mask *)
    let data s =
      match kind s with
      | Cell c -> (c, 0)
      | Vec v -> (v, vmask)
      | Aff off -> (
        match Hashtbl.find_opt iotas s with
        | Some v -> (v, vmask)
        | None ->
          let v = take strip_width in
          ops := Viota { d = v; off } :: !ops;
          Hashtbl.replace iotas s v;
          (v, vmask))
    in
    let vector mk =
      let v = take strip_width in
      ops := mk v :: !ops;
      Vec v
    in
    let aff s = match kind s with Aff off -> off | _ -> raise Exit in
    let load d m ~row ~d0 ~d1 ~col =
      let off = aff col in
      accesses := (m, false, (row, off)) :: !accesses;
      set d (vector (fun d -> Vload { d; m; row; d0; d1; off }))
    in
    let store v m ~row ~d0 ~d1 ~col ~s =
      let off = aff col in
      let v, vm = data v in
      ops := Vstore { v; vm; m; row; d0; d1; off; s } :: !ops;
      accesses := (m, true, (row, off)) :: !accesses
    in
    Array.iteri
      (fun pc f ->
        if not (List.mem_assoc pc reductions) then
          match vbin_of f with
          | Some (k, d, a, b, s) -> (
            match (k, s, kind a, kind b) with
            | Badd, 0, Aff (-1), Cell c | Badd, 0, Cell c, Aff (-1) -> set d (Aff c)
            | _ ->
              let a, am = data a and b, bm = data b in
              set d (vector (fun d -> Vbin { k; d; a; am; b; bm; s })))
          | None -> (
            match f with
            | Fconst { d; v } ->
              let c = take 1 in
              consts := (v, c) :: !consts;
              set d (Cell c)
            | Fmove { d; a } -> set d (kind a)
            | Fselect { d; c; t; e } ->
              let c, cm = data c and t, tm = data t and e, em = data e in
              set d (vector (fun d -> Vsel { d; c; cm; t; tm; e; em }))
            | Fload1 { d; m; i } -> load d m ~row:(-1) ~d0:(-1) ~d1:(-1) ~col:i
            | Fload2 { d; m; d0; d1; i; j } ->
              load d m ~row:(cell i) ~d0:(cell d0) ~d1:(cell d1) ~col:j
            | Fstore1 { v; m; i; s } -> store v m ~row:(-1) ~d0:(-1) ~d1:(-1) ~col:i ~s
            | Fstore2 { v; m; d0; d1; i; j; s } ->
              store v m ~row:(cell i) ~d0:(cell d0) ~d1:(cell d1) ~col:j ~s
            | _ -> raise Exit))
      body;
    List.iter
      (fun (_, (it, x, s)) ->
        let v, vm = data x in
        ops := Vsum { it; v; vm; s } :: !ops)
      reductions;
    (* a stored memref is reached only at its store's index *)
    let stored =
      List.sort_uniq compare
        (List.filter_map (fun (m, st, _) -> if st then Some m else None) !accesses)
    in
    List.iter
      (fun m ->
        let keys = List.filter_map (fun (m', _, k) -> if m' = m then Some k else None) !accesses in
        if not (List.for_all (( = ) (List.hd keys)) keys) then raise Exit)
      stored;
    let pairs l = Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) (List.rev l)) in
    let ops = Array.of_list (List.rev !ops) in
    {
      s_words = !words;
      s_entry = pairs !entry;
      s_consts = pairs !consts;
      s_ops = ops;
      s_checks =
        Array.of_list
          (List.filter (function Vload _ | Vstore _ -> true | _ -> false) (Array.to_list ops));
      s_stored = Array.of_list stored;
      s_mems = Array.of_list (List.sort_uniq compare (List.map (fun (m, _, _) -> m) !accesses));
    }
  with
  | sp -> Some sp
  | exception Exit -> None

(* An op's fused form, its cost when it completes and its cost when it
   raises (loads and stores count before their bounds check, DMA after
   its copy). *)
let rec fuse_op fs (op : Ir.op) : fop * Profile.t * Profile.t =
  let o k = fslot fs op.Ir.operands.(k) in
  let d () = fdef fs op.Ir.results.(0) in
  let same f c = (f, c, c) in
  match op.Ir.name with
  | "arith.constant" ->
    let v =
      match Ir.attr_exn op "value" with
      | Attr.Int i -> Tensor.wrap (Interp.scalar_result_dtype op) i
      | _ -> raise Punt
    in
    same (Fconst { d = d (); v }) (cost ())
  | "arith.index_cast" -> same (Fmove { a = o 0; d = d () }) (cost ())
  | "arith.cmpi" ->
    let a = o 0 and b = o 1 in
    let d = d () in
    let f =
      match Ir.str_attr op "predicate" with
      | "eq" -> Feq { d; a; b }
      | "ne" -> Fne { d; a; b }
      | "slt" -> Flt { d; a; b }
      | "sle" -> Fle { d; a; b }
      | "sgt" -> Fgt { d; a; b }
      | "sge" -> Fge { d; a; b }
      | _ -> raise Punt
    in
    same f (cost ~alu:1 ())
  | "arith.select" ->
    let c = o 0 and t = o 1 and e = o 2 in
    same (Fselect { d = d (); c; t; e }) (cost ~alu:1 ())
  | "memref.load" ->
    let m, mm = fmem fs op.Ir.operands.(0) in
    let f =
      if mm.m_rank = 1 then Fload1 { m; i = o 1; d = d () }
      else Fload2 { m; d0 = mm.m_dim0; d1 = mm.m_dim1; i = o 1; j = o 2; d = d () }
    in
    same f (cost ~loads:1 ())
  | "memref.store" ->
    let m, mm = fmem fs op.Ir.operands.(1) in
    let s = wrap_shift mm.m_dtype in
    let f =
      if mm.m_rank = 1 then Fstore1 { v = o 0; m; i = o 2; s }
      else Fstore2 { v = o 0; m; d0 = mm.m_dim0; d1 = mm.m_dim1; i = o 2; j = o 3; s }
    in
    same f (cost ~stores:1 ())
  | ("upmem.mram_read" | "upmem.mram_write") as name ->
    let count = Ir.int_attr op "count" in
    let mram, mm = fmem fs op.Ir.operands.(0) in
    let wram, _ = fmem fs op.Ir.operands.(1) in
    ( Fdma { to_wram = name = "upmem.mram_read"; mram; wram; moff = o 2; woff = o 3; count },
      cost ~dma:1 ~dma_bytes:(count * Types.dtype_bytes mm.m_dtype) (),
      cost () )
  | "scf.for" -> same (Floop (fuse_nest fs op)) (cost ())
  | name ->
    let a = o 0 and b = o 1 in
    let d = d () in
    let s = wrap_shift (Interp.scalar_result_dtype op) in
    let alu = cost ~alu:1 () in
    (match name with
    | "arith.addi" -> same (Fadd { d; a; b; s }) alu
    | "arith.subi" -> same (Fsub { d; a; b; s }) alu
    | "arith.muli" -> same (Fmul { d; a; b; s }) (cost ~mul:1 ())
    | "arith.minsi" -> same (Fmin { d; a; b; s }) alu
    | "arith.maxsi" -> same (Fmax { d; a; b; s }) alu
    | "arith.andi" -> same (Fand { d; a; b; s }) alu
    | "arith.ori" -> same (Fior { d; a; b; s }) alu
    | "arith.xori" -> same (Fxor { d; a; b; s }) alu
    | "arith.shli" -> same (Fshl { d; a; b; s }) alu
    | "arith.shrsi" -> same (Fshr { d; a; b; s }) alu
    | _ -> raise Punt)

(* Emit [ops] into [buf]; returns the cost of the ops that run whenever
   the sequence does (a branch's ops count through its counter). *)
and fuse_seq fs buf (ops : Ir.op list) =
  let prefix = cost ~launched:0 () in
  List.iter
    (fun (op : Ir.op) ->
      if op.Ir.name = "scf.if" then fuse_if fs buf prefix op
      else begin
        let f, full, fail = fuse_op fs op in
        let e = Profile.copy prefix in
        Profile.add ~into:e fail;
        emit buf f e;
        Profile.add ~into:prefix full
      end)
    ops;
  prefix

and fuse_if fs buf prefix (op : Ir.op) =
  let c = fslot fs op.Ir.operands.(0) in
  let res = Array.map (fslot fs) op.Ir.results in
  let then_n = -1 - new_int fs.fst and else_n = -1 - new_int fs.fst in
  let fif = Fif { c; else_pc = 0; then_n; else_n } in
  Profile.add ~into:prefix (cost ());
  emit buf fif (Profile.copy prefix);
  let branch ri counter =
    let start = buf.len in
    let full =
      if ri >= Array.length op.Ir.regions then cost ~launched:0 ()
      else begin
        let b = Ir.entry_block op.Ir.regions.(ri) in
        let n = Ir.num_ops b in
        let has_term = n > 0 && Ir.is_terminator (Ir.op_at b (n - 1)) in
        let full = fuse_seq fs buf (List.init (if has_term then n - 1 else n) (Ir.op_at b)) in
        if has_term then
          Array.iteri
            (fun k y -> emit buf (Fmove { d = res.(k); a = fslot fs y }) (Profile.copy full))
            (Ir.op_at b (n - 1)).Ir.operands;
        full
      end
    in
    (* entered, the branch counts as run: its ops' entries subtract the
       part after them *)
    let delta = Profile.copy prefix in
    Profile.add_scaled ~into:delta full (-1);
    shift buf start delta;
    buf.branches <- (counter, full) :: buf.branches
  in
  branch 0 then_n;
  let jump = Fjump { target = 0 } in
  emit buf jump (Profile.copy prefix);
  (match fif with Fif r -> r.else_pc <- buf.len | _ -> ());
  branch 1 else_n;
  match jump with Fjump r -> r.target <- buf.len | _ -> ()

and fuse_nest fs (op : Ir.op) : nest =
  let block = Ir.entry_block op.Ir.regions.(0) in
  let n_res = Array.length op.Ir.results in
  let n = Ir.num_ops block in
  let has_term = n > 0 && Ir.is_terminator (Ir.op_at block (n - 1)) in
  let o k = fslot fs op.Ir.operands.(k) in
  let l_lb = o 0 and l_ub = o 1 and l_step = o 2 in
  let l_inits = Array.init n_res (fun k -> o (k + 3)) in
  let l_iv = fslot fs block.Ir.args.(0) in
  let l_iters = Array.init n_res (fun k -> fslot fs block.Ir.args.(k + 1)) in
  let buf = { code = []; len = 0; branches = [] } in
  let full = fuse_seq fs buf (List.init (if has_term then n - 1 else n) (Ir.op_at block)) in
  let l_yields =
    if has_term then Array.map (fslot fs) (Ir.op_at block (n - 1)).Ir.operands else [||]
  in
  let l_scratch =
    if Array.length l_yields > 1 then Array.map (fun _ -> -1 - new_int fs.fst) l_yields else [||]
  in
  fs.loops <- op :: fs.loops;
  (* the induction update/compare, counted before the step check *)
  let step = cost ~alu:1 ~launched:0 () in
  shift buf 0 step;
  let l_trip = Profile.copy step in
  Profile.add ~into:l_trip full;
  let code = List.rev buf.code in
  let branches = Array.of_list (List.rev buf.branches) in
  let l_body = Array.of_list (List.map fst code) in
  let l_strip = strip_of l_body ~iv:l_iv ~iters:l_iters ~yields:l_yields in
  Option.iter
    (fun sp ->
      fs.strips <- op :: fs.strips;
      fs.words <- max fs.words sp.s_words)
    l_strip;
  {
    l_lb;
    l_ub;
    l_step;
    l_iv;
    l_inits;
    l_iters;
    l_yields;
    l_scratch;
    l_body;
    l_trip;
    l_fail = Array.of_list (step :: List.map snd code);
    l_branch_n = Array.map fst branches;
    l_branch_cost = Array.map snd branches;
    l_strip;
  }

(* Bind each memref of a nest to its payload (and a rank-2 one's dims);
   false when one is not an int payload of the static rank and dtype. *)
let bind_mems (mems : fmem array) (gf : Rtval.t array) (iframe : int array)
    (pf : int array array) =
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length mems do
    let mm = Array.unsafe_get mems !k in
    (match Array.unsafe_get gf mm.m_slot with
    | Rtval.Memref t | Rtval.Tensor t -> (
      let sh = t.Tensor.shape in
      match t.Tensor.data with
      | Tensor.I a when t.Tensor.dtype = mm.m_dtype && Array.length sh = mm.m_rank ->
        if mm.m_rank = 1 then ok := Array.length a = Array.unsafe_get sh 0
        else begin
          let d0 = Array.unsafe_get sh 0 and d1 = Array.unsafe_get sh 1 in
          ok := Array.length a = d0 * d1;
          Array.unsafe_set iframe mm.m_dim0 d0;
          Array.unsafe_set iframe mm.m_dim1 d1
        end;
        Array.unsafe_set pf !k a
      | _ -> ok := false)
    | _ -> ok := false);
    incr k
  done;
  !ok

let oob () = invalid_arg "Util.linearize: out of bounds"

let commit (p : Profile.t) (l : nest) (iframe : int array) trips =
  Profile.add_scaled ~into:p l.l_trip trips;
  for k = 0 to Array.length l.l_branch_n - 1 do
    Profile.add_scaled ~into:p l.l_branch_cost.(k) iframe.(l.l_branch_n.(k))
  done

(* ----- strip execution ----- *)

let[@inline] at (v : int array) o m t = Array.unsafe_get v (o + (t land m))
let[@inline] put (v : int array) d t x = Array.unsafe_set v (d + t) x
let[@inline] wrap s x = (x lsl s) asr s

(* Op [op] over trips [i0, i0 + n) of a strip. *)
let vexec (v : int array) (pf : int array array) (iframe : int array) i0 n op =
  match op with
  | Vbin { k; d; a; am; b; bm; s } -> (
    match k with
    | Badd -> for t = 0 to n - 1 do put v d t (wrap s (at v a am t + at v b bm t)) done
    | Bsub -> for t = 0 to n - 1 do put v d t (wrap s (at v a am t - at v b bm t)) done
    | Bmul -> for t = 0 to n - 1 do put v d t (wrap s (at v a am t * at v b bm t)) done
    | Bmin ->
      for t = 0 to n - 1 do
        let x : int = at v a am t and y = at v b bm t in
        put v d t (wrap s (if x <= y then x else y))
      done
    | Bmax ->
      for t = 0 to n - 1 do
        let x : int = at v a am t and y = at v b bm t in
        put v d t (wrap s (if x >= y then x else y))
      done
    | Band -> for t = 0 to n - 1 do put v d t (wrap s (at v a am t land at v b bm t)) done
    | Bior -> for t = 0 to n - 1 do put v d t (wrap s (at v a am t lor at v b bm t)) done
    | Bxor -> for t = 0 to n - 1 do put v d t (wrap s (at v a am t lxor at v b bm t)) done
    | Bshl -> for t = 0 to n - 1 do put v d t (wrap s (at v a am t lsl at v b bm t)) done
    | Bshr -> for t = 0 to n - 1 do put v d t (wrap s (at v a am t asr at v b bm t)) done
    | Beq -> for t = 0 to n - 1 do put v d t (Bool.to_int (at v a am t = at v b bm t)) done
    | Bne -> for t = 0 to n - 1 do put v d t (Bool.to_int (at v a am t <> at v b bm t)) done
    | Blt -> for t = 0 to n - 1 do put v d t (Bool.to_int (at v a am t < at v b bm t)) done
    | Ble -> for t = 0 to n - 1 do put v d t (Bool.to_int (at v a am t <= at v b bm t)) done
    | Bgt -> for t = 0 to n - 1 do put v d t (Bool.to_int (at v a am t > at v b bm t)) done
    | Bge -> for t = 0 to n - 1 do put v d t (Bool.to_int (at v a am t >= at v b bm t)) done)
  | Vsel { d; c; cm; t = x; tm; e; em } ->
    for t = 0 to n - 1 do
      put v d t (if at v c cm t <> 0 then at v x tm t else at v e em t)
    done
  | Viota { d; off } ->
    let base = if off < 0 then i0 else i0 + Array.unsafe_get v off in
    for t = 0 to n - 1 do put v d t (base + t) done
  | Vload { d; m; row; d1; off; _ } ->
    let lo = if off < 0 then i0 else i0 + Array.unsafe_get v off in
    let base = if row < 0 then lo else (Array.unsafe_get v row * Array.unsafe_get v d1) + lo in
    Tensor.blit_ints (Array.unsafe_get pf m) base v d n
  | Vstore { v = x; vm; m; row; d1; off; s; _ } ->
    let arr = Array.unsafe_get pf m in
    let lo = if off < 0 then i0 else i0 + Array.unsafe_get v off in
    let base = if row < 0 then lo else (Array.unsafe_get v row * Array.unsafe_get v d1) + lo in
    for t = 0 to n - 1 do Array.unsafe_set arr (base + t) (wrap s (at v x vm t)) done
  | Vsum { it; v = x; vm; s } ->
    let acc = ref (Array.unsafe_get iframe it) in
    for t = 0 to n - 1 do acc := !acc + at v x vm t done;
    Array.unsafe_set iframe it (wrap s !acc)

(* Every access of [op] over trips [i0, i0 + n) is in bounds: its two
   ends are. *)
let in_bounds (v : int array) (pf : int array array) i0 n op =
  match op with
  | Vload { m; row; d0; d1; off; _ } | Vstore { m; row; d0; d1; off; _ } ->
    let lo = if off < 0 then i0 else i0 + Array.unsafe_get v off in
    let hi = lo + n - 1 in
    lo >= 0 && lo <= hi
    &&
    if row < 0 then hi < Array.length (Array.unsafe_get pf m)
    else
      let r = Array.unsafe_get v row in
      r >= 0 && r < Array.unsafe_get v d0 && hi < Array.unsafe_get v d1
  | _ -> true

let rec all_in_bounds v pf i0 n (ops : vop array) k =
  k >= Array.length ops
  || (in_bounds v pf i0 n (Array.unsafe_get ops k) && all_in_bounds v pf i0 n ops (k + 1))

(* No payload the loop stores to is another memref's. *)
let distinct (pf : int array array) (sp : strip) =
  let st = sp.s_stored and ms = sp.s_mems in
  let ok = ref true in
  for a = 0 to Array.length st - 1 do
    let m = Array.unsafe_get st a in
    for b = 0 to Array.length ms - 1 do
      let m' = Array.unsafe_get ms b in
      if m' <> m && Array.unsafe_get pf m == Array.unsafe_get pf m' then ok := false
    done
  done;
  !ok

(* Run trips [lb, ub) (step 1) of a loop in strips, as far as they pass
   their checks; returns the first trip not run. *)
let run_strips (sp : strip) (v : int array) pf iframe lb ub =
  let e = sp.s_entry and c = sp.s_consts in
  for k = 0 to (Array.length e / 2) - 1 do
    Array.unsafe_set v
      (Array.unsafe_get e ((2 * k) + 1))
      (Array.unsafe_get iframe (Array.unsafe_get e (2 * k)))
  done;
  for k = 0 to (Array.length c / 2) - 1 do
    Array.unsafe_set v (Array.unsafe_get c ((2 * k) + 1)) (Array.unsafe_get c (2 * k))
  done;
  let ok = ref (distinct pf sp) and i = ref lb in
  let ops = sp.s_ops in
  while !ok && !i < ub do
    let r = ub - !i in
    let n = if r > 0 && r < strip_width then r else strip_width in
    if all_in_bounds v pf !i n sp.s_checks 0 then begin
      for k = 0 to Array.length ops - 1 do
        vexec v pf iframe !i n (Array.unsafe_get ops k)
      done;
      i := !i + n
    end
    else ok := false
  done;
  !i

(* The executing domain's bank, at least [words] long. *)
let bank_key = Domain.DLS.new_key (fun () -> ref [||])

let bank words =
  if words = 0 then [||]
  else begin
    let b = Domain.DLS.get bank_key in
    if Array.length !b < words then b := Array.make words 0;
    !b
  end

(* Run one execution of a fused loop: in strips while the loop has a
   strip form, steps by 1, has [min_strip_trips] trips or more and runs
   unwatched, then trip by trip from where the strips stopped. *)
let rec run_nest ctx (iframe : int array) (pf : int array array) bank watched (l : nest) =
  let lb = Array.unsafe_get iframe l.l_lb
  and ub = Array.unsafe_get iframe l.l_ub
  and step = Array.unsafe_get iframe l.l_step in
  if step <= 0 then Interp.err "scf.for: non-positive step %d" step;
  let iters = l.l_iters in
  for k = 0 to Array.length iters - 1 do
    Array.unsafe_set iframe (Array.unsafe_get iters k)
      (Array.unsafe_get iframe (Array.unsafe_get l.l_inits k))
  done;
  for k = 0 to Array.length l.l_branch_n - 1 do
    Array.unsafe_set iframe (Array.unsafe_get l.l_branch_n k) 0
  done;
  let from =
    match l.l_strip with
    | Some sp when step = 1 && ub - lb >= min_strip_trips && not watched ->
      run_strips sp bank pf iframe lb ub
    | _ -> lb
  in
  if from >= ub then commit ctx.Interp.profile l iframe (from - lb)
  else run_trips ctx iframe pf bank watched l from ub step (from - lb)

(* Trips from [from] on, [done_trips] of the execution already run. The
   loop op's own dispatch is counted by the caller. On an exception the
   profile gets what the tree-walker would have counted, and the
   exception propagates. *)
and run_trips ctx iframe pf bank watched l from ub step done_trips =
  let iters = l.l_iters in
  let body = l.l_body in
  let n = Array.length body in
  let trips = ref done_trips and pc = ref (-1) in
  (match
     let i = ref from in
     while !i < ub do
       pc := -1;
       if watched then Interp.check_steps ctx "scf.for";
       Array.unsafe_set iframe l.l_iv !i;
       pc := 0;
       while !pc < n do
         (match Array.unsafe_get body !pc with
         | Fconst { d; v } -> Array.unsafe_set iframe d v
         | Fmove { d; a } -> Array.unsafe_set iframe d (Array.unsafe_get iframe a)
         | Fadd { d; a; b; s } ->
           Array.unsafe_set iframe d
             (((Array.unsafe_get iframe a + Array.unsafe_get iframe b) lsl s) asr s)
         | Fsub { d; a; b; s } ->
           Array.unsafe_set iframe d
             (((Array.unsafe_get iframe a - Array.unsafe_get iframe b) lsl s) asr s)
         | Fmul { d; a; b; s } ->
           Array.unsafe_set iframe d
             (((Array.unsafe_get iframe a * Array.unsafe_get iframe b) lsl s) asr s)
         | Fmin { d; a; b; s } ->
           let x : int = Array.unsafe_get iframe a and y = Array.unsafe_get iframe b in
           Array.unsafe_set iframe d (((if x <= y then x else y) lsl s) asr s)
         | Fmax { d; a; b; s } ->
           let x : int = Array.unsafe_get iframe a and y = Array.unsafe_get iframe b in
           Array.unsafe_set iframe d (((if x >= y then x else y) lsl s) asr s)
         | Fand { d; a; b; s } ->
           Array.unsafe_set iframe d
             (((Array.unsafe_get iframe a land Array.unsafe_get iframe b) lsl s) asr s)
         | Fior { d; a; b; s } ->
           Array.unsafe_set iframe d
             (((Array.unsafe_get iframe a lor Array.unsafe_get iframe b) lsl s) asr s)
         | Fxor { d; a; b; s } ->
           Array.unsafe_set iframe d
             (((Array.unsafe_get iframe a lxor Array.unsafe_get iframe b) lsl s) asr s)
         | Fshl { d; a; b; s } ->
           Array.unsafe_set iframe d
             (((Array.unsafe_get iframe a lsl Array.unsafe_get iframe b) lsl s) asr s)
         | Fshr { d; a; b; s } ->
           Array.unsafe_set iframe d
             (((Array.unsafe_get iframe a asr Array.unsafe_get iframe b) lsl s) asr s)
         | Feq { d; a; b } ->
           Array.unsafe_set iframe d
             (Bool.to_int (Array.unsafe_get iframe a = Array.unsafe_get iframe b))
         | Fne { d; a; b } ->
           Array.unsafe_set iframe d
             (Bool.to_int (Array.unsafe_get iframe a <> Array.unsafe_get iframe b))
         | Flt { d; a; b } ->
           Array.unsafe_set iframe d
             (Bool.to_int (Array.unsafe_get iframe a < Array.unsafe_get iframe b))
         | Fle { d; a; b } ->
           Array.unsafe_set iframe d
             (Bool.to_int (Array.unsafe_get iframe a <= Array.unsafe_get iframe b))
         | Fgt { d; a; b } ->
           Array.unsafe_set iframe d
             (Bool.to_int (Array.unsafe_get iframe a > Array.unsafe_get iframe b))
         | Fge { d; a; b } ->
           Array.unsafe_set iframe d
             (Bool.to_int (Array.unsafe_get iframe a >= Array.unsafe_get iframe b))
         | Fselect { d; c; t; e } ->
           Array.unsafe_set iframe d
             (Array.unsafe_get iframe (if Array.unsafe_get iframe c <> 0 then t else e))
         | Fload1 { d; m; i } ->
           let arr = Array.unsafe_get pf m and x = Array.unsafe_get iframe i in
           if x < 0 || x >= Array.length arr then oob ();
           Array.unsafe_set iframe d (Array.unsafe_get arr x)
         | Fload2 { d; m; d0; d1; i; j } ->
           let x = Array.unsafe_get iframe i and y = Array.unsafe_get iframe j in
           let n1 = Array.unsafe_get iframe d1 in
           if x < 0 || x >= Array.unsafe_get iframe d0 || y < 0 || y >= n1 then oob ();
           Array.unsafe_set iframe d (Array.unsafe_get (Array.unsafe_get pf m) ((x * n1) + y))
         | Fstore1 { v; m; i; s } ->
           let arr = Array.unsafe_get pf m and x = Array.unsafe_get iframe i in
           if x < 0 || x >= Array.length arr then oob ();
           Array.unsafe_set arr x ((Array.unsafe_get iframe v lsl s) asr s)
         | Fstore2 { v; m; d0; d1; i; j; s } ->
           let x = Array.unsafe_get iframe i and y = Array.unsafe_get iframe j in
           let n1 = Array.unsafe_get iframe d1 in
           if x < 0 || x >= Array.unsafe_get iframe d0 || y < 0 || y >= n1 then oob ();
           Array.unsafe_set (Array.unsafe_get pf m) ((x * n1) + y)
             ((Array.unsafe_get iframe v lsl s) asr s)
         | Fdma { to_wram; mram; wram; moff; woff; count } ->
           let ma = Array.unsafe_get pf mram and wa = Array.unsafe_get pf wram in
           let mo = Array.unsafe_get iframe moff and wo = Array.unsafe_get iframe woff in
           if mo < 0 || count < 0 || mo + count > Array.length ma then
             Interp.dma_oob ctx ~to_wram "MRAM" mo count (Array.length ma);
           if wo < 0 || wo + count > Array.length wa then
             Interp.dma_oob ctx ~to_wram "WRAM" wo count (Array.length wa);
           if to_wram then Tensor.blit_ints ma mo wa wo count
           else Tensor.blit_ints wa wo ma mo count
         | Fif { c; else_pc; then_n; else_n } ->
           if Array.unsafe_get iframe c <> 0 then
             Array.unsafe_set iframe then_n (Array.unsafe_get iframe then_n + 1)
           else begin
             Array.unsafe_set iframe else_n (Array.unsafe_get iframe else_n + 1);
             pc := else_pc - 1
           end
         | Fjump { target } -> pc := target - 1
         | Floop inner -> run_nest ctx iframe pf bank watched inner);
         incr pc
       done;
       let ys = l.l_yields in
       (match Array.length ys with
       | 0 -> ()
       | 1 ->
         Array.unsafe_set iframe (Array.unsafe_get iters 0)
           (Array.unsafe_get iframe (Array.unsafe_get ys 0))
       | ny ->
         let sc = l.l_scratch in
         for k = 0 to ny - 1 do
           Array.unsafe_set iframe (Array.unsafe_get sc k)
             (Array.unsafe_get iframe (Array.unsafe_get ys k))
         done;
         for k = 0 to ny - 1 do
           Array.unsafe_set iframe (Array.unsafe_get iters k)
             (Array.unsafe_get iframe (Array.unsafe_get sc k))
         done);
       incr trips;
       i := !i + step
     done
   with
  | () -> ()
  | exception e ->
    let p = ctx.Interp.profile in
    commit p l iframe !trips;
    Profile.add ~into:p (Array.unsafe_get l.l_fail (!pc + 1));
    raise e);
  commit ctx.Interp.profile l iframe !trips

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
  | "upmem.mram_read" | "upmem.mram_write" -> Some (compile_dma st op)
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
      fun ctx _gf iframe _pf ->
        let p = ctx.Interp.profile in
        p.Profile.launched_ops <- p.Profile.launched_ops + 1;
        Array.unsafe_set iframe ri n
    end
    else begin
      (* i1 constants stay in the gen frame as the shared [Rtval.Int] the
         tree-walker would bind *)
      let rv = Rtval.Int n in
      fun ctx gf _iframe _pf ->
        let p = ctx.Interp.profile in
        p.Profile.launched_ops <- p.Profile.launched_ops + 1;
        Array.unsafe_set gf r rv
    end
  | Attr.Float f ->
    let rv = Rtval.Float f in
    let r = def_slot st op.Ir.results.(0) in
    fun ctx gf iframe _pf ->
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
      fun ctx _gf iframe _pf ->
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
      fun ctx _gf iframe _pf ->
        let p = ctx.Interp.profile in
        p.Profile.launched_ops <- p.Profile.launched_ops + 1;
        Interp.account_int_binop p bucket;
        let v = f (Array.unsafe_get iframe ai) (Array.unsafe_get iframe bi) land mask in
        Array.unsafe_set iframe ri (if v >= half then v - full else v)
  end
  else
    fun ctx gf iframe _pf ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      Interp.account_int_binop p bucket;
      seti gf iframe r (Tensor.wrap dt (f (geti gf iframe a) (geti gf iframe b)))

and compile_float_bin st op f =
  let a = use_slot st op.Ir.operands.(0) in
  let b = use_slot st op.Ir.operands.(1) in
  let r = def_slot st op.Ir.results.(0) in
  fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let av = Array.unsafe_get iframe ai and bv = Array.unsafe_get iframe bi in
      p.Profile.alu_ops <- p.Profile.alu_ops + 1;
      Array.unsafe_set gf r (if pred av bv then rt_true else rt_false)
  end
  else
    fun ctx gf iframe _pf ->
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
  fun ctx gf iframe _pf ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    p.Profile.alu_ops <- p.Profile.alu_ops + 1;
    move gf iframe r (if getb gf iframe c then t else e)

and compile_index_cast st op =
  let a = use_slot st op.Ir.operands.(0) in
  let r = def_slot st op.Ir.results.(0) in
  fun ctx gf iframe _pf ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    seti gf iframe r (geti gf iframe a)

and compile_alloc st op =
  match (Ir.result op 0).Ir.ty with
  | Types.MemRef (shape, dt) ->
    let r = def_slot st op.Ir.results.(0) in
    fun ctx gf _iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
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
    fun ctx gf iframe _pf ->
      let p = ctx.Interp.profile in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      let v = geti gf iframe v_s in
      let m = Rtval.as_tensor (get_rt gf iframe m_s) in
      let idx = Array.map (fun s -> geti gf iframe s) idx_s in
      p.Profile.stores <- p.Profile.stores + 1;
      Tensor.set m idx v

(* The builtin DMA ops, straight off the register file. *)
and compile_dma st op =
  if Ir.num_operands op <> 4 || Array.length op.Ir.results <> 0 then raise Punt;
  let count = match Ir.attr op "count" with Some (Attr.Int c) -> c | _ -> raise Punt in
  let to_wram = op.Ir.name = "upmem.mram_read" in
  let m_s = use_slot st op.Ir.operands.(0) and w_s = use_slot st op.Ir.operands.(1) in
  let mo_s = use_slot st op.Ir.operands.(2) and wo_s = use_slot st op.Ir.operands.(3) in
  fun ctx gf iframe _pf ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let mram = Rtval.as_tensor (get_rt gf iframe m_s) in
    let wram = Rtval.as_tensor (get_rt gf iframe w_s) in
    Interp.dma ctx ~to_wram ~count mram wram (geti gf iframe mo_s) (geti gf iframe wo_s)

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
  fun ctx gf iframe _pf ->
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
  fun ctx gf iframe _pf ->
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
  fun ctx gf iframe _pf ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let av = get_rt gf iframe a_s in
    let a = Rtval.as_tensor av in
    let b = Rtval.as_tensor (get_rt gf iframe b_s) in
    Interp.account_elementwise p (Tensor.num_elements a);
    Tensor.map2_in_place binop a b;
    set_rt gf iframe r av

(* [op] followed by the return of the storage its planned values leave
   behind (see [analyze]); the emptied slots hold [Token], so a stray
   read fails loudly instead of seeing recycled data. *)
and compile_recycling st (op : Ir.op) : instr =
  releasing st (compile_op st op)
    (Option.value ~default:[] (Hashtbl.find_opt st.recycle op.Ir.oid))

and releasing st i = function
  | [] -> i
  | vs ->
    let slots = Array.of_list (List.map (use_slot st) vs) in
    fun ctx gf iframe pf ->
      i ctx gf iframe pf;
      for k = 0 to Array.length slots - 1 do
        let s = Array.unsafe_get slots k in
        match get_rt gf iframe s with
        | Rtval.Tensor t ->
          Tensor.Arena.release t;
          set_rt gf iframe s Rtval.Token
        | _ -> ()
      done

(* Compile a block's ops in program order (order matters: a definition
   must claim its slot before any use, otherwise the use would be
   misclassified as a capture). Returns the instruction sequence and, when
   the block ends in a terminator, the slots of the terminator's operands
   (the block's results). Terminators are not instructions — exactly like
   [Interp.eval_block], they are never dispatched or accounted. *)
and compile_block (st : cstate) (block : Ir.block) : instr array * int array option =
  let n = Ir.num_ops block in
  if n = 0 then ([||], None)
  else begin
    let last = Ir.op_at block (n - 1) in
    let term = Ir.is_terminator last in
    let body = Array.make (if term then n - 1 else n) nop_instr in
    let i = ref 0 in
    while !i < Array.length body do
      let op = Ir.op_at block !i in
      match Hashtbl.find_opt st.merges op.Ir.oid with
      | Some (mp, ins) -> (
        match compile_merge_chain st op mp ins with
        | chain ->
          (* the other two ops' positions hold no-ops *)
          body.(!i) <- chain;
          i := !i + 3
        | exception (Punt | Invalid_argument _ | Not_found | Failure _) ->
          (* a chain that does not decode runs op by op *)
          body.(!i) <- compile_recycling st op;
          incr i)
      | None ->
        body.(!i) <- compile_recycling st op;
        incr i
    done;
    if term then (body, Some (Array.map (fun v -> use_slot st v) last.Ir.operands))
    else (body, None)
  end

(* An accumulator chain (see [analyze]) as one region update, with the
   three ops' operand reads, errors and profile increments: where
   {!Tensor.merge_region} cannot run the region in one pass, the three
   steps run as the tree-walker's ops do. The slice and the merged value
   are never bound; what the three ops recycle goes back after the
   chain. *)
and compile_merge_chain (st : cstate) e mp ins =
  let offsets = Ir.ints_attr e "offsets" and sizes = Ir.ints_attr e "sizes" in
  let n_dyn = Ir.num_operands e - 1 in
  if n_dyn <> 0 && n_dyn <> Array.length offsets then raise Punt;
  let binop = Ir.str_attr mp "op" in
  let acc_s = use_slot st e.Ir.operands.(0) in
  let dyn_s = Array.init n_dyn (fun i -> use_slot st e.Ir.operands.(i + 1)) in
  let part_s = use_slot st mp.Ir.operands.(1) in
  let r = def_slot st ins.Ir.results.(0) in
  let n = Array.fold_left ( * ) 1 sizes in
  let chain ctx gf iframe _pf =
    let p = ctx.Interp.profile in
    let av = get_rt gf iframe acc_s in
    let acc = Rtval.as_tensor av and part = Rtval.as_tensor (get_rt gf iframe part_s) in
    let offsets =
      if n_dyn = 0 then offsets
      else Array.mapi (fun i off -> off + geti gf iframe dyn_s.(i)) offsets
    in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    Interp.account_move p n;
    if part.Tensor.shape = sizes && Tensor.merge_region binop acc ~offsets part then begin
      p.Profile.launched_ops <- p.Profile.launched_ops + 2;
      Interp.account_elementwise p n;
      Interp.account_move p n
    end
    else begin
      let slice = Tensor.extract_slice acc ~offsets ~sizes in
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      Interp.account_elementwise p n;
      Tensor.map2_in_place binop slice part;
      p.Profile.launched_ops <- p.Profile.launched_ops + 1;
      Interp.account_move p n;
      Tensor.write_slice slice acc ~offsets
    end;
    set_rt gf iframe r av
  in
  releasing st chain
    (List.concat_map
       (fun (op : Ir.op) -> Option.value ~default:[] (Hashtbl.find_opt st.recycle op.Ir.oid))
       [ e; mp; ins ])

(* A loop the recogniser accepts runs fused when its memrefs bind, and
   per-op otherwise; the loops nested in it compile per-op only. *)
and compile_for st op =
  if st.in_nest || not (fusable_nest op) then compile_for_ops st op
  else begin
    st.in_nest <- true;
    let per_op =
      Fun.protect ~finally:(fun () -> st.in_nest <- false) (fun () -> compile_for_ops st op)
    in
    let fs =
      {
        fst = st;
        mem_ids = [];
        mems = [];
        i1_slots = Hashtbl.create 8;
        loops = [];
        strips = [];
        words = 0;
      }
    in
    match fuse_nest fs op with
    | exception Punt -> per_op
    | nest ->
      let mems = Array.of_list (List.rev fs.mems) in
      st.npay <- max st.npay (Array.length mems);
      st.fused <- fs.loops @ st.fused;
      st.strips <- fs.strips @ st.strips;
      let words = fs.words in
      fun ctx gf iframe pf ->
        if bind_mems mems gf iframe pf then begin
          let p = ctx.Interp.profile in
          p.Profile.launched_ops <- p.Profile.launched_ops + 1;
          run_nest ctx iframe pf (bank words) (Interp.watched ctx) nest
        end
        else per_op ctx gf iframe pf
  end

and compile_for_ops st op =
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
     if Ir.is_terminator last then begin
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
  fun ctx gf iframe pf ->
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
        body.(j) ctx gf iframe pf
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
        if Ir.is_terminator last then begin
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
  fun ctx gf iframe pf ->
    let p = ctx.Interp.profile in
    p.Profile.launched_ops <- p.Profile.launched_ops + 1;
    let c = getb gf iframe c_s in
    match if c then then_b else else_b with
    | None -> ()
    | Some (body, ys) ->
      for j = 0 to Array.length body - 1 do
        body.(j) ctx gf iframe pf
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
  fun ctx gf iframe pf ->
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
          body.(j) ctx gf iframe pf
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

(* ----- unit compilation, code slot, execution ----- *)

let compile_unit (region : Ir.region) : code =
  let st =
    {
      ngen = 0;
      nint = 0;
      slots = Hashtbl.create 64;
      caps = [];
      in_place = Hashtbl.create 8;
      merges = Hashtbl.create 8;
      adopt = Hashtbl.create 8;
      recycle = Hashtbl.create 8;
      in_nest = false;
      npay = 0;
      fused = [];
      strips = [];
    }
  in
  let plan = plan region in
  List.iter (fun (op : Ir.op) -> Hashtbl.replace st.in_place op.Ir.oid ()) plan.in_place;
  List.iter
    (fun ((e : Ir.op), mp, ins) -> Hashtbl.replace st.merges e.Ir.oid (mp, ins))
    plan.merges;
  List.iter (fun (op : Ir.op) -> Hashtbl.replace st.adopt op.Ir.oid ()) plan.adopt;
  List.iter (fun ((op : Ir.op), vs) -> Hashtbl.replace st.recycle op.Ir.oid vs) plan.recycle;
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
    npay = st.npay;
    fused = List.rev st.fused;
    strips = List.rev st.strips;
  }

(* A region's compiled unit lives on its entry block, so it is shared
   read-only by every DPU lane and every request that runs the same IR,
   and it dies with its module. Hooks are not part of the unit: compiled
   closures resolve hooks through the executing context at runtime, so
   the same code serves any hook stack. The slot is filled without a
   lock: [code] is immutable, so domains that first run a block together
   at worst each compile it and store equal units (wasted work, not
   wrong results). Passes build fresh blocks, so rewritten IR never runs
   stale code. *)
type Ir.block_code += Code of code

type cache_stats = { hits : int; misses : int }

let hits = Atomic.make 0
let misses = Atomic.make 0
let cache_stats () = { hits = Atomic.get hits; misses = Atomic.get misses }

let get_code (region : Ir.region) : code =
  let block = Ir.entry_block region in
  match block.Ir.code with
  | Code c ->
    Atomic.incr hits;
    c
  | _ ->
    Atomic.incr misses;
    let t0 = if Trace.Metrics.enabled () then Unix.gettimeofday () else 0.0 in
    let c = compile_unit region in
    block.Ir.code <- Code c;
    if t0 > 0.0 then begin
      Trace.Metrics.incr "cinm_codegen_regions_total";
      Trace.Metrics.observe "cinm_codegen_seconds" (Unix.gettimeofday () -. t0)
    end;
    c

let fused_loops region = (get_code region).fused
let vector_loops region = (get_code region).strips

(* With [each], op [j] of the unit's entry block runs as [each j run],
   where [run p] executes it accounting into [p] (see [run_body]). *)
let exec ?each (code : code) ctx (caps : Rtval.t array) (args : Rtval.t list) : Rtval.t list =
  let n_args = List.length args in
  if Array.length code.arg_slots <> n_args then
    Interp.err "region arity mismatch: %d args for %d params" n_args
      (Array.length code.arg_slots);
  let gf = Array.make code.ngen Rtval.Token in
  let iframe = Array.make code.nint 0 in
  let pf = Array.make code.npay [||] in
  Array.iteri (fun i rv -> set_rt gf iframe code.cap_slots.(i) rv) caps;
  List.iteri (fun i rv -> set_rt gf iframe code.arg_slots.(i) rv) args;
  let body = code.body in
  (match each with
  | None ->
    for j = 0 to Array.length body - 1 do
      body.(j) ctx gf iframe pf
    done
  | Some each ->
    Array.iteri
      (fun j instr -> each j (fun profile -> instr { ctx with Interp.profile } gf iframe pf))
      body);
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

(* The tree-walker's form of [exec ~each]: [Interp.eval_region] one op
   at a time. *)
let eval_body ctx (region : Ir.region) args each =
  let block = Ir.entry_block region in
  let n_args = List.length args in
  if Array.length block.Ir.args <> n_args then
    Interp.err "region arity mismatch: %d args for %d params" n_args
      (Array.length block.Ir.args);
  List.iteri (fun i rv -> Interp.bind ctx block.Ir.args.(i) rv) args;
  let results = ref [] in
  for j = 0 to Ir.num_ops block - 1 do
    let op = Ir.op_at block j in
    if Ir.is_terminator op then
      results := List.map (Interp.lookup ctx) (Array.to_list op.Ir.operands)
    else each j (fun profile -> Interp.eval_op { ctx with Interp.profile } op)
  done;
  !results

let run_body ?each ctx (f : Func.t) args =
  match (backend_of_ctx ctx, each) with
  | Tree, None -> Interp.eval_region ctx f.Func.body args
  | Tree, Some each -> eval_body ctx f.Func.body args each
  | Compiled, _ ->
    let code = get_code f.Func.body in
    exec ?each code ctx (Array.map (fun v -> Interp.lookup ctx v) code.cap_values) args

let run_func ?(hooks = []) ?profile ?modul ?(config = Config.default ()) (f : Func.t)
    (args : Rtval.t list) : Rtval.t list * Profile.t =
  let ctx = Interp.create_ctx ~hooks ?profile ?modul ~fname:f.Func.fname ~config () in
  let results = run_body ctx f args in
  (results, ctx.Interp.profile)

let run_in_module ?(hooks = []) ?profile ?config (m : Func.modul) name args =
  let f = Func.find_func_exn m name in
  run_func ~hooks ?profile ~modul:m ?config f args
