(* Core IR data structures: SSA values, operations with nested regions,
   blocks. Deliberately mirrors MLIR's structure (cf. paper Section 2.1)
   while staying idiomatic OCaml: ops are generic records identified by a
   dialect-qualified name; dialect modules provide typed constructors and
   accessors on top.

   Blocks store their ops in a growable array ([Vec]) so that appending —
   the hot operation of every builder and conversion pass — is amortized
   O(1); building a block of k ops is O(k). Prefer the accessors below
   ([block_ops], [iter_ops], [filter_ops_in_place], ...) over touching the
   backing vector directly. *)

module Vec = Cinm_support.Vec

(* What an executor derives from a block and keeps on it (the closure
   compiler adds its compiled unit); the IR itself never looks inside. *)
type block_code = ..
type block_code += No_code

type value = { vid : int; ty : Types.t; mutable def : def }

and def =
  | Op_result of op * int
  | Block_arg of block * int

and op = {
  oid : int;
  name : string;  (** dialect-qualified, e.g. ["cinm.gemm"] *)
  mutable operands : value array;
  mutable results : value array;  (** set once at creation *)
  mutable attrs : (string * Attr.t) list;
  regions : region array;
  mutable parent : block option;
}

and block = {
  bid : int;
  mutable args : value array;  (** set once at creation *)
  ops : op Vec.t;  (** in execution order *)
  mutable parent_region : region option;
  mutable code : block_code;  (** executor state derived from this block *)
}

and region = { blocks : block Vec.t; mutable parent_op : op option }

(* Id counters are atomic so IR can be *built* from parallel domains
   (e.g. batched bench experiments compiling concurrently); individual
   funcs/modules still belong to one domain at a time. *)
let value_counter = Atomic.make 0
let op_counter = Atomic.make 0
let block_counter = Atomic.make 0

let fresh_value ty def = { vid = Atomic.fetch_and_add value_counter 1 + 1; ty; def }

(* ----- construction ----- *)

let create_region () = { blocks = Vec.create (); parent_op = None }

let create_block ?(arg_tys = []) () =
  let block =
    { bid = Atomic.fetch_and_add block_counter 1 + 1;
      args = [||]; ops = Vec.create (); parent_region = None; code = No_code }
  in
  block.args <-
    Array.of_list (List.mapi (fun i ty -> fresh_value ty (Block_arg (block, i))) arg_tys);
  block

let add_block region block =
  block.parent_region <- Some region;
  Vec.push region.blocks block

let num_blocks region = Vec.length region.blocks

let block_at region i = Vec.get region.blocks i

let blocks region = Vec.to_list region.blocks

let iter_blocks f region = Vec.iter f region.blocks

let entry_block region =
  if Vec.is_empty region.blocks then invalid_arg "Ir.entry_block: empty region"
  else Vec.get region.blocks 0

(* Replace a region's blocks wholesale (conversion passes rebuild whole
   function bodies and then swap them in). *)
let set_region_blocks region bs =
  Vec.clear region.blocks;
  List.iter (fun b -> add_block region b) bs

let create_op ?(operands = []) ?(result_tys = []) ?(attrs = []) ?(regions = []) name =
  let op =
    {
      oid = Atomic.fetch_and_add op_counter 1 + 1;
      name;
      operands = Array.of_list operands;
      results = [||];
      attrs;
      regions = Array.of_list regions;
      parent = None;
    }
  in
  op.results <-
    Array.of_list (List.mapi (fun i ty -> fresh_value ty (Op_result (op, i))) result_tys);
  List.iter (fun r -> r.parent_op <- Some op) regions;
  op

let append_op block op =
  op.parent <- Some block;
  Vec.push block.ops op

(* ----- block op accessors ----- *)

let num_ops block = Vec.length block.ops

let op_at block i = Vec.get block.ops i

let block_ops block = Vec.to_list block.ops

let iter_ops f block = Vec.iter f block.ops

let last_op block = Vec.last block.ops

let clear_ops block = Vec.clear block.ops

(* Keep only the ops satisfying [p]; returns whether anything was removed. *)
let filter_ops_in_place p block =
  let before = Vec.length block.ops in
  Vec.filter_in_place p block.ops;
  Vec.length block.ops <> before

(* ----- accessors ----- *)

let operand op i =
  if i < 0 || i >= Array.length op.operands then
    invalid_arg (Printf.sprintf "Ir.operand %d of %s" i op.name);
  op.operands.(i)

let result op i =
  if i < 0 || i >= Array.length op.results then
    invalid_arg (Printf.sprintf "Ir.result %d of %s" i op.name);
  op.results.(i)

let num_operands op = Array.length op.operands
let num_results op = Array.length op.results

let attr op name = List.assoc_opt name op.attrs

let attr_exn op name =
  match attr op name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "op %s: missing attribute %s" op.name name)

let int_attr op name = Attr.get_int name (attr_exn op name)
let str_attr op name = Attr.get_str name (attr_exn op name)
let ints_attr op name = Attr.get_ints name (attr_exn op name)
let bool_attr op name = Attr.get_bool name (attr_exn op name)
let float_attr op name = Attr.get_float name (attr_exn op name)

let set_attr op name a = op.attrs <- (name, a) :: List.remove_assoc name op.attrs

let region op i =
  if i < 0 || i >= Array.length op.regions then
    invalid_arg (Printf.sprintf "Ir.region %d of %s" i op.name);
  op.regions.(i)

(* A direct match: the interpreter asks this once per block execution. *)
let is_terminator op =
  match op.name with
  | "scf.yield" | "func.return" | "cim.yield" | "cnm.terminator" -> true
  | _ -> false

let dialect_of op =
  match String.index_opt op.name '.' with
  | Some i -> String.sub op.name 0 i
  | None -> op.name

(* ----- traversal ----- *)

let rec walk_op f op =
  f op;
  Array.iter (walk_region f) op.regions

and walk_region f region = Vec.iter (walk_block f) region.blocks
and walk_block f block = Vec.iter (walk_op f) block.ops

(* ----- cloning ----- *)

module Vmap = Map.Make (Int)

let map_value vmap v = match Vmap.find_opt v.vid vmap with Some w -> w | None -> v

let rec clone_op ?(vmap = Vmap.empty) op =
  let operands = Array.to_list (Array.map (map_value vmap) op.operands) in
  let result_tys = Array.to_list (Array.map (fun v -> v.ty) op.results) in
  let vmap_acc = ref vmap in
  let regions =
    Array.to_list op.regions
    |> List.map (fun r ->
           let r', vmap = clone_region ~vmap:!vmap_acc r in
           vmap_acc := vmap;
           r')
  in
  let cloned = create_op ~operands ~result_tys ~attrs:op.attrs ~regions op.name in
  let vmap =
    Array.to_list op.results
    |> List.mapi (fun i v -> (v, cloned.results.(i)))
    |> List.fold_left (fun m (v, w) -> Vmap.add v.vid w m) !vmap_acc
  in
  (cloned, vmap)

and clone_region ?(vmap = Vmap.empty) region =
  let r = create_region () in
  let vmap =
    Vec.fold_left
      (fun vmap block ->
        let arg_tys = Array.to_list (Array.map (fun v -> v.ty) block.args) in
        let b = create_block ~arg_tys () in
        add_block r b;
        Array.to_list block.args
        |> List.mapi (fun i v -> (v, b.args.(i)))
        |> List.fold_left (fun m (v, w) -> Vmap.add v.vid w m) vmap)
      vmap region.blocks
  in
  (* Second pass: clone ops now that all block args are mapped. *)
  let vmap_acc = ref vmap in
  Vec.iteri
    (fun i src ->
      let dst = Vec.get r.blocks i in
      Vec.iter
        (fun op ->
          let op', vmap = clone_op ~vmap:!vmap_acc op in
          append_op dst op';
          vmap_acc := vmap)
        src.ops)
    region.blocks;
  (r, !vmap_acc)
