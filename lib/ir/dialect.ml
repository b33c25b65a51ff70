(* Dialect registry: dialects are logical groups of operations with
   per-op structural verifiers (cf. paper Section 2.1). The registry backs
   the IR verifier and the documentation/LoC tooling. *)

type op_def = {
  op_name : string;  (** fully qualified, e.g. ["cnm.scatter"] *)
  summary : string;
  verify : Ir.op -> (unit, string) result;
}

type t = { dname : string; description : string; mutable ops : op_def list }

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let op_index : (string, op_def) Hashtbl.t = Hashtbl.create 64

let register ~name ~description =
  match Hashtbl.find_opt registry name with
  | Some d -> d
  | None ->
    let d = { dname = name; description; ops = [] } in
    Hashtbl.replace registry name d;
    d

let ok = Ok ()

let no_verify (_ : Ir.op) = ok

let add_op ?(verify = no_verify) ~summary dialect op_name =
  let qualified =
    if String.contains op_name '.' then op_name else dialect.dname ^ "." ^ op_name
  in
  let def = { op_name = qualified; summary; verify } in
  dialect.ops <- dialect.ops @ [ def ];
  Hashtbl.replace op_index qualified def;
  def

let find_op name = Hashtbl.find_opt op_index name

let find_dialect name = Hashtbl.find_opt registry name

let all_dialects () =
  Hashtbl.fold (fun _ d acc -> d :: acc) registry []
  |> List.sort (fun a b -> compare a.dname b.dname)

let ops_of d = d.ops

(* ----- verifier helper combinators (format only on failure) ----- *)

let expect cond msg = if cond then ok else Error msg

let expect_operands op n =
  let got = Ir.num_operands op in
  if got = n then ok
  else Error (Printf.sprintf "%s: expected %d operands, got %d" op.Ir.name n got)

let expect_results op n =
  let got = Ir.num_results op in
  if got = n then ok
  else Error (Printf.sprintf "%s: expected %d results, got %d" op.Ir.name n got)

let expect_regions op n =
  let got = Array.length op.Ir.regions in
  if got = n then ok
  else Error (Printf.sprintf "%s: expected %d regions, got %d" op.Ir.name n got)

let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e

let expect_attr op name =
  if Ir.attr op name <> None then ok
  else Error (Printf.sprintf "%s: missing attribute %s" op.Ir.name name)

let expect_operand_type op i ty =
  let actual = (Ir.operand op i).Ir.ty in
  if Types.equal actual ty then ok
  else
    Error
      (Printf.sprintf "%s: operand %d has type %s, expected %s" op.Ir.name i
         (Types.to_string actual) (Types.to_string ty))

let expect_shaped_operand op i =
  if Types.is_shaped (Ir.operand op i).Ir.ty then ok
  else Error (Printf.sprintf "%s: operand %d must be a shaped type" op.Ir.name i)

let expect_same_type op i j =
  if Types.equal (Ir.operand op i).Ir.ty (Ir.operand op j).Ir.ty then ok
  else Error (Printf.sprintf "%s: operands %d and %d must have the same type" op.Ir.name i j)
