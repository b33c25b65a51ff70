(* Textual IR printer. Uses MLIR's *generic* operation syntax, which is
   uniform across dialects and round-trips through [Parser]:

     %0, %1 = "dialect.op"(%a, %b) ({
     ^bb0(%x: i32):
       "scf.yield"(%x) : (i32) -> ()
     }) {attr = 3} : (i32, i32) -> (i32, i32)

   Everything is appended to one [Buffer]; the only strings built on the
   way are float literals and escaped string attributes. *)

module Names = Hashtbl.Make (Int)

(* A value's name: [n >= 0] prints as [%n]; function parameter [i] is
   stored as [-(i + 1)] and prints as [%argi]. *)
type namer = { names : int Names.t; mutable next : int }

let create_namer () = { names = Names.create 64; next = 0 }

let value_name namer (v : Ir.value) =
  match Names.find namer.names v.Ir.vid with
  | n -> n
  | exception Not_found ->
    let n = namer.next in
    namer.next <- n + 1;
    Names.replace namer.names v.Ir.vid n;
    n

let float_literal f =
  (* Non-finite values get explicit keywords: %.17g prints "nan"/"inf",
     which the lexer must treat as literals, not identifiers — and the
     sign of -inf must survive. NaN payloads are not preserved (the IR
     has a single canonical NaN). *)
  if f <> f then "nan"
  else if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

(* [Printf "%S"] *)
let add_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

(* [f] over the elements of a list or array, separated by ", " *)
let add_list b f l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      f b x)
    l

let add_array b f a =
  for i = 0 to Array.length a - 1 do
    if i > 0 then Buffer.add_string b ", ";
    f b a.(i)
  done

let rec add_attr b = function
  | Attr.Unit -> Buffer.add_string b "unit"
  | Attr.Bool v -> Buffer.add_string b (string_of_bool v)
  | Attr.Int i -> Types.add_int b i
  | Attr.Float f -> Buffer.add_string b (float_literal f)
  | Attr.Str s -> add_quoted b s
  | Attr.Ints a ->
    Buffer.add_char b '[';
    add_array b Types.add_int a;
    Buffer.add_char b ']'
  | Attr.Floats a ->
    Buffer.add_char b '[';
    add_array b (fun b f -> Buffer.add_string b (float_literal f)) a;
    Buffer.add_char b ']'
  | Attr.Strs l ->
    Buffer.add_char b '[';
    add_list b add_quoted l;
    Buffer.add_char b ']'
  | Attr.Ty ty -> Types.to_buffer b ty
  | Attr.List l ->
    Buffer.add_char b '<';
    add_list b add_attr l;
    Buffer.add_char b '>'

let attr_to_string a =
  let b = Buffer.create 16 in
  add_attr b a;
  Buffer.contents b

let rec sorted_by_key = function
  | (a, _) :: ((c, _) :: _ as rest) -> String.compare a c <= 0 && sorted_by_key rest
  | _ -> true

(* " {k = v, ...}" in key order; nothing for no attributes *)
let add_attrs b attrs =
  if attrs <> [] then begin
    let sorted =
      if sorted_by_key attrs then attrs
      else List.sort (fun (a, _) (c, _) -> String.compare a c) attrs
    in
    Buffer.add_string b " {";
    add_list b
      (fun b (k, v) ->
        Buffer.add_string b k;
        Buffer.add_string b " = ";
        add_attr b v)
      sorted;
    Buffer.add_char b '}'
  end

(* One printing job: the buffer, the names of one function, and [base],
   the indent in spaces every line starts with (a module nests its
   functions one level). *)
type printer = { buf : Buffer.t; namer : namer; base : int }

let spaces p n =
  for _ = 1 to n do
    Buffer.add_char p.buf ' '
  done

let newline p =
  Buffer.add_char p.buf '\n';
  spaces p p.base

let add_name p (v : Ir.value) =
  let n = value_name p.namer v in
  Buffer.add_char p.buf '%';
  if n >= 0 then Types.add_int p.buf n
  else (
    Buffer.add_string p.buf "arg";
    Types.add_int p.buf (-n - 1))

let add_names p vs = add_array p.buf (fun _ v -> add_name p v) vs

let add_value_type b (v : Ir.value) = Types.to_buffer b v.Ir.ty

(* "%x: ty" *)
let add_typed_name p (v : Ir.value) =
  add_name p v;
  Buffer.add_string p.buf ": ";
  add_value_type p.buf v

(* Results are named before operands, and both before nested regions. *)
let rec add_op p depth (op : Ir.op) =
  let b = p.buf in
  spaces p (2 * depth);
  if Array.length op.Ir.results > 0 then begin
    add_names p op.Ir.results;
    Buffer.add_string b " = "
  end;
  Buffer.add_char b '"';
  Buffer.add_string b op.Ir.name;
  Buffer.add_string b "\"(";
  add_names p op.Ir.operands;
  Buffer.add_char b ')';
  Array.iter
    (fun region ->
      Buffer.add_string b " ({";
      newline p;
      add_region p (depth + 1) region;
      newline p;
      spaces p (2 * depth);
      Buffer.add_string b "})")
    op.Ir.regions;
  add_attrs b op.Ir.attrs;
  Buffer.add_string b " : (";
  add_array b add_value_type op.Ir.operands;
  Buffer.add_string b ") -> (";
  add_array b add_value_type op.Ir.results;
  Buffer.add_char b ')'

(* Each block is a "^bbN(args):" header line, one indent left of its ops. *)
and add_region p depth (region : Ir.region) =
  let b = p.buf in
  for i = 0 to Ir.num_blocks region - 1 do
    let block = Ir.block_at region i in
    if i > 0 then newline p;
    spaces p (2 * max 0 (depth - 1));
    Buffer.add_string b "^bb";
    Types.add_int b i;
    Buffer.add_char b '(';
    add_array b (fun _ v -> add_typed_name p v) block.Ir.args;
    Buffer.add_string b "):";
    Ir.iter_ops
      (fun op ->
        newline p;
        add_op p depth op)
      block
  done

let op_to_string ?namer op =
  let namer = match namer with Some n -> n | None -> create_namer () in
  let p = { buf = Buffer.create 256; namer; base = 0 } in
  add_op p 0 op;
  Buffer.contents p.buf

let add_func buf ~base (f : Func.t) =
  let p = { buf; namer = create_namer (); base } in
  let entry = Func.entry_block f in
  Buffer.add_string buf "func.func @";
  Buffer.add_string buf f.Func.fname;
  Buffer.add_char buf '(';
  Array.iteri
    (fun i (v : Ir.value) ->
      if i > 0 then Buffer.add_string buf ", ";
      Names.replace p.namer.names v.Ir.vid (-i - 1);
      add_typed_name p v)
    entry.Ir.args;
  Buffer.add_string buf ") -> (";
  add_list buf Types.to_buffer f.Func.result_tys;
  Buffer.add_char buf ')';
  if f.Func.fattrs <> [] then begin
    Buffer.add_string buf " attributes";
    add_attrs buf f.Func.fattrs
  end;
  Buffer.add_string buf " {";
  Ir.iter_ops
    (fun op ->
      newline p;
      add_op p 1 op)
    entry;
  newline p;
  Buffer.add_char buf '}'

let func_to_string f =
  let buf = Buffer.create 4096 in
  add_func buf ~base:0 f;
  Buffer.contents buf

let module_to_string (m : Func.modul) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "module {\n";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf "  ";
      add_func buf ~base:2 f)
    m.Func.funcs;
  Buffer.add_string buf "\n}";
  Buffer.contents buf
