(* The type system of the CINM IR.

   MLIR types are extensible; here we enumerate the closed set of types the
   CINM dialect tower actually uses (builtin shaped types plus the custom
   types of the cnm/cim dialects, cf. paper Tables 2 and 3). *)

type dtype = I1 | I8 | I16 | I32 | I64 | F32 | F64

type t =
  | Index  (** loop induction variables, sizes *)
  | Scalar of dtype
  | Tensor of int array * dtype  (** immutable value-semantics tensor *)
  | MemRef of int array * dtype  (** mutable buffer reference *)
  | Workgroup of int array
      (** [!cnm.workgroup<AxB...>]: logical grid of processing units *)
  | Buffer of { shape : int array; dtype : dtype; level : int }
      (** [!cnm.buffer<shape x dtype, level L>]: opaque per-PU buffer *)
  | Token  (** [!cnm.token] / [!cim.future]: async handle for wait/barrier *)
  | Cim_id  (** [!cim.id]: handle of an acquired CIM accelerator *)
  | Func of t list * t list

let dtype_bits = function
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 64
  | F32 -> 32
  | F64 -> 64

let dtype_bytes dt = max 1 (dtype_bits dt / 8)

let is_float_dtype = function F32 | F64 -> true | I1 | I8 | I16 | I32 | I64 -> false

let dtype_to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"

let dtype_of_string = function
  | "i1" -> Some I1
  | "i8" -> Some I8
  | "i16" -> Some I16
  | "i32" -> Some I32
  | "i64" -> Some I64
  | "f32" -> Some F32
  | "f64" -> Some F64
  | _ -> None

(* [string_of_int n] appended without allocating. *)
let rec add_int b n =
  if n = min_int then Buffer.add_string b (string_of_int n)
  else if n < 0 then (
    Buffer.add_char b '-';
    add_int b (-n))
  else (
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10))))

(* "2x3": the dims of a shape joined by 'x' *)
let add_shape b shape =
  for i = 0 to Array.length shape - 1 do
    if i > 0 then Buffer.add_char b 'x';
    add_int b shape.(i)
  done

(* "tensor<2x3xi32>", "tensor<i32>" *)
let add_shaped b prefix shape dt =
  Buffer.add_string b prefix;
  Buffer.add_char b '<';
  add_shape b shape;
  if Array.length shape > 0 then Buffer.add_char b 'x';
  Buffer.add_string b (dtype_to_string dt);
  Buffer.add_char b '>'

let rec to_buffer b = function
  | Index -> Buffer.add_string b "index"
  | Scalar dt -> Buffer.add_string b (dtype_to_string dt)
  | Tensor (shape, dt) -> add_shaped b "tensor" shape dt
  | MemRef (shape, dt) -> add_shaped b "memref" shape dt
  | Workgroup shape ->
    Buffer.add_string b "!cnm.workgroup<";
    add_shape b shape;
    Buffer.add_char b '>'
  | Buffer { shape; dtype; level } ->
    Buffer.add_string b "!cnm.buffer<";
    add_shape b shape;
    Buffer.add_char b 'x';
    Buffer.add_string b (dtype_to_string dtype);
    Buffer.add_string b ", level ";
    add_int b level;
    Buffer.add_char b '>'
  | Token -> Buffer.add_string b "!cnm.token"
  | Cim_id -> Buffer.add_string b "!cim.id"
  | Func (args, results) ->
    Buffer.add_char b '(';
    list_to_buffer b args;
    Buffer.add_string b ") -> (";
    list_to_buffer b results;
    Buffer.add_char b ')'

and list_to_buffer b tys =
  List.iteri
    (fun i ty ->
      if i > 0 then Buffer.add_string b ", ";
      to_buffer b ty)
    tys

let to_string ty =
  let b = Buffer.create 16 in
  to_buffer b ty;
  Buffer.contents b

let equal (a : t) (b : t) = a = b

let num_elements = function
  | Tensor (shape, _) | MemRef (shape, _) -> Cinm_support.Util.product_of_shape shape
  | Buffer { shape; _ } -> Cinm_support.Util.product_of_shape shape
  | Scalar _ | Index -> 1
  | Workgroup shape -> Cinm_support.Util.product_of_shape shape
  | Token | Cim_id | Func _ -> invalid_arg "Types.num_elements"

let size_in_bytes = function
  | Tensor (shape, dt) | MemRef (shape, dt) ->
    Cinm_support.Util.product_of_shape shape * dtype_bytes dt
  | Buffer { shape; dtype; _ } ->
    Cinm_support.Util.product_of_shape shape * dtype_bytes dtype
  | Scalar dt -> dtype_bytes dt
  | Index -> 8
  | Workgroup _ | Token | Cim_id | Func _ -> invalid_arg "Types.size_in_bytes"

let element_dtype = function
  | Tensor (_, dt) | MemRef (_, dt) -> Some dt
  | Buffer { dtype; _ } -> Some dtype
  | Scalar dt -> Some dt
  | Index | Workgroup _ | Token | Cim_id | Func _ -> None

let shape_of = function
  | Tensor (shape, _) | MemRef (shape, _) -> Some shape
  | Buffer { shape; _ } -> Some shape
  | _ -> None

let rank ty = match shape_of ty with Some s -> Array.length s | None -> 0

let is_shaped ty = match shape_of ty with Some _ -> true | None -> false

(* ----- parsing of the printed type syntax ----- *)

let parse_dims_and_dtype body =
  (* "15888x16xi16" -> ([|15888; 16|], I16); "i32" -> ([||], I32) *)
  let parts = String.split_on_char 'x' (String.trim body) in
  match List.rev parts with
  | [] -> None
  | dt_str :: rev_dims -> (
    match dtype_of_string dt_str with
    | None -> None
    | Some dt -> (
      let dims = List.rev rev_dims in
      try Some (Array.of_list (List.map int_of_string dims), dt)
      with Failure _ -> None))

let parse_shape body =
  let parts = String.split_on_char 'x' (String.trim body) in
  try Some (Array.of_list (List.map (fun s -> int_of_string (String.trim s)) parts))
  with Failure _ -> None

let of_string s : t option =
  let s = String.trim s in
  let inner prefix =
    (* extract X from "prefix<X>" *)
    let plen = String.length prefix in
    if
      String.length s > plen + 1
      && String.sub s 0 (plen + 1) = prefix ^ "<"
      && s.[String.length s - 1] = '>'
    then Some (String.sub s (plen + 1) (String.length s - plen - 2))
    else None
  in
  match s with
  | "index" -> Some Index
  | "!cnm.token" -> Some Token
  | "!cim.id" -> Some Cim_id
  | _ -> (
    match dtype_of_string s with
    | Some dt -> Some (Scalar dt)
    | None -> (
      match inner "tensor" with
      | Some body ->
        Option.map (fun (shape, dt) -> Tensor (shape, dt)) (parse_dims_and_dtype body)
      | None -> (
        match inner "memref" with
        | Some body ->
          Option.map (fun (shape, dt) -> MemRef (shape, dt)) (parse_dims_and_dtype body)
        | None -> (
          match inner "!cnm.workgroup" with
          | Some body -> Option.map (fun shape -> Workgroup shape) (parse_shape body)
          | None -> (
            match inner "!cnm.buffer" with
            | Some body -> (
              (* "16x16xi16, level 0" *)
              match String.split_on_char ',' body with
              | [ shaped; level_part ] -> (
                let level_part = String.trim level_part in
                match String.split_on_char ' ' level_part with
                | [ "level"; n ] -> (
                  match (parse_dims_and_dtype shaped, int_of_string_opt n) with
                  | Some (shape, dtype), Some level ->
                    Some (Buffer { shape; dtype; level })
                  | _ -> None)
                | _ -> None)
              | _ -> None)
            | None -> None)))))

(* The tensor/memref duality: lowering from value semantics to buffers. *)
let to_memref = function
  | Tensor (shape, dt) -> MemRef (shape, dt)
  | (MemRef _ as ty) -> ty
  | ty -> invalid_arg ("Types.to_memref: " ^ to_string ty)

let to_tensor = function
  | MemRef (shape, dt) -> Tensor (shape, dt)
  | (Tensor _ as ty) -> ty
  | ty -> invalid_arg ("Types.to_tensor: " ^ to_string ty)
