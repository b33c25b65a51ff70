(* Compile-time attributes attached to operations (MLIR-style). *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Ints of int array
  | Floats of float array
  | Strs of string list
  | Ty of Types.t
  | List of t list

let rec to_string = function
  | Unit -> "unit"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "%S" s
  | Ints a ->
    Printf.sprintf "[%s]" (String.concat ", " (Array.to_list (Array.map string_of_int a)))
  | Floats a ->
    Printf.sprintf "[%s]"
      (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%g") a)))
  | Strs l -> Printf.sprintf "[%s]" (String.concat ", " (List.map (Printf.sprintf "%S") l))
  | Ty ty -> Types.to_string ty
  | List l -> Printf.sprintf "<%s>" (String.concat ", " (List.map to_string l))

(* Floats compare by bit pattern: structural [=] would equate 0.0 with
   -0.0, and NaN with nothing. *)
let rec equal a b =
  let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match (a, b) with
  | Float x, Float y -> same_float x y
  | Floats x, Floats y -> Array.length x = Array.length y && Array.for_all2 same_float x y
  | List x, List y -> List.equal equal x y
  | _ -> a = b

(* Typed accessors: raise with a useful message on schema violations, which
   surface as verifier/lowering bugs during development. *)

let get_int name = function
  | Int i -> i
  | a -> invalid_arg (Printf.sprintf "attribute %s: expected int, got %s" name (to_string a))

let get_str name = function
  | Str s -> s
  | a -> invalid_arg (Printf.sprintf "attribute %s: expected str, got %s" name (to_string a))

let get_ints name = function
  | Ints a -> a
  | a -> invalid_arg (Printf.sprintf "attribute %s: expected ints, got %s" name (to_string a))

let get_bool name = function
  | Bool b -> b
  | a -> invalid_arg (Printf.sprintf "attribute %s: expected bool, got %s" name (to_string a))

let get_float name = function
  | Float f -> f
  | Int i -> float_of_int i
  | a -> invalid_arg (Printf.sprintf "attribute %s: expected float, got %s" name (to_string a))

let get_ty name = function
  | Ty ty -> ty
  | a -> invalid_arg (Printf.sprintf "attribute %s: expected type, got %s" name (to_string a))
