(* Functions and modules: the top-level containers of the IR.

   A function owns a single region whose entry block's arguments are the
   function parameters; the body is terminated by [func.return]. A module
   is a named collection of functions (MLIR's builtin.module). *)

type t = {
  fname : string;
  arg_tys : Types.t list;
  result_tys : Types.t list;
  body : Ir.region;
  mutable fattrs : (string * Attr.t) list;
}

type modul = { mutable funcs : t list }

let create ~name ~arg_tys ~result_tys =
  let body = Ir.create_region () in
  let entry = Ir.create_block ~arg_tys () in
  Ir.add_block body entry;
  { fname = name; arg_tys; result_tys; body; fattrs = [] }

let entry_block f = Ir.entry_block f.body

let params f = Array.to_list (entry_block f).Ir.args

let param f i = (entry_block f).Ir.args.(i)

let fn_type f = Types.Func (f.arg_tys, f.result_tys)

let create_module () = { funcs = [] }

let add_func m f = m.funcs <- m.funcs @ [ f ]

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs

let find_func_exn m name =
  match find_func m name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Func.find_func_exn: no function @%s" name)

let walk fn func = Ir.walk_region fn func.body

(* Replace a function's body in place (used by conversion passes that
   rebuild whole functions). *)
let replace_body f (new_body : Ir.region) =
  Ir.set_region_blocks f.body (Ir.blocks new_body)

let clone f =
  let body, _ = Ir.clone_region f.body in
  { f with body; fattrs = f.fattrs }

let clone_module m = { funcs = List.map clone m.funcs }
