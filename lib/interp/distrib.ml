(* Data distribution between a host tensor and per-PU buffers, shared by
   the reference CNM executor and the UPMEM simulator. The "map" names
   match the cnm.scatter attribute. All four maps and the gather reduce to
   {!Tensor.blit}/{!Tensor.blit_strided}, whose fallback loop preserves the
   exact elementwise [set_int dst (get_int src)] semantics (and bounds
   errors) of the original per-element copies. *)

let scatter ?(halo = 0) ~map (t : Tensor.t) (per_pu : Tensor.t array) =
  let pus = Array.length per_pu in
  if pus = 0 then invalid_arg "Distrib.scatter: no PUs";
  let per_pu_elems = Tensor.num_elements per_pu.(0) in
  match map with
  | "overlap" ->
    (* block distribution with [halo] elements of overlap between
       neighbouring buffers (sliding-window kernels) *)
    let chunk = per_pu_elems - halo in
    for p = 0 to pus - 1 do
      Tensor.blit t (p * chunk) per_pu.(p) 0 per_pu_elems
    done
  | "broadcast" ->
    for p = 0 to pus - 1 do
      Tensor.blit t 0 per_pu.(p) 0 per_pu_elems
    done
  | "block" ->
    for p = 0 to pus - 1 do
      Tensor.blit t (p * per_pu_elems) per_pu.(p) 0 per_pu_elems
    done
  | "cyclic" ->
    for p = 0 to pus - 1 do
      Tensor.blit_strided t p pus per_pu.(p) 0 per_pu_elems
    done
  | m -> invalid_arg ("Distrib.scatter: unknown map " ^ m)

let gather (per_pu : Tensor.t array) ~result_shape ~dtype =
  let pus = Array.length per_pu in
  if pus = 0 then invalid_arg "Distrib.gather: no PUs";
  let per_pu_elems = Tensor.num_elements per_pu.(0) in
  (* the copies cover the result exactly when the buffers tile it *)
  let alloc =
    if pus * per_pu_elems = Cinm_support.Util.product_of_shape result_shape then
      Tensor.Arena.alloc_uninit
    else Tensor.Arena.alloc
  in
  let out = alloc result_shape dtype in
  for p = 0 to pus - 1 do
    Tensor.blit per_pu.(p) 0 out (p * per_pu_elems) per_pu_elems
  done;
  out
