(* Target selection at the cinm level (paper §3.2.2): delegate each cinm
   operation to the most suitable device by annotating it with a "target"
   attribute ("cim" | "cnm" | "host"), which the subsequent lowerings
   dispatch on.

   Policy (as in the paper):
   - the user may force a target;
   - otherwise greedy: matmul-like ops go to the CIM crossbar when the
     tensor dimensions reach a threshold; every other cinm op goes to
     UPMEM (cnm); ops a paradigm cannot express are reassigned per the
     Table 1 support matrix; non-cinm ops run on the host.
   Cost-model placement (§3.3) lives in the heterogeneous partitioner. *)

open Cinm_ir
open Cinm_dialects

type policy = {
  forced_target : string option;  (** None = automatic *)
  cim_gemm_threshold : int;
      (** min(m,k) of operand 0 at or above which gemm/gemv prefers cim *)
}

let default_policy = { forced_target = None; cim_gemm_threshold = 16 }

(* Unknown target names (a typo in --target) mean "no, this device can't
   take the op" — selection then falls back rather than aborting the
   pipeline. *)
let supports target (support : Cinm_d.support) =
  match target with
  | "cim" -> support.Cinm_d.cim
  | "cnm" -> support.Cinm_d.cnm
  | "host" -> true
  | _ -> false

let fallback_target (support : Cinm_d.support) =
  if support.Cinm_d.cnm then "cnm" else if support.Cinm_d.cim then "cim" else "host"

let greedy_target policy op (support : Cinm_d.support) =
  match op.Ir.name with
  | "cinm.sim_search" when Ir.str_attr op "metric" = "hamming" ->
    (* CAM-suited searches (C4CAM's detection criterion): exact/hamming
       matching maps onto TCAM match lines *)
    "cim"
  | "cinm.gemm" | "cinm.gemv" -> (
    match Types.shape_of (Ir.operand op 0).Ir.ty with
    | Some shape ->
      let min_dim = Array.fold_left min max_int shape in
      if support.Cinm_d.cim && min_dim >= policy.cim_gemm_threshold then "cim" else "cnm"
    | None -> "cnm")
  | _ -> fallback_target support

let select policy op =
  match Cinm_d.support_of op.Ir.name with
  | None -> None (* not a cinm compute op: host *)
  | Some support -> (
    match policy.forced_target with
    | Some t when supports t support -> Some t
    | Some _ -> Some (fallback_target support)
    | None -> Some (greedy_target policy op support))

let run_on_func policy f =
  Func.walk
    (fun op ->
      match select policy op with
      | Some target -> Ir.set_attr op "target" (Attr.Str target)
      | None -> ())
    f

let pass ?(policy = default_policy) () =
  Pass.create ~name:"cinm-target-select" (fun m ->
      List.iter (run_on_func policy) m.Func.funcs)
