(* Heterogeneous target selection (paper §3.2.2 and §3.4): one program
   containing several kernels, where target selection sends each cinm op
   to the device that suits it — gemm to the crossbar, the reduction and
   elementwise tail to UPMEM, leftovers to the host. The program is then
   lowered with BOTH device pipelines and executed with both simulators
   attached.

   Run with:  dune exec examples/heterogeneous.exe *)

open Cinm_ir
open Cinm_dialects
open Cinm_transforms
open Cinm_interp
module Usim = Cinm_upmem_sim
module Msim = Cinm_memristor_sim

let () = Registry.ensure_all ()

let tensor shape = Types.Tensor (shape, Types.I32)

(* score = reduce_add( (A x B) elementwise* S ), plus a histogram of S:
   the gemm prefers the crossbar, the elementwise/reduce/histogram ops
   prefer UPMEM (Table 1: no cim reduce/histogram). *)
let build () =
  let f =
    Func.create ~name:"hetero"
      ~arg_tys:[ tensor [| 64; 64 |]; tensor [| 64; 64 |]; tensor [| 64; 64 |] ]
      ~result_tys:[ Types.Scalar Types.I32; tensor [| 16 |] ]
  in
  let b = Builder.for_func f in
  let mm = Linalg_d.matmul b (Func.param f 0) (Func.param f 1) in
  let weighted = Linalg_d.mul b mm (Func.param f 2) in
  let score = Linalg_d.reduce b ~op:"add" weighted in
  let hist = Cinm_d.histogram b (Func.param f 2) ~bins:16 in
  Func_d.return b [ score; hist ];
  f

let inputs () =
  [
    Rtval.Tensor (Tensor.init [| 64; 64 |] (fun i -> (i mod 7) - 3));
    Rtval.Tensor (Tensor.init [| 64; 64 |] (fun i -> (i mod 5) - 2));
    Rtval.Tensor (Tensor.init [| 64; 64 |] (fun i -> i mod 16));
  ]

let () =
  let f = build () in
  let m = Func.create_module () in
  Func.add_func m f;

  (* Print the reference cost models' (§3.3) estimates for each candidate
     device, sized like the machines below, then map with the paper's
     greedy policy: matmul-like ops go to the crossbar, every other cinm
     op to UPMEM. *)
  let upmem_cfg = { Cinm_to_cnm.default_options with dpus = 16; tasklets = 16 } in
  let cim_cfg = { Cinm_to_cim.default_options with parallel = true } in
  let models =
    [
      ( "cim",
        Cost_model.cim ~rows:cim_cfg.Cinm_to_cim.rows
          ~cols:cim_cfg.Cinm_to_cim.cols );
      ("cnm", Cost_model.cnm ~dpus:upmem_cfg.Cinm_to_cnm.dpus);
      ("cam", Cost_model.cam);
      ("host", Cost_model.host);
    ]
  in
  Pass.run_pipeline [ Tosa_to_linalg.pass; Linalg_to_cinm.pass ] m;
  print_endline "== cost-model estimates per op (informational, us) ==";
  Func.walk
    (fun op ->
      if Cinm_d.support_of op.Ir.name <> None then begin
        Printf.printf "  %-16s" op.Ir.name;
        List.iter
          (fun (device, estimate) ->
            match estimate op with
            | Some t -> Printf.printf "  %s=%.2f" device (1e6 *. t)
            | None -> Printf.printf "  %s=n/a" device)
          models;
        print_newline ()
      end)
    (List.hd m.Func.funcs);
  Pass.run_pipeline [ Target_select.pass () ] m;
  print_endline "\n== greedy target decisions (paper section 3.2.2) ==";
  Func.walk
    (fun op ->
      match Ir.attr op "target" with
      | Some (Attr.Str t) -> Printf.printf "  %-16s -> %s\n" op.Ir.name t
      | _ -> ())
    (List.hd m.Func.funcs);

  (* Lower the cim-targeted ops, then the cnm-targeted ones, then the cnm
     program down to upmem: one module, two accelerators. *)
  Pass.run_pipeline
    [ Ew_fusion.pass;
      Cinm_to_cim.pass ~options:cim_cfg ();
      Loop_unroll.pass; Cim_to_memristor.assign_pass ~tiles:4; Cim_to_memristor.pass;
      Licm.pass; Licm.pass;
      Cinm_to_cnm.pass ~options:upmem_cfg (); Cnm_to_upmem.pass (); ]
    m;

  (* Execute with BOTH device simulators hooked into the interpreter. *)
  let upmem = Usim.Machine.create (Usim.Config.default ~dimms:1 ()) in
  let crossbar = Msim.Machine.create (Msim.Config.default ()) in
  let results, _profile =
    Interp.run_func
      ~hooks:[ Usim.Machine.hook upmem; Msim.Machine.hook crossbar ]
      (List.hd m.Func.funcs) (inputs ())
  in
  (* check against the plain host interpretation *)
  let expected, _ = Interp.run_func (build ()) (inputs ()) in
  assert (expected = results);
  print_endline "\n== one program, two accelerators ==";
  Printf.printf "upmem:    %s\n" (Usim.Stats.to_string upmem.Usim.Machine.stats);
  Printf.printf "crossbar: %s\n" (Msim.Stats.to_string crossbar.Msim.Machine.stats);
  (match results with
  | [ Rtval.Int score; Rtval.Tensor hist ] ->
    Printf.printf "\nscore = %d, histogram = %s\n" score (Tensor.to_string hist)
  | _ -> assert false);
  print_endline "results verified against the host reference."
