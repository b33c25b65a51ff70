(* Systematic verifier coverage: for each dialect, valid constructions must
   verify and representative invalid ones must be rejected with the right
   structural error. *)

open Cinm_ir
open Cinm_dialects
module T = Types

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)

(* Build a function body with [f], then report the number of verifier
   errors. *)
let errors_of ~arg_tys (f : Builder.t -> Ir.value list -> unit) =
  let fn = Func.create ~name:"t" ~arg_tys ~result_tys:[] in
  let b = Builder.for_func fn in
  f b (Func.params fn);
  Func_d.return b [];
  List.length (Verifier.verify_func fn)

let check_valid name ~arg_tys f =
  Alcotest.(check int) (name ^ " verifies") 0 (errors_of ~arg_tys f)

let check_invalid name ~arg_tys f =
  Alcotest.(check bool) (name ^ " rejected") true (errors_of ~arg_tys f > 0)

(* Rejected, with [msg] in one of the messages. *)
let check_rejected_with name ~msg ~arg_tys f =
  let fn = Func.create ~name:"t" ~arg_tys ~result_tys:[] in
  let b = Builder.for_func fn in
  f b (Func.params fn);
  Func_d.return b [];
  let messages =
    List.map (fun (e : Verifier.error) -> e.Verifier.message) (Verifier.verify_func fn)
  in
  let contains m =
    let n = String.length msg in
    let rec at i = i + n <= String.length m && (String.sub m i n = msg || at (i + 1)) in
    at 0
  in
  if not (List.exists contains messages) then
    Alcotest.failf "%s: expected a message with %S, got [%s]" name msg
      (String.concat "; " messages)

(* ----- arith ----- *)

let test_arith () =
  check_valid "addi" ~arg_tys:[ T.Scalar T.I32; T.Scalar T.I32 ] (fun b ps ->
      ignore (Arith.addi b (List.nth ps 0) (List.nth ps 1)));
  check_invalid "addi type mismatch" ~arg_tys:[ T.Scalar T.I32; T.Index ] (fun b ps ->
      ignore
        (Builder.build1 b "arith.addi"
           ~operands:[ List.nth ps 0; List.nth ps 1 ]
           ~result_tys:[ T.Scalar T.I32 ]));
  check_invalid "cmpi without predicate" ~arg_tys:[ T.Scalar T.I32; T.Scalar T.I32 ]
    (fun b ps ->
      ignore
        (Builder.build1 b "arith.cmpi"
           ~operands:[ List.nth ps 0; List.nth ps 1 ]
           ~result_tys:[ T.Scalar T.I1 ]));
  check_invalid "cmpi wrong result type" ~arg_tys:[ T.Scalar T.I32; T.Scalar T.I32 ]
    (fun b ps ->
      ignore
        (Builder.build1 b "arith.cmpi"
           ~operands:[ List.nth ps 0; List.nth ps 1 ]
           ~attrs:[ ("predicate", Attr.Str "slt") ]
           ~result_tys:[ T.Scalar T.I32 ]));
  check_invalid "select non-bool condition"
    ~arg_tys:[ T.Scalar T.I32; T.Scalar T.I32; T.Scalar T.I32 ] (fun b ps ->
      ignore
        (Builder.build1 b "arith.select" ~operands:ps ~result_tys:[ T.Scalar T.I32 ]))

(* ----- tensor ----- *)

let test_tensor () =
  check_valid "extract_slice" ~arg_tys:[ tensor [| 8; 8 |] ] (fun b ps ->
      ignore
        (Tensor_d.extract_slice b (List.hd ps) ~offsets:[| 2; 2 |] ~sizes:[| 4; 4 |]
           ~dyn_offsets:[]));
  check_invalid "extract_slice result/sizes mismatch" ~arg_tys:[ tensor [| 8; 8 |] ]
    (fun b ps ->
      ignore
        (Builder.build1 b "tensor.extract_slice" ~operands:[ List.hd ps ]
           ~attrs:[ ("offsets", Attr.Ints [| 0; 0 |]); ("sizes", Attr.Ints [| 4; 4 |]) ]
           ~result_tys:[ tensor [| 4; 5 |] ]));
  check_invalid "reshape element count" ~arg_tys:[ tensor [| 4; 4 |] ] (fun b ps ->
      ignore
        (Builder.build1 b "tensor.reshape" ~operands:[ List.hd ps ]
           ~attrs:[ ("shape", Attr.Ints [| 3; 5 |]) ]
           ~result_tys:[ tensor [| 3; 5 |] ]));
  check_invalid "extract index arity" ~arg_tys:[ tensor [| 4; 4 |] ] (fun b ps ->
      let i = Arith.const_index b 0 in
      ignore
        (Builder.build1 b "tensor.extract"
           ~operands:[ List.hd ps; i ]
           ~result_tys:[ T.Scalar T.I32 ]))

(* ----- memref / scf ----- *)

let test_memref_scf () =
  check_valid "alloc/load/store" ~arg_tys:[] (fun b _ ->
      let m = Memref_d.alloc b [| 4 |] T.I32 in
      let i = Arith.const_index b 1 in
      let v = Arith.constant b 3 in
      Memref_d.store b v m [ i ];
      ignore (Memref_d.load b m [ i ]));
  check_invalid "load wrong index arity" ~arg_tys:[] (fun b _ ->
      let m = Memref_d.alloc b [| 4; 4 |] T.I32 in
      let i = Arith.const_index b 0 in
      ignore (Builder.build1 b "memref.load" ~operands:[ m; i ] ~result_tys:[ T.Scalar T.I32 ]));
  check_valid "scf.for with iter_args" ~arg_tys:[ T.Scalar T.I32 ] (fun b ps ->
      let c0 = Arith.const_index b 0 in
      let c4 = Arith.const_index b 4 in
      let c1 = Arith.const_index b 1 in
      ignore
        (Scf_d.for_ b ~lb:c0 ~ub:c4 ~step:c1 ~init:[ List.hd ps ] (fun bb _ iters ->
             [ Arith.addi bb iters.(0) iters.(0) ])));
  check_invalid "scf.for yield arity" ~arg_tys:[ T.Scalar T.I32 ] (fun b ps ->
      let c0 = Arith.const_index b 0 in
      let region =
        Builder.build_region ~arg_tys:[ T.Index; T.Scalar T.I32 ] (fun bb _ ->
            Scf_d.yield bb [])
      in
      ignore
        (Builder.build b "scf.for"
           ~operands:[ c0; c0; c0; List.hd ps ]
           ~result_tys:[ T.Scalar T.I32 ] ~regions:[ region ]));
  check_invalid "scf.for non-index iv" ~arg_tys:[ T.Scalar T.I32 ] (fun b ps ->
      let c0 = Arith.const_index b 0 in
      let region =
        Builder.build_region ~arg_tys:[ T.Scalar T.I32; T.Scalar T.I32 ] (fun bb args ->
            Scf_d.yield bb [ args.(1) ])
      in
      ignore
        (Builder.build b "scf.for"
           ~operands:[ c0; c0; c0; List.hd ps ]
           ~result_tys:[ T.Scalar T.I32 ] ~regions:[ region ]))

(* ----- linalg / cinm ----- *)

let test_linalg_cinm () =
  check_invalid "matmul inner dim" ~arg_tys:[ tensor [| 4; 5 |]; tensor [| 6; 4 |] ]
    (fun b ps ->
      ignore
        (Builder.build1 b "linalg.matmul"
           ~operands:[ List.nth ps 0; List.nth ps 1 ]
           ~result_tys:[ tensor [| 4; 4 |] ]));
  check_invalid "transpose perms rank" ~arg_tys:[ tensor [| 4; 5 |] ] (fun b ps ->
      ignore
        (Builder.build1 b "linalg.transpose" ~operands:[ List.hd ps ]
           ~attrs:[ ("perms", Attr.Ints [| 0 |]) ]
           ~result_tys:[ tensor [| 5; 4 |] ]));
  check_invalid "einsum bad spec" ~arg_tys:[ tensor [| 2; 2 |]; tensor [| 2; 2 |] ]
    (fun b ps ->
      ignore
        (Builder.build1 b "linalg.einsum"
           ~operands:[ List.nth ps 0; List.nth ps 1 ]
           ~attrs:[ ("spec", Attr.Str "nonsense") ]
           ~result_tys:[ tensor [| 2; 2 |] ]));
  let einsum spec ~result (b : Builder.t) ps =
    ignore
      (Builder.build1 b "linalg.einsum"
         ~operands:[ List.nth ps 0; List.nth ps 1 ]
         ~attrs:[ ("spec", Attr.Str spec) ]
         ~result_tys:[ tensor result ])
  in
  check_valid "einsum contraction" ~arg_tys:[ tensor [| 2; 3 |]; tensor [| 3; 4 |] ]
    (einsum "ij,jk->ik" ~result:[| 2; 4 |]);
  check_valid "einsum batch index" ~arg_tys:[ tensor [| 2; 3 |]; tensor [| 2; 3 |] ]
    (einsum "ij,ij->ij" ~result:[| 2; 3 |]);
  check_rejected_with "einsum unequal extents" ~msg:"index 'j' has extents 3 and 5"
    ~arg_tys:[ tensor [| 2; 3 |]; tensor [| 5; 4 |] ]
    (einsum "ij,jk->ik" ~result:[| 2; 4 |]);
  check_rejected_with "einsum output extent" ~msg:"index 'k' has extents 4 and 7"
    ~arg_tys:[ tensor [| 2; 3 |]; tensor [| 3; 4 |] ]
    (einsum "ij,jk->ik" ~result:[| 2; 7 |]);
  check_rejected_with "einsum repeated index" ~msg:"index 'i' repeated in the first operand"
    ~arg_tys:[ tensor [| 3; 3 |]; tensor [| 3; 4 |] ]
    (einsum "ii,ik->k" ~result:[| 4 |]);
  check_rejected_with "einsum one-operand reduction" ~msg:"index 'j' is summed within one operand"
    ~arg_tys:[ tensor [| 2; 3 |]; tensor [| 2; 4 |] ]
    (einsum "ij,ik->ik" ~result:[| 2; 4 |]);
  check_rejected_with "einsum unbound output index" ~msg:"output index 'z' is in neither input"
    ~arg_tys:[ tensor [| 2; 3 |]; tensor [| 3; 4 |] ]
    (einsum "ij,jk->iz" ~result:[| 2; 4 |]);
  check_rejected_with "einsum spec rank" ~msg:"spec ranks must match"
    ~arg_tys:[ tensor [| 2; 3 |]; tensor [| 3; 4 |] ]
    (einsum "ijk,jk->ik" ~result:[| 2; 4 |]);
  check_invalid "histogram bins mismatch" ~arg_tys:[ tensor [| 16 |] ] (fun b ps ->
      ignore
        (Builder.build1 b "cinm.histogram" ~operands:[ List.hd ps ]
           ~attrs:[ ("bins", Attr.Int 8) ]
           ~result_tys:[ tensor [| 4 |] ]));
  check_invalid "topk result dims" ~arg_tys:[ tensor [| 16 |] ] (fun b ps ->
      ignore
        (Builder.build b "cinm.topk" ~operands:[ List.hd ps ]
           ~attrs:[ ("k", Attr.Int 3) ]
           ~result_tys:[ tensor [| 4 |]; tensor [| 4 |] ]));
  check_invalid "ew_expr operand type mismatch"
    ~arg_tys:[ tensor [| 8 |]; tensor [| 4 |] ] (fun b ps ->
      ignore
        (Builder.build1 b "cinm.ew_expr" ~operands:ps
           ~attrs:[ ("expr", Attr.Strs [ "in0"; "in1"; "add" ]) ]
           ~result_tys:[ tensor [| 8 |] ]))

(* ----- cnm ----- *)

let wg_2x2 b = Cnm_d.workgroup b ~shape:[| 2; 2 |] ~physical_dims:[ "dpu"; "thread" ]

let test_cnm () =
  check_valid "scatter block" ~arg_tys:[ tensor [| 16 |] ] (fun b ps ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      ignore (Cnm_d.scatter b (List.hd ps) buf wg ~map:"block"));
  check_invalid "scatter wrong total" ~arg_tys:[ tensor [| 15 |] ] (fun b ps ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      ignore (Cnm_d.scatter b (List.hd ps) buf wg ~map:"block"));
  check_invalid "scatter unknown map" ~arg_tys:[ tensor [| 16 |] ] (fun b ps ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      ignore (Cnm_d.scatter b (List.hd ps) buf wg ~map:"zigzag"));
  check_valid "scatter broadcast level 1" ~arg_tys:[ tensor [| 4 |] ] (fun b ps ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:1 in
      ignore (Cnm_d.scatter b (List.hd ps) buf wg ~map:"broadcast"));
  check_valid "scatter overlap" ~arg_tys:[ tensor [| 10 |] ] (fun b ps ->
      let wg = wg_2x2 b in
      (* 4 buffers x (4 - 2) + 2 = 10 *)
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      ignore (Cnm_d.scatter b (List.hd ps) buf wg ~halo:2 ~map:"overlap"));
  check_invalid "overlap without halo" ~arg_tys:[ tensor [| 10 |] ] (fun b ps ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      ignore (Cnm_d.scatter b (List.hd ps) buf wg ~map:"overlap"));
  check_invalid "gather size mismatch" ~arg_tys:[] (fun b _ ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      ignore (Cnm_d.gather b buf wg ~result_shape:[| 15 |]));
  check_valid "launch" ~arg_tys:[] (fun b _ ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      ignore (Cnm_d.launch b wg ~ins:[] ~outs:[ buf ] (fun _ _ -> ())));
  check_invalid "launch body arg mismatch" ~arg_tys:[] (fun b _ ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      let region =
        Builder.build_region ~arg_tys:[ T.MemRef ([| 5 |], T.I32) ] (fun bb _ ->
            Builder.build0 bb "cnm.terminator")
      in
      ignore
        (Builder.build1 b "cnm.launch" ~operands:[ wg; buf ]
           ~attrs:[ ("n_inputs", Attr.Int 0) ]
           ~regions:[ region ] ~result_tys:[ T.Token ]));
  check_invalid "launch body missing terminator" ~arg_tys:[] (fun b _ ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      let region =
        Builder.build_region ~arg_tys:[ T.MemRef ([| 4 |], T.I32) ] (fun _ _ -> ())
      in
      ignore
        (Builder.build1 b "cnm.launch" ~operands:[ wg; buf ]
           ~attrs:[ ("n_inputs", Attr.Int 0) ]
           ~regions:[ region ] ~result_tys:[ T.Token ]))

(* launch bodies are isolated from above: outer values may not leak in *)
let test_launch_isolation () =
  check_invalid "launch captures outer value" ~arg_tys:[] (fun b _ ->
      let wg = wg_2x2 b in
      let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
      let outer = Arith.constant b 42 in
      ignore
        (Cnm_d.launch b wg ~ins:[] ~outs:[ buf ] (fun bb args ->
             let c0 = Arith.const_index bb 0 in
             (* illegal: [outer] is defined outside the launch *)
             Memref_d.store bb outer args.(0) [ c0 ])))

(* ----- cim / memristor / upmem ----- *)

let test_cim () =
  check_valid "acquire/execute/release" ~arg_tys:[ tensor [| 4; 4 |]; tensor [| 4; 4 |] ]
    (fun b ps ->
      let id = Cim_d.acquire b ~rows:4 ~cols:4 ~tiles:1 in
      ignore
        (Cim_d.execute b id ~inputs:ps ~result_tys:[ tensor [| 4; 4 |] ] (fun bb args ->
             [ Cinm_d.gemm bb args.(0) args.(1) ]));
      Cim_d.barrier b id;
      Cim_d.release b id);
  check_invalid "execute yield arity" ~arg_tys:[ tensor [| 4; 4 |] ] (fun b ps ->
      let id = Cim_d.acquire b ~rows:4 ~cols:4 ~tiles:1 in
      let region =
        Builder.build_region ~arg_tys:[ tensor [| 4; 4 |] ] (fun bb _ -> Cim_d.yield bb [])
      in
      ignore
        (Builder.build b "cim.execute"
           ~operands:[ id; List.hd ps ]
           ~result_tys:[ tensor [| 4; 4 |] ]
           ~regions:[ region ]));
  check_invalid "release non-id" ~arg_tys:[ tensor [| 4 |] ] (fun b ps ->
      ignore (Builder.build0 b "cim.release" ~operands:[ List.hd ps ]))

let test_upmem_memristor () =
  check_valid "dma pair" ~arg_tys:[] (fun b _ ->
      let wg = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:2 in
      let buf = Upmem_d.alloc b wg ~shape:[| 8 |] ~dtype:T.I32 ~level:0 in
      ignore
        (Upmem_d.launch b wg ~tasklets:2 ~ins:[] ~outs:[ buf ] (fun bb args ->
             let w = Upmem_d.wram_alloc bb [| 8 |] T.I32 in
             let c0 = Arith.const_index bb 0 in
             Upmem_d.mram_read bb ~mram:args.(0) ~wram:w ~mram_off:c0 ~wram_off:c0 ~count:8;
             Upmem_d.mram_write bb ~wram:w ~mram:args.(0) ~mram_off:c0 ~wram_off:c0
               ~count:8)));
  check_invalid "dma non-index offset" ~arg_tys:[] (fun b _ ->
      let wg = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:2 in
      let buf = Upmem_d.alloc b wg ~shape:[| 8 |] ~dtype:T.I32 ~level:0 in
      ignore
        (Upmem_d.launch b wg ~tasklets:2 ~ins:[] ~outs:[ buf ] (fun bb args ->
             let w = Upmem_d.wram_alloc bb [| 8 |] T.I32 in
             let bad = Arith.constant bb 0 in
             let c0 = Arith.const_index bb 0 in
             Builder.build0 bb "upmem.mram_read"
               ~operands:[ args.(0); w; bad; c0 ]
               ~attrs:[ ("count", Attr.Int 8) ])));
  check_invalid "store_tile without tile attr" ~arg_tys:[ tensor [| 4; 4 |] ] (fun b ps ->
      let id = Memristor_d.alloc b ~rows:4 ~cols:4 ~tiles:1 in
      ignore
        (Builder.build0 b "memristor.store_tile" ~operands:[ id; List.hd ps ]))

let () =
  Alcotest.run "dialects"
    [
      ("arith", [ Alcotest.test_case "verifiers" `Quick test_arith ]);
      ("tensor", [ Alcotest.test_case "verifiers" `Quick test_tensor ]);
      ("memref+scf", [ Alcotest.test_case "verifiers" `Quick test_memref_scf ]);
      ("linalg+cinm", [ Alcotest.test_case "verifiers" `Quick test_linalg_cinm ]);
      ("cnm", [ Alcotest.test_case "verifiers" `Quick test_cnm ]);
      ("isolation", [ Alcotest.test_case "launch isolated from above" `Quick test_launch_isolation ]);
      ("cim", [ Alcotest.test_case "verifiers" `Quick test_cim ]);
      ("upmem+memristor", [ Alcotest.test_case "verifiers" `Quick test_upmem_memristor ]);
    ]
