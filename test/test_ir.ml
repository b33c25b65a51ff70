(* Unit and property tests for the core IR: construction, printing,
   parsing round-trips, verification, cloning. *)

open Cinm_ir
open Cinm_dialects
module T = Types

let () = Registry.ensure_all ()

let i32 = T.Scalar T.I32
let tensor shape = T.Tensor (shape, T.I32)

(* ----- helpers ----- *)

let build_gemm_func ?(name = "mm") m k n =
  let f =
    Func.create ~name ~arg_tys:[ tensor [| m; k |]; tensor [| k; n |] ]
      ~result_tys:[ tensor [| m; n |] ]
  in
  let b = Builder.for_func f in
  let out = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
  Func_d.return b [ out ];
  f

(* ----- types ----- *)

let test_type_printing () =
  Alcotest.(check string) "tensor" "tensor<4x8xi32>" (T.to_string (tensor [| 4; 8 |]));
  Alcotest.(check string) "memref" "memref<2xf32>" (T.to_string (T.MemRef ([| 2 |], T.F32)));
  Alcotest.(check string)
    "workgroup" "!cnm.workgroup<8x2>"
    (T.to_string (T.Workgroup [| 8; 2 |]));
  Alcotest.(check string)
    "buffer" "!cnm.buffer<16x16xi16, level 0>"
    (T.to_string (T.Buffer { shape = [| 16; 16 |]; dtype = T.I16; level = 0 }));
  Alcotest.(check string) "index" "index" (T.to_string T.Index)

let test_type_roundtrip () =
  let types =
    [
      T.Index; i32; T.Scalar T.I1; T.Scalar T.F64;
      tensor [| 15888; 16 |];
      T.MemRef ([| 3; 3; 3 |], T.I16);
      T.Workgroup [| 8; 2; 4 |];
      T.Buffer { shape = [| 64 |]; dtype = T.I32; level = 1 };
      T.Token; T.Cim_id;
    ]
  in
  List.iter
    (fun ty ->
      match T.of_string (T.to_string ty) with
      | Some ty' -> Alcotest.(check string) "roundtrip" (T.to_string ty) (T.to_string ty')
      | None -> Alcotest.failf "could not parse %s" (T.to_string ty))
    types

let test_type_sizes () =
  Alcotest.(check int) "tensor bytes" (4 * 8 * 4) (T.size_in_bytes (tensor [| 4; 8 |]));
  Alcotest.(check int) "i16 bytes" 2 (T.dtype_bytes T.I16);
  Alcotest.(check int) "elements" 32 (T.num_elements (tensor [| 4; 8 |]))

(* ----- construction ----- *)

let test_build_func () =
  let f = build_gemm_func 4 5 6 in
  let entry = Func.entry_block f in
  Alcotest.(check int) "two ops" 2 (Ir.num_ops entry);
  let gemm = Ir.op_at entry 0 in
  Alcotest.(check string) "op name" "cinm.gemm" gemm.Ir.name;
  Alcotest.(check string)
    "result type" "tensor<4x6xi32>"
    (T.to_string (Ir.result gemm 0).Ir.ty)

let test_verify_ok () =
  let f = build_gemm_func 4 5 6 in
  Alcotest.(check int) "no errors" 0 (List.length (Verifier.verify_func f))

let test_verify_rejects_bad_gemm () =
  let f =
    Func.create ~name:"bad" ~arg_tys:[ tensor [| 4; 5 |]; tensor [| 7; 6 |] ]
      ~result_tys:[ tensor [| 4; 6 |] ]
  in
  let b = Builder.for_func f in
  (* shape mismatch: 4x5 * 7x6 *)
  let out =
    Builder.build1 b "cinm.gemm"
      ~operands:[ Func.param f 0; Func.param f 1 ]
      ~result_tys:[ tensor [| 4; 6 |] ]
  in
  Func_d.return b [ out ];
  Alcotest.(check bool) "has errors" true (Verifier.verify_func f <> [])

let test_verify_rejects_unregistered () =
  let f = Func.create ~name:"u" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  Builder.build0 b "bogus.op";
  Func_d.return b [];
  Alcotest.(check bool) "has errors" true (Verifier.verify_func f <> [])

let test_verify_rejects_use_before_def () =
  let f = Func.create ~name:"dom" ~arg_tys:[] ~result_tys:[] in
  let entry = Func.entry_block f in
  (* Build the ops out of order by hand. *)
  let c = Ir.create_op ~result_tys:[ T.Index ] ~attrs:[ ("value", Attr.Int 1) ] "arith.constant" in
  let use = Ir.create_op ~operands:[ Ir.result c 0; Ir.result c 0 ] ~result_tys:[ T.Index ] "arith.addi" in
  Ir.append_op entry use;
  Ir.append_op entry c;
  let ret = Ir.create_op "func.return" in
  Ir.append_op entry ret;
  Alcotest.(check bool) "has errors" true (Verifier.verify_func f <> [])

(* ----- region scoping edge cases ----- *)

let has_dominance_error errs =
  List.exists
    (fun (e : Verifier.error) ->
      let s = Verifier.error_to_string e in
      let rec mem i =
        i + 17 <= String.length s
        && (String.sub s i 17 = "does not dominate" || mem (i + 1))
      in
      mem 0)
    errs

let test_verify_cross_region_dominance () =
  (* a value defined inside an scf.for body is not visible after the loop *)
  let f = Func.create ~name:"esc" ~arg_tys:[] ~result_tys:[ T.Index ] in
  let b = Builder.for_func f in
  let c0 = Arith.const_index b 0 in
  let c1 = Arith.const_index b 1 in
  let escaped = ref None in
  let _ =
    Scf_d.for_ b ~lb:c0 ~ub:c1 ~step:c1 ~init:[] (fun bb _iv _iters ->
        escaped := Some (Arith.const_index bb 7);
        [])
  in
  Func_d.return b [ Option.get !escaped ];
  let errs = Verifier.verify_func f in
  Alcotest.(check bool) "rejected" true (errs <> []);
  Alcotest.(check bool) "dominance error" true (has_dominance_error errs)

let test_verify_sibling_region_use () =
  (* a value defined in scf.if's then-region is not visible in its
     else-region: sibling regions do not dominate each other *)
  let f = Func.create ~name:"sib" ~arg_tys:[ T.Scalar T.I1 ] ~result_tys:[] in
  let b = Builder.for_func f in
  let leaked = ref None in
  let then_region =
    Builder.build_region (fun bb _ ->
        leaked := Some (Arith.const_index bb 1);
        Scf_d.yield bb [])
  in
  let else_region =
    Builder.build_region (fun bb _ ->
        let v = Option.get !leaked in
        let _ = Builder.build1 bb "arith.addi" ~operands:[ v; v ] ~result_tys:[ T.Index ] in
        Scf_d.yield bb [])
  in
  let _ =
    Builder.build b "scf.if" ~operands:[ Func.param f 0 ]
      ~regions:[ then_region; else_region ]
  in
  Func_d.return b [];
  let errs = Verifier.verify_func f in
  Alcotest.(check bool) "rejected" true (errs <> []);
  Alcotest.(check bool) "dominance error" true (has_dominance_error errs)

let test_verify_region_capture_allowed () =
  (* non-isolated regions (scf.for) may capture dominating outer values *)
  let f = Func.create ~name:"cap" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let c0 = Arith.const_index b 0 in
  let c1 = Arith.const_index b 1 in
  let outer = Arith.const_index b 5 in
  Scf_d.for0 b ~lb:c0 ~ub:c1 ~step:c1 (fun bb _iv -> ignore (Arith.addi bb outer outer));
  Func_d.return b [];
  Alcotest.(check int) "no errors" 0 (List.length (Verifier.verify_func f))

let test_verify_launch_isolated () =
  (* the same capture inside a cnm.launch body is rejected: launch bodies
     are isolated_from_above and may only use their block arguments *)
  let f = Func.create ~name:"iso" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let wg = Cnm_d.workgroup b ~shape:[| 2 |] ~physical_dims:[ "dpu" ] in
  let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
  let outer = Arith.const_index b 3 in
  let tok =
    Cnm_d.launch b wg ~ins:[] ~outs:[ buf ] (fun bb _args ->
        ignore
          (Builder.build1 bb "arith.addi" ~operands:[ outer; outer ]
             ~result_tys:[ T.Index ]))
  in
  Cnm_d.wait b [ tok ];
  Func_d.return b [];
  let errs = Verifier.verify_func f in
  Alcotest.(check bool) "rejected" true (errs <> []);
  Alcotest.(check bool) "dominance error" true (has_dominance_error errs)

let test_verify_upmem_launch_isolated () =
  let f = Func.create ~name:"iso_upmem" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let wg = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:1 in
  let buf = Upmem_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
  let outer = Arith.const_index b 3 in
  let _ =
    Upmem_d.launch b wg ~tasklets:1 ~ins:[] ~outs:[ buf ] (fun bb _args ->
        ignore
          (Builder.build1 bb "arith.addi" ~operands:[ outer; outer ]
             ~result_tys:[ T.Index ]))
  in
  Upmem_d.free_dpus b wg;
  Func_d.return b [];
  let errs = Verifier.verify_func f in
  Alcotest.(check bool) "rejected" true (errs <> []);
  Alcotest.(check bool) "dominance error" true (has_dominance_error errs)

(* ----- verifier diagnostics, pinned to the exact text ----- *)

let check_verdict = Alcotest.(check (result unit string))

let registered_verify name op =
  match Dialect.find_op name with
  | Some def -> def.Dialect.verify op
  | None -> Alcotest.failf "%s is not registered" name

(* Every combinator passes on a satisfied check and fails with its fixed
   message otherwise. *)
let test_verify_combinator_messages () =
  let v = Ir.result (Ir.create_op ~result_tys:[ i32 ] "test.def") 0 in
  let t = Ir.result (Ir.create_op ~result_tys:[ tensor [| 2; 3 |] ] "test.def") 0 in
  let addi = Ir.create_op ~operands:[ v ] ~result_tys:[ i32 ] "arith.addi" in
  let pair = Ir.create_op ~operands:[ v; t ] ~attrs:[ ("k", Attr.Int 1) ] "test.pair" in
  let open Dialect in
  check_verdict "expect ok" (Ok ()) (expect true "unused");
  check_verdict "expect" (Error "literal") (expect false "literal");
  check_verdict "operands ok" (Ok ()) (expect_operands addi 1);
  check_verdict "operands" (Error "arith.addi: expected 2 operands, got 1")
    (expect_operands addi 2);
  check_verdict "results ok" (Ok ()) (expect_results addi 1);
  check_verdict "results" (Error "arith.addi: expected 0 results, got 1")
    (expect_results addi 0);
  check_verdict "regions ok" (Ok ()) (expect_regions addi 0);
  check_verdict "regions" (Error "arith.addi: expected 1 regions, got 0")
    (expect_regions addi 1);
  check_verdict "attr ok" (Ok ()) (expect_attr pair "k");
  check_verdict "attr" (Error "test.pair: missing attribute value") (expect_attr pair "value");
  check_verdict "operand type ok" (Ok ()) (expect_operand_type pair 0 i32);
  check_verdict "operand type"
    (Error "test.pair: operand 1 has type tensor<2x3xi32>, expected i32")
    (expect_operand_type pair 1 i32);
  check_verdict "shaped ok" (Ok ()) (expect_shaped_operand pair 1);
  check_verdict "shaped" (Error "test.pair: operand 0 must be a shaped type")
    (expect_shaped_operand pair 0);
  check_verdict "same type ok" (Ok ()) (expect_same_type pair 0 0);
  check_verdict "same type" (Error "test.pair: operands 0 and 1 must have the same type")
    (expect_same_type pair 0 1);
  (* the first failing check is the verdict, through the registry *)
  check_verdict "arith.addi" (Error "arith.addi: expected 2 operands, got 1")
    (registered_verify "arith.addi" addi)

(* The dialect checks whose messages name the op or carry numbers. *)
let test_verify_dialect_messages () =
  let def ty = Ir.result (Ir.create_op ~result_tys:[ ty ] "test.def") 0 in
  let x = def i32 and idx = def T.Index in
  check_verdict "arith result type" (Error "arith.addi: result type must match operand type")
    (registered_verify "arith.addi"
       (Ir.create_op ~operands:[ x; x ] ~result_tys:[ T.Scalar T.F32 ] "arith.addi"));
  check_verdict "tensor shaped result" (Error "tensor.empty: result must be shaped")
    (registered_verify "tensor.empty" (Ir.create_op ~result_tys:[ i32 ] "tensor.empty"));
  check_verdict "memristor tile operand"
    (Error "memristor.store_tile: operand 0 must be !cim.id")
    (registered_verify "memristor.store_tile"
       (Ir.create_op ~operands:[ x; x ] ~attrs:[ ("tile", Attr.Int 0) ]
          "memristor.store_tile"));
  let mram = def (T.MemRef ([| 8 |], T.I32)) and wram = def (T.MemRef ([| 8 |], T.I32)) in
  check_verdict "upmem dma offsets" (Error "upmem.mram_read: offsets must be index")
    (registered_verify "upmem.mram_read"
       (Ir.create_op ~operands:[ mram; wram; idx; x ] ~attrs:[ ("count", Attr.Int 8) ]
          "upmem.mram_read"));
  let scatter map =
    Ir.create_op
      ~operands:
        [ def (tensor [| 10 |]);
          def (T.Buffer { shape = [| 4 |]; dtype = T.I32; level = 0 });
          def (T.Workgroup [| 2 |]) ]
      ~result_tys:[ T.Token ] ~attrs:[ ("map", Attr.Str map) ] "cnm.scatter"
  in
  check_verdict "cnm.scatter block"
    (Error "cnm.scatter: tensor elements (10) must equal buffers (2) x buffer (4)")
    (registered_verify "cnm.scatter" (scatter "block"));
  check_verdict "cnm.scatter map" (Error "cnm.scatter: unknown map")
    (registered_verify "cnm.scatter" (scatter "diagonal"))

let error_texts errs = List.map Verifier.error_to_string errs

let dominance_error fname opname (v : Ir.value) =
  Printf.sprintf "in @%s: %s: operand %%%d (%s) does not dominate its use" fname opname
    v.Ir.vid (T.to_string v.Ir.ty)

(* A value defined in an scf.for body goes out of scope with the body: it
   is visible neither after the loop nor in a sibling loop's body, while
   values defined before the loops stay visible in all three places. *)
let test_verify_scope_ends_with_region () =
  let f = Func.create ~name:"scope" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let c0 = Arith.const_index b 0 and c1 = Arith.const_index b 1 in
  let inner = ref None in
  Scf_d.for0 b ~lb:c0 ~ub:c1 ~step:c1 (fun bb iv ->
      inner := Some (Arith.addi bb iv c1));
  let v = Option.get !inner in
  Scf_d.for0 b ~lb:c0 ~ub:c1 ~step:c1 (fun bb iv ->
      ignore (Arith.addi bb iv c1);
      ignore (Arith.addi bb v c1));
  ignore (Arith.addi b c0 c1);
  ignore (Arith.addi b v c0);
  Func_d.return b [];
  Alcotest.(check (list string))
    "sibling body, then after the loop"
    [ dominance_error "scope" "arith.addi" v; dominance_error "scope" "arith.addi" v ]
    (error_texts (Verifier.verify_func f))

(* A launch body sees only its own arguments: a loop inside it may capture
   them, an outer value is rejected, and the outer scope is intact again
   after the launch. *)
let test_verify_isolation_is_scoped () =
  let f = Func.create ~name:"iso" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let outer = Arith.const_index b 3 in
  let body bb (args : Ir.value array) =
    let c0 = Arith.const_index bb 0 and c1 = Arith.const_index bb 1 in
    Scf_d.for0 bb ~lb:c0 ~ub:c1 ~step:c1 (fun lb iv ->
        ignore (Memref_d.load lb args.(0) [ iv ]));
    ignore (Arith.addi bb outer c1)
  in
  let wg = Cnm_d.workgroup b ~shape:[| 2 |] ~physical_dims:[ "dpu" ] in
  let buf = Cnm_d.alloc b wg ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
  Cnm_d.wait b [ Cnm_d.launch b wg ~ins:[] ~outs:[ buf ] body ];
  let dpus = Upmem_d.alloc_dpus b ~dimms:1 ~dpus:2 ~tasklets:1 in
  let ubuf = Upmem_d.alloc b dpus ~shape:[| 4 |] ~dtype:T.I32 ~level:0 in
  ignore (Upmem_d.launch b dpus ~tasklets:1 ~ins:[] ~outs:[ ubuf ] body);
  Upmem_d.free_dpus b dpus;
  ignore (Arith.addi b outer outer);
  Func_d.return b [];
  Alcotest.(check (list string))
    "one capture error per launch"
    [ dominance_error "iso" "arith.addi" outer; dominance_error "iso" "arith.addi" outer ]
    (error_texts (Verifier.verify_func f))

(* Errors come in a fixed order: the signature, then per op its own
   verdict, its operands' dominance and its regions; functions in module
   order. *)
let test_verify_error_order () =
  let f =
    { (Func.create ~name:"multi" ~arg_tys:[ T.Index ] ~result_tys:[]) with
      Func.arg_tys = [ i32 ] }
  in
  let entry = Func.entry_block f in
  let late = Ir.create_op ~result_tys:[ T.Index ] ~attrs:[ ("value", Attr.Int 1) ] "arith.constant" in
  let lv = Ir.result late 0 in
  let region =
    Builder.build_region (fun bb _ -> Builder.build0 bb "bogus.inner" ~operands:[ lv ])
  in
  let b = Builder.for_func f in
  Builder.build0 b "bogus.op" ~operands:[ lv; Func.param f 0 ] ~regions:[ region ];
  ignore
    (Builder.build1 b "arith.addi" ~operands:[ Func.param f 0 ] ~result_tys:[ T.Index ]);
  Ir.append_op entry late;
  Func_d.return b [];
  let g = Func.create ~name:"other" ~arg_tys:[] ~result_tys:[] in
  let gb = Builder.for_func g in
  Builder.build0 gb "bogus.op";
  Func_d.return gb [ lv ];
  let m = Func.create_module () in
  Func.add_func m f;
  Func.add_func m g;
  Alcotest.(check (list string))
    "module errors in order"
    [
      "in @multi: entry block args do not match signature";
      "in @multi: unregistered operation \"bogus.op\"";
      dominance_error "multi" "bogus.op" lv;
      "in @multi: unregistered operation \"bogus.inner\"";
      dominance_error "multi" "bogus.inner" lv;
      "in @multi: arith.addi: expected 2 operands, got 1";
      "in @other: unregistered operation \"bogus.op\"";
      dominance_error "other" "func.return" lv;
    ]
    (error_texts (Verifier.verify_module m))

let test_clone_independent () =
  let f = build_gemm_func 4 5 6 in
  let g = Func.clone f in
  Alcotest.(check int) "clone verifies" 0 (List.length (Verifier.verify_func g));
  (* mutating the clone must not affect the original *)
  let g_entry = Func.entry_block g in
  Ir.clear_ops g_entry;
  Alcotest.(check int) "original intact" 2 (Ir.num_ops (Func.entry_block f))

(* ----- printing and parsing ----- *)

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= hn && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_print_gemm () =
  let f = build_gemm_func 4 5 6 in
  let text = Printer.func_to_string f in
  Alcotest.(check bool)
    "mentions gemm" true
    (contains text "\"cinm.gemm\"(%arg0, %arg1)")

let test_parse_roundtrip () =
  let f = build_gemm_func 8 8 8 in
  let text = Printer.func_to_string f in
  let f' = Parser.parse_func_text text in
  let text' = Printer.func_to_string f' in
  Alcotest.(check string) "fixpoint" text text';
  Alcotest.(check int) "parsed verifies" 0 (List.length (Verifier.verify_func f'))

let test_parse_region_roundtrip () =
  let f =
    Func.create ~name:"loop" ~arg_tys:[ tensor [| 16 |] ] ~result_tys:[ tensor [| 16 |] ]
  in
  let b = Builder.for_func f in
  let lb = Arith.const_index b 0 in
  let ub = Arith.const_index b 4 in
  let step = Arith.const_index b 1 in
  let results =
    Scf_d.for_ b ~lb ~ub ~step ~init:[ Func.param f 0 ] (fun bb _iv iters ->
        [ Cinm_d.add bb iters.(0) iters.(0) ])
  in
  Func_d.return b results;
  let text = Printer.func_to_string f in
  let f' = Parser.parse_func_text text in
  Alcotest.(check string) "fixpoint" text (Printer.func_to_string f');
  Alcotest.(check int) "verifies" 0 (List.length (Verifier.verify_func f'))

let test_parse_module () =
  let m = Func.create_module () in
  Func.add_func m (build_gemm_func ~name:"a" 2 3 4);
  Func.add_func m (build_gemm_func ~name:"b" 5 6 7);
  let text = Printer.module_to_string m in
  let m' = Parser.parse_module_text text in
  Alcotest.(check int) "two funcs" 2 (List.length m'.Func.funcs);
  Alcotest.(check string) "fixpoint" text (Printer.module_to_string m')

let test_parse_attrs () =
  let f = Func.create ~name:"attrs" ~arg_tys:[] ~result_tys:[] in
  let b = Builder.for_func f in
  let _ =
    Builder.build b "cnm.workgroup"
      ~attrs:
        [
          ("physical_dims", Attr.Strs [ "dpu"; "thread" ]);
          ("flag", Attr.Bool true);
          ("sizes", Attr.Ints [| 1; -2; 3 |]);
          ("scale", Attr.Float 2.5);
          ("label", Attr.Str "hello \"world\"");
        ]
      ~result_tys:[ T.Workgroup [| 2; 2 |] ]
  in
  Func_d.return b [];
  let text = Printer.func_to_string f in
  let f' = Parser.parse_func_text text in
  Alcotest.(check string) "fixpoint" text (Printer.func_to_string f')

let test_parse_error_reported () =
  match Parser.parse_func_text "func.func @x() -> () { garbage }" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let expect_parse_error name text =
  match Parser.parse_func_text text with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected parse error" name

let test_parse_negative_cases () =
  expect_parse_error "undefined value"
    {|func.func @x() -> () {
  "func.return"(%nope) : (i32) -> ()
}|};
  expect_parse_error "bad type"
    {|func.func @x(%arg0: tensor<wat>) -> () {
  "func.return"() : () -> ()
}|};
  expect_parse_error "result arity mismatch"
    {|func.func @x() -> () {
  %0, %1 = "tensor.empty"() : () -> (tensor<1xi32>)
  "func.return"() : () -> ()
}|};
  expect_parse_error "unterminated string"
    {|func.func @x() -> () {
  "func.return|};
  expect_parse_error "trailing input"
    {|func.func @x() -> () {
  "func.return"() : () -> ()
}
extra|}

(* ----- parse error diagnostics (line/column + caret context) ----- *)

let parse_error_of text =
  match Parser.parse_func_text text with
  | exception Parser.Parse_error e -> e
  | _ -> Alcotest.fail "expected parse error"

let test_parse_error_location () =
  let e =
    parse_error_of
      "func.func @x() -> () {\n  \"func.return\"(%nope) : (i32) -> ()\n}"
  in
  Alcotest.(check string) "message" "use of undefined value %nope" e.Parser.message;
  Alcotest.(check int) "line" 2 e.Parser.line;
  Alcotest.(check int) "column" 23 e.Parser.col;
  Alcotest.(check bool) "caret" true (contains e.Parser.context "^");
  Alcotest.(check bool) "offending line shown" true (contains e.Parser.context "%nope");
  Alcotest.(check bool) "rendered position" true
    (contains (Parser.error_to_string e) "at line 2, column 23")

let test_parse_error_messages () =
  let e =
    parse_error_of
      "func.func @x(%arg0: tensor<wat>) -> () {\n  \"func.return\"() : () -> ()\n}"
  in
  Alcotest.(check bool) "invalid type" true (contains e.Parser.message "invalid type");
  Alcotest.(check int) "on line 1" 1 e.Parser.line;
  let e =
    parse_error_of "func.func @x() -> () {\n  \"func.return\"() : () -> ()\n}\nextra"
  in
  Alcotest.(check string) "trailing input" "trailing input" e.Parser.message;
  Alcotest.(check int) "on line 4" 4 e.Parser.line;
  Alcotest.(check int) "at column 1" 1 e.Parser.col;
  let e = parse_error_of "func.func @x() -> () {\n  \"oops" in
  Alcotest.(check string) "unterminated" "unterminated string" e.Parser.message;
  Alcotest.(check int) "on line 2" 2 e.Parser.line

let test_parse_comments_and_whitespace () =
  let f =
    Parser.parse_func_text
      {|// leading comment
func.func @c(%arg0: i32) -> (i32) {
  // a comment between ops
  %0 = "arith.addi"(%arg0, %arg0) : (i32, i32) -> (i32)
  "func.return"(%0) : (i32) -> ()
}|}
  in
  Alcotest.(check int) "verifies" 0 (List.length (Verifier.verify_func f))

let test_clone_nested_regions () =
  (* clone a function with a loop nest and check the clone's regions are
     fresh objects with consistent arg wiring *)
  let f = Func.create ~name:"nest" ~arg_tys:[ T.Index ] ~result_tys:[ T.Index ] in
  let b = Builder.for_func f in
  let c1 = Arith.const_index b 1 in
  let outer =
    Scf_d.for_ b ~lb:c1 ~ub:c1 ~step:c1 ~init:[ Func.param f 0 ] (fun bb _ iters ->
        let inner =
          Scf_d.for_ bb ~lb:c1 ~ub:c1 ~step:c1 ~init:[ iters.(0) ] (fun bb2 _ it2 ->
              [ Arith.addi bb2 it2.(0) it2.(0) ])
        in
        inner)
  in
  Func_d.return b outer;
  let g = Func.clone f in
  Alcotest.(check int) "clone verifies" 0 (List.length (Verifier.verify_func g));
  (* ops must be distinct objects *)
  let ids f =
    let acc = ref [] in
    Func.walk (fun op -> acc := op.Ir.oid :: !acc) f;
    !acc
  in
  let shared = List.filter (fun i -> List.mem i (ids f)) (ids g) in
  Alcotest.(check int) "no shared ops" 0 (List.length shared)

let test_walk_order () =
  let f = build_gemm_func 2 2 2 in
  let names = ref [] in
  Func.walk (fun op -> names := op.Ir.name :: !names) f;
  Alcotest.(check (list string)) "pre-order walk"
    [ "cinm.gemm"; "func.return" ]
    (List.rev !names)

(* Values are replaced only through the rewrite driver's env: a [Replace]
   must reach a use that feeds a block argument (the loop's iter_args
   init) and a use inside the scf.for body. *)
let test_replace_uses () =
  let f = Func.create ~name:"r" ~arg_tys:[ T.Index; T.Index ] ~result_tys:[ T.Index ] in
  let b = Builder.for_func f in
  let x = Arith.addi b (Func.param f 0) (Func.param f 0) in
  let c0 = Arith.const_index b 0 and c4 = Arith.const_index b 4 in
  let r =
    Scf_d.for_ b ~lb:c0 ~ub:c4 ~step:c4 ~init:[ x ] (fun bb _ acc ->
        [ Arith.addi bb acc.(0) x ])
  in
  Func_d.return b r;
  let x_op = match x.Ir.def with Ir.Op_result (op, _) -> op | _ -> assert false in
  let to_p1 ctx (op : Ir.op) =
    if op == x_op then Some (Rewrite.Replace [ Rewrite.lookup ctx (Func.param f 1) ])
    else None
  in
  Rewrite.apply_to_func ~patterns:[ to_p1 ] f;
  let p1 = Func.param f 1 in
  let top = Ir.block_ops (Func.entry_block f) in
  Alcotest.(check bool) "the replaced addi is gone" false
    (List.exists (fun op -> op.Ir.name = "arith.addi") top);
  let loop = List.find (fun op -> op.Ir.name = "scf.for") top in
  Alcotest.(check bool) "iter_args init rewired" true
    (Ir.operand loop (Ir.num_operands loop - 1) == p1);
  let body_add = Ir.op_at (Ir.entry_block (Ir.region loop 0)) 0 in
  Alcotest.(check bool) "body use rewired" true (Ir.operand body_add 1 == p1)

(* ----- qcheck properties ----- *)

let arb_small_dims = QCheck.(triple (1 -- 12) (1 -- 12) (1 -- 12))

let prop_gemm_roundtrip =
  QCheck.Test.make ~name:"printer/parser roundtrip on random gemm shapes" ~count:50
    arb_small_dims (fun (m, k, n) ->
      let f = build_gemm_func m k n in
      let text = Printer.func_to_string f in
      let f' = Parser.parse_func_text text in
      Printer.func_to_string f' = text && Verifier.verify_func f' = [])

let prop_attr_ints_roundtrip =
  QCheck.Test.make ~name:"ints attribute roundtrip" ~count:100
    QCheck.(list int)
    (fun ints ->
      let f = Func.create ~name:"a" ~arg_tys:[] ~result_tys:[] in
      let b = Builder.for_func f in
      let _ =
        Builder.build b "tensor.empty"
          ~attrs:[ ("xs", Attr.Ints (Array.of_list ints)) ]
          ~result_tys:[ tensor [| 1 |] ]
      in
      Func_d.return b [];
      let text = Printer.func_to_string f in
      Printer.func_to_string (Parser.parse_func_text text) = text)

let () =
  Alcotest.run "ir"
    [
      ( "types",
        [
          Alcotest.test_case "printing" `Quick test_type_printing;
          Alcotest.test_case "roundtrip" `Quick test_type_roundtrip;
          Alcotest.test_case "sizes" `Quick test_type_sizes;
        ] );
      ( "construction",
        [
          Alcotest.test_case "build func" `Quick test_build_func;
          Alcotest.test_case "clone is independent" `Quick test_clone_independent;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts valid" `Quick test_verify_ok;
          Alcotest.test_case "rejects shape mismatch" `Quick test_verify_rejects_bad_gemm;
          Alcotest.test_case "rejects unregistered op" `Quick test_verify_rejects_unregistered;
          Alcotest.test_case "rejects use before def" `Quick test_verify_rejects_use_before_def;
          Alcotest.test_case "rejects cross-region escape" `Quick
            test_verify_cross_region_dominance;
          Alcotest.test_case "rejects sibling-region use" `Quick
            test_verify_sibling_region_use;
          Alcotest.test_case "allows dominating capture" `Quick
            test_verify_region_capture_allowed;
          Alcotest.test_case "cnm.launch is isolated" `Quick test_verify_launch_isolated;
          Alcotest.test_case "upmem.launch is isolated" `Quick
            test_verify_upmem_launch_isolated;
          Alcotest.test_case "combinator messages" `Quick test_verify_combinator_messages;
          Alcotest.test_case "dialect messages" `Quick test_verify_dialect_messages;
          Alcotest.test_case "scope ends with its region" `Quick
            test_verify_scope_ends_with_region;
          Alcotest.test_case "isolation is scoped" `Quick test_verify_isolation_is_scoped;
          Alcotest.test_case "error order" `Quick test_verify_error_order;
        ] );
      ( "parser",
        [
          Alcotest.test_case "print gemm" `Quick test_print_gemm;
          Alcotest.test_case "gemm roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "region roundtrip" `Quick test_parse_region_roundtrip;
          Alcotest.test_case "module roundtrip" `Quick test_parse_module;
          Alcotest.test_case "attrs roundtrip" `Quick test_parse_attrs;
          Alcotest.test_case "reports errors" `Quick test_parse_error_reported;
          Alcotest.test_case "negative cases" `Quick test_parse_negative_cases;
          Alcotest.test_case "error location" `Quick test_parse_error_location;
          Alcotest.test_case "error messages" `Quick test_parse_error_messages;
          Alcotest.test_case "comments + whitespace" `Quick test_parse_comments_and_whitespace;
        ] );
      ( "ir utilities",
        [
          Alcotest.test_case "clone nested regions" `Quick test_clone_nested_regions;
          Alcotest.test_case "walk order" `Quick test_walk_order;
          Alcotest.test_case "replace uses" `Quick test_replace_uses;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_gemm_roundtrip;
          QCheck_alcotest.to_alcotest prop_attr_ints_roundtrip;
        ] );
    ]
