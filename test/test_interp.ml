(* Tests for the runtime tensor library and the reference interpreter. *)

open Cinm_ir
open Cinm_dialects
open Cinm_interp
module T = Types

let () = Registry.ensure_all ()

let tensor shape = T.Tensor (shape, T.I32)

let iota shape = Tensor.init shape (fun i -> i)

let check_tensor msg expected actual =
  if not (Tensor.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

(* ----- tensor kernel tests ----- *)

let test_matmul () =
  let a = Tensor.of_int_array [| 2; 2 |] [| 1; 2; 3; 4 |] in
  let b = Tensor.of_int_array [| 2; 2 |] [| 5; 6; 7; 8 |] in
  check_tensor "matmul" (Tensor.of_int_array [| 2; 2 |] [| 19; 22; 43; 50 |]) (Tensor.matmul a b)

let test_matvec () =
  let a = Tensor.of_int_array [| 2; 3 |] [| 1; 2; 3; 4; 5; 6 |] in
  let v = Tensor.of_int_array [| 3 |] [| 1; 0; -1 |] in
  check_tensor "matvec" (Tensor.of_int_array [| 2 |] [| -2; -2 |]) (Tensor.matvec a v)

let test_conv2d () =
  let img = iota [| 3; 3 |] in
  let k = Tensor.of_int_array [| 2; 2 |] [| 1; 0; 0; 1 |] in
  (* out[i][j] = img[i][j] + img[i+1][j+1] *)
  check_tensor "conv" (Tensor.of_int_array [| 2; 2 |] [| 4; 6; 10; 12 |]) (Tensor.conv_2d img k)

let test_im2col_gemm_equals_conv () =
  let img = iota [| 6; 5 |] in
  let k = Tensor.of_int_array [| 3; 3 |] [| 1; -1; 2; 0; 3; 1; -2; 1; 1 |] in
  let direct = Tensor.conv_2d img k in
  let cols = Tensor.im2col img ~kh:3 ~kw:3 in
  let kvec = Tensor.reshape k [| 9; 1 |] in
  let gemm = Tensor.matmul cols kvec in
  check_tensor "im2col+gemm == conv" direct (Tensor.reshape gemm [| 4; 3 |])

let test_transpose () =
  let a = iota [| 2; 3 |] in
  check_tensor "transpose"
    (Tensor.of_int_array [| 3; 2 |] [| 0; 3; 1; 4; 2; 5 |])
    (Tensor.transpose a [| 1; 0 |])

let test_wrap32 () =
  let a = Tensor.of_int_array [| 1 |] [| 0x7FFFFFFF |] in
  let b = Tensor.of_int_array [| 1 |] [| 1 |] in
  check_tensor "int32 wraps"
    (Tensor.of_int_array [| 1 |] [| -0x80000000 |])
    (Tensor.map2 "add" a b)

let test_histogram () =
  let a = Tensor.of_int_array [| 6 |] [| 0; 1; 1; 3; 3; 3 |] in
  check_tensor "histogram"
    (Tensor.of_int_array [| 4 |] [| 1; 2; 0; 3 |])
    (Tensor.histogram ~bins:4 a)

let test_scan_reduce () =
  let a = Tensor.of_int_array [| 4 |] [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "reduce add" 10 (Tensor.reduce "add" a);
  Alcotest.(check int) "reduce max" 4 (Tensor.reduce "max" a);
  check_tensor "scan" (Tensor.of_int_array [| 4 |] [| 1; 3; 6; 10 |]) (Tensor.scan "add" a)

let test_topk () =
  let a = Tensor.of_int_array [| 5 |] [| 3; 9; 1; 9; 5 |] in
  let values, indices = Tensor.topk ~k:3 a in
  check_tensor "topk values" (Tensor.of_int_array [| 3 |] [| 9; 9; 5 |]) values;
  check_tensor "topk indices" (Tensor.of_int_array [| 3 |] [| 1; 3; 4 |]) indices

let test_pop_count () =
  let a = Tensor.of_int_array [| 2 |] [| 0b1011; 0b1 |] in
  Alcotest.(check int) "popcount" 4 (Tensor.pop_count a)

let test_majority () =
  let a = Tensor.of_int_array [| 3 |] [| 0b110; 0b011; 0b010 |] in
  (* bit0: 0,1,0 -> 0; bit1: 1,1,1 -> 1; bit2: 1,0,0 -> 0 *)
  check_tensor "majority" (Tensor.of_int_array [| 1 |] [| 0b010 |]) (Tensor.majority a)

let test_einsum_matches_matmul () =
  let a = iota [| 3; 4 |] and b = iota [| 4; 5 |] in
  check_tensor "einsum ik,kj->ij" (Tensor.matmul a b) (Tensor.einsum ~spec:"ik,kj->ij" a b)

let test_einsum_contraction () =
  (* contrs1 from the paper: C_ab = A_acd * B_dbc *)
  let a = iota [| 2; 3; 4 |] and b = iota [| 4; 2; 3 |] in
  let c = Tensor.einsum ~spec:"acd,dbc->ab" a b in
  (* check one element by brute force *)
  let expected =
    let acc = ref 0 in
    for ci = 0 to 2 do
      for d = 0 to 3 do
        acc := !acc + (Tensor.get a [| 1; ci; d |] * Tensor.get b [| d; 0; ci |])
      done
    done;
    !acc
  in
  Alcotest.(check int) "einsum element" expected (Tensor.get c [| 1; 0 |])

let test_slices () =
  let a = iota [| 4; 4 |] in
  let s = Tensor.extract_slice a ~offsets:[| 1; 2 |] ~sizes:[| 2; 2 |] in
  check_tensor "extract" (Tensor.of_int_array [| 2; 2 |] [| 6; 7; 10; 11 |]) s;
  let back = Tensor.insert_slice s (Tensor.zeros [| 4; 4 |] T.I32) ~offsets:[| 0; 0 |] in
  Alcotest.(check int) "insert" 11 (Tensor.get back [| 1; 1 |])

let test_pad () =
  let a = iota [| 2; 2 |] in
  let padded = Tensor.pad a ~low:[| 1; 0 |] ~high:[| 0; 1 |] in
  Alcotest.(check int) "pad shape" 9 (Tensor.num_elements padded);
  Alcotest.(check int) "pad zero" 0 (Tensor.get padded [| 0; 0 |]);
  Alcotest.(check int) "pad value" 0 (Tensor.get padded [| 1; 2 |]);
  Alcotest.(check int) "pad value2" 1 (Tensor.get padded [| 1; 1 |])

(* ----- interpreter tests ----- *)

let run1 f args =
  match Interp.run_func f args with
  | [ v ], _ -> v
  | vs, _ -> Alcotest.failf "expected 1 result, got %d" (List.length vs)

let test_interp_gemm () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| 2; 2 |]; tensor [| 2; 2 |] ]
      ~result_tys:[ tensor [| 2; 2 |] ]
  in
  let b = Builder.for_func f in
  let out = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
  Func_d.return b [ out ];
  let a = Tensor.of_int_array [| 2; 2 |] [| 1; 2; 3; 4 |] in
  let bt = Tensor.of_int_array [| 2; 2 |] [| 5; 6; 7; 8 |] in
  let r = run1 f [ Rtval.Tensor a; Rtval.Tensor bt ] in
  check_tensor "interp gemm" (Tensor.matmul a bt) (Rtval.as_tensor r)

let test_interp_loop_sum () =
  (* sum 0..9 via scf.for iter_args *)
  let f = Func.create ~name:"sum" ~arg_tys:[] ~result_tys:[ T.Index ] in
  let b = Builder.for_func f in
  let lb = Arith.const_index b 0 in
  let ub = Arith.const_index b 10 in
  let step = Arith.const_index b 1 in
  let init = Arith.const_index b 0 in
  let results =
    Scf_d.for_ b ~lb ~ub ~step ~init:[ init ] (fun bb iv iters ->
        [ Arith.addi bb iters.(0) iv ])
  in
  Func_d.return b results;
  Alcotest.(check int) "sum" 45 (Rtval.as_int (run1 f []))

let test_interp_if () =
  let f = Func.create ~name:"abs" ~arg_tys:[ T.Scalar T.I32 ] ~result_tys:[ T.Scalar T.I32 ] in
  let b = Builder.for_func f in
  let zero = Arith.constant b 0 in
  let neg = Arith.cmpi b Arith.Slt (Func.param f 0) zero in
  let results =
    Scf_d.if_ b neg
      ~then_:(fun bb -> [ Arith.subi bb zero (Func.param f 0) ])
      ~else_:(fun _ -> [ Func.param f 0 ])
      ~result_tys:[ T.Scalar T.I32 ]
  in
  Func_d.return b results;
  Alcotest.(check int) "abs -5" 5 (Rtval.as_int (run1 f [ Rtval.Int (-5) ]));
  Alcotest.(check int) "abs 7" 7 (Rtval.as_int (run1 f [ Rtval.Int 7 ]))

let test_interp_memref () =
  (* store then load through a memref *)
  let f = Func.create ~name:"mem" ~arg_tys:[] ~result_tys:[ T.Scalar T.I32 ] in
  let b = Builder.for_func f in
  let m = Memref_d.alloc b [| 4 |] T.I32 in
  let i2 = Arith.const_index b 2 in
  let v = Arith.constant b 42 in
  Memref_d.store b v m [ i2 ];
  let out = Memref_d.load b m [ i2 ] in
  Func_d.return b [ out ];
  Alcotest.(check int) "load" 42 (Rtval.as_int (run1 f []))

let test_interp_fully_connected () =
  let f =
    Func.create ~name:"fc"
      ~arg_tys:[ tensor [| 1; 2 |]; tensor [| 2; 2 |]; tensor [| 2 |] ]
      ~result_tys:[ tensor [| 1; 2 |] ]
  in
  let b = Builder.for_func f in
  let out = Tosa_d.fully_connected b (Func.param f 0) (Func.param f 1) (Func.param f 2) in
  Func_d.return b [ out ];
  let x = Tensor.of_int_array [| 1; 2 |] [| 1; 2 |] in
  let w = Tensor.of_int_array [| 2; 2 |] [| 1; 0; 0; 1 |] in
  let bias = Tensor.of_int_array [| 2 |] [| 10; 20 |] in
  let r = run1 f [ Rtval.Tensor x; Rtval.Tensor w; Rtval.Tensor bias ] in
  check_tensor "fc" (Tensor.of_int_array [| 1; 2 |] [| 11; 22 |]) (Rtval.as_tensor r)

let test_interp_profile_counts () =
  let f =
    Func.create ~name:"mm" ~arg_tys:[ tensor [| 4; 4 |]; tensor [| 4; 4 |] ]
      ~result_tys:[ tensor [| 4; 4 |] ]
  in
  let b = Builder.for_func f in
  let out = Cinm_d.gemm b (Func.param f 0) (Func.param f 1) in
  Func_d.return b [ out ];
  let _, profile = Interp.run_func f [ Rtval.Tensor (iota [| 4; 4 |]); Rtval.Tensor (iota [| 4; 4 |]) ] in
  Alcotest.(check int) "muls = m*n*k" 64 profile.Profile.mul_ops

(* [main] returns double(double(21)), [double] being a second function
   of the module. Both backends give the same result and profile, and
   fail alike when the step budget runs out at the second call, when no
   module is in scope and when the callee is missing. *)
let test_interp_call () =
  let m = Func.create_module () in
  let callee = Func.create ~name:"double" ~arg_tys:[ T.Scalar T.I32 ] ~result_tys:[ T.Scalar T.I32 ] in
  let b = Builder.for_func callee in
  Func_d.return b [ Arith.addi b (Func.param callee 0) (Func.param callee 0) ];
  Func.add_func m callee;
  let main ~callee =
    let f = Func.create ~name:"main" ~arg_tys:[] ~result_tys:[ T.Scalar T.I32 ] in
    let b = Builder.for_func f in
    let call x = Ir.result (Func_d.call b ~callee ~result_tys:[ T.Scalar T.I32 ] [ x ]) 0 in
    Func_d.return b [ call (call (Arith.constant b 21)) ];
    f
  in
  let main_f = main ~callee:"double" in
  Func.add_func m main_f;
  let run ?(max_steps = 0) ?modul interp f =
    let config = { (Cinm_support.Config.default ()) with interp; max_steps } in
    match Compile.run_func ?modul ~config f [] with
    | results, profile ->
      Ok (List.map Rtval.to_string results, Profile.to_string profile)
    | exception e -> Error (Printexc.to_string e)
  in
  let outcome = Alcotest.(result (pair (list string) string) string) in
  let both what ?max_steps ?modul f =
    let tree = run ?max_steps ?modul "tree" f in
    Alcotest.check outcome (what ^ ": tree and compiled agree") tree
      (run ?max_steps ?modul "compiled" f);
    tree
  in
  (match both "call" ~modul:m main_f with
  | Ok (results, _) -> Alcotest.(check (list string)) "call" [ "84" ] results
  | Error e -> Alcotest.failf "call failed: %s" e);
  let fails what expect = function
    | Error e ->
      let n = String.length expect in
      let rec mentions i = i + n <= String.length e && (String.sub e i n = expect || mentions (i + 1)) in
      if not (mentions 0) then Alcotest.failf "%s: %S does not mention %S" what e expect
    | Ok _ -> Alcotest.failf "%s: expected a failure" what
  in
  fails "step budget" "exceeded the step budget at func.call: 2 steps (max 1)"
    (both "step budget" ~max_steps:1 ~modul:m main_f);
  fails "no module" "func.call outside a module context" (both "no module" main_f);
  let m' = Func.create_module () and lost = main ~callee:"nowhere" in
  Func.add_func m' lost;
  fails "missing callee" "nowhere" (both "missing callee" ~modul:m' lost)

(* ----- qcheck properties ----- *)

let arb_tensor_pair =
  QCheck.(
    map
      (fun (n, xs) ->
        let n = max 1 n in
        let arr = Array.init n (fun i -> List.nth_opt xs i |> Option.value ~default:i) in
        (Tensor.of_int_array [| n |] arr, Tensor.of_int_array [| n |] (Array.map (fun x -> x * 3) arr)))
      (pair (1 -- 32) (list int)))

let prop_elementwise_comm =
  QCheck.Test.make ~name:"add is commutative under wrap32" ~count:100 arb_tensor_pair
    (fun (a, b) -> Tensor.equal (Tensor.map2 "add" a b) (Tensor.map2 "add" b a))

let prop_scan_last_is_reduce =
  QCheck.Test.make ~name:"last of scan = reduce" ~count:100 arb_tensor_pair
    (fun (a, _) ->
      let n = Tensor.num_elements a in
      Tensor.get_int (Tensor.scan "add" a) (n - 1) = Tensor.reduce "add" a)

let prop_transpose_involutive =
  QCheck.Test.make ~name:"transpose twice is identity" ~count:50
    QCheck.(pair (1 -- 10) (1 -- 10))
    (fun (m, n) ->
      let a = iota [| m; n |] in
      Tensor.equal a (Tensor.transpose (Tensor.transpose a [| 1; 0 |]) [| 1; 0 |]))

let prop_matmul_assoc_dims =
  QCheck.Test.make ~name:"(AB)C = A(BC) on small dims" ~count:25
    QCheck.(quad (1 -- 5) (1 -- 5) (1 -- 5) (1 -- 5))
    (fun (m, k, n, p) ->
      let a = Tensor.init [| m; k |] (fun i -> (i mod 7) - 3) in
      let b = Tensor.init [| k; n |] (fun i -> (i mod 5) - 2) in
      let c = Tensor.init [| n; p |] (fun i -> (i mod 3) - 1) in
      Tensor.equal (Tensor.matmul (Tensor.matmul a b) c) (Tensor.matmul a (Tensor.matmul b c)))

let prop_histogram_mass =
  QCheck.Test.make ~name:"histogram preserves in-range mass" ~count:100
    QCheck.(list (0 -- 15))
    (fun xs ->
      let xs = if xs = [] then [ 0 ] else xs in
      let a = Tensor.of_int_array [| List.length xs |] (Array.of_list xs) in
      let h = Tensor.histogram ~bins:16 a in
      Tensor.reduce "add" h = List.length xs)

let () =
  Alcotest.run "interp"
    [
      ( "tensor",
        [
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "matvec" `Quick test_matvec;
          Alcotest.test_case "conv2d" `Quick test_conv2d;
          Alcotest.test_case "im2col+gemm == conv" `Quick test_im2col_gemm_equals_conv;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "int32 wrap" `Quick test_wrap32;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "scan/reduce" `Quick test_scan_reduce;
          Alcotest.test_case "topk" `Quick test_topk;
          Alcotest.test_case "popcount" `Quick test_pop_count;
          Alcotest.test_case "majority" `Quick test_majority;
          Alcotest.test_case "einsum == matmul" `Quick test_einsum_matches_matmul;
          Alcotest.test_case "einsum contraction" `Quick test_einsum_contraction;
          Alcotest.test_case "slices" `Quick test_slices;
          Alcotest.test_case "pad" `Quick test_pad;
        ] );
      ( "interp",
        [
          Alcotest.test_case "gemm" `Quick test_interp_gemm;
          Alcotest.test_case "loop sum" `Quick test_interp_loop_sum;
          Alcotest.test_case "if/abs" `Quick test_interp_if;
          Alcotest.test_case "memref" `Quick test_interp_memref;
          Alcotest.test_case "fully_connected" `Quick test_interp_fully_connected;
          Alcotest.test_case "profile counts" `Quick test_interp_profile_counts;
          Alcotest.test_case "func.call" `Quick test_interp_call;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_elementwise_comm;
          QCheck_alcotest.to_alcotest prop_scan_last_is_reduce;
          QCheck_alcotest.to_alcotest prop_transpose_involutive;
          QCheck_alcotest.to_alcotest prop_matmul_assoc_dims;
          QCheck_alcotest.to_alcotest prop_histogram_mass;
        ] );
    ]
