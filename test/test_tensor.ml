(* Pinned unit tests for strict Tensor.equal (dtype and shape first,
   NaN-aware float comparison), for the unboxed narrow payloads'
   wrap-on-store semantics, and for the slice movers (pad, extract_slice,
   insert_slice and their in-place forms) on float and narrow payloads. *)

open Cinm_ir
open Cinm_interp
module T = Types

let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

(* ----- strict equality ----- *)

let test_equal_dtype_strict () =
  let a = Tensor.of_int_array ~dtype:T.I32 [| 4 |] [| 1; 2; 3; 4 |] in
  let b = Tensor.of_int_array ~dtype:T.I64 [| 4 |] [| 1; 2; 3; 4 |] in
  check_bool "same data, different dtype is not equal" false (Tensor.equal a b);
  check_bool "copy is equal" true (Tensor.equal a (Tensor.copy a))

let test_equal_shape_strict () =
  let a = Tensor.of_int_array [| 4 |] [| 1; 2; 3; 4 |] in
  let b = Tensor.of_int_array [| 2; 2 |] [| 1; 2; 3; 4 |] in
  check_bool "same data, different shape is not equal" false (Tensor.equal a b)

let test_equal_narrow_payloads () =
  let a = Tensor.of_int_array ~dtype:T.I8 [| 3 |] [| 1; -2; 127 |] in
  let b = Tensor.of_int_array ~dtype:T.I8 [| 3 |] [| 1; -2; 127 |] in
  check_bool "i8 payloads equal" true (Tensor.equal a b);
  let c = Tensor.of_int_array ~dtype:T.I16 [| 3 |] [| 1; -2; 127 |] in
  check_bool "i8 vs i16 with same values is not equal" false (Tensor.equal a c);
  Tensor.set_int b 1 (-3);
  check_bool "i8 payloads with one differing byte" false (Tensor.equal a b)

let test_equal_nan_aware () =
  let mk v = Tensor.of_float_array [| 3 |] [| 1.0; v; 3.0 |] in
  check_bool "NaN equals NaN positionally" true
    (Tensor.equal (mk Float.nan) (mk Float.nan));
  check_bool "NaN does not equal a number" false
    (Tensor.equal (mk Float.nan) (mk 2.0));
  check_bool "0.0 equals -0.0" true (Tensor.equal (mk 0.0) (mk (-0.0)))

(* ----- wrap-on-store of the unboxed narrow payloads ----- *)

let test_i8_wrap_pinned () =
  let t = Tensor.init ~dtype:T.I8 [| 4 |] (fun i -> 126 + i) in
  check_ints "i8 wraps at +128"
    [ 126; 127; -128; -127 ]
    (Array.to_list (Tensor.to_int_array t));
  let u = Tensor.init ~dtype:T.I8 [| 4 |] (fun i -> -126 - i) in
  check_ints "i8 wraps at -129"
    [ -126; -127; -128; 127 ]
    (Array.to_list (Tensor.to_int_array u));
  Tensor.set_int t 0 330;
  Alcotest.(check int) "i8 store 330 reads back 74" 74 (Tensor.get_int t 0);
  Tensor.set_int t 0 (-130);
  Alcotest.(check int) "i8 store -130 reads back 126" 126 (Tensor.get_int t 0)

let test_i16_wrap_pinned () =
  let t = Tensor.init ~dtype:T.I16 [| 4 |] (fun i -> 32766 + i) in
  check_ints "i16 wraps at +32768"
    [ 32766; 32767; -32768; -32767 ]
    (Array.to_list (Tensor.to_int_array t));
  Tensor.set_int t 0 40000;
  Alcotest.(check int) "i16 store 40000 reads back -25536" (-25536)
    (Tensor.get_int t 0);
  Tensor.set_int t 0 (-32769);
  Alcotest.(check int) "i16 store -32769 reads back 32767" 32767
    (Tensor.get_int t 0)

let test_wrap_function_pinned () =
  Alcotest.(check int) "wrap i8 128" (-128) (Tensor.wrap T.I8 128);
  Alcotest.(check int) "wrap i8 -129" 127 (Tensor.wrap T.I8 (-129));
  Alcotest.(check int) "wrap i16 32768" (-32768) (Tensor.wrap T.I16 32768);
  Alcotest.(check int) "wrap i32 2^31" (-2147483648) (Tensor.wrap T.I32 2147483648);
  Alcotest.(check int) "wrap i1 3" 1 (Tensor.wrap T.I1 3);
  Alcotest.(check int) "wrap i64 is identity" max_int (Tensor.wrap T.I64 max_int)

(* ----- slices on float and narrow payloads ----- *)

(* 4x4 f32 whose elements are distinct and include the values a float
   round-trip through int would lose *)
let f4x4 () =
  Tensor.of_float_array [| 4; 4 |]
    (Array.init 16 (fun i ->
         match i with 5 -> Float.nan | 6 -> -0.0 | 7 -> infinity | _ -> float_of_int i +. 0.25))

(* bit patterns, so NaN and -0.0 compare exactly *)
let bits t = Array.init (Tensor.num_elements t) (fun i -> Int64.bits_of_float (Tensor.get_float t i))
let check_bits msg expect t = Alcotest.(check (array int64)) msg expect (bits t)

let raises_oob msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an out-of-bounds error" msg
  | exception Invalid_argument m ->
    Alcotest.(check string) msg "Util.linearize: out of bounds" m

let test_f32_extract_slice () =
  let t = f4x4 () in
  let s = Tensor.extract_slice t ~offsets:[| 1; 1 |] ~sizes:[| 2; 3 |] in
  Alcotest.(check (array int)) "shape" [| 2; 3 |] s.Tensor.shape;
  let src = bits t in
  check_bits "rows 1-2, cols 1-3, bit for bit"
    [| src.(5); src.(6); src.(7); src.(9); src.(10); src.(11) |]
    s;
  raises_oob "extract past the edge" (fun () ->
      Tensor.extract_slice t ~offsets:[| 3; 3 |] ~sizes:[| 2; 2 |])

let test_f32_insert_slice () =
  let dst = f4x4 () in
  let before = bits dst in
  let src = Tensor.of_float_array [| 2; 2 |] [| -1.5; Float.nan; -0.0; 8.75 |] in
  let out = Tensor.insert_slice src dst ~offsets:[| 2; 1 |] in
  check_bits "value semantics: dst unchanged" before dst;
  let expect = Array.copy before in
  let sb = bits src in
  expect.(9) <- sb.(0);
  expect.(10) <- sb.(1);
  expect.(13) <- sb.(2);
  expect.(14) <- sb.(3);
  check_bits "rows 2-3, cols 1-2 replaced" expect out;
  Tensor.write_slice src dst ~offsets:[| 2; 1 |];
  check_bits "write_slice stores the same tensor in place" expect dst;
  raises_oob "insert past the edge" (fun () ->
      Tensor.insert_slice src (f4x4 ()) ~offsets:[| 3; 0 |])

let test_f32_pad () =
  let t = Tensor.of_float_array [| 2; 2 |] [| 1.5; Float.nan; -0.0; 4.0 |] in
  let p = Tensor.pad t ~low:[| 1; 0 |] ~high:[| 0; 2 |] in
  Alcotest.(check (array int)) "shape" [| 3; 4 |] p.Tensor.shape;
  let tb = bits t and z = Int64.bits_of_float 0.0 in
  check_bits "padded" [| z; z; z; z; tb.(0); tb.(1); z; z; tb.(2); tb.(3); z; z |] p

let test_narrow_slices () =
  let dst = Tensor.init ~dtype:T.I8 [| 3; 4 |] (fun i -> 120 + i) in
  let src = Tensor.of_int_array ~dtype:T.I8 [| 1; 2 |] [| -7; 99 |] in
  let out = Tensor.insert_slice src dst ~offsets:[| 1; 2 |] in
  check_ints "i8 insert_slice"
    [ 120; 121; 122; 123; 124; 125; -7; 99; -128; -127; -126; -125 ]
    (Array.to_list (Tensor.to_int_array out));
  let w = Tensor.init ~dtype:T.I16 [| 2; 3 |] (fun i -> 32765 + i) in
  check_ints "i16 extract_slice" [ 32766; 32767; -32767; -32766 ]
    (Array.to_list
       (Tensor.to_int_array (Tensor.extract_slice w ~offsets:[| 0; 1 |] ~sizes:[| 2; 2 |])))

let test_map2_in_place () =
  let a = Tensor.of_int_array [| 4 |] [| 1; 2; 3; 2147483647 |] in
  let b = Tensor.of_int_array [| 4 |] [| 10; 20; 30; 1 |] in
  let fresh = Tensor.map2 "add" a b in
  Tensor.map2_in_place "add" a b;
  Alcotest.(check bool) "same as map2, wrapped" true (Tensor.equal fresh a);
  Alcotest.(check int) "i32 wraps" (-2147483648) (Tensor.get_int a 3);
  let x = Tensor.of_float_array [| 2 |] [| 1.5; 2.5 |] in
  Tensor.map2_in_place "mul" x (Tensor.of_float_array [| 2 |] [| 2.0; -1.0 |]);
  check_bits "f32 in place" [| Int64.bits_of_float 3.0; Int64.bits_of_float (-2.5) |] x

let () =
  Alcotest.run "tensor"
    [
      ( "equal",
        [
          Alcotest.test_case "dtype strict" `Quick test_equal_dtype_strict;
          Alcotest.test_case "shape strict" `Quick test_equal_shape_strict;
          Alcotest.test_case "narrow payloads" `Quick test_equal_narrow_payloads;
          Alcotest.test_case "nan aware" `Quick test_equal_nan_aware;
        ] );
      ( "wrap",
        [
          Alcotest.test_case "i8 pinned" `Quick test_i8_wrap_pinned;
          Alcotest.test_case "i16 pinned" `Quick test_i16_wrap_pinned;
          Alcotest.test_case "wrap function" `Quick test_wrap_function_pinned;
        ] );
      ( "slices",
        [
          Alcotest.test_case "f32 extract_slice" `Quick test_f32_extract_slice;
          Alcotest.test_case "f32 insert_slice" `Quick test_f32_insert_slice;
          Alcotest.test_case "f32 pad" `Quick test_f32_pad;
          Alcotest.test_case "narrow payloads" `Quick test_narrow_slices;
          Alcotest.test_case "map2 in place" `Quick test_map2_in_place;
        ] );
    ]
