(* Pinned unit tests for strict Tensor.equal (dtype and shape first,
   NaN-aware float comparison), for the unboxed narrow payloads'
   wrap-on-store semantics, for the slice movers (pad, extract_slice,
   insert_slice and their in-place forms) on float and narrow payloads,
   and for the one GEMM kernel and the kernels built on it (einsum,
   conv_2d, the crossbar's region merge) against naive oracles. *)

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


(* ----- the GEMM kernel ----- *)

(* Deterministic values that overflow every narrow width once summed. *)
let payload dtype n seed =
  let v i = ((((i + seed) * 7919) + (seed * 104729)) mod 2001) - 1000 in
  match dtype with
  | T.F32 -> Tensor.of_float_array [| n |] (Array.init n (fun i -> float_of_int (v i) /. 7.0))
  | T.I64 -> Tensor.init ~dtype [| n |] (fun i -> v i * (1 lsl 40))
  | dt -> Tensor.init ~dtype:dt [| n |] v

let same_bits msg a b =
  if Tensor.is_int a then Alcotest.(check bool) msg true (Tensor.equal a b)
  else check_bits msg (bits a) b

(* ----- clamp and broadcast ----- *)

let widths = [ T.I8; T.I16; T.I32; T.I64; T.F32 ]

(* The per-element loops the interpreter ran before the kernels. *)
let clamp_reference t ~lo ~hi =
  let out = Tensor.copy t in
  for i = 0 to Tensor.num_elements out - 1 do
    Tensor.set_int out i (min hi (max lo (Tensor.get_int out i)))
  done;
  out

let broadcast_reference src out =
  let n = Tensor.num_elements out and m = Tensor.num_elements src in
  if Types.is_float_dtype src.Tensor.dtype then
    for i = 0 to n - 1 do
      Tensor.set_float out i (Tensor.get_float src (i mod m))
    done
  else
    for i = 0 to n - 1 do
      Tensor.set_int out i (Tensor.get_int src (i mod m))
    done

let test_clamp_matches_reference () =
  List.iter
    (fun dt ->
      let t = payload dt 97 3 in
      List.iter
        (fun (lo, hi) ->
          same_bits
            (Printf.sprintf "%s clamp %d %d" (T.dtype_to_string dt) lo hi)
            (clamp_reference t ~lo ~hi) (Tensor.clamp t ~lo ~hi))
        (* inside the values, past an i8 (set_int wraps), and lo > hi *)
        [ (-300, 500); (0, 127); (-1000, 300); (50, -50) ])
    widths

let test_broadcast_matches_reference () =
  List.iter
    (fun dt ->
      List.iter
        (fun (m, n) ->
          let src = payload dt m 5 in
          let want = Tensor.zeros [| n |] dt and got = Tensor.zeros [| n |] dt in
          broadcast_reference src want;
          Tensor.broadcast_into src got;
          same_bits (Printf.sprintf "%s broadcast %d to %d" (T.dtype_to_string dt) m n) want got)
        (* rows that divide, one row, one element to many, a remainder,
           and a source larger than the result (the per-element loop) *)
        [ (7, 28); (16, 16); (1, 1000); (7, 30); (9, 4) ])
    widths

(* C <- A B by the textbook triple loop over [ldb]-strided B and
   [ldc]-strided C, summing in ascending p from 0. *)
let naive_gemm ~batch ?(ldb = 0) ~m ~n ~k a b c ~ldc =
  let ldb = if ldb = 0 then n else ldb in
  for bt = 0 to batch - 1 do
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let z = (bt * m * ldc) + (i * ldc) + j in
        let x p = (bt * m * k) + (i * k) + p and y p = (bt * k * ldb) + (p * ldb) + j in
        if Tensor.is_int c then begin
          let acc = ref 0 in
          for p = 0 to k - 1 do
            acc := !acc + (Tensor.get_int a (x p) * Tensor.get_int b (y p))
          done;
          Tensor.set_int c z (Tensor.wrap c.Tensor.dtype !acc)
        end
        else begin
          let acc = ref 0.0 in
          for p = 0 to k - 1 do
            acc := !acc +. (Tensor.get_float a (x p) *. Tensor.get_float b (y p))
          done;
          Tensor.set_float c z !acc
        end
      done
    done
  done

(* Every m, k, n in 1..9 (so every tail of the 2-row, 4-deep blocks
   runs), into a destination with a wider row stride whose margins must
   survive, on every payload. *)
let test_gemm_matches_naive () =
  List.iter
    (fun dtype ->
      for m = 1 to 9 do
        for k = 1 to 9 do
          for n = 1 to 9 do
            let batch = 1 + ((m + k + n) mod 2) and ldc = n + 3 in
            let a = payload dtype (batch * m * k) (m + k) and b = payload dtype (batch * k * n) n in
            let size = (batch * m * ldc) + 1 in
            let got = payload dtype size 5 and want = payload dtype size 5 in
            Tensor.gemm ~batch ~m ~n ~k a b got ~ldc;
            naive_gemm ~batch ~m ~n ~k a b want ~ldc;
            same_bits
              (Printf.sprintf "%s %dx%dx%d batch %d" (T.dtype_to_string dtype) m k n batch)
              want got
          done
        done
      done)
    [ T.I8; T.I16; T.I32; T.I64; T.F32 ]

(* B with a row stride wider than n: the crossbar's live columns. *)
let test_gemm_row_stride () =
  let a = Tensor.init [| 3; 4 |] (fun i -> i - 5) in
  let b = Tensor.init [| 4; 6 |] (fun i -> (i * 3) - 11) in
  let got = Tensor.zeros [| 3; 2 |] T.I32 in
  Tensor.gemm ~m:3 ~n:2 ~k:4 ~ldb:6 a b got ~ldc:2;
  let full = Tensor.matmul a b in
  Alcotest.(check (list int)) "first two columns"
    (List.concat_map
       (fun i -> [ Tensor.get full [| i; 0 |]; Tensor.get full [| i; 1 |] ])
       [ 0; 1; 2 ])
    (Array.to_list (Tensor.to_int_array got))

(* [payload] with zero rows 4..7 of every 8 (a whole 4-row block when
   the block starts at a multiple of 4) and zero columns 4..7 (a 4-deep
   p block of zero multipliers in every row). *)
let sparse_payload dtype ~rows ~k seed =
  let t = payload dtype (rows * k) seed in
  for i = 0 to (rows * k) - 1 do
    let r = i / k and p = i mod k in
    if r mod 8 >= 4 || p / 4 = 1 then
      if Tensor.is_int t then Tensor.set_int t i 0 else Tensor.set_float t i 0.0
  done;
  t

(* Payload triples (A, B, C) the GEMM meets: each int width on its
   own (i64 wraps at 63 bits), narrow and mixed payloads, and float. *)
let gemm_payloads =
  [ (T.I8, T.I8, T.I8); (T.I16, T.I16, T.I16); (T.I32, T.I32, T.I32); (T.I64, T.I64, T.I64);
    (T.I8, T.I32, T.I32); (T.I32, T.I16, T.I8); (T.I64, T.I8, T.I16); (T.F32, T.F32, T.F32) ]

(* (batch, m, n, k, ldb, ldc): every row count up to two 4-row blocks and
   a tail, 129 rows, three batches of 5 rows (blocks cannot span a batch),
   wide strides, and shapes on both sides of the row-split threshold
   (2^17 multiply-accumulates: the last two). *)
let gemm_shapes =
  List.map (fun m -> (1, m, 7, 9, 11, 10)) [ 1; 2; 3; 5; 6; 7; 129 ]
  @ [ (3, 5, 6, 13, 9, 8); (1, 129, 32, 32, 40, 33); (3, 5, 96, 96, 100, 97) ]

let gemm_case (da, db, dc) (batch, m, n, k, ldb, ldc) =
  let a = sparse_payload da ~rows:(batch * m) ~k (m + k) in
  let b = payload db (((batch - 1) * k * ldb) + ((k - 1) * ldb) + n) n in
  let size = (batch * m * ldc) + 1 in
  let got = payload dc size 5 and want = payload dc size 5 in
  Tensor.gemm ~batch ~ldb ~m ~n ~k a b got ~ldc;
  naive_gemm ~batch ~ldb ~m ~n ~k a b want ~ldc;
  (want, got)

let case_name (da, db, dc) (batch, m, n, k, ldb, ldc) =
  Printf.sprintf "%s*%s->%s %dx%dx%d batch %d ldb %d ldc %d" (T.dtype_to_string da)
    (T.dtype_to_string db) (T.dtype_to_string dc) m k n batch ldb ldc

(* Run [f] under each default pool size, restoring the size after. *)
let under_jobs jobs f =
  let before = Cinm_support.Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Cinm_support.Pool.set_default_jobs before)
    (fun () ->
      List.iter
        (fun j ->
          Cinm_support.Pool.set_default_jobs j;
          f j)
        jobs)

(* Every payload and shape against the naive loop, bit for bit, with the
   default pool at 1, 2 and 4 domains: a row's value does not depend on
   the chunk it falls in. *)
let test_gemm_rows_any_jobs () =
  under_jobs [ 1; 2; 4 ] (fun jobs ->
      List.iter
        (fun dts ->
          List.iter
            (fun shape ->
              let want, got = gemm_case dts shape in
              same_bits (Printf.sprintf "%s, jobs %d" (case_name dts shape) jobs) want got)
            gemm_shapes)
        gemm_payloads)

(* A GEMM above the split threshold issued from inside a parallel loop's
   index (as in a DPU lane) finds the pool busy, so it runs inline on that
   domain, and gives the same result. *)
let test_gemm_inside_pool_run () =
  under_jobs [ 2 ] (fun _ ->
      let module Pool = Cinm_support.Pool in
      let dts = (T.I32, T.I32, T.I32) and shape = (1, 129, 32, 32, 40, 33) in
      let outside = snd (gemm_case dts shape) in
      let inside = Array.make 2 outside and busy = Array.make 2 false in
      Pool.run (Pool.default ()) 2 (fun i ->
          busy.(i) <- (Pool.stats (Pool.default ())).Pool.st_par_busy;
          inside.(i) <- snd (gemm_case dts shape));
      Array.iter (check_bool "the pool runs a loop" true) busy;
      Array.iter (same_bits "inside Pool.run == outside" outside) inside)

(* ----- einsum: TTGT against the index odometer ----- *)

(* The contraction as an odometer over the sorted reduction indices,
   accumulating each output element in ascending reduction offset: the
   host kernel before it went through GEMM, kept as the oracle. *)
let odometer_einsum ~spec (a : Tensor.t) (b : Tensor.t) =
  let a_idx, b_idx, out_idx = Cinm_dialects.Linalg_d.parse_einsum_spec spec in
  let dims = Hashtbl.create 8 in
  String.iteri (fun i c -> Hashtbl.replace dims c a.Tensor.shape.(i)) a_idx;
  String.iteri (fun i c -> Hashtbl.replace dims c b.Tensor.shape.(i)) b_idx;
  let out_shape = Array.init (String.length out_idx) (fun i -> Hashtbl.find dims out_idx.[i]) in
  let red =
    List.sort_uniq compare
      (List.filter
         (fun c -> not (String.contains out_idx c))
         (List.of_seq (String.to_seq (a_idx ^ b_idx))))
  in
  let red_shape = Array.of_list (List.map (Hashtbl.find dims) red) in
  let out = Tensor.zeros out_shape a.Tensor.dtype in
  let offset idx shape pos =
    let o = ref 0 in
    String.iteri (fun i c -> o := (!o * shape.(i)) + pos c) idx;
    !o
  in
  for o = 0 to Tensor.num_elements out - 1 do
    let out_pos = Cinm_support.Util.delinearize out_shape o in
    let iacc = ref 0 and facc = ref 0.0 in
    for r = 0 to Cinm_support.Util.product_of_shape red_shape - 1 do
      let red_pos = Cinm_support.Util.delinearize red_shape r in
      let pos c =
        match String.index_opt out_idx c with
        | Some i -> out_pos.(i)
        | None ->
          let k = ref 0 in
          List.iteri (fun j c' -> if c' = c then k := j) red;
          red_pos.(!k)
      in
      let x = offset a_idx a.Tensor.shape pos and y = offset b_idx b.Tensor.shape pos in
      if Tensor.is_int out then iacc := !iacc + (Tensor.get_int a x * Tensor.get_int b y)
      else facc := !facc +. (Tensor.get_float a x *. Tensor.get_float b y)
    done;
    if Tensor.is_int out then Tensor.set_int out o !iacc else Tensor.set_float out o !facc
  done;
  out

(* Every spec the repository builds (ML suite, fuzz generator, tests),
   then two more: reduction indices out of sorted order in A, and a
   batched contraction. *)
let repo_specs =
  [ "acd,db->abc"; "acd,dbc->ab"; "aebf,dfce->abcd"; "ij,ij->ij"; "ij,j->i"; "ij,jk->ik";
    "ik,kj->ij"; "adc,cdb->ab"; "bij,bjk->bik" ]

let operands ~spec ~dtype extents seed =
  let a_idx, b_idx, _ = Cinm_dialects.Linalg_d.parse_einsum_spec spec in
  let make idx s =
    let shape = Array.init (String.length idx) (fun i -> extents (Char.code idx.[i] - 97)) in
    Tensor.reshape (payload dtype (Cinm_support.Util.product_of_shape shape) s) shape
  in
  (make a_idx seed, make b_idx (seed + 1))

let prop_einsum_matches_odometer =
  QCheck.Test.make ~name:"einsum (TTGT) == odometer, bit for bit" ~count:60
    QCheck.(pair (int_bound 8) (int_bound 1000))
    (fun (which, seed) ->
      let spec = List.nth repo_specs which in
      (* each index gets an extent in 1..4 from the seed *)
      let extent i = 1 + (((seed * 31) + (i * 7)) mod 4) in
      List.for_all
        (fun dtype ->
          let a, b = operands ~spec ~dtype extent seed in
          let want = odometer_einsum ~spec a b and got = Tensor.einsum ~spec a b in
          want.Tensor.shape = got.Tensor.shape && bits want = bits got && Tensor.equal want got)
        [ T.I32; T.F32 ])

let test_einsum_rejects () =
  let a = Tensor.zeros [| 2; 3 |] T.I32 and b = Tensor.zeros [| 4; 5 |] T.I32 in
  List.iter
    (fun (spec, msg) ->
      match Tensor.einsum ~spec a b with
      | _ -> Alcotest.failf "%s accepted" spec
      | exception Invalid_argument m -> Alcotest.(check string) spec msg m)
    [
      ("ij,jk->ik", "Tensor.einsum: dim mismatch");
      ("ij,kl->ik", "Tensor.einsum: index 'j' is summed within one operand");
      ("ij,kl->ijz", "Tensor.einsum: output index 'z' is in neither input");
    ]

(* ----- kernels on the GEMM ----- *)

let test_conv_2d_matches_direct () =
  List.iter
    (fun dtype ->
      let img = Tensor.reshape (payload dtype 42 3) [| 6; 7 |] in
      let k = Tensor.reshape (payload dtype 6 9) [| 2; 3 |] in
      let want = Tensor.zeros [| 5; 5 |] dtype in
      for i = 0 to 4 do
        for j = 0 to 4 do
          let iacc = ref 0 and facc = ref 0.0 in
          for di = 0 to 1 do
            for dj = 0 to 2 do
              let x = ((i + di) * 7) + j + dj and y = (di * 3) + dj in
              iacc := !iacc + (Tensor.get_int img x * Tensor.get_int k y);
              facc := !facc +. (Tensor.get_float img x *. Tensor.get_float k y)
            done
          done;
          if Tensor.is_int want then Tensor.set_int want ((i * 5) + j) !iacc
          else Tensor.set_float want ((i * 5) + j) !facc
        done
      done;
      same_bits (T.dtype_to_string dtype) want (Tensor.conv_2d img k))
    [ T.I8; T.I32; T.F32 ]

let test_transpose_runs () =
  let t = Tensor.init [| 2; 3; 4 |] (fun i -> i) in
  let check perms =
    let got = Tensor.transpose t perms in
    let ok = ref true in
    for o = 0 to 23 do
      let idx = Cinm_support.Util.delinearize [| 2; 3; 4 |] o in
      let out_idx = Array.map (fun p -> idx.(p)) perms in
      if Tensor.get got out_idx <> Tensor.get t idx then ok := false
    done;
    let name = String.concat "," (Array.to_list (Array.map string_of_int perms)) in
    Alcotest.(check bool) name true !ok
  in
  List.iter check [ [| 1; 0; 2 |]; [| 2; 0; 1 |]; [| 0; 2; 1 |]; [| 0; 1; 2 |] ]

(* [write_slice (map2 "add" (extract_slice dst) src) dst], the three
   steps [merge_region] does in one pass, on a fresh copy of [dst]. *)
let three_steps dst ~offsets src =
  let slice = Tensor.extract_slice dst ~offsets ~sizes:src.Tensor.shape in
  Tensor.insert_slice (Tensor.map2 "add" slice src) dst ~offsets

(* The crossbar accumulator update, wrapping at i32 like the three ops it
   replaces. *)
let test_merge_region_wraps () =
  let acc = Tensor.init [| 3; 4 |] (fun i -> 2147483640 + i) in
  let part = Tensor.init [| 2; 2 |] (fun i -> i + 1) in
  let want = three_steps acc ~offsets:[| 1; 2 |] part in
  Alcotest.(check bool) "one pass" true (Tensor.merge_region "add" acc ~offsets:[| 1; 2 |] part);
  Alcotest.(check bool) "same as extract, add, insert" true (Tensor.equal want acc);
  Alcotest.(check bool) "out of bounds falls back" false
    (Tensor.merge_region "add" acc ~offsets:[| 2; 3 |] part);
  let facc = Tensor.of_float_array [| 2; 2 |] [| 0.1; -0.0; 1e300; 2.5 |] in
  let fpart = Tensor.of_float_array [| 1; 2 |] [| 0.2; 0.0 |] in
  let want = three_steps facc ~offsets:[| 0; 0 |] fpart in
  Alcotest.(check bool) "f32 one pass" true
    (Tensor.merge_region "add" facc ~offsets:[| 0; 0 |] fpart);
  check_bits "f32 same as extract, add, insert" (bits want) facc

(* ----- the int-op table against per-element references ----- *)

let int_ops = [ "add"; "sub"; "mul"; "div"; "rem"; "min"; "max"; "and"; "or"; "xor"; "shl"; "shr" ]
let int_dtypes = [ T.I1; T.I8; T.I16; T.I32; T.I64 ]

(* [n] values of [dt]: zeros (division by zero), small shift amounts, -1,
   the range's ends (min / -1 overflows) and wide random values *)
let values ?(n = 600) dt seed =
  let st = Random.State.make [| seed |] in
  let lo = if dt = T.I64 then min_int else -(1 lsl (T.dtype_bits dt - 1)) in
  Tensor.init ~dtype:dt [| n |] (fun i ->
      match i mod 6 with
      | 0 -> 0
      | 1 -> Random.State.int st 10
      | 2 -> -1
      | 3 -> if Random.State.bool st then lo else lo - 1
      | _ -> (Random.State.bits st lsl 34) lxor (Random.State.bits st lsl 4) lxor Random.State.bits st)

let wrap_op dt op x y = Tensor.wrap dt (Tensor.int_binop op x y)

let ref_map2 op a b =
  let dt = a.Tensor.dtype in
  Tensor.init ~dtype:dt a.Tensor.shape (fun i ->
      wrap_op dt op (Tensor.get_int a i) (Tensor.get_int b i))

let ref_reduce op t =
  let acc = ref (Tensor.get_int t 0) in
  for i = 1 to Tensor.num_elements t - 1 do
    acc := Tensor.int_binop op !acc (Tensor.get_int t i)
  done;
  Tensor.wrap t.Tensor.dtype !acc

let ref_scan op t =
  let out = Tensor.copy t in
  for i = 1 to Tensor.num_elements t - 1 do
    Tensor.set_int out i
      (wrap_op t.Tensor.dtype op (Tensor.get_int out (i - 1)) (Tensor.get_int out i))
  done;
  out

let ref_ew_expr tokens inputs =
  let t0 = inputs.(0) in
  let out = Tensor.zeros t0.Tensor.shape t0.Tensor.dtype in
  for i = 0 to Tensor.num_elements t0 - 1 do
    Tensor.set_int out i
      (Cinm_dialects.Cinm_d.eval_rpn ~tokens
         ~input:(fun k -> Tensor.get_int inputs.(k) i)
         ~const:Fun.id ~apply:(wrap_op t0.Tensor.dtype))
  done;
  out

let check_tensor msg want got =
  if not (Tensor.equal want got) then
    Alcotest.failf "%s: expected %s, got %s" msg (Tensor.to_string want) (Tensor.to_string got)

let test_int_ops_match_reference () =
  List.iteri
    (fun di dt ->
      List.iteri
        (fun oi op ->
          let name what = Printf.sprintf "%s %s %s" what op (T.dtype_to_string dt) in
          let a = values dt ((di * 100) + oi) and b = values dt ((di * 100) + oi + 50) in
          let want = ref_map2 op a b in
          check_tensor (name "map2") want (Tensor.map2 op a b);
          let a' = Tensor.copy a in
          Tensor.map2_in_place op a' b;
          check_tensor (name "map2_in_place") want a';
          Alcotest.(check int) (name "reduce") (ref_reduce op a) (Tensor.reduce op a);
          check_tensor (name "scan") (ref_scan op a) (Tensor.scan op a);
          (* a 3x4 region of a 20x30 accumulator *)
          let acc = Tensor.reshape (Tensor.copy a) [| 20; 30 |] in
          let part = Tensor.reshape (Tensor.extract_slice b ~offsets:[| 7 |] ~sizes:[| 12 |]) [| 3; 4 |] in
          let want = Tensor.copy acc in
          for r = 0 to 2 do
            for c = 0 to 3 do
              Tensor.set want [| r + 5; c + 9 |]
                (wrap_op dt op (Tensor.get acc [| r + 5; c + 9 |]) (Tensor.get part [| r; c |]))
            done
          done;
          let one_pass = Tensor.merge_region op acc ~offsets:[| 5; 9 |] part in
          Alcotest.(check bool) (name "merge_region in one pass") (dt = T.I1 || dt = T.I32 || dt = T.I64) one_pass;
          if one_pass then check_tensor (name "merge_region") want acc;
          (* constants enter unwrapped; three stack slots *)
          let c = values dt ((di * 100) + oi + 75) in
          List.iter
            (fun tokens ->
              check_tensor
                (name ("ew_expr " ^ String.concat " " tokens))
                (ref_ew_expr tokens [| a; b; c |])
                (Tensor.ew_expr tokens [| a; b; c |]))
            [ [ "in0"; "in1"; op; "in2"; "const300"; "sub"; op ];
              [ "in2"; "in0"; "in1"; op; "const-7"; "xor"; op ];
              [ "const300" ];
              [ "in1" ] ])
        int_ops)
    int_dtypes

let test_int_ops_pinned () =
  let t = Tensor.of_int_array [| 4 |] [| 7; -7; 0; 3 |] in
  let z = Tensor.of_int_array [| 4 |] [| 0; 2; 0; 40 |] in
  check_ints "div by zero is 0" [ 0; -3; 0; 0 ] (Array.to_list (Tensor.to_int_array (Tensor.map2 "div" t z)));
  check_ints "rem by zero is 0" [ 0; -1; 0; 3 ] (Array.to_list (Tensor.to_int_array (Tensor.map2 "rem" t z)));
  check_ints "shl wraps at i32" [ 7; -28; 0; 0 ]
    (Array.to_list (Tensor.to_int_array (Tensor.map2 "shl" t z)));
  check_ints "shr is arithmetic" [ 7; -2; 0; 0 ]
    (Array.to_list (Tensor.to_int_array (Tensor.map2 "shr" t z)));
  let b = Tensor.of_int_array ~dtype:T.I1 [| 3 |] [| 1; 1; 0 |] in
  check_ints "i1 add keeps the low bit" [ 0; 0; 0 ]
    (Array.to_list (Tensor.to_int_array (Tensor.map2 "add" b b)));
  match Tensor.map2 "nand" t t with
  | _ -> Alcotest.fail "unknown op accepted"
  | exception Invalid_argument m -> Alcotest.(check string) "unknown op" "Tensor.int_binop: nand" m

(* ----- float min/max: NaN wins, -0 below +0 ----- *)

let test_float_min_max () =
  let xs = [| Float.nan; -0.0; 0.0; 1.0; Float.nan; -0.0; 2.0; 0.0 |] in
  let ys = [| 1.0; 0.0; -0.0; Float.nan; Float.nan; -0.0; -3.0; 0.0 |] in
  let a = Tensor.of_float_array [| 8 |] xs and b = Tensor.of_float_array [| 8 |] ys in
  List.iter
    (fun (op, f) ->
      check_bits ("map2 " ^ op) (bits (Tensor.of_float_array [| 8 |] (Array.map2 f xs ys)))
        (Tensor.map2 op a b);
      check_bits ("ew_expr " ^ op)
        (bits (Tensor.of_float_array [| 8 |] (Array.map2 f xs ys)))
        (Tensor.ew_expr [ "in0"; "in1"; op ] [| a; b |]);
      let scanned = Array.copy ys in
      for i = 1 to 7 do
        scanned.(i) <- f scanned.(i - 1) scanned.(i)
      done;
      check_bits ("scan " ^ op) (bits (Tensor.of_float_array [| 8 |] scanned)) (Tensor.scan op b);
      Alcotest.(check int64) ("reduce " ^ op)
        (Int64.bits_of_float scanned.(7))
        (Int64.bits_of_float (Tensor.reduce_f op b)))
    [ ("min", Float.min); ("max", Float.max) ];
  check_bits "min(-0, +0) is -0" [| Int64.bits_of_float (-0.0) |]
    (Tensor.map2 "min" (Tensor.of_float_array [| 1 |] [| 0.0 |]) (Tensor.of_float_array [| 1 |] [| -0.0 |]))

(* ----- k-best selection against the sort-based definition ----- *)

(* The k best of [scores] by a full sort: value descending, then index
   ascending; values stored in [dtype]. *)
let ref_select ~k dtype scores =
  let indexed = Array.mapi (fun i v -> (v, i)) scores in
  Array.sort (fun (a, ia) (b, ib) -> if b <> a then compare b a else compare ia ib) indexed;
  let values = Tensor.zeros [| k |] dtype and indices = Tensor.zeros [| k |] T.I32 in
  for i = 0 to k - 1 do
    Tensor.set_int values i (fst indexed.(i));
    Tensor.set_int indices i (snd indexed.(i))
  done;
  (values, indices)

let ref_topk ~k t = ref_select ~k t.Tensor.dtype (Array.init (Tensor.num_elements t) (Tensor.get_int t))

let ref_score metric d q =
  match metric with
  | "dot" -> d * q
  | "l2" -> -((d - q) * (d - q))
  | _ ->
    let rec bits v a = if v = 0 then a else bits (v lsr 1) (a + (v land 1)) in
    -bits ((d lxor q) land 0xFFFFFFFF) 0

let ref_sim_search ~metric ~k db q =
  let m = Tensor.num_elements q in
  ref_select ~k db.Tensor.dtype
    (Array.init (Tensor.num_elements db - m + 1) (fun w ->
         let acc = ref 0 in
         for i = 0 to m - 1 do
           acc := !acc + ref_score metric (Tensor.get_int db (w + i)) (Tensor.get_int q i)
         done;
         !acc))

let check_pair msg (wv, wi) (gv, gi) =
  check_tensor (msg ^ " values") wv gv;
  check_tensor (msg ^ " indices") wi gi

let raises msg text f =
  match f () with
  | _ -> Alcotest.failf "%s: no error" msg
  | exception Invalid_argument m -> Alcotest.(check string) msg text m

(* values 0..3: nearly every candidate ties with many others *)
let ties ?(dtype = T.I32) n seed = Tensor.init ~dtype [| n |] (fun i -> ((i * 7) + (i / 3) + seed) mod 4)

let test_topk_matches_sort () =
  List.iter
    (fun t ->
      let n = Tensor.num_elements t in
      List.iter
        (fun k -> check_pair (Printf.sprintf "topk k=%d of %d" k n) (ref_topk ~k t) (Tensor.topk ~k t))
        (List.filter (fun k -> k <= n) [ 0; 1; 5; n ]);
      raises "k > n" "Tensor.topk: k > size" (fun () -> Tensor.topk ~k:(n + 1) t))
    [ ties 97 0; ties ~dtype:T.I8 60 1; values T.I32 7; values T.I64 8; Tensor.init [| 1 |] (fun _ -> 5) ]

let test_sim_search_matches_sort () =
  List.iter
    (fun (dtype, db, q) ->
      let db = db dtype and q = q dtype in
      let windows = Tensor.num_elements db - Tensor.num_elements q + 1 in
      List.iter
        (fun metric ->
          List.iter
            (fun k ->
              check_pair
                (Printf.sprintf "%s %s k=%d" metric (T.dtype_to_string dtype) k)
                (ref_sim_search ~metric ~k db q)
                (Tensor.sim_search ~metric ~k db q))
            [ 1; 4; windows ];
          raises "k > windows" "index out of bounds" (fun () ->
              Tensor.sim_search ~metric ~k:(windows + 1) db q))
        [ "dot"; "l2"; "hamming" ])
    [
      (T.I32, (fun dtype -> ties ~dtype 120 0), fun dtype -> ties ~dtype 5 2);
      (T.I8, (fun dtype -> ties ~dtype 120 0), fun dtype -> ties ~dtype 5 2);
      (T.I32, (fun dtype -> values ~n:90 dtype 3), fun dtype -> values ~n:6 dtype 4);
      (T.I8, (fun dtype -> values ~n:90 dtype 3), fun dtype -> values ~n:6 dtype 4);
    ];
  raises "unknown metric" "Tensor.sim_search: metric cos" (fun () ->
      Tensor.sim_search ~metric:"cos" ~k:1 (ties 10 0) (ties 2 0))

(* The CAM's search_best ranks its entries as host sim_search scores
   them, one entry row as the database. *)
let test_cam_matches_sim_search () =
  let module Cam_d = Cinm_dialects.Cam_d in
  Cinm_dialects.Registry.ensure_all ();
  let entries = 40 and width = 6 and k = 5 in
  let data = Tensor.reshape (ties (entries * width) 1) [| entries; width |] in
  let query = ties width 3 in
  List.iter
    (fun metric ->
      let f =
        Func.create ~name:"cam"
          ~arg_tys:[ T.Tensor ([| entries; width |], T.I32); T.Tensor ([| width |], T.I32) ]
          ~result_tys:[ T.Tensor ([| k |], T.I32) ]
      in
      let b = Builder.for_func f in
      let id = Cam_d.alloc b ~entries ~width in
      Cam_d.write_entries b id (Func.param f 0);
      Cinm_dialects.Func_d.return b [ Cam_d.search_best b id (Func.param f 1) ~metric ~k ];
      let cam = Cinm_cam_sim.Cam_machine.(create (default_config ())) in
      let got =
        match
          Compile.run_func ~hooks:[ Cinm_cam_sim.Cam_machine.hook cam ] f
            [ Rtval.Tensor data; Rtval.Tensor query ]
        with
        | [ r ], _ -> Rtval.as_tensor r
        | _ -> Alcotest.fail "expected one result"
      in
      let row_score i =
        let row = Tensor.extract_slice data ~offsets:[| i; 0 |] ~sizes:[| 1; width |] in
        Tensor.get_int (fst (Tensor.sim_search ~metric ~k:1 row query)) 0
      in
      let _, want = ref_select ~k T.I32 (Array.init entries row_score) in
      check_tensor ("cam " ^ metric) want got)
    [ "dot"; "l2"; "hamming" ]

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
      ( "gemm",
        [
          Alcotest.test_case "strided C, every payload" `Quick test_gemm_matches_naive;
          Alcotest.test_case "B row stride" `Quick test_gemm_row_stride;
          Alcotest.test_case "row blocks at 1, 2 and 4 jobs" `Quick test_gemm_rows_any_jobs;
          Alcotest.test_case "inline inside Pool.run" `Quick test_gemm_inside_pool_run;
          Alcotest.test_case "conv_2d == direct loop" `Quick test_conv_2d_matches_direct;
          Alcotest.test_case "transpose runs" `Quick test_transpose_runs;
          Alcotest.test_case "merge_region wraps" `Quick test_merge_region_wraps;
        ] );
      ( "int ops",
        [
          Alcotest.test_case "every op and width == reference" `Quick
            test_int_ops_match_reference;
          Alcotest.test_case "pinned" `Quick test_int_ops_pinned;
          Alcotest.test_case "float min/max, NaN and -0" `Quick test_float_min_max;
        ] );
      ("clamp", [ Alcotest.test_case "== per-element loop" `Quick test_clamp_matches_reference ]);
      ( "broadcast",
        [ Alcotest.test_case "== per-element loop" `Quick test_broadcast_matches_reference ] );
      ( "selection",
        [
          Alcotest.test_case "topk == sort" `Quick test_topk_matches_sort;
          Alcotest.test_case "sim_search == sort" `Quick test_sim_search_matches_sort;
          Alcotest.test_case "cam search_best == sim_search" `Quick test_cam_matches_sim_search;
        ] );
      ( "einsum",
        [
          QCheck_alcotest.to_alcotest prop_einsum_matches_odometer;
          Alcotest.test_case "rejects what the classifier rejects" `Quick test_einsum_rejects;
        ] );
    ]
