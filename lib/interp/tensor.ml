(* Runtime tensors: the data the compiled programs compute on. Integer
   tensors use wrap-around semantics at their declared bit width (the
   paper's workloads are all INT32); float tensors are supported for
   completeness. This module doubles as the reference ("host CPU")
   implementation of every compute op in the cinm/linalg dialects. *)

open Cinm_ir
module Util = Cinm_support.Util

(* Storage is selected by dtype: i8/i16 tensors pack into [Bytes] (one and
   two bytes per element; [Bytes.set_int8]/[set_int16_le] truncate on store
   and [get_int8]/[get_int16_le] sign-extend on load, which is exactly the
   signed wrap-at-width semantics of [wrap]), i1/i32/i64 use a flat
   [int array] with explicit wrap on store, floats a flat [float array].
   All four layouts are unboxed. *)
type payload = I of int array | I8 of Bytes.t | I16 of Bytes.t | F of float array

type t = { shape : int array; dtype : Types.dtype; data : payload }

let num_elements t = Util.product_of_shape t.shape

let is_int t = not (Types.is_float_dtype t.dtype)

(* wrap an integer to the dtype's width, signed *)
let wrap dtype x =
  match dtype with
  | Types.I64 -> x
  | Types.I1 -> x land 1
  | dt ->
    let bits = Types.dtype_bits dt in
    let m = x land ((1 lsl bits) - 1) in
    if m >= 1 lsl (bits - 1) then m - (1 lsl bits) else m

let alloc_payload dtype n =
  match dtype with
  | Types.F32 | Types.F64 -> F (Array.make n 0.0)
  | Types.I8 -> I8 (Bytes.make n '\000')
  | Types.I16 -> I16 (Bytes.make (2 * n) '\000')
  | _ -> I (Array.make n 0)

let zeros shape dtype =
  { shape; dtype; data = alloc_payload dtype (Util.product_of_shape shape) }

let get_int t i =
  match t.data with
  | I a -> a.(i)
  | I8 b -> Bytes.get_int8 b i
  | I16 b -> Bytes.get_int16_le b (2 * i)
  | F a -> int_of_float a.(i)

let get_float t i =
  match t.data with
  | F a -> a.(i)
  | _ -> float_of_int (get_int t i)

let set_int t i v =
  match t.data with
  | I a -> a.(i) <- wrap t.dtype v
  | I8 b -> Bytes.set_int8 b i v
  | I16 b -> Bytes.set_int16_le b (2 * i) v
  | F a -> a.(i) <- float_of_int v

let set_float t i v =
  match t.data with F a -> a.(i) <- v | _ -> set_int t i (int_of_float v)

let of_int_array ?(dtype = Types.I32) shape arr =
  if Array.length arr <> Util.product_of_shape shape then
    invalid_arg "Tensor.of_int_array: size mismatch";
  match dtype with
  | Types.I8 | Types.I16 ->
    let t = zeros shape dtype in
    Array.iteri (fun i v -> set_int t i v) arr;
    t
  | _ -> { shape; dtype; data = I (Array.map (wrap dtype) arr) }

let of_float_array ?(dtype = Types.F32) shape arr =
  if Array.length arr <> Util.product_of_shape shape then
    invalid_arg "Tensor.of_float_array: size mismatch";
  { shape; dtype; data = F arr }

let init ?(dtype = Types.I32) shape f =
  match dtype with
  | Types.I8 | Types.I16 ->
    let t = zeros shape dtype in
    for i = 0 to num_elements t - 1 do
      set_int t i (f i)
    done;
    t
  | _ ->
    let n = Util.product_of_shape shape in
    { shape; dtype; data = I (Array.init n (fun i -> wrap dtype (f i))) }

let copy t =
  let data =
    match t.data with
    | I a -> I (Array.copy a)
    | I8 b -> I8 (Bytes.copy b)
    | I16 b -> I16 (Bytes.copy b)
    | F a -> F (Array.copy a)
  in
  { t with data }

let get t idx = get_int t (Util.linearize t.shape idx)
let set t idx v = set_int t (Util.linearize t.shape idx) v
let get_f t idx = get_float t (Util.linearize t.shape idx)
let set_f t idx v = set_float t (Util.linearize t.shape idx) v

let to_int_array t =
  match t.data with
  | I a -> Array.copy a
  | F a -> Array.map int_of_float a
  | I8 _ | I16 _ -> Array.init (num_elements t) (fun i -> get_int t i)

(* Dtype and shape are compared before the payload: same-data tensors of
   different dtypes are *not* equal. Float comparison is NaN-aware (NaN
   equals NaN positionally; 0.0 still equals -0.0). *)
let float_eq (x : float) (y : float) = x = y || (x <> x && y <> y)

let equal a b =
  a.dtype = b.dtype
  && a.shape = b.shape
  &&
  match (a.data, b.data) with
  | I x, I y -> x = y
  | I8 x, I8 y | I16 x, I16 y -> Bytes.equal x y
  | F x, F y ->
    let n = Array.length x in
    let ok = ref (Array.length y = n) in
    let i = ref 0 in
    while !ok && !i < n do
      if not (float_eq x.(!i) y.(!i)) then ok := false;
      incr i
    done;
    !ok
  | _ -> false

let to_string ?(max_elems = 16) t =
  let n = num_elements t in
  let shown = min n max_elems in
  let elems =
    List.init shown (fun i ->
        match t.data with
        | I _ | I8 _ | I16 _ -> string_of_int (get_int t i)
        | F a -> Printf.sprintf "%g" a.(i))
  in
  Printf.sprintf "tensor<%s>[%s%s]"
    (Util.shape_to_string t.shape)
    (String.concat ", " elems)
    (if n > shown then ", ..." else "")

(* ----- element-wise operations ----- *)

let int_binop name : int -> int -> int =
  match name with
  | "add" -> ( + )
  | "sub" -> ( - )
  | "mul" -> ( * )
  | "div" -> fun a b -> if b = 0 then 0 else a / b
  | "rem" -> fun a b -> if b = 0 then 0 else a mod b
  | "min" -> min
  | "max" -> max
  | "and" -> ( land )
  | "or" -> ( lor )
  | "xor" -> ( lxor )
  | "shl" -> ( lsl )
  | "shr" -> ( asr )
  | _ -> invalid_arg ("Tensor.int_binop: " ^ name)

let float_binop name : float -> float -> float =
  match name with
  | "add" -> ( +. )
  | "sub" -> ( -. )
  | "mul" -> ( *. )
  | "div" -> ( /. )
  (* arith.minf/maxf semantics, as every lowering emits: NaN wins, -0 < +0 *)
  | "min" -> Float.min
  | "max" -> Float.max
  | _ -> invalid_arg ("Tensor.float_binop: " ^ name)

(* Fresh zeroed storage with [t]'s shape, dtype and payload layout. *)
let zeros_like t =
  let data =
    match t.data with
    | I a -> I (Array.make (Array.length a) 0)
    | I8 b -> I8 (Bytes.make (Bytes.length b) '\000')
    | I16 b -> I16 (Bytes.make (Bytes.length b) '\000')
    | F a -> F (Array.make (Array.length a) 0.0)
  in
  { t with data }

(* [out.(i) <- name a.(i) b.(i)] for every element. [out] has [a]'s shape
   and layout; it may be [a] itself, since each element is read before it
   is written. *)
let map2_to name a b out =
  if a.shape <> b.shape then invalid_arg "Tensor.map2: shape mismatch";
  match (a.data, b.data, out.data) with
  | I x, I y, I z ->
    (* binop and dtype resolved once, not per element; every index is in
       range (x, y and z have equal shapes) *)
    let f = int_binop name in
    let n = Array.length x in
    (match a.dtype with
    | Types.I64 ->
      for i = 0 to n - 1 do
        Array.unsafe_set z i (f (Array.unsafe_get x i) (Array.unsafe_get y i))
      done
    | dt ->
      for i = 0 to n - 1 do
        Array.unsafe_set z i (wrap dt (f (Array.unsafe_get x i) (Array.unsafe_get y i)))
      done)
  | F x, F y, F z ->
    let n = Array.length x in
    if n > 0 then begin
      let f = float_binop name in
      for i = 0 to n - 1 do
        z.(i) <- f x.(i) y.(i)
      done
    end
  | (I _ | I8 _ | I16 _), (I _ | I8 _ | I16 _), _ ->
    let f = int_binop name in
    for i = 0 to num_elements a - 1 do
      set_int out i (f (get_int a i) (get_int b i))
    done
  | _ -> invalid_arg "Tensor.map2: mixed payloads"

let map2 name a b =
  let out = zeros_like a in
  map2_to name a b out;
  out

let map2_in_place name a b = map2_to name a b a

let map_not a =
  match a.data with
  | I x -> { a with data = I (Array.map (fun v -> wrap a.dtype (lnot v)) x) }
  | I8 _ | I16 _ ->
    let out = zeros a.shape a.dtype in
    for i = 0 to num_elements a - 1 do
      set_int out i (lnot (get_int a i))
    done;
    out
  | F _ -> invalid_arg "Tensor.map_not: float tensor"

let fill_scalar shape dtype v =
  let t = zeros shape dtype in
  (match t.data with
  | I a -> Array.fill a 0 (Array.length a) (wrap dtype v)
  | F a -> Array.fill a 0 (Array.length a) (float_of_int v)
  | I8 _ | I16 _ ->
    for i = 0 to num_elements t - 1 do
      set_int t i v
    done);
  t

let fill_float shape dtype v =
  let t = zeros shape dtype in
  (match t.data with
  | F a -> Array.fill a 0 (Array.length a) v
  | I _ | I8 _ | I16 _ -> invalid_arg "Tensor.fill_float: integer dtype");
  t

(* ----- linear algebra ----- *)

let matmul a b =
  match (a.shape, b.shape) with
  | [| m; k |], [| k'; n |] when k = k' ->
    let out = zeros [| m; n |] a.dtype in
    (* i-p-j loop order: both the B row [y.(p*n + _)] and the accumulator
       row are walked with stride 1 (the j-inner order strides B by n and
       thrashes the cache for the 256-wide paper shapes). Each output
       element still accumulates over p in ascending order, so results are
       bit-identical to the naive order. *)
    if is_int a then begin
      match (a.data, b.data, out.data) with
      | I x, I y, I z ->
        (* every index below is in range by construction (x: m*k, y: k*n,
           z: m*n, row: n), so the checks are elided in the hot loop *)
        let row = Array.make n 0 in
        for i = 0 to m - 1 do
          Array.fill row 0 n 0;
          (* p unrolled by 4: native ints add exactly (mod 2^63), so
             combining four products before the accumulator add is
             bit-identical to the scalar order while quartering the
             accumulator-row load/store traffic *)
          let xoff = i * k in
          let p = ref 0 in
          while !p + 3 < k do
            let p0 = !p in
            let xv0 = Array.unsafe_get x (xoff + p0)
            and xv1 = Array.unsafe_get x (xoff + p0 + 1)
            and xv2 = Array.unsafe_get x (xoff + p0 + 2)
            and xv3 = Array.unsafe_get x (xoff + p0 + 3) in
            if xv0 lor xv1 lor xv2 lor xv3 <> 0 then begin
              let y0 = p0 * n in
              let y1 = y0 + n in
              let y2 = y1 + n in
              let y3 = y2 + n in
              for j = 0 to n - 1 do
                Array.unsafe_set row j
                  (Array.unsafe_get row j
                  + (xv0 * Array.unsafe_get y (y0 + j))
                  + (xv1 * Array.unsafe_get y (y1 + j))
                  + (xv2 * Array.unsafe_get y (y2 + j))
                  + (xv3 * Array.unsafe_get y (y3 + j)))
              done
            end;
            p := p0 + 4
          done;
          while !p < k do
            let xv = Array.unsafe_get x (xoff + !p) in
            if xv <> 0 then begin
              let yoff = !p * n in
              for j = 0 to n - 1 do
                Array.unsafe_set row j
                  (Array.unsafe_get row j + (xv * Array.unsafe_get y (yoff + j)))
              done
            end;
            incr p
          done;
          let zoff = i * n in
          for j = 0 to n - 1 do
            Array.unsafe_set z (zoff + j) (wrap a.dtype (Array.unsafe_get row j))
          done
        done
      | _ ->
        (* narrow (Bytes-backed) payloads: same loop order and row
           accumulator, element access through the generic getters *)
        let row = Array.make n 0 in
        for i = 0 to m - 1 do
          Array.fill row 0 n 0;
          for p = 0 to k - 1 do
            let xv = get_int a ((i * k) + p) in
            if xv <> 0 then begin
              let yoff = p * n in
              for j = 0 to n - 1 do
                row.(j) <- row.(j) + (xv * get_int b (yoff + j))
              done
            end
          done;
          let zoff = i * n in
          for j = 0 to n - 1 do
            set_int out (zoff + j) row.(j)
          done
        done
    end
    else begin
      let row = Array.make n 0.0 in
      for i = 0 to m - 1 do
        Array.fill row 0 n 0.0;
        for p = 0 to k - 1 do
          let xv = get_float a ((i * k) + p) in
          let yoff = p * n in
          for j = 0 to n - 1 do
            row.(j) <- row.(j) +. (xv *. get_float b (yoff + j))
          done
        done;
        let zoff = i * n in
        for j = 0 to n - 1 do
          set_float out (zoff + j) row.(j)
        done
      done
    end;
    out
  | _ -> invalid_arg "Tensor.matmul: shape mismatch"

let matvec a v =
  match (a.shape, v.shape) with
  | [| m; n |], [| n' |] when n = n' ->
    let out = zeros [| m |] a.dtype in
    (match out.data with
    | F _ ->
      for i = 0 to m - 1 do
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          acc := !acc +. (get_float a ((i * n) + j) *. get_float v j)
        done;
        set_float out i !acc
      done
    | I _ | I8 _ | I16 _ ->
      for i = 0 to m - 1 do
        let acc = ref 0 in
        for j = 0 to n - 1 do
          acc := !acc + (get_int a ((i * n) + j) * get_int v j)
        done;
        set_int out i !acc
      done);
    out
  | _ -> invalid_arg "Tensor.matvec: shape mismatch"

let dot a b =
  if a.shape <> b.shape then invalid_arg "Tensor.dot: shape mismatch";
  let acc = ref 0 in
  for i = 0 to num_elements a - 1 do
    acc := !acc + (get_int a i * get_int b i)
  done;
  wrap a.dtype !acc

let dot_f a b =
  if a.shape <> b.shape then invalid_arg "Tensor.dot_f: shape mismatch";
  let acc = ref 0.0 in
  for i = 0 to num_elements a - 1 do
    acc := !acc +. (get_float a i *. get_float b i)
  done;
  !acc

let conv_2d img kernel =
  match (img.shape, kernel.shape) with
  | [| h; w |], [| kh; kw |] ->
    let oh = h - kh + 1 and ow = w - kw + 1 in
    let out = zeros [| oh; ow |] img.dtype in
    (match out.data with
    | F _ ->
      for i = 0 to oh - 1 do
        for j = 0 to ow - 1 do
          let acc = ref 0.0 in
          for di = 0 to kh - 1 do
            for dj = 0 to kw - 1 do
              acc :=
                !acc
                +. (get_float img (((i + di) * w) + j + dj)
                   *. get_float kernel ((di * kw) + dj))
            done
          done;
          set_float out ((i * ow) + j) !acc
        done
      done
    | I _ | I8 _ | I16 _ ->
      for i = 0 to oh - 1 do
        for j = 0 to ow - 1 do
          let acc = ref 0 in
          for di = 0 to kh - 1 do
            for dj = 0 to kw - 1 do
              acc := !acc + (get_int img (((i + di) * w) + j + dj) * get_int kernel ((di * kw) + dj))
            done
          done;
          set_int out ((i * ow) + j) !acc
        done
      done);
    out
  | _ -> invalid_arg "Tensor.conv_2d: rank-2 required"

let transpose t perms =
  let rank = Array.length t.shape in
  if Array.length perms <> rank then invalid_arg "Tensor.transpose: perms rank";
  let out_shape = Array.map (fun p -> t.shape.(p)) perms in
  let out = zeros out_shape t.dtype in
  (* Walk the input sequentially and maintain the permuted output offset
     incrementally with an odometer over the input index — no per-element
     index array allocations. [w.(j)] is the output stride contributed by
     input dimension [j]. *)
  let ostrides = Array.make rank 1 in
  for i = rank - 2 downto 0 do
    ostrides.(i) <- ostrides.(i + 1) * out_shape.(i + 1)
  done;
  let w = Array.make rank 0 in
  Array.iteri (fun i p -> w.(p) <- ostrides.(i)) perms;
  let copy_elt =
    match out.data with
    | F _ -> fun src dst -> set_float out dst (get_float t src)
    | I _ | I8 _ | I16 _ -> fun src dst -> set_int out dst (get_int t src)
  in
  let idx = Array.make rank 0 in
  let ooff = ref 0 in
  let n = num_elements t in
  for off = 0 to n - 1 do
    copy_elt off !ooff;
    let j = ref (rank - 1) in
    let carry = ref true in
    while !carry && !j >= 0 do
      idx.(!j) <- idx.(!j) + 1;
      ooff := !ooff + w.(!j);
      if idx.(!j) = t.shape.(!j) then begin
        idx.(!j) <- 0;
        ooff := !ooff - (w.(!j) * t.shape.(!j));
        decr j
      end
      else carry := false
    done
  done;
  out

(* ----- reductions and data analytics ops (cinm Table 1) ----- *)

let reduce op t =
  let n = num_elements t in
  if n = 0 then 0
  else begin
    let acc = ref (get_int t 0) in
    for i = 1 to n - 1 do
      acc := int_binop op !acc (get_int t i)
    done;
    wrap t.dtype !acc
  end

let reduce_f op t =
  let n = num_elements t in
  if n = 0 then 0.0
  else begin
    let f = float_binop op in
    let acc = ref (get_float t 0) in
    for i = 1 to n - 1 do
      acc := f !acc (get_float t i)
    done;
    !acc
  end

let scan op t =
  let out = copy t in
  let n = num_elements t in
  (match out.data with
  | F a ->
    let f = float_binop op in
    for i = 1 to n - 1 do
      a.(i) <- f a.(i - 1) a.(i)
    done
  | I _ | I8 _ | I16 _ ->
    for i = 1 to n - 1 do
      set_int out i (int_binop op (get_int out (i - 1)) (get_int out i))
    done);
  out

let histogram ~bins t =
  let out = zeros [| bins |] t.dtype in
  for i = 0 to num_elements t - 1 do
    let v = get_int t i in
    if v >= 0 && v < bins then set_int out v (get_int out v + 1)
  done;
  out

let pop_count t =
  let count = ref 0 in
  for i = 0 to num_elements t - 1 do
    let v = get_int t i land 0xFFFFFFFF in
    let rec bits x acc = if x = 0 then acc else bits (x lsr 1) (acc + (x land 1)) in
    count := !count + bits v 0
  done;
  !count

(* Bit-wise majority across all elements: bit b of the result is 1 iff a
   strict majority of elements have bit b set (the RTM majority op). *)
let majority t =
  let n = num_elements t in
  let out = zeros [| 1 |] t.dtype in
  let bits = Types.dtype_bits t.dtype in
  let result = ref 0 in
  for b = 0 to min 31 (bits - 1) do
    let ones = ref 0 in
    for i = 0 to n - 1 do
      if (get_int t i lsr b) land 1 = 1 then incr ones
    done;
    if 2 * !ones > n then result := !result lor (1 lsl b)
  done;
  set_int out 0 !result;
  out

let topk ~k t =
  let n = num_elements t in
  if k > n then invalid_arg "Tensor.topk: k > size";
  let indexed = Array.init n (fun i -> (get_int t i, i)) in
  Array.sort (fun (a, ia) (b, ib) -> if b <> a then compare b a else compare ia ib) indexed;
  let values = zeros [| k |] t.dtype in
  let indices = zeros [| k |] Types.I32 in
  for i = 0 to k - 1 do
    let v, idx = indexed.(i) in
    set_int values i v;
    set_int indices i idx
  done;
  (values, indices)

(* Similarity search: score each window of [db] (len = |query|) against the
   query with the metric, return k best (values = scores). *)
let sim_search ~metric ~k db query =
  let n = num_elements db and m = num_elements query in
  if m = 0 || m > n then invalid_arg "Tensor.sim_search";
  let windows = n - m + 1 in
  let score w =
    let acc = ref 0 in
    for i = 0 to m - 1 do
      let d = get_int db (w + i) and q = get_int query i in
      (match metric with
      | "dot" -> acc := !acc + (d * q)
      | "l2" -> acc := !acc - ((d - q) * (d - q))
      | "hamming" ->
        let x = (d lxor q) land 0xFFFFFFFF in
        let rec bits v a = if v = 0 then a else bits (v lsr 1) (a + (v land 1)) in
        acc := !acc - bits x 0
      | _ -> invalid_arg ("Tensor.sim_search: metric " ^ metric))
    done;
    !acc
  in
  let scores = Array.init windows (fun w -> (score w, w)) in
  Array.sort (fun (a, ia) (b, ib) -> if b <> a then compare b a else compare ia ib) scores;
  let values = zeros [| k |] db.dtype in
  let indices = zeros [| k |] Types.I32 in
  for i = 0 to k - 1 do
    let v, idx = scores.(i) in
    set_int values i v;
    set_int indices i idx
  done;
  (values, indices)

(* ----- shape manipulation ----- *)

let reshape t new_shape =
  if Util.product_of_shape new_shape <> num_elements t then
    invalid_arg "Tensor.reshape: element count mismatch";
  { t with shape = new_shape }

(* Copy a [sizes]-shaped region between two payloads of one layout, one
   innermost-dimension row per [copy_row sbase dbase len] call. The slow
   path of [copy_region] pays a [delinearize] (and its allocations) per
   *element*; these staging moves run once per tile per loop iteration in
   the lowered CIM/CNM programs, so they are squarely on the hot path. *)
let blit_region copy_row src_shape src_off dst_shape dst_off sizes =
  let rank = Array.length sizes in
  let row = sizes.(rank - 1) in
  let outer = ref 1 in
  for i = 0 to rank - 2 do
    outer := !outer * sizes.(i)
  done;
  let idx = Array.make (max (rank - 1) 0) 0 in
  for _r = 0 to !outer - 1 do
    let sbase = ref 0 and dbase = ref 0 in
    for i = 0 to rank - 1 do
      let c = if i < rank - 1 then idx.(i) else 0 in
      sbase := (!sbase * src_shape.(i)) + c + src_off.(i);
      dbase := (!dbase * dst_shape.(i)) + c + dst_off.(i)
    done;
    copy_row !sbase !dbase row;
    let j = ref (rank - 2) in
    let carry = ref true in
    while !carry && !j >= 0 do
      idx.(!j) <- idx.(!j) + 1;
      if idx.(!j) = sizes.(!j) then begin
        idx.(!j) <- 0;
        decr j
      end
      else carry := false
    done
  done

let region_in_bounds shape off sizes =
  let rank = Array.length shape in
  Array.length off = rank
  && Array.length sizes = rank
  &&
  let ok = ref true in
  for i = 0 to rank - 1 do
    if off.(i) < 0 || off.(i) + sizes.(i) > shape.(i) then ok := false
  done;
  !ok

(* Copy the [sizes]-shaped region of [src] at [src_off] into [dst] at
   [dst_off]: the one mover behind [pad], [extract_slice] and
   [insert_slice]. In bounds and with one dtype, every payload layout
   takes the row blit (values are already wrapped, so a raw copy is
   bit-identical to the get/set round-trip). Anything else copies element
   by element through [get_int]/[set_int], which raises on the first
   out-of-bounds index. *)
let copy_region src ~src_off dst ~dst_off ~sizes =
  let slow () =
    for off = 0 to Util.product_of_shape sizes - 1 do
      let idx = Util.delinearize sizes off in
      let s_idx = Array.init (Array.length src.shape) (fun i -> idx.(i) + src_off.(i)) in
      let d_idx = Array.init (Array.length dst.shape) (fun i -> idx.(i) + dst_off.(i)) in
      set_int dst (Util.linearize dst.shape d_idx)
        (get_int src (Util.linearize src.shape s_idx))
    done
  in
  if
    Array.length sizes > 0
    && src.dtype = dst.dtype
    && region_in_bounds src.shape src_off sizes
    && region_in_bounds dst.shape dst_off sizes
  then
    let blit row = blit_region row src.shape src_off dst.shape dst_off sizes in
    match (src.data, dst.data) with
    | I s, I d -> blit (fun so d_o n -> Array.blit s so d d_o n)
    | F s, F d -> blit (fun so d_o n -> Array.blit s so d d_o n)
    | I8 s, I8 d -> blit (fun so d_o n -> Bytes.blit s so d d_o n)
    | I16 s, I16 d -> blit (fun so d_o n -> Bytes.blit s (2 * so) d (2 * d_o) (2 * n))
    | _ -> slow ()
  else slow ()

let pad t ~low ~high =
  let out = zeros (Array.mapi (fun i d -> d + low.(i) + high.(i)) t.shape) t.dtype in
  let rank = Array.length t.shape in
  copy_region t ~src_off:(Array.make rank 0) out ~dst_off:low ~sizes:t.shape;
  out

let extract_slice t ~offsets ~sizes =
  let out = zeros sizes t.dtype in
  copy_region t ~src_off:offsets out ~dst_off:(Array.make (Array.length sizes) 0) ~sizes;
  out

let write_slice src dst ~offsets =
  copy_region src ~src_off:(Array.make (Array.length src.shape) 0) dst ~dst_off:offsets
    ~sizes:src.shape

(* Value semantics: returns a fresh tensor with [src] written at [offsets]. *)
let insert_slice src dst ~offsets =
  let out = copy dst in
  write_slice src out ~offsets;
  out

let im2col img ~kh ~kw =
  match img.shape with
  | [| h; w |] ->
    let oh = h - kh + 1 and ow = w - kw + 1 in
    let out = zeros [| oh * ow; kh * kw |] img.dtype in
    let copy_elt =
      match out.data with
      | F _ -> fun src dst -> set_float out dst (get_float img src)
      | I _ | I8 _ | I16 _ -> fun src dst -> set_int out dst (get_int img src)
    in
    for i = 0 to oh - 1 do
      for j = 0 to ow - 1 do
        for di = 0 to kh - 1 do
          for dj = 0 to kw - 1 do
            copy_elt
              (((i + di) * w) + j + dj)
              ((((i * ow) + j) * kh * kw) + (di * kw) + dj)
          done
        done
      done
    done;
    out
  | _ -> invalid_arg "Tensor.im2col: rank-2 required"

(* ----- einsum (two-operand contraction) ----- *)

let einsum ~spec a b =
  let a_idx, b_idx, out_idx = Cinm_dialects.Linalg_d.parse_einsum_spec spec in
  let dims = Hashtbl.create 8 in
  String.iteri (fun i c -> Hashtbl.replace dims c a.shape.(i)) a_idx;
  String.iteri
    (fun i c ->
      match Hashtbl.find_opt dims c with
      | Some d when d <> b.shape.(i) -> invalid_arg "Tensor.einsum: dim mismatch"
      | _ -> Hashtbl.replace dims c b.shape.(i))
    b_idx;
  let out_shape = Array.init (String.length out_idx) (fun i -> Hashtbl.find dims out_idx.[i]) in
  (* reduction indices: appear in inputs but not in output *)
  let red_idx =
    let seen = Hashtbl.create 8 in
    let add c =
      if (not (String.contains out_idx c)) && not (Hashtbl.mem seen c) then
        Hashtbl.replace seen c ()
    in
    String.iter add a_idx;
    String.iter add b_idx;
    Hashtbl.fold (fun c () acc -> c :: acc) seen [] |> List.sort compare
  in
  let red_shape = Array.of_list (List.map (Hashtbl.find dims) red_idx) in
  let out = zeros out_shape a.dtype in
  let n_out = Util.product_of_shape out_shape in
  let n_red = Util.product_of_shape red_shape in
  (* Flat-offset evaluation: each input's offset is a linear function of
     the output position and the reduction position, so precompute the
     stride weight each (out dim, red dim) contributes to each input and
     walk the reduction space with an incremental odometer. Accumulation
     order per output element (ascending reduction offset) is unchanged,
     so results are bit-identical to index-tuple evaluation. *)
  let rank_out = Array.length out_shape in
  let rank_red = Array.length red_shape in
  let strides shape =
    let rank = Array.length shape in
    let s = Array.make rank 1 in
    for i = rank - 2 downto 0 do
      s.(i) <- s.(i + 1) * shape.(i + 1)
    done;
    s
  in
  let weights idx_str shape =
    let s = strides shape in
    let w_out = Array.make rank_out 0 in
    let w_red = Array.make rank_red 0 in
    String.iteri
      (fun i c ->
        match String.index_opt out_idx c with
        | Some k -> w_out.(k) <- w_out.(k) + s.(i)
        | None ->
          let k = ref 0 in
          List.iteri (fun j c' -> if c' = c then k := j) red_idx;
          w_red.(!k) <- w_red.(!k) + s.(i))
      idx_str;
    (w_out, w_red)
  in
  let wa_out, wa_red = weights a_idx a.shape in
  let wb_out, wb_red = weights b_idx b.shape in
  let red_pos = Array.make rank_red 0 in
  (* The reduction odometer is shared between the int and float engines:
     it advances [off_a]/[off_b] by the precomputed stride weights and
     wraps each exhausted reduction dimension. *)
  let step off_a off_b =
    let j = ref (rank_red - 1) in
    let carry = ref true in
    while !carry && !j >= 0 do
      red_pos.(!j) <- red_pos.(!j) + 1;
      off_a := !off_a + wa_red.(!j);
      off_b := !off_b + wb_red.(!j);
      if red_pos.(!j) = red_shape.(!j) then begin
        red_pos.(!j) <- 0;
        off_a := !off_a - (wa_red.(!j) * red_shape.(!j));
        off_b := !off_b - (wb_red.(!j) * red_shape.(!j));
        decr j
      end
      else carry := false
    done
  in
  let bases o =
    let out_pos = Util.delinearize out_shape o in
    let base_a = ref 0 and base_b = ref 0 in
    for i = 0 to rank_out - 1 do
      base_a := !base_a + (wa_out.(i) * out_pos.(i));
      base_b := !base_b + (wb_out.(i) * out_pos.(i))
    done;
    (!base_a, !base_b)
  in
  (match out.data with
  | F _ ->
    for o = 0 to n_out - 1 do
      let base_a, base_b = bases o in
      Array.fill red_pos 0 rank_red 0;
      let off_a = ref base_a and off_b = ref base_b in
      let acc = ref 0.0 in
      for _r = 0 to n_red - 1 do
        acc := !acc +. (get_float a !off_a *. get_float b !off_b);
        step off_a off_b
      done;
      set_float out o !acc
    done
  | I _ | I8 _ | I16 _ ->
    (* int-array payloads skip the per-element payload dispatch; the
       offsets are in range by construction of the stride weights *)
    let ga, gb =
      match (a.data, b.data) with
      | I xa, I xb ->
        ((fun i -> Array.unsafe_get xa i), fun i -> Array.unsafe_get xb i)
      | _ -> ((fun i -> get_int a i), fun i -> get_int b i)
    in
    for o = 0 to n_out - 1 do
      let base_a, base_b = bases o in
      Array.fill red_pos 0 rank_red 0;
      let off_a = ref base_a and off_b = ref base_b in
      let acc = ref 0 in
      for _r = 0 to n_red - 1 do
        acc := !acc + (ga !off_a * gb !off_b);
        step off_a off_b
      done;
      set_int out o !acc
    done);
  out

(* ----- flat copies (scatter / gather / DMA fast paths) ----- *)

(* Contiguous flat-range copy with the exact semantics of the elementwise
   loop [set_int dst (doff+i) (get_int src (soff+i))]. Same-dtype integer
   payloads take a raw blit (already-wrapped values, so bit-identical);
   everything else — float payloads, dtype or payload mismatches, and
   out-of-range arguments — falls back to the loop so error behavior and
   the int<->float truncating round-trip are unchanged. *)
let blit src soff dst doff len =
  let slow () =
    for i = 0 to len - 1 do
      set_int dst (doff + i) (get_int src (soff + i))
    done
  in
  let fits =
    len >= 0 && soff >= 0 && doff >= 0
    && soff + len <= num_elements src
    && doff + len <= num_elements dst
  in
  if fits && src.dtype = dst.dtype then
    match (src.data, dst.data) with
    | I a, I b -> Array.blit a soff b doff len
    | I8 a, I8 b -> Bytes.blit a soff b doff len
    | I16 a, I16 b -> Bytes.blit a (2 * soff) b (2 * doff) (2 * len)
    | F a, F b -> Array.blit a soff b doff len
    | _ -> slow ()
  else slow ()

(* Strided gather into a contiguous range: copies
   [src.(soff + i*sstride)] to [dst.(doff + i)] for [i < len], with the
   same fallback rules as {!blit}. Serves the cyclic distribution map. *)
let blit_strided src soff sstride dst doff len =
  let slow () =
    for i = 0 to len - 1 do
      set_int dst (doff + i) (get_int src (soff + (i * sstride)))
    done
  in
  let fits =
    len >= 0 && soff >= 0 && doff >= 0 && sstride >= 0
    && soff + ((len - 1) * sstride) < num_elements src
    && doff + len <= num_elements dst
  in
  if len > 0 then
    if fits && src.dtype = dst.dtype then
      match (src.data, dst.data) with
      | I a, I b ->
        for i = 0 to len - 1 do
          Array.unsafe_set b (doff + i) (Array.unsafe_get a (soff + (i * sstride)))
        done
      | F a, F b ->
        for i = 0 to len - 1 do
          Array.unsafe_set b (doff + i) (Array.unsafe_get a (soff + (i * sstride)))
        done
      | _ -> slow ()
    else slow ()

(* ----- arena: recycled tensor storage ----- *)

(* The simulators allocate short-lived tensors at a high rate: per-PU MRAM
   buffers per run, WRAM scratch per launch, staging copies per crossbar
   program. The arena keeps free lists of released storage keyed by
   (layout class, element count) so those allocations recycle instead of
   churning the major heap. [alloc] zero-fills recycled storage, so an
   arena tensor is indistinguishable from [zeros]. Callers own the
   lifetime discipline: release only tensors that can no longer be
   reached (and at most once). *)
module Arena = struct
  let lock = Mutex.create ()
  let pools : (int * int, payload list ref) Hashtbl.t = Hashtbl.create 64

  (* cap per free list: bounds arena growth when sizes never repeat *)
  let max_per_key = 64

  let class_of_dtype = function
    | Types.F32 | Types.F64 -> 3
    | Types.I8 -> 1
    | Types.I16 -> 2
    | _ -> 0

  let alloc shape dtype =
    let n = Util.product_of_shape shape in
    let recycled =
      Mutex.lock lock;
      let r =
        match Hashtbl.find_opt pools (class_of_dtype dtype, n) with
        | Some ({ contents = p :: tl } as r) ->
          r := tl;
          Some p
        | _ -> None
      in
      Mutex.unlock lock;
      r
    in
    match recycled with
    | None -> zeros shape dtype
    | Some p ->
      (match p with
      | I a -> Array.fill a 0 n 0
      | I8 b -> Bytes.fill b 0 n '\000'
      | I16 b -> Bytes.fill b 0 (2 * n) '\000'
      | F a -> Array.fill a 0 n 0.0);
      { shape; dtype; data = p }

  let release t =
    let key = (class_of_dtype t.dtype, num_elements t) in
    Mutex.lock lock;
    (match Hashtbl.find_opt pools key with
    | Some r -> if List.length !r < max_per_key then r := t.data :: !r
    | None -> Hashtbl.replace pools key (ref [ t.data ]));
    Mutex.unlock lock

  let clear () =
    Mutex.lock lock;
    Hashtbl.reset pools;
    Mutex.unlock lock

  type stats = { keys : int; pooled : int; largest_pool : int }

  (* Snapshot for tests and the serve daemon's stats endpoint; also the
     observable contract of [max_per_key] (largest_pool never exceeds
     it), which the churn test asserts under concurrent load. *)
  let stats () =
    Mutex.lock lock;
    let s =
      Hashtbl.fold
        (fun _ r acc ->
          let n = List.length !r in
          {
            keys = acc.keys + 1;
            pooled = acc.pooled + n;
            largest_pool = max acc.largest_pool n;
          })
        pools
        { keys = 0; pooled = 0; largest_pool = 0 }
    in
    Mutex.unlock lock;
    s

  let max_per_key () = max_per_key
end
