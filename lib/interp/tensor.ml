(* Runtime tensors: the data the compiled programs compute on. Integer
   tensors use wrap-around semantics at their declared bit width (the
   paper's workloads are all INT32); float tensors are supported for
   completeness. This module doubles as the reference ("host CPU")
   implementation of every compute op in the cinm/linalg dialects. *)

open Cinm_ir
module Util = Cinm_support.Util
module Pool = Cinm_support.Pool

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

(* Payload layout classes: a dtype's ([alloc_payload]) and a payload's
   own. They differ only for a tensor built with a payload that is not
   its dtype's layout. *)
let dtype_class = function
  | Types.F32 | Types.F64 -> 3
  | Types.I8 -> 1
  | Types.I16 -> 2
  | _ -> 0

let payload_class = function I _ -> 0 | I8 _ -> 1 | I16 _ -> 2 | F _ -> 3

(* A statically allocated tensor: an array filled with it has no young
   element. [Array.make] of more than 256 elements runs a minor collection
   to promote a young initial value (as [Array.init] does with [f 0]);
   the per-PU buffer arrays of a workgroup have 512 and more. *)
let static_empty = { shape = [| 0 |]; dtype = Types.I32; data = I [||] }

let array_init n f =
  let a = Array.make n static_empty in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

(* ----- arena: recycled tensor storage ----- *)

(* The simulators allocate short-lived tensors at a high rate: per-PU MRAM
   buffers per run, WRAM scratch per launch, staging copies per crossbar
   program, and the host kernels' fresh results (below). The arena keeps
   free lists of released storage keyed by (layout class, element count)
   so those allocations recycle instead of churning the major heap. [alloc] zero-fills recycled storage, so an
   arena tensor is indistinguishable from [zeros]. Callers own the
   lifetime discipline: release only tensors that can no longer be
   reached (and at most once). *)
module Arena = struct
  let lock = Mutex.create ()
  (* keyed by [key cls n]: an int key, so a lookup allocates nothing *)
  let pools : (int, payload list ref) Hashtbl.t = Hashtbl.create 64

  let key cls n = (n * 4) + cls

  (* cap per free list: bounds arena growth when sizes never repeat *)
  let max_per_key = 64

  (* cap on the bytes held across all free lists. Pooled storage is live
     data to the GC, and the major heap settles at a multiple of the live
     data, so every pooled byte costs several resident ones: the arena
     keeps what the next allocations reuse (a tile loop's slices, a
     launch's buffers), not every size it has ever seen. *)
  let max_bytes = 2 lsl 20

  let pooled_bytes = ref 0

  (* Up to this many elements a tensor bypasses the arena: the minor heap
     hands out blocks of up to 256 words faster than a locked lookup, and
     the GC reclaims them young. Larger blocks go straight to the major
     heap, which mallocs them; those are the ones worth recycling. *)
  let small = 256

  let payload_bytes = function
    | I a -> Array.length a * (Sys.word_size / 8)
    | F a -> Array.length a * 8
    | I8 b | I16 b -> Bytes.length b

  (* Recycled storage of [n] elements in layout class [cls], still
     holding its old contents. *)
  let take cls n =
    if n <= small then None
    else begin
      Mutex.lock lock;
      let r =
        match Hashtbl.find pools (key cls n) with
        | { contents = p :: tl } as r ->
          r := tl;
          pooled_bytes := !pooled_bytes - payload_bytes p;
          Some p
        | _ -> None
        | exception Not_found -> None
      in
      Mutex.unlock lock;
      r
    end

  let alloc shape dtype =
    let n = Util.product_of_shape shape in
    match take (dtype_class dtype) n with
    | None -> zeros shape dtype
    | Some p ->
      (match p with
      | I a -> Array.fill a 0 n 0
      | I8 b -> Bytes.fill b 0 n '\000'
      | I16 b -> Bytes.fill b 0 (2 * n) '\000'
      | F a -> Array.fill a 0 n 0.0);
      { shape; dtype; data = p }

  (* [alloc] for a result its kernel overwrites entirely: recycled storage
     keeps its old contents. *)
  let alloc_uninit shape dtype =
    match take (dtype_class dtype) (Util.product_of_shape shape) with
    | None -> zeros shape dtype
    | Some p -> { shape; dtype; data = p }

  (* keyed by the payload's own layout, so [alloc] hands out the layout
     its dtype asks for even if a released tensor's dtype disagreed *)
  let release t =
    let n = num_elements t in
    if n > small then begin
      let key = key (payload_class t.data) n and bytes = payload_bytes t.data in
      Mutex.lock lock;
      if !pooled_bytes + bytes <= max_bytes then begin
        match Hashtbl.find pools key with
        | r ->
          if List.length !r < max_per_key then begin
            r := t.data :: !r;
            pooled_bytes := !pooled_bytes + bytes
          end
        | exception Not_found ->
          Hashtbl.replace pools key (ref [ t.data ]);
          pooled_bytes := !pooled_bytes + bytes
      end;
      Mutex.unlock lock
    end

  let clear () =
    Mutex.lock lock;
    Hashtbl.reset pools;
    pooled_bytes := 0;
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

(* [Array.blit] of an [int array] into the major heap runs the write
   barrier per element, which ints do not need: copy them in a plain loop
   (backwards when the ranges overlap that way). Callers check bounds. *)
let blit_ints (s : int array) so (d : int array) d_o n =
  if s == d && so < d_o then
    for i = n - 1 downto 0 do
      Array.unsafe_set d (d_o + i) (Array.unsafe_get s (so + i))
    done
  else
    for i = 0 to n - 1 do
      Array.unsafe_set d (d_o + i) (Array.unsafe_get s (so + i))
    done

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

(* ----- the int-op table ----- *)

(* Every integer binop by name. A kernel matches the op once per call and
   runs the loop specialised to it; [int_binop] remains for scalar
   callers. *)
type iop = Add | Sub | Mul | Div | Rem | Min | Max | And | Or | Xor | Shl | Shr

let iop = function
  | "add" -> Add
  | "sub" -> Sub
  | "mul" -> Mul
  | "div" -> Div
  | "rem" -> Rem
  | "min" -> Min
  | "max" -> Max
  | "and" -> And
  | "or" -> Or
  | "xor" -> Xor
  | "shl" -> Shl
  | "shr" -> Shr
  | name -> invalid_arg ("Tensor.int_binop: " ^ name)

(* division and remainder by zero give 0 *)
let[@inline] idiv a b = if b = 0 then 0 else a / b
let[@inline] irem a b = if b = 0 then 0 else a mod b
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

let int_binop name : int -> int -> int =
  match iop name with
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> idiv
  | Rem -> irem
  | Min -> imin
  | Max -> imax
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Shl -> ( lsl )
  | Shr -> ( asr )

(* [wrap dt x] for an integer dtype is [wr s m x] with [s = wrap_shift dt]
   and [m = wrap_mask dt]: the sign extension the compiled interpreter
   stores with, i1 keeping its low bit. *)
let wrap_shift = function
  | (Types.I8 | Types.I16 | Types.I32) as dt -> 63 - Types.dtype_bits dt
  | _ -> 0

let wrap_mask = function Types.I1 -> 1 | _ -> -1
let[@inline] wr s m x = ((x lsl s) asr s) land m
let[@inline] ld (a : int array) i = Array.unsafe_get a i
let[@inline] put (z : int array) zo i v = Array.unsafe_set z (zo + i) v

(* [z.(zo+i) <- wr s m (x.(xo+i) op y.(yo+i))] for [i] from 0 to
   [n - 1], in that order, so [z] may alias [x] or [y] at any offsets
   ([scan] runs its recurrence this way). Callers check bounds. *)
let zip_ints op s m x xo y yo z zo n =
  match op with
  | Add -> for i = 0 to n - 1 do put z zo i (wr s m (ld x (xo + i) + ld y (yo + i))) done
  | Sub -> for i = 0 to n - 1 do put z zo i (wr s m (ld x (xo + i) - ld y (yo + i))) done
  | Mul -> for i = 0 to n - 1 do put z zo i (wr s m (ld x (xo + i) * ld y (yo + i))) done
  | Div -> for i = 0 to n - 1 do put z zo i (wr s m (idiv (ld x (xo + i)) (ld y (yo + i)))) done
  | Rem -> for i = 0 to n - 1 do put z zo i (wr s m (irem (ld x (xo + i)) (ld y (yo + i)))) done
  | Min -> for i = 0 to n - 1 do put z zo i (wr s m (imin (ld x (xo + i)) (ld y (yo + i)))) done
  | Max -> for i = 0 to n - 1 do put z zo i (wr s m (imax (ld x (xo + i)) (ld y (yo + i)))) done
  | And -> for i = 0 to n - 1 do put z zo i (wr s m (ld x (xo + i) land ld y (yo + i))) done
  | Or -> for i = 0 to n - 1 do put z zo i (wr s m (ld x (xo + i) lor ld y (yo + i))) done
  | Xor -> for i = 0 to n - 1 do put z zo i (wr s m (ld x (xo + i) lxor ld y (yo + i))) done
  | Shl -> for i = 0 to n - 1 do put z zo i (wr s m (ld x (xo + i) lsl ld y (yo + i))) done
  | Shr -> for i = 0 to n - 1 do put z zo i (wr s m (ld x (xo + i) asr ld y (yo + i))) done

(* [x.(0) op x.(1) op ... op x.(n - 1)], left to right and unwrapped;
   [n >= 1] *)
let fold_ints op x n =
  let acc = ref (ld x 0) in
  (match op with
  | Add -> for i = 1 to n - 1 do acc := !acc + ld x i done
  | Sub -> for i = 1 to n - 1 do acc := !acc - ld x i done
  | Mul -> for i = 1 to n - 1 do acc := !acc * ld x i done
  | Div -> for i = 1 to n - 1 do acc := idiv !acc (ld x i) done
  | Rem -> for i = 1 to n - 1 do acc := irem !acc (ld x i) done
  | Min -> for i = 1 to n - 1 do acc := imin !acc (ld x i) done
  | Max -> for i = 1 to n - 1 do acc := imax !acc (ld x i) done
  | And -> for i = 1 to n - 1 do acc := !acc land ld x i done
  | Or -> for i = 1 to n - 1 do acc := !acc lor ld x i done
  | Xor -> for i = 1 to n - 1 do acc := !acc lxor ld x i done
  | Shl -> for i = 1 to n - 1 do acc := !acc lsl ld x i done
  | Shr -> for i = 1 to n - 1 do acc := !acc asr ld x i done);
  !acc

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

(* The kernels below take their fresh results from the arena, so storage
   that compiled code recycles (see [Compile.analyze]) is drawn again. A
   result that keeps its operand's payload layout comes from the arena
   when that layout is its dtype's, which is the layout the arena hands
   out. *)
let alloc_like t =
  if payload_class t.data = dtype_class t.dtype then Arena.alloc t.shape t.dtype
  else zeros_like t

let copy t =
  let n = num_elements t in
  let data =
    match (t.data, Arena.take (payload_class t.data) n) with
    | I a, Some (I b) ->
      blit_ints a 0 b 0 n;
      I b
    | F a, Some (F b) ->
      Array.blit a 0 b 0 n;
      F b
    | I8 a, Some (I8 b) ->
      Bytes.blit a 0 b 0 (Bytes.length a);
      I8 b
    | I16 a, Some (I16 b) ->
      Bytes.blit a 0 b 0 (Bytes.length a);
      I16 b
    | I a, _ -> I (Array.copy a)
    | I8 b, _ -> I8 (Bytes.copy b)
    | I16 b, _ -> I16 (Bytes.copy b)
    | F a, _ -> F (Array.copy a)
  in
  { t with data }

(* [out.(i) <- name a.(i) b.(i)] for every element. [out] has [a]'s shape
   and layout; it may be [a] itself, since each element is read before it
   is written. *)
let map2_to name a b out =
  if a.shape <> b.shape then invalid_arg "Tensor.map2: shape mismatch";
  match (a.data, b.data, out.data) with
  | I x, I y, I z when is_int a ->
    (* x, y and z have equal shapes, so every index is in range *)
    let dt = a.dtype in
    zip_ints (iop name) (wrap_shift dt) (wrap_mask dt) x 0 y 0 z 0 (Array.length x)
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
  if a.shape <> b.shape then invalid_arg "Tensor.map2: shape mismatch";
  let out = alloc_like a in
  map2_to name a b out;
  out

let map2_in_place name a b = map2_to name a b a

let map_not a =
  match a.data with
  | I _ | I8 _ | I16 _ ->
    let out = alloc_like a in
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

(* ----- fused element-wise expressions ----- *)

(* [ew_expr] runs its expression one op at a time over rows of up to this
   many elements, one buffer per stack slot: small enough for the minor
   heap. *)
let ew_row = 256

let rec rpn_map f : 'a Cinm_dialects.Cinm_d.rpn -> 'b Cinm_dialects.Cinm_d.rpn = function
  | In k -> In k
  | Const c -> Const c
  | Op (o, l, r) ->
    (* token order, so the first bad token raises *)
    let l = rpn_map f l in
    let r = rpn_map f r in
    Op (f o, l, r)

let rec rpn_depth : 'a Cinm_dialects.Cinm_d.rpn -> int = function
  | In _ | Const _ -> 1
  | Op (_, l, r) -> max (rpn_depth l) (1 + rpn_depth r)

let ew_expr tokens inputs =
  let module C = Cinm_dialects.Cinm_d in
  let t0 = inputs.(0) in
  let n = num_elements t0 in
  let out = Arena.alloc_uninit t0.shape t0.dtype in
  let row = min ew_row n in
  (* [eval expr 0 lo len] on each row, then [store lo len] of slot 0 *)
  let rows eval expr store =
    let lo = ref 0 in
    while !lo < n do
      let len = min row (n - !lo) in
      eval expr 0 !lo len;
      store !lo len;
      lo := !lo + len
    done
  in
  (if n > 0 then
     let expr = C.parse_rpn tokens in
     let depth = rpn_depth expr in
     match out.data with
     | F z ->
       let expr = rpn_map float_binop expr in
       let buf = Array.init depth (fun _ -> Array.make row 0.0) in
       let rec eval node d lo len =
         let b = buf.(d) in
         match node with
         | C.In k ->
           let t = inputs.(k) in
           for i = 0 to len - 1 do
             b.(i) <- get_float t (lo + i)
           done
         | C.Const c -> Array.fill b 0 len (float_of_int c)
         | C.Op (f, l, r) ->
           eval l d lo len;
           eval r (d + 1) lo len;
           let y = buf.(d + 1) in
           for i = 0 to len - 1 do
             b.(i) <- f b.(i) y.(i)
           done
       in
       rows eval expr (fun lo len -> Array.blit buf.(0) 0 z lo len)
     | _ ->
       let expr = rpn_map iop expr in
       let s = wrap_shift out.dtype and m = wrap_mask out.dtype in
       let buf = Array.init depth (fun _ -> Array.make row 0) in
       let rec eval node d lo len =
         let b = buf.(d) in
         match node with
         | C.In k -> (
           match inputs.(k) with
           | { data = I a; _ } when lo + len <= Array.length a -> blit_ints a lo b 0 len
           | t ->
             for i = 0 to len - 1 do
               b.(i) <- get_int t (lo + i)
             done)
         | C.Const c -> Array.fill b 0 len c
         | C.Op (o, l, r) ->
           eval l d lo len;
           eval r (d + 1) lo len;
           zip_ints o s m b 0 buf.(d + 1) 0 b 0 len
       in
       let b = buf.(0) in
       rows eval expr
         (match out.data with
         | I z -> fun lo len -> for i = 0 to len - 1 do put z lo i (wr s m (ld b i)) done
         | _ -> fun lo len -> for i = 0 to len - 1 do set_int out (lo + i) b.(i) done));
  out

(* ----- linear algebra ----- *)

let wrap_row z z0 n s msk =
  for j = z0 to z0 + n - 1 do
    put z 0 j (wr s msk (ld z j))
  done

(* Rows [lo, hi) of an int [gemm] (see [gemm_rows]) on [int array]s,
   every index in range by construction, so the checks are elided.
   Register-blocked 4 rows x 4 [p], so each B load feeds four rows; the
   one to three rows a batch has left over run 2 rows x 4 [p] (an odd
   last row is its own second row, with zero multipliers). A block whose
   multipliers are all zero is skipped. Native ints add exactly
   (mod 2^63), so any blocking is bit-identical to the scalar order. *)
let gemm_int ~m ~n ~k x y ~ldb z ~ldc dt lo hi =
  let s = wrap_shift dt and msk = wrap_mask dt and narrow = dt <> Types.I64 in
  let r = ref lo in
  while !r < hi do
    let bt = !r / m in
    let stop = min hi ((bt + 1) * m) in
    let yb = bt * k * ldb in
    while !r + 3 < stop do
      let x0 = !r * k and z0 = !r * ldc in
      let x1 = x0 + k and z1 = z0 + ldc in
      let x2 = x1 + k and z2 = z1 + ldc in
      let x3 = x2 + k and z3 = z2 + ldc in
      Array.fill z z0 n 0;
      Array.fill z z1 n 0;
      Array.fill z z2 n 0;
      Array.fill z z3 n 0;
      let p = ref 0 in
      while !p + 3 < k do
        let p0 = !p in
        let a0 = ld x (x0 + p0) and a1 = ld x (x0 + p0 + 1)
        and a2 = ld x (x0 + p0 + 2) and a3 = ld x (x0 + p0 + 3) in
        let b0 = ld x (x1 + p0) and b1 = ld x (x1 + p0 + 1)
        and b2 = ld x (x1 + p0 + 2) and b3 = ld x (x1 + p0 + 3) in
        let c0 = ld x (x2 + p0) and c1 = ld x (x2 + p0 + 1)
        and c2 = ld x (x2 + p0 + 2) and c3 = ld x (x2 + p0 + 3) in
        let d0 = ld x (x3 + p0) and d1 = ld x (x3 + p0 + 1)
        and d2 = ld x (x3 + p0 + 2) and d3 = ld x (x3 + p0 + 3) in
        if
          a0 lor a1 lor a2 lor a3 lor b0 lor b1 lor b2 lor b3 lor c0 lor c1 lor c2 lor c3
          lor d0 lor d1 lor d2 lor d3
          <> 0
        then begin
          let y0 = yb + (p0 * ldb) in
          let y1 = y0 + ldb in
          let y2 = y1 + ldb in
          let y3 = y2 + ldb in
          for j = 0 to n - 1 do
            let v0 = ld y (y0 + j) and v1 = ld y (y1 + j)
            and v2 = ld y (y2 + j) and v3 = ld y (y3 + j) in
            put z z0 j (ld z (z0 + j) + (a0 * v0) + (a1 * v1) + (a2 * v2) + (a3 * v3));
            put z z1 j (ld z (z1 + j) + (b0 * v0) + (b1 * v1) + (b2 * v2) + (b3 * v3));
            put z z2 j (ld z (z2 + j) + (c0 * v0) + (c1 * v1) + (c2 * v2) + (c3 * v3));
            put z z3 j (ld z (z3 + j) + (d0 * v0) + (d1 * v1) + (d2 * v2) + (d3 * v3))
          done
        end;
        p := p0 + 4
      done;
      while !p < k do
        let p0 = !p in
        let a0 = ld x (x0 + p0) and b0 = ld x (x1 + p0)
        and c0 = ld x (x2 + p0) and d0 = ld x (x3 + p0) in
        if a0 lor b0 lor c0 lor d0 <> 0 then begin
          let y0 = yb + (p0 * ldb) in
          for j = 0 to n - 1 do
            let v = ld y (y0 + j) in
            put z z0 j (ld z (z0 + j) + (a0 * v));
            put z z1 j (ld z (z1 + j) + (b0 * v));
            put z z2 j (ld z (z2 + j) + (c0 * v));
            put z z3 j (ld z (z3 + j) + (d0 * v))
          done
        end;
        p := p0 + 1
      done;
      if narrow then begin
        wrap_row z z0 n s msk;
        wrap_row z z1 n s msk;
        wrap_row z z2 n s msk;
        wrap_row z z3 n s msk
      end;
      r := !r + 4
    done;
    while !r < stop do
      let x0 = !r * k and z0 = !r * ldc in
      let two = !r + 1 < stop in
      let x1 = if two then x0 + k else x0 and z1 = if two then z0 + ldc else z0 in
      Array.fill z z0 n 0;
      Array.fill z z1 n 0;
      let p = ref 0 in
      while !p + 3 < k do
        let p0 = !p in
        let a0 = ld x (x0 + p0) and a1 = ld x (x0 + p0 + 1)
        and a2 = ld x (x0 + p0 + 2) and a3 = ld x (x0 + p0 + 3) in
        let b0 = if two then ld x (x1 + p0) else 0
        and b1 = if two then ld x (x1 + p0 + 1) else 0
        and b2 = if two then ld x (x1 + p0 + 2) else 0
        and b3 = if two then ld x (x1 + p0 + 3) else 0 in
        if a0 lor a1 lor a2 lor a3 lor b0 lor b1 lor b2 lor b3 <> 0 then begin
          let y0 = yb + (p0 * ldb) in
          let y1 = y0 + ldb in
          let y2 = y1 + ldb in
          let y3 = y2 + ldb in
          for j = 0 to n - 1 do
            let v0 = ld y (y0 + j) and v1 = ld y (y1 + j)
            and v2 = ld y (y2 + j) and v3 = ld y (y3 + j) in
            put z z0 j (ld z (z0 + j) + (a0 * v0) + (a1 * v1) + (a2 * v2) + (a3 * v3));
            put z z1 j (ld z (z1 + j) + (b0 * v0) + (b1 * v1) + (b2 * v2) + (b3 * v3))
          done
        end;
        p := p0 + 4
      done;
      while !p < k do
        let p0 = !p in
        let a0 = ld x (x0 + p0) in
        let b0 = if two then ld x (x1 + p0) else 0 in
        if a0 lor b0 <> 0 then begin
          let y0 = yb + (p0 * ldb) in
          for j = 0 to n - 1 do
            let v = ld y (y0 + j) in
            put z z0 j (ld z (z0 + j) + (a0 * v));
            put z z1 j (ld z (z1 + j) + (b0 * v))
          done
        end;
        p := p0 + 1
      done;
      if narrow then begin
        wrap_row z z0 n s msk;
        if two then wrap_row z z1 n s msk
      end;
      r := !r + if two then 2 else 1
    done
  done

(* Rows [lo, hi) of a float [gemm] on [float array]s: every element sums
   its products in ascending [p] from 0.0, with no zero skip. *)
let gemm_float ~m ~n ~k x y ~ldb z ~ldc lo hi =
  for r = lo to hi - 1 do
    let yb = r / m * k * ldb and x0 = r * k and z0 = r * ldc in
    Array.fill z z0 n 0.0;
    for p = 0 to k - 1 do
      let xv = Array.unsafe_get x (x0 + p) and y0 = yb + (p * ldb) in
      for j = 0 to n - 1 do
        Array.unsafe_set z (z0 + j)
          (Array.unsafe_get z (z0 + j) +. (xv *. Array.unsafe_get y (y0 + j)))
      done
    done
  done

(* Rows [lo, hi) of [gemm]'s flattened [batch x m] row space. Row [r] is
   row [r mod m] of batch [r / m]: its A row starts at [r*k], its C row
   at [r*ldc], and its batch's B at [(r / m)*k*ldb]. Each row is computed
   by the same arithmetic whatever range it falls in. *)
let gemm_rows ~m ~n ~k ~ldb ~ldc a b c lo hi =
  match (a.data, b.data, c.data) with
  | I x, I y, I z when is_int c -> gemm_int ~m ~n ~k x y ~ldb z ~ldc c.dtype lo hi
  | F x, F y, F z when not (is_int c) -> gemm_float ~m ~n ~k x y ~ldb z ~ldc lo hi
  | _ when is_int c ->
    (* narrow or mixed payloads: one row accumulator, element access
       through the generic getters *)
    let row = Array.make n 0 in
    for r = lo to hi - 1 do
      let yb = r / m * k * ldb in
      Array.fill row 0 n 0;
      for p = 0 to k - 1 do
        let xv = get_int a ((r * k) + p) in
        if xv <> 0 then begin
          let yoff = yb + (p * ldb) in
          for j = 0 to n - 1 do
            row.(j) <- row.(j) + (xv * get_int b (yoff + j))
          done
        end
      done;
      for j = 0 to n - 1 do
        set_int c ((r * ldc) + j) row.(j)
      done
    done
  | _ ->
    let row = Array.make n 0.0 in
    for r = lo to hi - 1 do
      let yb = r / m * k * ldb in
      Array.fill row 0 n 0.0;
      for p = 0 to k - 1 do
        let xv = get_float a ((r * k) + p) and yoff = yb + (p * ldb) in
        for j = 0 to n - 1 do
          row.(j) <- row.(j) +. (xv *. get_float b (yoff + j))
        done
      done;
      for j = 0 to n - 1 do
        set_float c ((r * ldc) + j) row.(j)
      done
    done

(* A GEMM of fewer multiply-accumulates than this (about 0.1 ms on one
   core) runs inline: handing it to the pool costs more than it saves. *)
let par_macs = 1 lsl 17

(* The one MAC loop of dense contraction: [matmul], [matvec], [dot],
   [conv_2d], [einsum] and the crossbar tile all run it (contract in the
   interface). A large one splits its rows over the default pool, into at
   most 4 chunks per domain of whole 4-row blocks; [Pool.run] keeps it
   inline on one domain, in a DPU lane already inside a parallel loop,
   and beside another caller's loop. *)
let gemm ?(batch = 1) ?ldb ~m ~n ~k a b c ~ldc =
  let ldb = Option.value ldb ~default:n in
  let rows = batch * m in
  let pool = Pool.default () in
  let jobs = Pool.jobs pool in
  if jobs <= 1 || rows * n * k < par_macs then
    gemm_rows ~m ~n ~k ~ldb ~ldc a b c 0 rows
  else begin
    let step = 4 * ((rows + (16 * jobs) - 1) / (16 * jobs)) in
    Pool.run pool
      ((rows + step - 1) / step)
      (fun i -> gemm_rows ~m ~n ~k ~ldb ~ldc a b c (i * step) (min rows ((i + 1) * step)))
  end

let matmul a b =
  match (a.shape, b.shape) with
  | [| m; k |], [| k'; n |] when k = k' ->
    let out = Arena.alloc_uninit [| m; n |] a.dtype in
    gemm ~m ~n ~k a b out ~ldc:n;
    out
  | _ -> invalid_arg "Tensor.matmul: shape mismatch"

let matvec a v =
  match (a.shape, v.shape) with
  | [| m; n |], [| n' |] when n = n' ->
    let out = Arena.alloc_uninit [| m |] a.dtype in
    gemm ~m ~n:1 ~k:n a v out ~ldc:1;
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

(* ----- reductions and data analytics ops (cinm Table 1) ----- *)

let reduce op t =
  let n = num_elements t in
  if n = 0 then 0
  else if n = 1 then wrap t.dtype (get_int t 0)
  else
    let acc =
      match t.data with
      | I x -> fold_ints (iop op) x n
      | _ ->
        let f = int_binop op in
        let acc = ref (get_int t 0) in
        for i = 1 to n - 1 do
          acc := f !acc (get_int t i)
        done;
        !acc
    in
    wrap t.dtype acc

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
  | I a when is_int t && n > 1 ->
    (* out.(i) <- out.(i - 1) op out.(i), one zip over overlapping ranges *)
    zip_ints (iop op) (wrap_shift t.dtype) (wrap_mask t.dtype) a 0 a 1 a 1 (n - 1)
  | (I _ | I8 _ | I16 _) when n > 1 ->
    let f = int_binop op in
    for i = 1 to n - 1 do
      set_int out i (f (get_int out (i - 1)) (get_int out i))
    done
  | I _ | I8 _ | I16 _ -> ());
  out

let histogram ~bins t =
  let out = zeros [| bins |] t.dtype in
  for i = 0 to num_elements t - 1 do
    let v = get_int t i in
    if v >= 0 && v < bins then set_int out v (get_int out v + 1)
  done;
  out

(* set bits of a 32-bit value, SWAR *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

let pop_count t =
  let count = ref 0 in
  for i = 0 to num_elements t - 1 do
    count := !count + popcount32 (get_int t i land 0xFFFFFFFF)
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

(* ----- k-best selection ----- *)

(* The [k] best of candidates [(v, i)] offered in ascending [i]: value
   descending, then index ascending, as a stable descending sort of all
   of them would rank them. A heap over the kept candidates holds the
   lowest-ranked one at its root, so a candidate costs one comparison, or
   O(log k) if it is kept: O(n log k) time and O(k) space. *)
type kbest = { vals : int array; idx : int array; mutable size : int }

let[@inline] below (va : int) (ia : int) vb ib = va < vb || (va = vb && ia > ib)

(* Put [(v, i)] into the hole at [pos] of the heap's first [size] slots,
   moving lower-ranked children up into it. *)
let rec sift_down h v i pos size =
  let c = (2 * pos) + 1 in
  let c =
    if c + 1 < size && below (ld h.vals (c + 1)) (ld h.idx (c + 1)) (ld h.vals c) (ld h.idx c)
    then c + 1
    else c
  in
  if c < size && below (ld h.vals c) (ld h.idx c) v i then begin
    put h.vals pos 0 (ld h.vals c);
    put h.idx pos 0 (ld h.idx c);
    sift_down h v i c size
  end
  else begin
    put h.vals pos 0 v;
    put h.idx pos 0 i
  end

let offer h v i =
  let k = Array.length h.vals in
  if h.size < k then begin
    let pos = ref h.size in
    h.size <- h.size + 1;
    while !pos > 0 && below v i (ld h.vals ((!pos - 1) / 2)) (ld h.idx ((!pos - 1) / 2)) do
      let p = (!pos - 1) / 2 in
      put h.vals !pos 0 (ld h.vals p);
      put h.idx !pos 0 (ld h.idx p);
      pos := p
    done;
    put h.vals !pos 0 v;
    put h.idx !pos 0 i
  end
  (* indices ascend, so a tie with the root ranks below it *)
  else if k > 0 && v > ld h.vals 0 then sift_down h v i 0 k

(* [k] fresh best-first result tensors of [select], which offers every
   candidate to the heap it is given. *)
let select_best ~k dtype select =
  let values = zeros [| k |] dtype and indices = zeros [| k |] Types.I32 in
  let h = { vals = Array.make k 0; idx = Array.make k 0; size = 0 } in
  select h;
  (* heap sort: the lowest-ranked root goes to the back *)
  for last = h.size - 1 downto 1 do
    let v = ld h.vals last and i = ld h.idx last in
    put h.vals last 0 (ld h.vals 0);
    put h.idx last 0 (ld h.idx 0);
    sift_down h v i 0 last
  done;
  for j = 0 to h.size - 1 do
    set_int values j h.vals.(j);
    set_int indices j h.idx.(j)
  done;
  (values, indices)

let topk ~k t =
  let n = num_elements t in
  if k > n then invalid_arg "Tensor.topk: k > size";
  select_best ~k t.dtype (fun h ->
      match t.data with
      | I a ->
        for i = 0 to n - 1 do
          offer h (ld a i) i
        done
      | _ ->
        for i = 0 to n - 1 do
          offer h (get_int t i) i
        done)

let window_scorer ~metric db query len =
  let n = num_elements db and qn = num_elements query in
  let check off = if off < 0 || off + len > n || len > qn then invalid_arg "index out of bounds" in
  let bad () = invalid_arg ("Tensor.sim_search: metric " ^ metric) in
  match (db.data, query.data) with
  | I d, I q -> (
    match metric with
    | "dot" ->
      fun off ->
        check off;
        let acc = ref 0 in
        for i = 0 to len - 1 do
          acc := !acc + (ld d (off + i) * ld q i)
        done;
        !acc
    | "l2" ->
      fun off ->
        check off;
        let acc = ref 0 in
        for i = 0 to len - 1 do
          let x = ld d (off + i) - ld q i in
          acc := !acc - (x * x)
        done;
        !acc
    | "hamming" ->
      fun off ->
        check off;
        let acc = ref 0 in
        for i = 0 to len - 1 do
          acc := !acc - popcount32 ((ld d (off + i) lxor ld q i) land 0xFFFFFFFF)
        done;
        !acc
    | _ -> bad ())
  | _ -> (
    (* narrow, float or mixed payloads: element access through the
       generic getter *)
    let score f off =
      check off;
      let acc = ref 0 in
      for i = 0 to len - 1 do
        acc := f !acc (get_int db (off + i)) (get_int query i)
      done;
      !acc
    in
    match metric with
    | "dot" -> score (fun acc d q -> acc + (d * q))
    | "l2" -> score (fun acc d q -> acc - ((d - q) * (d - q)))
    | "hamming" -> score (fun acc d q -> acc - popcount32 ((d lxor q) land 0xFFFFFFFF))
    | _ -> bad ())

(* Similarity search: score each window of [db] (len = |query|) against the
   query with the metric, return k best (values = scores). *)
let sim_search ~metric ~k db query =
  let n = num_elements db and m = num_elements query in
  if m = 0 || m > n then invalid_arg "Tensor.sim_search";
  let windows = n - m + 1 in
  let score = window_scorer ~metric db query m in
  (* more results than windows fails as an out-of-range read *)
  if k > windows then invalid_arg "index out of bounds";
  select_best ~k db.dtype (fun h ->
      for w = 0 to windows - 1 do
        offer h (score w) w
      done)

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
    | I s, I d -> blit (fun so d_o n -> blit_ints s so d d_o n)
    | F s, F d -> blit (fun so d_o n -> Array.blit s so d d_o n)
    | I8 s, I8 d -> blit (fun so d_o n -> Bytes.blit s so d d_o n)
    | I16 s, I16 d -> blit (fun so d_o n -> Bytes.blit s (2 * so) d (2 * d_o) (2 * n))
    | _ -> slow ()
  else slow ()

let pad t ~low ~high =
  let out = Arena.alloc (Array.mapi (fun i d -> d + low.(i) + high.(i)) t.shape) t.dtype in
  let rank = Array.length t.shape in
  copy_region t ~src_off:(Array.make rank 0) out ~dst_off:low ~sizes:t.shape;
  out

let extract_slice t ~offsets ~sizes =
  (* a region in bounds overwrites every element of the result *)
  let alloc = if region_in_bounds t.shape offsets sizes then Arena.alloc_uninit else Arena.alloc in
  let out = alloc sizes t.dtype in
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

(* The accumulator update [write_slice (map2 name (extract_slice dst
   ~offsets ~sizes:src.shape) src) dst ~offsets] in one pass, where the
   region is in bounds and both payloads are [int array]s or [float
   array]s of one dtype: then it returns true. Otherwise it touches
   nothing and returns false. *)
let merge_region name dst ~offsets src =
  let rank = Array.length src.shape in
  let fits = rank > 0 && src.dtype = dst.dtype && region_in_bounds dst.shape offsets src.shape in
  let region row = blit_region row src.shape (Array.make rank 0) dst.shape offsets src.shape in
  match (src.data, dst.data) with
  | I s, I d when fits && is_int dst ->
    let op = iop name and sh = wrap_shift dst.dtype and m = wrap_mask dst.dtype in
    region (fun so d_o len -> zip_ints op sh m d d_o s so d d_o len);
    true
  | F s, F d when fits ->
    let f = float_binop name in
    region (fun so d_o len ->
        for j = d_o to d_o + len - 1 do
          Array.unsafe_set d j (f (Array.unsafe_get d j) (Array.unsafe_get s (so + j - d_o)))
        done);
    true
  | _ -> false

(* [copy_run so d_o len ds] copies [len] consecutive elements of [src]
   from [so] to [dst] at [d_o], [d_o + ds], ...: a blit when [ds = 1].
   The payload match happens once per kernel, not per element. *)
let run_copier src dst =
  match (src.data, dst.data) with
  | I s, I d when src.dtype = dst.dtype ->
    fun so d_o len ds ->
      if ds = 1 then blit_ints s so d d_o len
      else
        for i = 0 to len - 1 do
          Array.unsafe_set d (d_o + (i * ds)) (Array.unsafe_get s (so + i))
        done
  | F s, F d ->
    fun so d_o len ds ->
      if ds = 1 then Array.blit s so d d_o len
      else
        for i = 0 to len - 1 do
          Array.unsafe_set d (d_o + (i * ds)) (Array.unsafe_get s (so + i))
        done
  | _ ->
    let float = match dst.data with F _ -> true | _ -> false in
    fun so d_o len ds ->
      for i = 0 to len - 1 do
        if float then set_float dst (d_o + (i * ds)) (get_float src (so + i))
        else set_int dst (d_o + (i * ds)) (get_int src (so + i))
      done

let transpose t perms =
  let rank = Array.length t.shape in
  if Array.length perms <> rank then invalid_arg "Tensor.transpose: perms rank";
  let out_shape = Array.map (fun p -> t.shape.(p)) perms in
  let out = Arena.alloc_uninit out_shape t.dtype in
  let copy = run_copier t out in
  let n = num_elements t in
  if rank = 0 then copy 0 0 n 1
  else if n > 0 then begin
    (* Walk the input one innermost row at a time: the row lands in the
       output with stride [w.(rank - 1)] (1, a blit, when the permutation
       keeps the last axis), and an odometer over the outer input
       dimensions maintains the output offset incrementally. [w.(j)] is
       the output stride of input dimension [j]. *)
    let ostrides = Array.make rank 1 in
    for i = rank - 2 downto 0 do
      ostrides.(i) <- ostrides.(i + 1) * out_shape.(i + 1)
    done;
    let w = Array.make rank 0 in
    Array.iteri (fun i p -> w.(p) <- ostrides.(i)) perms;
    let len = t.shape.(rank - 1) in
    let idx = Array.make rank 0 in
    let ooff = ref 0 in
    for r = 0 to (n / len) - 1 do
      copy (r * len) !ooff len w.(rank - 1);
      let j = ref (rank - 2) in
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
    done
  end;
  out

let im2col img ~kh ~kw =
  match img.shape with
  | [| h; w |] when h >= kh - 1 && w >= kw - 1 ->
    let oh = h - kh + 1 and ow = w - kw + 1 in
    let out = Arena.alloc_uninit [| oh * ow; kh * kw |] img.dtype in
    let copy = run_copier img out in
    for i = 0 to oh - 1 do
      for j = 0 to ow - 1 do
        for di = 0 to kh - 1 do
          copy (((i + di) * w) + j) ((((i * ow) + j) * kh * kw) + (di * kw)) kw 1
        done
      done
    done;
    out
  | _ -> invalid_arg "Tensor.im2col: rank-2 image at least as large as the kernel required"

(* Direct convolution as im2col + one GEMM against the flattened kernel:
   each output sums its window in (di, dj) order, as the direct loop
   does. *)
let conv_2d img kernel =
  match (img.shape, kernel.shape) with
  | [| _; _ |], [| kh; kw |] ->
    let cols = im2col img ~kh ~kw in
    let out = Arena.alloc_uninit [| img.shape.(0) - kh + 1; img.shape.(1) - kw + 1 |] img.dtype in
    gemm ~m:cols.shape.(0) ~n:1 ~k:(kh * kw) cols kernel out ~ldc:1;
    Arena.release cols;
    out
  | _ -> invalid_arg "Tensor.conv_2d: rank-2 required"

(* ----- einsum (two-operand contraction) ----- *)

(* Transpose-transpose-GEMM-transpose (TTGT), the contraction-to-GEMM
   rewrite the device lowering applies, run on the host: permute A to
   (batch, M, K) and B to (batch, K, N), one batched [gemm], then permute
   (batch, M, N) to the output order. Batch, M and N indices keep their
   output order, so the last permute is often the identity; K is
   flattened in sorted index order, the order a reference odometer walks
   the reduction space, so every float sum adds its products in that
   order. *)
let einsum ~spec a b =
  let module L = Cinm_dialects.Linalg_d in
  let a_idx, b_idx, out_idx = L.parse_einsum_spec spec in
  let plan =
    match L.plan_einsum a_idx b_idx out_idx with
    | Ok p -> p
    | Error e -> invalid_arg ("Tensor.einsum: " ^ L.einsum_error_message e)
  in
  if String.length a_idx <> Array.length a.shape || String.length b_idx <> Array.length b.shape
  then invalid_arg "Tensor.einsum: spec ranks";
  let dim c =
    match String.index_opt a_idx c with
    | Some i -> a.shape.(i)
    | None -> b.shape.(String.index b_idx c)
  in
  String.iteri
    (fun i c -> if dim c <> b.shape.(i) then invalid_arg "Tensor.einsum: dim mismatch")
    b_idx;
  let out_order l = List.filter (fun c -> List.mem c l) (List.of_seq (String.to_seq out_idx)) in
  let bi = out_order plan.L.batch_idx and mi = out_order plan.L.m_idx in
  let ni = out_order plan.L.n_idx and ki = List.sort compare plan.L.k_idx in
  let size l = List.fold_left (fun n c -> n * dim c) 1 l in
  let permute t idx target =
    let perms = Array.of_list (List.map (String.index idx) target) in
    if Array.for_all2 ( = ) perms (Array.init (Array.length perms) Fun.id) then t
    else transpose t perms
  in
  let a' = permute a a_idx (bi @ mi @ ki) and b' = permute b b_idx (bi @ ki @ ni) in
  let c_idx = bi @ mi @ ni in
  let c = Arena.alloc_uninit (Array.of_list (List.map dim c_idx)) a.dtype in
  gemm ~batch:(size bi) ~m:(size mi) ~n:(size ni) ~k:(size ki) a' b' c ~ldc:(size ni);
  let out = permute c (String.of_seq (List.to_seq c_idx)) (List.of_seq (String.to_seq out_idx)) in
  List.iter (fun (t, kept) -> if t != kept then Arena.release t) [ (a', a); (b', b); (c, out) ];
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
    | I a, I b -> blit_ints a soff b doff len
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
