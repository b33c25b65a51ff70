(* cinm -> cnm lowering (paper §3.2.3, Fig. 6a): rewrite cinm compute ops
   annotated with target = "cnm" into workgroup allocation, scatter /
   launch / gather sequences with tiling.

   Tiling follows the paper: the GEMM M dimension is chunked across the
   workgroup's PUs (Fig. 9 "rectangular" tiling) with an scf.for over row
   chunks when one launch cannot cover all rows; the stationary operand is
   broadcast once into a DPU-shared (level 1) buffer. Multi-launch
   decompositions implement reduce (partial + host merge), scan (local
   scan + host carry propagation + add-offsets launch, the classic CNM
   scan), histogram (private histograms merged with cinm.merge_partial,
   cf. §3.2.5) and sim_search (overlap-scattered windows with in-kernel
   top-k selection and host merge). *)

open Cinm_ir
open Cinm_dialects

type options = {
  dpus : int;  (** upper bound: see [workgroup] *)
  tasklets : int;
  optimize : bool;  (** cinm-opt: WRAM-aware kernel style + interchange *)
  max_rows_per_launch : int;  (** bound on per-PU rows per launch (chunking) *)
}

let default_options = { dpus = 512; tasklets = 16; optimize = false; max_rows_per_launch = 64 }

let style opts = if opts.optimize then "wram" else "naive"

let is_cnm_target op =
  match Ir.attr op "target" with Some (Attr.Str "cnm") -> true | _ -> false

let dtype_of (v : Ir.value) = Option.get (Types.element_dtype v.Ir.ty)
let shape_of (v : Ir.value) = Option.get (Types.shape_of v.Ir.ty)

(* ----- kernel bodies (cnm level: scalar loops over buffer memrefs) ----- *)

(* C[i,j] = sum_k A[i,k] * B[k,j]. The optimized variant interchanges to
   (i, k, j) with a row accumulator pattern for WRAM locality; both orders
   compute the same values. *)
let const_zero bb dt =
  if Types.is_float_dtype dt then Arith.constant_f bb ~ty:(Types.Scalar dt) 0.0
  else Arith.constant bb ~ty:(Types.Scalar dt) 0

(* An integer literal (e.g. a folded splat in an RPN chain) materialized
   at the element dtype, so i8/i16 chains don't mix in i32 constants and
   float chains get a float constant. *)
let const_of_int bb dt c =
  if Types.is_float_dtype dt then
    Arith.constant_f bb ~ty:(Types.Scalar dt) (float_of_int c)
  else Arith.constant bb ~ty:(Types.Scalar dt) c

(* Scalar op for a named cinm binop, dispatched on the operand dtype:
   float operands take the f-suffixed arith ops (and/or/xor stay
   integer-only, matching the cinm verifier). *)
let scalar_binop bb name x y =
  let is_f =
    match Types.element_dtype x.Ir.ty with
    | Some dt -> Types.is_float_dtype dt
    | None -> false
  in
  if is_f then
    match name with
    | "add" -> Arith.addf bb x y
    | "sub" -> Arith.subf bb x y
    | "mul" -> Arith.mulf bb x y
    | "div" -> Arith.divf bb x y
    | "min" -> Arith.minf bb x y
    | "max" -> Arith.maxf bb x y
    | _ -> invalid_arg ("Cinm_to_cnm: no float scalar op for " ^ name)
  else
    match name with
    | "add" -> Arith.addi bb x y
    | "sub" -> Arith.subi bb x y
    | "mul" -> Arith.muli bb x y
    | "div" -> Arith.divsi bb x y
    | "min" -> Arith.minsi bb x y
    | "max" -> Arith.maxsi bb x y
    | "and" -> Arith.andi bb x y
    | "or" -> Arith.ori bb x y
    | "xor" -> Arith.xori bb x y
    | _ -> invalid_arg ("Cinm_to_cnm: no scalar op for " ^ name)

let gemm_body opts ~r ~k_dim ~n bb (args : Ir.value array) =
  let a_m = args.(0) and b_m = args.(1) and c_m = args.(2) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cr = Arith.const_index bb r in
  let ck = Arith.const_index bb k_dim in
  let cn = Arith.const_index bb n in
  let zero = const_zero bb (dtype_of a_m) in
  if opts.optimize then
    (* i, k, j: stream A once, accumulate into the C row *)
    Scf_d.for0 bb ~lb:c0 ~ub:cr ~step:c1 (fun bb i ->
        Scf_d.for0 bb ~lb:c0 ~ub:cn ~step:c1 (fun bb j ->
            Memref_d.store bb zero c_m [ i; j ]);
        Scf_d.for0 bb ~lb:c0 ~ub:ck ~step:c1 (fun bb k ->
            let a = Memref_d.load bb a_m [ i; k ] in
            Scf_d.for0 bb ~lb:c0 ~ub:cn ~step:c1 (fun bb j ->
                let bv = Memref_d.load bb b_m [ k; j ] in
                let acc = Memref_d.load bb c_m [ i; j ] in
                let prod = scalar_binop bb "mul" a bv in
                Memref_d.store bb (scalar_binop bb "add" acc prod) c_m [ i; j ])))
  else
    (* i, j, k: dot product per output element *)
    Scf_d.for0 bb ~lb:c0 ~ub:cr ~step:c1 (fun bb i ->
        Scf_d.for0 bb ~lb:c0 ~ub:cn ~step:c1 (fun bb j ->
            let acc =
              Scf_d.for_ bb ~lb:c0 ~ub:ck ~step:c1 ~init:[ zero ] (fun bb k iters ->
                  let a = Memref_d.load bb a_m [ i; k ] in
                  let bv = Memref_d.load bb b_m [ k; j ] in
                  [ scalar_binop bb "add" iters.(0) (scalar_binop bb "mul" a bv) ])
            in
            Memref_d.store bb (List.hd acc) c_m [ i; j ]))

(* Fused elementwise chain: evaluate the RPN per element; the expression
   is compile-time, so this generates straight-line scalar code. *)
let ew_expr_body ~tokens ~n_inputs ~l bb (args : Ir.value array) =
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cl = Arith.const_index bb l in
  let out_m = args.(n_inputs) in
  let dt = dtype_of out_m in
  Scf_d.for0 bb ~lb:c0 ~ub:cl ~step:c1 (fun bb i ->
      let v =
        Cinm_d.eval_rpn ~tokens
          ~input:(fun k -> Memref_d.load bb args.(k) [ i ])
          ~const:(fun c -> const_of_int bb dt c)
          ~apply:(fun name a b2 -> scalar_binop bb name a b2)
      in
      Memref_d.store bb v out_m [ i ])

let ew_body ~opname ~l bb (args : Ir.value array) =
  let a_m = args.(0) and b_m = args.(1) and c_m = args.(2) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cl = Arith.const_index bb l in
  Scf_d.for0 bb ~lb:c0 ~ub:cl ~step:c1 (fun bb i ->
      let a = Memref_d.load bb a_m [ i ] in
      let bv = Memref_d.load bb b_m [ i ] in
      Memref_d.store bb (scalar_binop bb opname a bv) c_m [ i ])

let reduce_body ~opname ~l bb (args : Ir.value array) =
  let a_m = args.(0) and c_m = args.(1) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cl = Arith.const_index bb l in
  let init = Memref_d.load bb a_m [ c0 ] in
  let acc =
    Scf_d.for_ bb ~lb:c1 ~ub:cl ~step:c1 ~init:[ init ] (fun bb i iters ->
        [ scalar_binop bb opname iters.(0) (Memref_d.load bb a_m [ i ]) ])
  in
  Memref_d.store bb (List.hd acc) c_m [ c0 ]

let histogram_body ~l bb (args : Ir.value array) =
  let a_m = args.(0) and h_m = args.(1) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cl = Arith.const_index bb l in
  let one = Arith.constant bb 1 in
  Scf_d.for0 bb ~lb:c0 ~ub:cl ~step:c1 (fun bb i ->
      let v = Memref_d.load bb a_m [ i ] in
      let idx = Arith.index_cast bb v ~to_ty:Types.Index in
      let cur = Memref_d.load bb h_m [ idx ] in
      Memref_d.store bb (Arith.addi bb cur one) h_m [ idx ])

(* [pre]: optional fused elementwise chain (RPN tokens) evaluated on the
   [n_inputs] input buffers before scanning (sel's predicate + scan). *)
let scan_local_body ?pre ?(n_inputs = 1) ~opname ~l bb (args : Ir.value array) =
  let s_m = args.(n_inputs) and t_m = args.(n_inputs + 1) in
  let elem bb i =
    match pre with
    | None -> Memref_d.load bb args.(0) [ i ]
    | Some tokens ->
      Cinm_d.eval_rpn ~tokens
        ~input:(fun k -> Memref_d.load bb args.(k) [ i ])
        ~const:(fun c -> Arith.constant bb c)
        ~apply:(fun name a b2 -> scalar_binop bb name a b2)
  in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cl = Arith.const_index bb l in
  let first = elem bb c0 in
  Memref_d.store bb first s_m [ c0 ];
  let total =
    Scf_d.for_ bb ~lb:c1 ~ub:cl ~step:c1 ~init:[ first ] (fun bb i iters ->
        let v = elem bb i in
        let acc = scalar_binop bb opname iters.(0) v in
        Memref_d.store bb acc s_m [ i ];
        [ acc ])
  in
  Memref_d.store bb (List.hd total) t_m [ c0 ]

let scan_add_body ~opname ~l bb (args : Ir.value array) =
  let s_m = args.(0) and off_m = args.(1) and f_m = args.(2) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cl = Arith.const_index bb l in
  let off = Memref_d.load bb off_m [ c0 ] in
  Scf_d.for0 bb ~lb:c0 ~ub:cl ~step:c1 (fun bb i ->
      let v = Memref_d.load bb s_m [ i ] in
      Memref_d.store bb (scalar_binop bb opname v off) f_m [ i ])

(* Per-PU top-k selection over the PU's [l]-element chunk: k selection
   passes write the best values and their global indices (base + local). *)
let topk_body ~k ~l bb (args : Ir.value array) =
  let a_m = args.(0) and base_m = args.(1) in
  let v_m = args.(2) and i_m = args.(3) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cl = Arith.const_index bb l in
  let ck = Arith.const_index bb k in
  let zero = Arith.constant bb 0 in
  let min_int32 = Arith.constant bb (-0x80000000) in
  let scratch = Memref_d.alloc bb [| l |] Types.I32 in
  Scf_d.for0 bb ~lb:c0 ~ub:cl ~step:c1 (fun bb i ->
      Memref_d.store bb (Memref_d.load bb a_m [ i ]) scratch [ i ]);
  let base = Memref_d.load bb base_m [ c0 ] in
  Scf_d.for0 bb ~lb:c0 ~ub:ck ~step:c1 (fun bb j ->
      let best =
        Scf_d.for_ bb ~lb:c0 ~ub:cl ~step:c1 ~init:[ min_int32; zero ]
          (fun bb w iters ->
            let v = Memref_d.load bb scratch [ w ] in
            let better = Arith.cmpi bb Arith.Sgt v iters.(0) in
            let w_i32 = Arith.index_cast bb w ~to_ty:(Types.Scalar Types.I32) in
            [ Arith.select bb better v iters.(0); Arith.select bb better w_i32 iters.(1) ])
      in
      match best with
      | [ best_v; best_w ] ->
        Memref_d.store bb best_v v_m [ j ];
        Memref_d.store bb (Arith.addi bb best_w base) i_m [ j ];
        let w_idx = Arith.index_cast bb best_w ~to_ty:Types.Index in
        Memref_d.store bb min_int32 scratch [ w_idx ]
      | _ -> assert false)

(* Per-PU similarity search over [l] windows of length [m]; the [k] best
   scores and their global indices (base + local) are selection-sorted
   into the output buffers. *)
let simsearch_body ~metric ~k ~m ~l bb (args : Ir.value array) =
  let db_m = args.(0) and q_m = args.(1) and base_m = args.(2) in
  let v_m = args.(3) and i_m = args.(4) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cl = Arith.const_index bb l in
  let cm = Arith.const_index bb m in
  let ck = Arith.const_index bb k in
  let zero = Arith.constant bb 0 in
  let min_int32 = Arith.constant bb (-0x80000000) in
  let scores = Memref_d.alloc bb [| l |] Types.I32 in
  (* score each window *)
  Scf_d.for0 bb ~lb:c0 ~ub:cl ~step:c1 (fun bb w ->
      let score =
        Scf_d.for_ bb ~lb:c0 ~ub:cm ~step:c1 ~init:[ zero ] (fun bb j iters ->
            let d = Memref_d.load bb db_m [ Arith.addi bb w j ] in
            let q = Memref_d.load bb q_m [ j ] in
            let contrib =
              match metric with
              | "dot" -> Arith.muli bb d q
              | "l2" ->
                let diff = Arith.subi bb d q in
                Arith.subi bb zero (Arith.muli bb diff diff)
              | _ -> invalid_arg ("simsearch kernel: metric " ^ metric)
            in
            [ Arith.addi bb iters.(0) contrib ])
      in
      Memref_d.store bb (List.hd score) scores [ w ]);
  (* k selection passes *)
  let base = Memref_d.load bb base_m [ c0 ] in
  Scf_d.for0 bb ~lb:c0 ~ub:ck ~step:c1 (fun bb j ->
      let best =
        Scf_d.for_ bb ~lb:c0 ~ub:cl ~step:c1
          ~init:[ min_int32; zero ]
          (fun bb w iters ->
            let s = Memref_d.load bb scores [ w ] in
            let better = Arith.cmpi bb Arith.Sgt s iters.(0) in
            let w_i32 = Arith.index_cast bb w ~to_ty:(Types.Scalar Types.I32) in
            [ Arith.select bb better s iters.(0); Arith.select bb better w_i32 iters.(1) ])
      in
      match best with
      | [ best_v; best_w ] ->
        Memref_d.store bb best_v v_m [ j ];
        Memref_d.store bb (Arith.addi bb best_w base) i_m [ j ];
        (* knock out the selected window *)
        let w_idx = Arith.index_cast bb best_w ~to_ty:Types.Index in
        Memref_d.store bb min_int32 scores [ w_idx ]
      | _ -> assert false)

(* ----- lowering helpers ----- *)

let launch_attrs opts ~kernel extra =
  (("kernel", Attr.Str kernel) :: ("style", Attr.Str (style opts)) :: extra)

let tok_op (tok : Ir.value) =
  match tok.Ir.def with
  | Ir.Op_result (op, _) -> op
  | Ir.Block_arg _ -> invalid_arg "expected op result"

let launch b wg ~ins ~outs ~attrs body =
  let tok = Cnm_d.launch b wg ~ins ~outs body in
  List.iter (fun (key, v) -> Ir.set_attr (tok_op tok) key v) attrs;
  tok

(* Pad a tensor's leading dimension up to [target] rows. *)
let pad_rows b v ~target =
  let shape = shape_of v in
  let rows = shape.(0) in
  if rows = target then v
  else begin
    let high = Array.make (Array.length shape) 0 in
    high.(0) <- target - rows;
    Tensor_d.pad b v ~low:(Array.make (Array.length shape) 0) ~high
  end

(* The workgroup of a launch over [rows] rows at [per_lane] rows per lane
   (paper §3.2.3, Fig. 9: rows are tiled across the PUs). Every DPU runs
   all [opts.tasklets] tasklets on a full row slice, and the DPU count is
   the fewest that cover [rows], at most [opts.dpus]: a launch pads fewer
   than one DPU's worth of rows ([tasklets * per_lane]), and one that
   needs more than [opts.dpus] DPUs takes them all and the caller chunks.
   Returns the workgroup and its PU count. *)
let workgroup opts b ~rows ~per_lane =
  let dpus = max 1 (min opts.dpus (Cinm_support.Util.ceil_div rows (opts.tasklets * per_lane))) in
  (Cnm_d.workgroup b ~shape:[| dpus; opts.tasklets |] ~physical_dims:[ "dpu"; "thread" ], dpus * opts.tasklets)

(* GEMM lowering: returns the [M, N] result value. *)
let lower_gemm opts b a_val b_val =
  let dt = dtype_of a_val in
  let m, k_dim =
    match shape_of a_val with
    | [| m; k |] -> (m, k)
    | _ -> invalid_arg "lower_gemm: A must be rank 2"
  in
  let n = (shape_of b_val).(1) in
  let p = opts.dpus * opts.tasklets in
  let r = max 1 (min opts.max_rows_per_launch (Cinm_support.Util.ceil_div m p)) in
  let wg, lanes = workgroup opts b ~rows:m ~per_lane:r in
  let chunk_rows = lanes * r in
  let chunks = Cinm_support.Util.ceil_div m chunk_rows in
  let m_pad = chunks * chunk_rows in
  let a_pad = pad_rows b a_val ~target:m_pad in
  (* stationary operand: broadcast once, shared per DPU (level 1) *)
  let b_buf = Cnm_d.alloc b wg ~shape:[| k_dim; n |] ~dtype:dt ~level:1 in
  let tok_b = Cnm_d.scatter b b_val b_buf wg ~map:"broadcast" in
  let c_init = Builder.build1 b "tensor.empty" ~result_tys:[ Types.Tensor ([| m_pad; n |], dt) ] in
  let c0 = Arith.const_index b 0 in
  let c1 = Arith.const_index b 1 in
  let c_chunks = Arith.const_index b chunks in
  let c_chunk_rows = Arith.const_index b chunk_rows in
  let results =
    Scf_d.for_ b ~lb:c0 ~ub:c_chunks ~step:c1 ~init:[ c_init ] (fun bb ci iters ->
        let off = Arith.muli bb ci c_chunk_rows in
        let zero_i = Arith.const_index bb 0 in
        let a_tile =
          Tensor_d.extract_slice bb a_pad ~offsets:[| 0; 0 |] ~sizes:[| chunk_rows; k_dim |]
            ~dyn_offsets:[ off; zero_i ]
        in
        let a_buf = Cnm_d.alloc bb wg ~shape:[| r; k_dim |] ~dtype:dt ~level:0 in
        let tok_a = Cnm_d.scatter bb a_tile a_buf wg ~map:"block" in
        let c_buf = Cnm_d.alloc bb wg ~shape:[| r; n |] ~dtype:dt ~level:0 in
        let tok_l =
          launch bb wg ~ins:[ a_buf; b_buf ] ~outs:[ c_buf ]
            ~attrs:(launch_attrs opts ~kernel:"gemm" [])
            (gemm_body opts ~r ~k_dim ~n)
        in
        let c_tile, tok_g = Cnm_d.gather bb c_buf wg ~result_shape:[| chunk_rows; n |] in
        Cnm_d.wait bb [ tok_b; tok_a; tok_l; tok_g ];
        let acc =
          Tensor_d.insert_slice bb c_tile iters.(0) ~offsets:[| 0; 0 |]
            ~dyn_offsets:[ off; zero_i ]
        in
        [ acc ])
  in
  let c_pad = List.hd results in
  if m_pad = m then c_pad
  else Tensor_d.extract_slice b c_pad ~offsets:[| 0; 0 |] ~sizes:[| m; n |] ~dyn_offsets:[]

(* Elementwise lowering over flattened operands. *)
let lower_elementwise opts b ~opname a_val b_val =
  let dt = dtype_of a_val in
  let orig_shape = shape_of a_val in
  let n = Cinm_support.Util.product_of_shape orig_shape in
  let a_flat = Cinm_d.expand b a_val ~shape:[| n |] in
  let b_flat = Cinm_d.expand b b_val ~shape:[| n |] in
  let p = opts.dpus * opts.tasklets in
  let l = Cinm_support.Util.ceil_div n p in
  let wg, lanes = workgroup opts b ~rows:n ~per_lane:l in
  let n_pad = lanes * l in
  let a_pad = pad_rows b a_flat ~target:n_pad in
  let b_pad = pad_rows b b_flat ~target:n_pad in
  let a_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
  let b_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
  let c_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
  let t1 = Cnm_d.scatter b a_pad a_buf wg ~map:"block" in
  let t2 = Cnm_d.scatter b b_pad b_buf wg ~map:"block" in
  let tl =
    launch b wg ~ins:[ a_buf; b_buf ] ~outs:[ c_buf ]
      ~attrs:(launch_attrs opts ~kernel:"ew" [ ("op", Attr.Str opname) ])
      (ew_body ~opname ~l)
  in
  let c_pad, tg = Cnm_d.gather b c_buf wg ~result_shape:[| n_pad |] in
  Cnm_d.wait b [ t1; t2; tl; tg ];
  let c_flat =
    if n_pad = n then c_pad
    else Tensor_d.extract_slice b c_pad ~offsets:[| 0 |] ~sizes:[| n |] ~dyn_offsets:[]
  in
  Cinm_d.expand b c_flat ~shape:orig_shape

(* Fused elementwise chain lowering: one launch for the whole chain. *)
let lower_ew_expr opts b ~tokens inputs =
  let first = List.hd inputs in
  let dt = dtype_of first in
  let orig_shape = shape_of first in
  let n = Cinm_support.Util.product_of_shape orig_shape in
  let p = opts.dpus * opts.tasklets in
  let l = Cinm_support.Util.ceil_div n p in
  let wg, lanes = workgroup opts b ~rows:n ~per_lane:l in
  let n_pad = lanes * l in
  let n_inputs = List.length inputs in
  let in_bufs, in_toks =
    List.split
      (List.map
         (fun input ->
           let flat = Cinm_d.expand b input ~shape:[| n |] in
           let padded = pad_rows b flat ~target:n_pad in
           let buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
           (buf, Cnm_d.scatter b padded buf wg ~map:"block"))
         inputs)
  in
  let c_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
  let tl =
    launch b wg ~ins:in_bufs ~outs:[ c_buf ]
      ~attrs:(launch_attrs opts ~kernel:"ew_expr" [ ("expr", Attr.Strs tokens) ])
      (ew_expr_body ~tokens ~n_inputs ~l)
  in
  let c_pad, tg = Cnm_d.gather b c_buf wg ~result_shape:[| n_pad |] in
  Cnm_d.wait b (in_toks @ [ tl; tg ]);
  let c_flat =
    if n_pad = n then c_pad
    else Tensor_d.extract_slice b c_pad ~offsets:[| 0 |] ~sizes:[| n |] ~dyn_offsets:[]
  in
  Cinm_d.expand b c_flat ~shape:orig_shape

(* Reduce lowering: per-PU partials + host-side final cinm.reduce. Only
   applies when the PU count divides the element count (no padding, so any
   monoid is safe); otherwise the op stays on the host. *)
let lower_reduce opts b ~opname a_val =
  let dt = dtype_of a_val in
  let n = Cinm_support.Util.product_of_shape (shape_of a_val) in
  let p = opts.dpus * opts.tasklets in
  if n mod p <> 0 || n / p < 1 then None
  else begin
    let l = n / p in
    let a_flat = Cinm_d.expand b a_val ~shape:[| n |] in
    let wg, _ = workgroup opts b ~rows:n ~per_lane:l in
    let a_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
    let r_buf = Cnm_d.alloc b wg ~shape:[| 1 |] ~dtype:dt ~level:0 in
    let t1 = Cnm_d.scatter b a_flat a_buf wg ~map:"block" in
    let tl =
      launch b wg ~ins:[ a_buf ] ~outs:[ r_buf ]
        ~attrs:(launch_attrs opts ~kernel:"reduce" [ ("op", Attr.Str opname) ])
        (reduce_body ~opname ~l)
    in
    let partials, tg = Cnm_d.gather b r_buf wg ~result_shape:[| p |] in
    Cnm_d.wait b [ t1; tl; tg ];
    Some (Cinm_d.reduce b ~op:opname partials)
  end

(* Histogram lowering: per-PU private histograms merged on the host with
   cinm.merge_partial (paper §3.2.5). *)
let lower_histogram opts b ~bins a_val =
  let dt = dtype_of a_val in
  let n = Cinm_support.Util.product_of_shape (shape_of a_val) in
  let p = opts.dpus * opts.tasklets in
  if n mod p <> 0 then None
  else begin
    let l = n / p in
    let a_flat = Cinm_d.expand b a_val ~shape:[| n |] in
    let wg, _ = workgroup opts b ~rows:n ~per_lane:l in
    let a_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
    let h_buf = Cnm_d.alloc b wg ~shape:[| bins |] ~dtype:dt ~level:0 in
    let t1 = Cnm_d.scatter b a_flat a_buf wg ~map:"block" in
    let tl =
      launch b wg ~ins:[ a_buf ] ~outs:[ h_buf ]
        ~attrs:(launch_attrs opts ~kernel:"histogram" [ ("bins", Attr.Int bins) ])
        (histogram_body ~l)
    in
    let partials, tg = Cnm_d.gather b h_buf wg ~result_shape:[| p * bins |] in
    Cnm_d.wait b [ t1; tl; tg ];
    (* host merge: acc = merge_partial(acc, partial_p) *)
    let zero = Arith.constant b 0 in
    let acc0 = Builder.build1 b "tensor.splat" ~operands:[ zero ] ~result_tys:[ Types.Tensor ([| bins |], dt) ] in
    let c0 = Arith.const_index b 0 in
    let c1 = Arith.const_index b 1 in
    let cp = Arith.const_index b p in
    let c_bins = Arith.const_index b bins in
    let merged =
      Scf_d.for_ b ~lb:c0 ~ub:cp ~step:c1 ~init:[ acc0 ] (fun bb pi iters ->
          let off = Arith.muli bb pi c_bins in
          let part =
            Tensor_d.extract_slice bb partials ~offsets:[| 0 |] ~sizes:[| bins |]
              ~dyn_offsets:[ off ]
          in
          [ Cinm_d.merge_partial bb ~op:"add" iters.(0) part ])
    in
    Some (List.hd merged)
  end

(* Scan lowering: local scan per PU, host carry propagation, second launch
   to add the per-PU offsets. A fused scan ([pre] tokens from ew-fusion)
   evaluates its elementwise chain inside the first kernel. *)
let lower_scan opts b ~opname ?pre inputs =
  let a_val = List.hd inputs in
  let dt = dtype_of a_val in
  let n = Cinm_support.Util.product_of_shape (shape_of a_val) in
  let p = opts.dpus * opts.tasklets in
  if opname <> "add" || n mod p <> 0 then None
  else begin
    let l = n / p in
    let n_inputs = List.length inputs in
    let wg, _ = workgroup opts b ~rows:n ~per_lane:l in
    let in_bufs, in_toks =
      List.split
        (List.map
           (fun input ->
             let flat = Cinm_d.expand b input ~shape:[| n |] in
             let buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
             (buf, Cnm_d.scatter b flat buf wg ~map:"block"))
           inputs)
    in
    let s_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
    let t_buf = Cnm_d.alloc b wg ~shape:[| 1 |] ~dtype:dt ~level:0 in
    let pre_attrs =
      match pre with Some tokens -> [ ("pre_expr", Attr.Strs tokens) ] | None -> []
    in
    let tl1 =
      launch b wg ~ins:in_bufs ~outs:[ s_buf; t_buf ]
        ~attrs:(launch_attrs opts ~kernel:"scan_local" (("op", Attr.Str opname) :: pre_attrs))
        (scan_local_body ?pre ~n_inputs ~opname ~l)
    in
    let t1 = List.hd in_toks in
    let totals, tg1 = Cnm_d.gather b t_buf wg ~result_shape:[| p |] in
    Cnm_d.wait b (in_toks @ [ t1; tl1; tg1 ]);
    (* exclusive scan of totals on the host: offsets = inclusive - totals *)
    let inclusive = Cinm_d.scan b ~op:opname totals in
    let offsets = Cinm_d.sub b inclusive totals in
    let o_buf = Cnm_d.alloc b wg ~shape:[| 1 |] ~dtype:dt ~level:0 in
    let t2 = Cnm_d.scatter b offsets o_buf wg ~map:"block" in
    let f_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
    let tl2 =
      launch b wg ~ins:[ s_buf; o_buf ] ~outs:[ f_buf ]
        ~attrs:(launch_attrs opts ~kernel:"scan_add" [ ("op", Attr.Str opname) ])
        (scan_add_body ~opname ~l)
    in
    let final, tg2 = Cnm_d.gather b f_buf wg ~result_shape:[| n |] in
    Cnm_d.wait b [ t2; tl2; tg2 ];
    Some (Cinm_d.expand b final ~shape:(shape_of a_val))
  end

(* Host-side merge of per-PU top-k candidates: pick the global top-k of
   the P*k candidate values, then map positions through the gathered
   global-index tensor. *)
let merge_topk_candidates b ~k all_v all_i =
  let top_v, top_pos = Cinm_d.topk b all_v ~k in
  let final_idx0 =
    Builder.build1 b "tensor.empty" ~result_tys:[ Types.Tensor ([| k |], Types.I32) ]
  in
  let c0 = Arith.const_index b 0 in
  let c1 = Arith.const_index b 1 in
  let ck = Arith.const_index b k in
  let final_idx =
    Scf_d.for_ b ~lb:c0 ~ub:ck ~step:c1 ~init:[ final_idx0 ] (fun bb j iters ->
        let pos = Tensor_d.extract bb top_pos [ j ] in
        let pos_idx = Arith.index_cast bb pos ~to_ty:Types.Index in
        let global = Tensor_d.extract bb all_i [ pos_idx ] in
        [ Tensor_d.insert bb global iters.(0) [ j ] ])
  in
  (top_v, List.hd final_idx)

(* Per-PU base indices 0, l, 2l, ... as an i32 tensor. *)
let base_indices b ~p ~l =
  let idx = Builder.build1 b "tensor.empty" ~result_tys:[ Types.Tensor ([| p |], Types.I32) ] in
  let c0 = Arith.const_index b 0 in
  let c1 = Arith.const_index b 1 in
  let cp = Arith.const_index b p in
  let cl = Arith.constant b l in
  List.hd
    (Scf_d.for_ b ~lb:c0 ~ub:cp ~step:c1 ~init:[ idx ] (fun bb pi iters ->
         let pi32 = Arith.index_cast bb pi ~to_ty:(Types.Scalar Types.I32) in
         [ Tensor_d.insert bb (Arith.muli bb pi32 cl) iters.(0) [ pi ] ]))

(* topk lowering: per-PU local selection, host merge of P*k candidates. *)
let lower_topk opts b ~k a_val =
  let dt = dtype_of a_val in
  let n = Cinm_support.Util.product_of_shape (shape_of a_val) in
  let p = opts.dpus * opts.tasklets in
  if n mod p <> 0 || n / p < k then None
  else begin
    let l = n / p in
    let a_flat = Cinm_d.expand b a_val ~shape:[| n |] in
    let wg, _ = workgroup opts b ~rows:n ~per_lane:l in
    let a_buf = Cnm_d.alloc b wg ~shape:[| l |] ~dtype:dt ~level:0 in
    let base_buf = Cnm_d.alloc b wg ~shape:[| 1 |] ~dtype:Types.I32 ~level:0 in
    let v_buf = Cnm_d.alloc b wg ~shape:[| k |] ~dtype:dt ~level:0 in
    let i_buf = Cnm_d.alloc b wg ~shape:[| k |] ~dtype:Types.I32 ~level:0 in
    let t1 = Cnm_d.scatter b a_flat a_buf wg ~map:"block" in
    let t2 = Cnm_d.scatter b (base_indices b ~p ~l) base_buf wg ~map:"block" in
    let tl =
      launch b wg ~ins:[ a_buf; base_buf ] ~outs:[ v_buf; i_buf ]
        ~attrs:(launch_attrs opts ~kernel:"topk" [ ("k", Attr.Int k) ])
        (topk_body ~k ~l)
    in
    let all_v, tg1 = Cnm_d.gather b v_buf wg ~result_shape:[| p * k |] in
    let all_i, tg2 = Cnm_d.gather b i_buf wg ~result_shape:[| p * k |] in
    Cnm_d.wait b [ t1; t2; tl; tg1; tg2 ];
    Some (merge_topk_candidates b ~k all_v all_i)
  end

(* sim_search lowering: overlap-scatter the database so each PU scores its
   own windows; per-PU top-k in the kernel; host merges the P*k candidates. *)
let lower_simsearch opts b ~metric ~k db_val q_val =
  let dt = dtype_of db_val in
  let n = Cinm_support.Util.product_of_shape (shape_of db_val) in
  let m = Cinm_support.Util.product_of_shape (shape_of q_val) in
  let p = opts.dpus * opts.tasklets in
  let windows = n - m + 1 in
  if metric <> "dot" && metric <> "l2" then None
  else if windows mod p <> 0 || windows / p < k then None
  else begin
    let l = windows / p in
    let wg, _ = workgroup opts b ~rows:windows ~per_lane:l in
    let db_buf = Cnm_d.alloc b wg ~shape:[| l + m - 1 |] ~dtype:dt ~level:0 in
    let q_buf = Cnm_d.alloc b wg ~shape:[| m |] ~dtype:dt ~level:1 in
    let base_buf = Cnm_d.alloc b wg ~shape:[| 1 |] ~dtype:Types.I32 ~level:0 in
    let v_buf = Cnm_d.alloc b wg ~shape:[| k |] ~dtype:dt ~level:0 in
    let i_buf = Cnm_d.alloc b wg ~shape:[| k |] ~dtype:Types.I32 ~level:0 in
    let t1 = Cnm_d.scatter b db_val db_buf wg ~halo:(m - 1) ~map:"overlap" in
    let t2 = Cnm_d.scatter b q_val q_buf wg ~map:"broadcast" in
    let t3 = Cnm_d.scatter b (base_indices b ~p ~l) base_buf wg ~map:"block" in
    let tl =
      launch b wg
        ~ins:[ db_buf; q_buf; base_buf ]
        ~outs:[ v_buf; i_buf ]
        ~attrs:
          (launch_attrs opts ~kernel:"simsearch"
             [ ("metric", Attr.Str metric); ("k", Attr.Int k); ("m", Attr.Int m) ])
        (simsearch_body ~metric ~k ~m ~l)
    in
    let all_v, tg1 = Cnm_d.gather b v_buf wg ~result_shape:[| p * k |] in
    let all_i, tg2 = Cnm_d.gather b i_buf wg ~result_shape:[| p * k |] in
    Cnm_d.wait b [ t1; t2; t3; tl; tg1; tg2 ];
    Some (merge_topk_candidates b ~k all_v all_i)
  end

(* ----- the conversion pattern ----- *)

let pattern opts : Rewrite.pattern =
 fun ctx op ->
  if not (is_cnm_target op) then None
  else begin
    let b = ctx.Rewrite.b in
    let opd i = Rewrite.operand ctx op i in
    let base_name = String.sub op.Ir.name 5 (String.length op.Ir.name - 5) in
    match base_name with
    | "gemm" -> Some (Rewrite.Replace [ lower_gemm opts b (opd 0) (opd 1) ])
    | "gemv" ->
      let a = opd 0 and x = opd 1 in
      let k_dim = (shape_of x).(0) in
      let m = (shape_of a).(0) in
      let x_mat = Cinm_d.expand b x ~shape:[| k_dim; 1 |] in
      let res = lower_gemm opts b a x_mat in
      Some (Rewrite.Replace [ Cinm_d.expand b res ~shape:[| m |] ])
    | _ when List.mem base_name Cinm_d.elementwise_binary ->
      Some (Rewrite.Replace [ lower_elementwise opts b ~opname:base_name (opd 0) (opd 1) ])
    | "ew_expr" ->
      let tokens =
        match Ir.attr_exn op "expr" with
        | Attr.Strs l -> l
        | _ -> invalid_arg "cinm.ew_expr: bad expr attribute"
      in
      let inputs = List.init (Ir.num_operands op) opd in
      Some (Rewrite.Replace [ lower_ew_expr opts b ~tokens inputs ])
    | "reduce" -> (
      match lower_reduce opts b ~opname:(Ir.str_attr op "op") (opd 0) with
      | Some v -> Some (Rewrite.Replace [ v ])
      | None -> None)
    | "histogram" -> (
      match lower_histogram opts b ~bins:(Ir.int_attr op "bins") (opd 0) with
      | Some v -> Some (Rewrite.Replace [ v ])
      | None -> None)
    | "scan" -> (
      let pre =
        match Ir.attr op "pre_expr" with Some (Attr.Strs t) -> Some t | _ -> None
      in
      let inputs = List.init (Ir.num_operands op) opd in
      match lower_scan opts b ~opname:(Ir.str_attr op "op") ?pre inputs with
      | Some v -> Some (Rewrite.Replace [ v ])
      | None -> None)
    | "not" ->
      (* ~x = x xor -1: reuse the fused-elementwise machinery *)
      Some
        (Rewrite.Replace
           [ lower_ew_expr opts b ~tokens:[ "in0"; "const-1"; "xor" ] [ opd 0 ] ])
    | "topk" -> (
      match lower_topk opts b ~k:(Ir.int_attr op "k") (opd 0) with
      | Some (v, i) -> Some (Rewrite.Replace [ v; i ])
      | None -> None)
    | "sim_search" -> (
      match
        lower_simsearch opts b ~metric:(Ir.str_attr op "metric") ~k:(Ir.int_attr op "k")
          (opd 0) (opd 1)
      with
      | Some (v, i) -> Some (Rewrite.Replace [ v; i ])
      | None -> None)
    | _ -> None
  end

let pass ?(options = default_options) () =
  Pass.of_patterns ~name:"cinm-to-cnm" [ pattern options ]
