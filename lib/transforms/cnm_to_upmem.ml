(* cnm -> upmem device lowering (paper §3.2.5): maps workgroups to DPU
   grids and regenerates launch bodies as device-aware tasklet kernels
   with explicit MRAM<->WRAM staging.

   The launch's "kernel" descriptor attribute (set by cinm-to-cnm)
   selects a device kernel generator; the "style" attribute selects the
   paper's optimization level:
   - "naive" (cinm-nd): straightforward codegen — operand elements are
     DMA'd in small fixed blocks (or per element for irregular accesses),
     re-fetching shared operands as the loop nest demands, with no
     loop interchange;
   - "wram" (cinm-opt-nd): tiles are sized to the WRAM budget assigned to
     each tasklet and loops are interchanged so each staged block is fully
     reused before eviction (paper §4.1.2).
   Launches without a recognized descriptor fall back to a generic
   transformation: stage every buffer in WRAM, inline the original cnm
   body against the staged copies, and write back the outputs. *)

open Cinm_ir
open Cinm_dialects

type options = {
  dpus_per_dimm : int;
  wram_bytes : int;  (** per DPU *)
  naive_block : int;  (** elements per DMA block in naive style *)
}

let default_options = { dpus_per_dimm = 128; wram_bytes = 64 * 1024; naive_block = 64 }

let largest_divisor_leq n cap =
  let cap = max 1 (min n cap) in
  let rec search d = if n mod d = 0 then d else search (d - 1) in
  search cap

(* Per-tasklet WRAM budget in elements (INT32), leaving headroom for the
   stack and kernel locals. *)
let budget_elems opts ~tasklets =
  max 16 (opts.wram_bytes / 4 * 3 / 4 / max 1 tasklets)

(* ----- kernel generators (bodies of upmem.launch) ----- *)

(* Zero a WRAM row of [n] elements. *)
let zero_fill bb wram n =
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cn = Arith.const_index bb n in
  let dt = Option.get (Types.element_dtype wram.Ir.ty) in
  let zero = Cinm_to_cnm.const_zero bb dt in
  Scf_d.for0 bb ~lb:c0 ~ub:cn ~step:c1 (fun bb i -> Memref_d.store bb zero wram [ i ])

(* GEMM kernel: per-PU tile A[r,k] x B[k,n] -> C[r,n], all in MRAM. *)
let gemm_kernel opts ~style ~tasklets ~r ~k_dim ~n ~dt bb (args : Ir.value array) =
  let a_mram = args.(0) and b_mram = args.(1) and c_mram = args.(2) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let idx v = Arith.const_index bb v in
  if style = "wram" && n = 1 then begin
    (* gemv: stage the vector once, one dot product per row, results
       written back in a single coalesced DMA *)
    let wram_x = Upmem_d.wram_alloc bb [| k_dim |] dt in
    let wram_row = Upmem_d.wram_alloc bb [| k_dim |] dt in
    let wram_y = Upmem_d.wram_alloc bb [| r |] dt in
    let zero = Cinm_to_cnm.const_zero bb dt in
    Upmem_d.mram_read bb ~mram:b_mram ~wram:wram_x ~mram_off:c0 ~wram_off:c0 ~count:k_dim;
    Scf_d.for0 bb ~lb:c0 ~ub:(idx r) ~step:c1 (fun bb i ->
        let row_off = Arith.muli bb i (idx k_dim) in
        Upmem_d.mram_read bb ~mram:a_mram ~wram:wram_row ~mram_off:row_off ~wram_off:c0
          ~count:k_dim;
        let acc =
          Scf_d.for_ bb ~lb:c0 ~ub:(idx k_dim) ~step:c1 ~init:[ zero ] (fun bb k iters ->
              let a = Memref_d.load bb wram_row [ k ] in
              let xv = Memref_d.load bb wram_x [ k ] in
              [ Cinm_to_cnm.scalar_binop bb "add" iters.(0)
                  (Cinm_to_cnm.scalar_binop bb "mul" a xv) ])
        in
        Memref_d.store bb (List.hd acc) wram_y [ i ]);
    Upmem_d.mram_write bb ~wram:wram_y ~mram:c_mram ~mram_off:c0 ~wram_off:c0 ~count:r
  end
  else if style = "wram" then begin
    (* stage A fully (in row-blocks if needed), B in column blocks sized to
       the WRAM budget; loop order (jb, i, k, j) maximizes block reuse *)
    let budget = budget_elems opts ~tasklets in
    let nb = largest_divisor_leq n (max 1 ((budget - k_dim) / (k_dim + max 1 r))) in
    let rb = largest_divisor_leq r (max 1 ((budget - (k_dim * nb)) / (k_dim + nb))) in
    let wram_a = Upmem_d.wram_alloc bb [| rb; k_dim |] dt in
    let wram_b = Upmem_d.wram_alloc bb [| k_dim; nb |] dt in
    (* flat so zero_fill and the write-back can address it linearly *)
    let wram_c = Upmem_d.wram_alloc bb [| rb * nb |] dt in
    let n_jb = n / nb and n_ib = r / rb in
    Scf_d.for0 bb ~lb:c0 ~ub:(idx n_jb) ~step:c1 (fun bb jb ->
        (* stage B block: one coalesced DMA when the block spans full rows
           (n_jb = 1, e.g. gemv), else k row-transfers of nb elements *)
        let j_off = Arith.muli bb jb (idx nb) in
        if nb = n then
          Upmem_d.mram_read bb ~mram:b_mram ~wram:wram_b ~mram_off:c0 ~wram_off:c0
            ~count:(k_dim * nb)
        else
          Scf_d.for0 bb ~lb:c0 ~ub:(idx k_dim) ~step:c1 (fun bb k ->
              let src = Arith.addi bb (Arith.muli bb k (idx n)) j_off in
              let dst = Arith.muli bb k (idx nb) in
              Upmem_d.mram_read bb ~mram:b_mram ~wram:wram_b ~mram_off:src ~wram_off:dst
                ~count:nb);
        Scf_d.for0 bb ~lb:c0 ~ub:(idx n_ib) ~step:c1 (fun bb ib ->
            let i_off = Arith.muli bb ib (idx rb) in
            (* stage A row block *)
            let a_src = Arith.muli bb i_off (idx k_dim) in
            Upmem_d.mram_read bb ~mram:a_mram ~wram:wram_a ~mram_off:a_src ~wram_off:c0
              ~count:(rb * k_dim);
            zero_fill bb wram_c (rb * nb);
            Scf_d.for0 bb ~lb:c0 ~ub:(idx rb) ~step:c1 (fun bb i ->
                let c_row = Arith.muli bb i (idx nb) in
                Scf_d.for0 bb ~lb:c0 ~ub:(idx k_dim) ~step:c1 (fun bb k ->
                    let a = Memref_d.load bb wram_a [ i; k ] in
                    Scf_d.for0 bb ~lb:c0 ~ub:(idx nb) ~step:c1 (fun bb j ->
                        let bv = Memref_d.load bb wram_b [ k; j ] in
                        let cj = Arith.addi bb c_row j in
                        let acc = Memref_d.load bb wram_c [ cj ] in
                        Memref_d.store bb
                          (Cinm_to_cnm.scalar_binop bb "add" acc
                             (Cinm_to_cnm.scalar_binop bb "mul" a bv))
                          wram_c [ cj ])));
            (* write C block back, row by row (strided in MRAM) *)
            Scf_d.for0 bb ~lb:c0 ~ub:(idx rb) ~step:c1 (fun bb i ->
                let row = Arith.addi bb i_off i in
                let dst = Arith.addi bb (Arith.muli bb row (idx n)) j_off in
                let src = Arith.muli bb i (idx nb) in
                Upmem_d.mram_write bb ~wram:wram_c ~mram:c_mram ~mram_off:dst
                  ~wram_off:src ~count:nb)))
  end
  else begin
    (* naive (cinm-nd): A elements fetched one by one, B rows re-fetched
       per output row, and the result row written back element-wise — no
       DMA coalescing, the straightforward codegen the WRAM-aware variant
       improves on *)
    let wram_a1 = Upmem_d.wram_alloc bb [| 1 |] dt in
    let wram_b = Upmem_d.wram_alloc bb [| n |] dt in
    let wram_c = Upmem_d.wram_alloc bb [| n |] dt in
    Scf_d.for0 bb ~lb:c0 ~ub:(idx r) ~step:c1 (fun bb i ->
        zero_fill bb wram_c n;
        Scf_d.for0 bb ~lb:c0 ~ub:(idx k_dim) ~step:c1 (fun bb k ->
            let a_off = Arith.addi bb (Arith.muli bb i (idx k_dim)) k in
            Upmem_d.mram_read bb ~mram:a_mram ~wram:wram_a1 ~mram_off:a_off ~wram_off:c0
              ~count:1;
            let b_off = Arith.muli bb k (idx n) in
            Upmem_d.mram_read bb ~mram:b_mram ~wram:wram_b ~mram_off:b_off ~wram_off:c0
              ~count:n;
            let a = Memref_d.load bb wram_a1 [ c0 ] in
            Scf_d.for0 bb ~lb:c0 ~ub:(idx n) ~step:c1 (fun bb j ->
                let bv = Memref_d.load bb wram_b [ j ] in
                let acc = Memref_d.load bb wram_c [ j ] in
                Memref_d.store bb
                  (Cinm_to_cnm.scalar_binop bb "add" acc
                     (Cinm_to_cnm.scalar_binop bb "mul" a bv))
                  wram_c [ j ]));
        let c_off = Arith.muli bb i (idx n) in
        Upmem_d.mram_write bb ~wram:wram_c ~mram:c_mram ~mram_off:c_off ~wram_off:c0
          ~count:n)
  end

(* Streaming kernels (elementwise, reduce, scan, histogram) share a block
   loop: data is DMA'd in blocks of [bs] elements and processed in WRAM. *)
let block_size opts ~style ~tasklets l =
  if style = "wram" then largest_divisor_leq l (budget_elems opts ~tasklets / 4)
  else largest_divisor_leq l opts.naive_block

let foreach_block bb ~l ~bs f =
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let n_blocks = l / bs in
  Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb n_blocks) ~step:c1 (fun bb blk ->
      let off = Arith.muli bb blk (Arith.const_index bb bs) in
      f bb ~off)

let ew_kernel opts ~style ~tasklets ~opname ~l ~dt bb (args : Ir.value array) =
  let a_mram = args.(0) and b_mram = args.(1) and c_mram = args.(2) in
  let bs = block_size opts ~style ~tasklets l in
  let wram_a = Upmem_d.wram_alloc bb [| bs |] dt in
  let wram_b = Upmem_d.wram_alloc bb [| bs |] dt in
  let wram_c = Upmem_d.wram_alloc bb [| bs |] dt in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  foreach_block bb ~l ~bs (fun bb ~off ->
      Upmem_d.mram_read bb ~mram:a_mram ~wram:wram_a ~mram_off:off ~wram_off:c0 ~count:bs;
      Upmem_d.mram_read bb ~mram:b_mram ~wram:wram_b ~mram_off:off ~wram_off:c0 ~count:bs;
      Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb bs) ~step:c1 (fun bb i ->
          let a = Memref_d.load bb wram_a [ i ] in
          let bv = Memref_d.load bb wram_b [ i ] in
          Memref_d.store bb (Cinm_to_cnm.scalar_binop bb opname a bv) wram_c [ i ]);
      Upmem_d.mram_write bb ~wram:wram_c ~mram:c_mram ~mram_off:off ~wram_off:c0 ~count:bs)

let ew_expr_kernel opts ~style ~tasklets ~tokens ~n_inputs ~l ~dt bb
    (args : Ir.value array) =
  let bs = block_size opts ~style ~tasklets l in
  let wram_ins = Array.init n_inputs (fun _ -> Upmem_d.wram_alloc bb [| bs |] dt) in
  let wram_out = Upmem_d.wram_alloc bb [| bs |] dt in
  let out_mram = args.(n_inputs) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  foreach_block bb ~l ~bs (fun bb ~off ->
      Array.iteri
        (fun k wram ->
          Upmem_d.mram_read bb ~mram:args.(k) ~wram ~mram_off:off ~wram_off:c0 ~count:bs)
        wram_ins;
      Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb bs) ~step:c1 (fun bb i ->
          let v =
            Cinm_d.eval_rpn ~tokens
              ~input:(fun k -> Memref_d.load bb wram_ins.(k) [ i ])
              ~const:(fun c -> Cinm_to_cnm.const_of_int bb dt c)
              ~apply:(fun name a b2 -> Cinm_to_cnm.scalar_binop bb name a b2)
          in
          Memref_d.store bb v wram_out [ i ]);
      Upmem_d.mram_write bb ~wram:wram_out ~mram:out_mram ~mram_off:off ~wram_off:c0
        ~count:bs)

let reduce_kernel opts ~style ~tasklets ~opname ~l ~dt bb (args : Ir.value array) =
  let a_mram = args.(0) and r_mram = args.(1) in
  let bs = block_size opts ~style ~tasklets l in
  let wram_a = Upmem_d.wram_alloc bb [| bs |] dt in
  let wram_r = Upmem_d.wram_alloc bb [| 1 |] dt in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  (* first element seeds the accumulator so any monoid works *)
  Upmem_d.mram_read bb ~mram:a_mram ~wram:wram_r ~mram_off:c0 ~wram_off:c0 ~count:1;
  foreach_block bb ~l ~bs (fun bb ~off ->
      Upmem_d.mram_read bb ~mram:a_mram ~wram:wram_a ~mram_off:off ~wram_off:c0 ~count:bs;
      let is_first_block = Arith.cmpi bb Arith.Eq off c0 in
      let lb_val =
        (* skip element 0 of the very first block (already the seed) *)
        List.hd (Scf_d.if_ bb is_first_block
          ~then_:(fun _ -> [ c1 ])
          ~else_:(fun _ -> [ c0 ])
          ~result_tys:[ Types.Index ])
      in
      Scf_d.for0 bb ~lb:lb_val ~ub:(Arith.const_index bb bs) ~step:c1 (fun bb i ->
          let acc = Memref_d.load bb wram_r [ c0 ] in
          let v = Memref_d.load bb wram_a [ i ] in
          Memref_d.store bb (Cinm_to_cnm.scalar_binop bb opname acc v) wram_r [ c0 ]));
  Upmem_d.mram_write bb ~wram:wram_r ~mram:r_mram ~mram_off:c0 ~wram_off:c0 ~count:1

let histogram_kernel opts ~style ~tasklets ~bins ~l ~dt bb (args : Ir.value array) =
  let a_mram = args.(0) and h_mram = args.(1) in
  let bs = block_size opts ~style ~tasklets l in
  let wram_a = Upmem_d.wram_alloc bb [| bs |] dt in
  let wram_h = Upmem_d.wram_alloc bb [| bins |] dt in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let one = Arith.constant bb 1 in
  zero_fill bb wram_h bins;
  foreach_block bb ~l ~bs (fun bb ~off ->
      Upmem_d.mram_read bb ~mram:a_mram ~wram:wram_a ~mram_off:off ~wram_off:c0 ~count:bs;
      Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb bs) ~step:c1 (fun bb i ->
          let v = Memref_d.load bb wram_a [ i ] in
          let slot = Arith.index_cast bb v ~to_ty:Types.Index in
          let cur = Memref_d.load bb wram_h [ slot ] in
          Memref_d.store bb (Arith.addi bb cur one) wram_h [ slot ]));
  Upmem_d.mram_write bb ~wram:wram_h ~mram:h_mram ~mram_off:c0 ~wram_off:c0 ~count:bins

let scan_local_kernel opts ~style ~tasklets ~opname ?pre ?(n_inputs = 1) ~l ~dt bb
    (args : Ir.value array) =
  let s_mram = args.(n_inputs) and t_mram = args.(n_inputs + 1) in
  let bs = block_size opts ~style ~tasklets l in
  let wram_ins = Array.init n_inputs (fun _ -> Upmem_d.wram_alloc bb [| bs |] dt) in
  let wram_s = Upmem_d.wram_alloc bb [| bs |] dt in
  let wram_t = Upmem_d.wram_alloc bb [| 1 |] dt in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let zero = Cinm_to_cnm.const_zero bb dt in
  let elem bb i =
    match pre with
    | None -> Memref_d.load bb wram_ins.(0) [ i ]
    | Some tokens ->
      Cinm_d.eval_rpn ~tokens
        ~input:(fun k -> Memref_d.load bb wram_ins.(k) [ i ])
        ~const:(fun c -> Cinm_to_cnm.const_of_int bb dt c)
        ~apply:(fun name a b2 -> Cinm_to_cnm.scalar_binop bb name a b2)
  in
  Memref_d.store bb zero wram_t [ c0 ];
  foreach_block bb ~l ~bs (fun bb ~off ->
      Array.iteri
        (fun k wram ->
          Upmem_d.mram_read bb ~mram:args.(k) ~wram ~mram_off:off ~wram_off:c0 ~count:bs)
        wram_ins;
      Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb bs) ~step:c1 (fun bb i ->
          let carry = Memref_d.load bb wram_t [ c0 ] in
          let v = elem bb i in
          let acc = Cinm_to_cnm.scalar_binop bb opname carry v in
          Memref_d.store bb acc wram_s [ i ];
          Memref_d.store bb acc wram_t [ c0 ]);
      Upmem_d.mram_write bb ~wram:wram_s ~mram:s_mram ~mram_off:off ~wram_off:c0 ~count:bs);
  Upmem_d.mram_write bb ~wram:wram_t ~mram:t_mram ~mram_off:c0 ~wram_off:c0 ~count:1

let scan_add_kernel opts ~style ~tasklets ~opname ~l ~dt bb (args : Ir.value array) =
  let s_mram = args.(0) and o_mram = args.(1) and f_mram = args.(2) in
  let bs = block_size opts ~style ~tasklets l in
  let wram_s = Upmem_d.wram_alloc bb [| bs |] dt in
  let wram_o = Upmem_d.wram_alloc bb [| 1 |] dt in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  Upmem_d.mram_read bb ~mram:o_mram ~wram:wram_o ~mram_off:c0 ~wram_off:c0 ~count:1;
  let off_v = Memref_d.load bb wram_o [ c0 ] in
  foreach_block bb ~l ~bs (fun bb ~off ->
      Upmem_d.mram_read bb ~mram:s_mram ~wram:wram_s ~mram_off:off ~wram_off:c0 ~count:bs;
      Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb bs) ~step:c1 (fun bb i ->
          let v = Memref_d.load bb wram_s [ i ] in
          Memref_d.store bb (Cinm_to_cnm.scalar_binop bb opname v off_v) wram_s [ i ]);
      Upmem_d.mram_write bb ~wram:wram_s ~mram:f_mram ~mram_off:off ~wram_off:c0 ~count:bs)

(* Incremental top-k maintenance in WRAM, with host-identical tie
   semantics (value desc, global index asc): a candidate displaces the
   current worst entry (smallest value; among equals, largest index). *)
let topk_insert bb ~k ~wram_v ~wram_i s gw =
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let worst =
    Scf_d.for_ bb ~lb:c0 ~ub:(Arith.const_index bb k) ~step:c1
      ~init:
        [ Memref_d.load bb wram_v [ c0 ]; Memref_d.load bb wram_i [ c0 ];
          Arith.constant bb 0 ]
      (fun bb j iters ->
        let v = Memref_d.load bb wram_v [ j ] in
        let i = Memref_d.load bb wram_i [ j ] in
        let lt = Arith.cmpi bb Arith.Slt v iters.(0) in
        let eq = Arith.cmpi bb Arith.Eq v iters.(0) in
        let later = Arith.cmpi bb Arith.Sgt i iters.(1) in
        let worse = Arith.ori bb lt (Arith.andi bb eq later) in
        let j32 = Arith.index_cast bb j ~to_ty:(Types.Scalar Types.I32) in
        [
          Arith.select bb worse v iters.(0);
          Arith.select bb worse i iters.(1);
          Arith.select bb worse j32 iters.(2);
        ])
  in
  match worst with
  | [ wv; wi; wj ] ->
    let gt = Arith.cmpi bb Arith.Sgt s wv in
    let eq = Arith.cmpi bb Arith.Eq s wv in
    let earlier = Arith.cmpi bb Arith.Slt gw wi in
    let better = Arith.ori bb gt (Arith.andi bb eq earlier) in
    ignore
      (Scf_d.if_ bb better
         ~then_:(fun bb ->
           let slot = Arith.index_cast bb wj ~to_ty:Types.Index in
           Memref_d.store bb s wram_v [ slot ];
           Memref_d.store bb gw wram_i [ slot ];
           [])
         ~else_:(fun _ -> [])
         ~result_tys:[])
  | _ -> assert false

(* Guarded insert: a cheap threshold test against the cached minimum
   filters out the common case; the full (tie-exact) insertion and the
   min-cache refresh only run for genuine candidates. *)
let topk_insert_guarded bb ~k ~wram_v ~wram_i ~wram_min s gw =
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let cur_min = Memref_d.load bb wram_min [ c0 ] in
  let maybe = Arith.cmpi bb Arith.Sge s cur_min in
  ignore
    (Scf_d.if_ bb maybe
       ~then_:(fun bb ->
         topk_insert bb ~k ~wram_v ~wram_i s gw;
         let fresh_min =
           Scf_d.for_ bb ~lb:c0 ~ub:(Arith.const_index bb k) ~step:c1
             ~init:[ Memref_d.load bb wram_v [ c0 ] ]
             (fun bb j iters ->
               [ Arith.minsi bb iters.(0) (Memref_d.load bb wram_v [ j ]) ])
         in
         Memref_d.store bb (List.hd fresh_min) wram_min [ c0 ];
         [])
       ~else_:(fun _ -> [])
       ~result_tys:[])

(* Selection-sort the k entries by (value desc, index asc), matching the
   host cinm.topk ordering. *)
let topk_sort bb ~k ~wram_v ~wram_i =
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb k) ~step:c1 (fun bb a ->
      let best =
        Scf_d.for_ bb ~lb:a ~ub:(Arith.const_index bb k) ~step:c1
          ~init:
            [ Memref_d.load bb wram_v [ a ]; Memref_d.load bb wram_i [ a ];
              Arith.index_cast bb a ~to_ty:(Types.Scalar Types.I32) ]
          (fun bb j iters ->
            let v = Memref_d.load bb wram_v [ j ] in
            let i = Memref_d.load bb wram_i [ j ] in
            let gt = Arith.cmpi bb Arith.Sgt v iters.(0) in
            let eq = Arith.cmpi bb Arith.Eq v iters.(0) in
            let earlier = Arith.cmpi bb Arith.Slt i iters.(1) in
            let better = Arith.ori bb gt (Arith.andi bb eq earlier) in
            let j32 = Arith.index_cast bb j ~to_ty:(Types.Scalar Types.I32) in
            [
              Arith.select bb better v iters.(0);
              Arith.select bb better i iters.(1);
              Arith.select bb better j32 iters.(2);
            ])
      in
      match best with
      | [ bv; bi; bj ] ->
        let slot = Arith.index_cast bb bj ~to_ty:Types.Index in
        (* swap entry [a] with the best of the tail *)
        let av = Memref_d.load bb wram_v [ a ] in
        let ai = Memref_d.load bb wram_i [ a ] in
        Memref_d.store bb bv wram_v [ a ];
        Memref_d.store bb bi wram_i [ a ];
        Memref_d.store bb av wram_v [ slot ];
        Memref_d.store bb ai wram_i [ slot ];
        ()
      | _ -> assert false)

let simsearch_kernel opts ~style:_ ~tasklets ~metric ~k ~m ~l ~dt bb (args : Ir.value array) =
  let db_mram = args.(0) and q_mram = args.(1) and base_mram = args.(2) in
  let v_mram = args.(3) and i_mram = args.(4) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let zero = Arith.constant bb 0 in
  let min_int32 = Arith.constant bb (-0x80000000) in
  (* window blocks sized to the per-tasklet WRAM budget *)
  let budget = budget_elems opts ~tasklets in
  let bs = largest_divisor_leq l (max 1 ((budget - (2 * m) - (2 * k)) / 2)) in
  let wram_db = Upmem_d.wram_alloc bb [| bs + m - 1 |] dt in
  let wram_q = Upmem_d.wram_alloc bb [| m |] dt in
  let wram_base = Upmem_d.wram_alloc bb [| 1 |] Types.I32 in
  let wram_v = Upmem_d.wram_alloc bb [| k |] dt in
  let wram_i = Upmem_d.wram_alloc bb [| k |] Types.I32 in
  let wram_min = Upmem_d.wram_alloc bb [| 1 |] dt in
  Memref_d.store bb min_int32 wram_min [ c0 ];
  Upmem_d.mram_read bb ~mram:q_mram ~wram:wram_q ~mram_off:c0 ~wram_off:c0 ~count:m;
  Upmem_d.mram_read bb ~mram:base_mram ~wram:wram_base ~mram_off:c0 ~wram_off:c0 ~count:1;
  Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb k) ~step:c1 (fun bb j ->
      Memref_d.store bb min_int32 wram_v [ j ];
      Memref_d.store bb zero wram_i [ j ]);
  let base = Memref_d.load bb wram_base [ c0 ] in
  foreach_block bb ~l ~bs (fun bb ~off ->
      Upmem_d.mram_read bb ~mram:db_mram ~wram:wram_db ~mram_off:off ~wram_off:c0
        ~count:(bs + m - 1);
      Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb bs) ~step:c1 (fun bb w ->
          let score =
            Scf_d.for_ bb ~lb:c0 ~ub:(Arith.const_index bb m) ~step:c1 ~init:[ zero ]
              (fun bb j iters ->
                let d = Memref_d.load bb wram_db [ Arith.addi bb w j ] in
                let q = Memref_d.load bb wram_q [ j ] in
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
          let off32 = Arith.index_cast bb off ~to_ty:(Types.Scalar Types.I32) in
          let w32 = Arith.index_cast bb w ~to_ty:(Types.Scalar Types.I32) in
          let gw = Arith.addi bb base (Arith.addi bb off32 w32) in
          topk_insert_guarded bb ~k ~wram_v ~wram_i ~wram_min (List.hd score) gw));
  topk_sort bb ~k ~wram_v ~wram_i;
  Upmem_d.mram_write bb ~wram:wram_v ~mram:v_mram ~mram_off:c0 ~wram_off:c0 ~count:k;
  Upmem_d.mram_write bb ~wram:wram_i ~mram:i_mram ~mram_off:c0 ~wram_off:c0 ~count:k

(* Top-k kernel: blocked streaming of the PU's chunk with incremental
   top-k maintenance (host-identical ordering after the final sort). *)
let topk_kernel opts ~style ~tasklets ~k ~l ~dt bb (args : Ir.value array) =
  let a_mram = args.(0) and base_mram = args.(1) in
  let v_mram = args.(2) and i_mram = args.(3) in
  let c0 = Arith.const_index bb 0 in
  let c1 = Arith.const_index bb 1 in
  let zero = Arith.constant bb 0 in
  let min_int32 = Arith.constant bb (-0x80000000) in
  let bs = block_size opts ~style ~tasklets l in
  let wram_a = Upmem_d.wram_alloc bb [| bs |] dt in
  let wram_base = Upmem_d.wram_alloc bb [| 1 |] Types.I32 in
  let wram_v = Upmem_d.wram_alloc bb [| k |] dt in
  let wram_i = Upmem_d.wram_alloc bb [| k |] Types.I32 in
  let wram_min = Upmem_d.wram_alloc bb [| 1 |] dt in
  Memref_d.store bb min_int32 wram_min [ c0 ];
  Upmem_d.mram_read bb ~mram:base_mram ~wram:wram_base ~mram_off:c0 ~wram_off:c0 ~count:1;
  Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb k) ~step:c1 (fun bb j ->
      Memref_d.store bb min_int32 wram_v [ j ];
      Memref_d.store bb zero wram_i [ j ]);
  let base = Memref_d.load bb wram_base [ c0 ] in
  foreach_block bb ~l ~bs (fun bb ~off ->
      Upmem_d.mram_read bb ~mram:a_mram ~wram:wram_a ~mram_off:off ~wram_off:c0 ~count:bs;
      Scf_d.for0 bb ~lb:c0 ~ub:(Arith.const_index bb bs) ~step:c1 (fun bb w ->
          let v = Memref_d.load bb wram_a [ w ] in
          let off32 = Arith.index_cast bb off ~to_ty:(Types.Scalar Types.I32) in
          let w32 = Arith.index_cast bb w ~to_ty:(Types.Scalar Types.I32) in
          let gw = Arith.addi bb base (Arith.addi bb off32 w32) in
          topk_insert_guarded bb ~k ~wram_v ~wram_i ~wram_min v gw));
  topk_sort bb ~k ~wram_v ~wram_i;
  Upmem_d.mram_write bb ~wram:wram_v ~mram:v_mram ~mram_off:c0 ~wram_off:c0 ~count:k;
  Upmem_d.mram_write bb ~wram:wram_i ~mram:i_mram ~mram_off:c0 ~wram_off:c0 ~count:k

(* Fallback: stage every buffer whole, inline the original cnm body on the
   staged copies, write the outputs back. *)
let generic_kernel ~orig_region ~n_inputs ~buf_shapes ~dts bb (args : Ir.value array) =
  let c0 = Arith.const_index bb 0 in
  let staged =
    Array.mapi
      (fun i mram ->
        let shape = buf_shapes.(i) in
        let n = Cinm_support.Util.product_of_shape shape in
        let wram = Upmem_d.wram_alloc bb shape dts.(i) in
        if i < n_inputs then
          Upmem_d.mram_read bb ~mram ~wram ~mram_off:c0 ~wram_off:c0 ~count:n;
        wram)
      args
  in
  ignore (Transform_util.inline_body bb orig_region (Array.to_list staged));
  Array.iteri
    (fun i mram ->
      if i >= n_inputs then begin
        let n = Cinm_support.Util.product_of_shape buf_shapes.(i) in
        Upmem_d.mram_write bb ~wram:staged.(i) ~mram ~mram_off:c0 ~wram_off:c0 ~count:n
      end)
    args

(* ----- the conversion patterns ----- *)

(* Static WRAM budget check: the kernel generators' allocations are all
   compile-time, so overcommitting the 64 kB scratchpad is a compile
   error, not a runtime surprise. Shared buffers count once per DPU;
   private ones once per tasklet. *)
let check_wram_budget opts ~tasklets (launch_tok : Ir.value) =
  match launch_tok.Ir.def with
  | Ir.Op_result (launch_op, _) ->
    let private_bytes = ref 0 and shared_bytes = ref 0 in
    Ir.walk_region
      (fun o ->
        match (o.Ir.name, (o.Ir.results.(0)).Ir.ty) with
        | "upmem.wram_alloc", ty -> private_bytes := !private_bytes + Types.size_in_bytes ty
        | "upmem.wram_shared_alloc", ty ->
          shared_bytes := !shared_bytes + Types.size_in_bytes ty
        | _ -> ()
        | exception Invalid_argument _ -> ())
      (Ir.region launch_op 0);
    let total = (!private_bytes * tasklets) + !shared_bytes in
    if total > opts.wram_bytes then
      invalid_arg
        (Printf.sprintf
           "cnm-to-upmem: kernel needs %d B of WRAM (%d B/tasklet x %d + %d B shared)             but the DPU has %d B"
           total !private_bytes tasklets !shared_bytes opts.wram_bytes)
  | Ir.Block_arg _ -> ()

let buffer_info (v : Ir.value) =
  match v.Ir.ty with
  | Types.Buffer { shape; dtype; level } -> (shape, dtype, level)
  | ty -> invalid_arg ("cnm-to-upmem: expected buffer, got " ^ Types.to_string ty)

let pattern opts : Rewrite.pattern =
 fun ctx op ->
  let b = ctx.Rewrite.b in
  match op.Ir.name with
  | "cnm.workgroup" -> (
    match (Ir.result op 0).Ir.ty with
    | Types.Workgroup [| dpus; tasklets |] ->
      let dimms = Cinm_support.Util.ceil_div dpus opts.dpus_per_dimm in
      Some (Rewrite.Replace [ Upmem_d.alloc_dpus b ~dimms ~dpus ~tasklets ])
    | _ -> None)
  | "cnm.alloc" ->
    let wg = Rewrite.operand ctx op 0 in
    let shape, dtype, level = buffer_info (Ir.result op 0) in
    Some (Rewrite.Replace [ Upmem_d.alloc b wg ~shape ~dtype ~level ])
  | "cnm.scatter" ->
    let tensor = Rewrite.operand ctx op 0 in
    let buf = Rewrite.operand ctx op 1 in
    let wg = Rewrite.operand ctx op 2 in
    let halo = match Ir.attr op "halo" with Some (Attr.Int h) -> Some h | _ -> None in
    Some (Rewrite.Replace [ Upmem_d.scatter b ?halo tensor buf wg ~map:(Ir.str_attr op "map") ])
  | "cnm.gather" ->
    let buf = Rewrite.operand ctx op 0 in
    let wg = Rewrite.operand ctx op 1 in
    let result_shape = Option.get (Types.shape_of (Ir.result op 0).Ir.ty) in
    let t, tok = Upmem_d.gather b buf wg ~result_shape in
    Some (Rewrite.Replace [ t; tok ])
  | "cnm.launch" ->
    let wg = Rewrite.operand ctx op 0 in
    let tasklets =
      match wg.Ir.ty with
      | Types.Workgroup [| _; t |] -> t
      | _ -> invalid_arg "cnm-to-upmem: launch workgroup must be 2D"
    in
    let n_inputs = Ir.int_attr op "n_inputs" in
    let n_buffers = Ir.num_operands op - 1 in
    let buffers = List.init n_buffers (fun i -> Rewrite.operand ctx op (i + 1)) in
    let orig_buffers = List.init n_buffers (fun i -> Ir.operand op (i + 1)) in
    let ins = Cinm_support.Util.list_take n_inputs buffers in
    let outs = List.filteri (fun i _ -> i >= n_inputs) buffers in
    let style =
      match Ir.attr op "style" with Some (Attr.Str s) -> s | _ -> "naive"
    in
    let kernel =
      match Ir.attr op "kernel" with Some (Attr.Str k) -> k | _ -> "generic"
    in
    let shapes = List.map (fun v -> let s, _, _ = buffer_info v in s) orig_buffers in
    let dts = List.map (fun v -> let _, d, _ = buffer_info v in d) orig_buffers in
    let dt = List.hd dts in
    let body =
      match kernel with
      | "gemm" -> (
        match shapes with
        | [ [| r; k_dim |]; [| _; n |]; _ ] ->
          gemm_kernel opts ~style ~tasklets ~r ~k_dim ~n ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad gemm buffers")
      | "ew" -> (
        match shapes with
        | [| l |] :: _ ->
          ew_kernel opts ~style ~tasklets ~opname:(Ir.str_attr op "op") ~l ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad ew buffers")
      | "ew_expr" -> (
        let tokens =
          match Ir.attr_exn op "expr" with
          | Attr.Strs l -> l
          | _ -> invalid_arg "cnm-to-upmem: bad ew_expr attribute"
        in
        match shapes with
        | [| l |] :: _ ->
          ew_expr_kernel opts ~style ~tasklets ~tokens ~n_inputs ~l ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad ew_expr buffers")
      | "reduce" -> (
        match shapes with
        | [| l |] :: _ ->
          reduce_kernel opts ~style ~tasklets ~opname:(Ir.str_attr op "op") ~l ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad reduce buffers")
      | "histogram" -> (
        match shapes with
        | [ [| l |]; [| bins |] ] -> histogram_kernel opts ~style ~tasklets ~bins ~l ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad histogram buffers")
      | "scan_local" -> (
        let pre =
          match Ir.attr op "pre_expr" with Some (Attr.Strs t) -> Some t | _ -> None
        in
        match shapes with
        | [| l |] :: _ ->
          scan_local_kernel opts ~style ~tasklets ~opname:(Ir.str_attr op "op") ?pre
            ~n_inputs ~l ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad scan buffers")
      | "scan_add" -> (
        match shapes with
        | [| l |] :: _ ->
          scan_add_kernel opts ~style ~tasklets ~opname:(Ir.str_attr op "op") ~l ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad scan buffers")
      | "topk" -> (
        let k = Ir.int_attr op "k" in
        match shapes with
        | [| l |] :: _ -> topk_kernel opts ~style ~tasklets ~k ~l ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad topk buffers")
      | "simsearch" -> (
        let k = Ir.int_attr op "k" and m = Ir.int_attr op "m" in
        match shapes with
        | [| lm |] :: _ ->
          simsearch_kernel opts ~style ~tasklets ~metric:(Ir.str_attr op "metric") ~k ~m
            ~l:(lm - m + 1) ~dt
        | _ -> invalid_arg "cnm-to-upmem: bad simsearch buffers")
      | _ ->
        generic_kernel ~orig_region:(Ir.region op 0) ~n_inputs
          ~buf_shapes:(Array.of_list shapes) ~dts:(Array.of_list dts)
    in
    let tok = Upmem_d.launch b wg ~tasklets ~ins ~outs body in
    check_wram_budget opts ~tasklets tok;
    (* preserve descriptor attrs for inspection *)
    List.iter
      (fun (key, v) -> if key <> "n_inputs" && key <> "tasklets" then
          match tok.Ir.def with
          | Ir.Op_result (launch_op, _) -> Ir.set_attr launch_op key v
          | _ -> ())
      op.Ir.attrs;
    Some (Rewrite.Replace [ tok ])
  | _ -> None

let pass ?(options = default_options) () =
  Pass.of_patterns ~name:"cnm-to-upmem" [ pattern options ]
