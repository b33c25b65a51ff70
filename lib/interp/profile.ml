(* Execution profile: dynamic operation counts accumulated by the
   interpreter. The timing models of the CPU and device simulators are
   functions of these counts, so "time" is always derived from work the
   generated code actually performed. *)

type t = {
  mutable alu_ops : int;  (** adds, subs, logic, compares, selects *)
  mutable mul_ops : int;
  mutable div_ops : int;
  mutable loads : int;  (** scalar element reads *)
  mutable stores : int;  (** scalar element writes *)
  mutable dma_bytes : int;  (** explicit DMA'd bytes (MRAM<->WRAM) *)
  mutable dma_transfers : int;
  mutable barriers : int;
  mutable launched_ops : int;  (** total ops dispatched (control overhead) *)
}

let create () =
  {
    alu_ops = 0;
    mul_ops = 0;
    div_ops = 0;
    loads = 0;
    stores = 0;
    dma_bytes = 0;
    dma_transfers = 0;
    barriers = 0;
    launched_ops = 0;
  }

let copy p = { p with alu_ops = p.alu_ops }

let add_scaled ~into p n =
  into.alu_ops <- into.alu_ops + (n * p.alu_ops);
  into.mul_ops <- into.mul_ops + (n * p.mul_ops);
  into.div_ops <- into.div_ops + (n * p.div_ops);
  into.loads <- into.loads + (n * p.loads);
  into.stores <- into.stores + (n * p.stores);
  into.dma_bytes <- into.dma_bytes + (n * p.dma_bytes);
  into.dma_transfers <- into.dma_transfers + (n * p.dma_transfers);
  into.barriers <- into.barriers + (n * p.barriers);
  into.launched_ops <- into.launched_ops + (n * p.launched_ops)

let add ~into p = add_scaled ~into p 1

let total_scalar_ops p = p.alu_ops + p.mul_ops + p.div_ops

(* Exact (field-wise) equality; all counters are ints, so this is the
   right notion for checking that parallel and sequential simulation of
   the same program performed identical work. *)
let equal a b =
  a.alu_ops = b.alu_ops && a.mul_ops = b.mul_ops && a.div_ops = b.div_ops
  && a.loads = b.loads && a.stores = b.stores && a.dma_bytes = b.dma_bytes
  && a.dma_transfers = b.dma_transfers && a.barriers = b.barriers
  && a.launched_ops = b.launched_ops

let to_string p =
  Printf.sprintf
    "alu=%d mul=%d div=%d loads=%d stores=%d dma=%dB/%d barriers=%d ops=%d" p.alu_ops
    p.mul_ops p.div_ops p.loads p.stores p.dma_bytes p.dma_transfers p.barriers
    p.launched_ops
